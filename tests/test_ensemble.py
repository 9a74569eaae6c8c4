import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evofuzzy.ensemble as ensemble_module
import evofuzzy.rules as rules_module
from evofuzzy.core import MAX_FEATURES, DataChunk, DataError, Sample, StreamConfig, chunks
from evofuzzy.datagen import HyperplaneConfig, SeaConfig, gen_hyperplane, gen_sea
from evofuzzy.ensemble import (
    DriftDetector,
    EmptyEnsembleError,
    Ensemble,
    MciState,
    compression_index,
)
from evofuzzy.evaluate import EvalProtocol, run_holdout
from evofuzzy.rules import GrowDecision, RdeState, RuleClassifier, classes
from evofuzzy.selection import ActiveLearnState, Selectors, conflict_input, conflict_output


def constant_member(ens, scores):
    """Append a member whose model always outputs the given scores."""
    m = ens._new_member()
    u, o = ens.cfg.n_features, ens.cfg.n_classes
    w = np.zeros((u + 1, o))
    w[0] = scores
    m.model.rules.append(
        centers=np.zeros(u),
        inv=np.ones(u) if m.model.rules.diagonal else np.eye(u),
        weights=w,
        rls_cov=np.eye(u + 1),
        class_support=np.eye(o, dtype=np.int64)[0],
        activity=0.0,
        peak_potential=0.0,
        age=0,
    )
    return m


def vote(ens, z):
    """Ensemble.predict with the distance pass made here."""
    return ens.predict(z, {m: m.model.mahalanobis_sq(z) for m in ens.members})


def base_cfg(**kw):
    kw.setdefault("n_features", 2)
    kw.setdefault("n_classes", 2)
    kw.setdefault("chunk_size", 50)
    return StreamConfig(**kw)


class TestPredict:
    def test_single_member_prediction_independent_of_beta(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [0.2, 0.9])
        ens.members[0].beta = 0.123
        _, cls, _ = vote(ens, np.zeros(2))
        assert cls == 2

    def test_heavy_member_dominates(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [0.0, 1.0])
        ens.members[0].beta, ens.members[1].beta = 0.9, 0.1
        sigma, cls, _ = vote(ens, np.zeros(2))
        assert cls == 1
        assert np.allclose(sigma, [0.9, 0.1])

    def test_three_members_weighted_sum_oracle(self):
        ens = Ensemble(base_cfg())
        scores = [np.array([0.7, 0.1]), np.array([0.2, 0.5]), np.array([0.1, 0.9])]
        betas = [0.5, 0.3, 0.2]
        for s in scores:
            constant_member(ens, s)
        for m, b in zip(ens.members, betas):
            m.beta = b
        sigma, cls, per = vote(ens, np.zeros(2))
        expected = sum(b * s for b, s in zip(betas, scores))
        assert np.allclose(sigma, expected, rtol=1e-12)
        assert cls == int(np.argmax(expected)) + 1
        assert len(per) == 3

    def test_argmax_invariant_to_beta_scaling(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [0.7, 0.1])
        constant_member(ens, [0.2, 0.5])
        ens.members[0].beta, ens.members[1].beta = 0.6, 0.4
        _, cls, _ = vote(ens, np.zeros(2))
        ens.members[0].beta, ens.members[1].beta = 6.0, 4.0
        _, cls2, _ = vote(ens, np.zeros(2))
        assert cls == cls2

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((3, 2))], ids=["vector", "block"])
    def test_ensemble_without_members_raises(self, x):
        with pytest.raises(EmptyEnsembleError, match="ensemble has no members"):
            Ensemble(base_cfg()).score_sample(x)


class TestRewardPenalize:
    def test_wrong_and_right_members(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [0.0, 1.0])
        ens.members[0].beta = ens.members[1].beta = 1.0
        ens.reward_penalize([1, 2], true_label=2)
        betas = [m.beta for m in ens.members]
        assert betas == pytest.approx([1 / 3, 2 / 3])

    def test_all_correct_keeps_normalized_weights(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [1.0, 0.0])
        ens.members[0].beta = ens.members[1].beta = 0.5
        ens.reward_penalize([1, 1], true_label=1)
        assert [m.beta for m in ens.members] == pytest.approx([0.5, 0.5])

    def test_all_wrong_keeps_normalized_weights(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [1.0, 0.0])
        ens.members[0].beta = ens.members[1].beta = 0.5
        ens.reward_penalize([1, 1], true_label=2)
        assert [m.beta for m in ens.members] == pytest.approx([0.5, 0.5])

    def test_betas_always_normalized(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [0.0, 1.0])
        constant_member(ens, [0.5, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(50):
            ens.reward_penalize([1, 2, 1], int(rng.integers(1, 3)))
            assert sum(m.beta for m in ens.members) == pytest.approx(1.0, abs=1e-12)


def voter_record(ens):
    return MciState(ens.voters(), ens.cfg.n_classes)


class TestSelectWinner:
    def test_single_member(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        assert ens.select_winner(voter_record(ens)) == 0

    def test_argmin_mse(self):
        ens = Ensemble(base_cfg())
        for _ in range(3):
            constant_member(ens, [1.0, 0.0])
        stats = voter_record(ens)
        stats.count = 10
        stats.sq_err[:] = [mse * 10 for mse in (0.3, 0.1, 0.2)]
        assert ens.select_winner(stats) == 1

    def test_tie_goes_to_lowest_index(self):
        ens = Ensemble(base_cfg())
        for _ in range(2):
            constant_member(ens, [1.0, 0.0])
        stats = voter_record(ens)
        stats.count = 5
        stats.sq_err[:] = 1.0
        assert ens.select_winner(stats) == 0

    def test_no_observations_returns_first(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [0.0, 1.0])
        assert ens.select_winner(voter_record(ens)) == 0


class TestDriftDetector:
    def test_constant_streams_stay_stable(self):
        for value in (0.0, 1.0):
            det = DriftDetector(max_window=1000)
            for _ in range(10_000):
                assert det.step(value) == "stable"

    def test_step_change_detected(self):
        det = DriftDetector(max_window=1000)
        rng = np.random.default_rng(0)
        seen_drift = False
        for i in range(1000):
            p = 0.1 if i < 500 else 0.6
            if det.step(float(rng.random() < p)) == "drift":
                seen_drift = True
                break
        assert seen_drift

    def test_step_change_detected_across_seeds(self):
        detected = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            det = DriftDetector(max_window=1000)
            for i in range(1000):
                p = 0.1 if i < 500 else 0.6
                if det.step(float(rng.random() < p)) == "drift":
                    detected += 1
                    break
        assert detected >= 19

    def test_low_false_alarm_rate(self):
        alarms = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            det = DriftDetector(max_window=1000)
            if any(
                det.step(float(rng.random() < 0.2)) == "drift" for _ in range(10_000)
            ):
                alarms += 1
        assert alarms <= 1

    def test_warning_precedes_drift_on_gentle_change(self):
        rng = np.random.default_rng(3)
        det = DriftDetector(max_window=2000)
        states = []
        for i in range(2000):
            p = 0.1 if i < 1000 else 0.25
            states.append(det.step(float(rng.random() < p)))
        assert "warning" in states

    def test_drift_clears_window(self):
        det = DriftDetector(max_window=1000)
        for i in range(600):
            phase = det.step(0.0 if i < 500 else 1.0)
            if phase == "drift":
                break
        assert phase == "drift"
        assert len(det) == 0
        assert det.cut is None

    def test_window_is_bounded(self):
        det = DriftDetector(max_window=128)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            det.step(float(rng.random() < 0.2))
            assert len(det) <= 128

    def test_rejects_out_of_range_statistic(self):
        det = DriftDetector()
        for err in (1.5, -1.0, 0.5, float("nan")):  # 0.5 would truncate in a count
            with pytest.raises(ValueError, match="error must be 0 or 1"):
                det.step(err)
        assert len(det) == 0

    def test_snapshot_roundtrip(self):
        det = DriftDetector(max_window=64)
        rng = np.random.default_rng(5)
        for _ in range(50):
            det.step(float(rng.random() < 0.3))
        clone = DriftDetector.from_snapshot(det.snapshot())
        for e in (0.0, 1.0, 1.0, 0.0):
            assert det.step(e) == clone.step(e)

    @pytest.mark.parametrize("override, match", [
        ({"window": [0.0] * 5}, "at most 4 errors"),
        ({"window": [[0.0, 1.0]]}, r"'detector' has window of shape \(1, 2\), expected \(1,\)"),
        ({"window": [0.0, 7.5]}, "must each be 0 or 1"),
        ({"window": [0.0, -0.5]}, "must each be 0 or 1"),
        ({"window": [1.0, float("nan")]}, r"'detector' has window with a value outside"),
        ({"window": [0.5, 0.5]}, "must each be 0 or 1"),
        ({"cut": 7}, r"cut must be None or in 1\.\.2, got 7"),
        ({"cut": 0}, r"cut must be None or in 1\.\.2, got 0"),
        ({"window": [0.0], "cut": 1}, r"cut must be None or in 1\.\.0, got 1"),
        ({"streak": 3}, r"'detector' has streak 3 outside \[0, 2\]"),
        ({"streak": -1}, r"'detector' has streak -1 outside \[0, 2\]"),
        ({"state": "stable"}, "'detector' has unknown keys: state"),
    ], ids=["too_long", "nested", "above_one", "negative", "nan", "half", "cut_past_window",
            "cut_zero", "cut_on_one_error", "streak_at_confirm", "streak_negative", "old_state"])
    def test_snapshot_window_is_checked(self, override, match):
        det = DriftDetector(max_window=4)
        for e in (0.0, 1.0, 0.0):
            det.step(e)
        with pytest.raises(DataError, match=match):
            DriftDetector.from_snapshot(dict(det.snapshot(), **override))


class WindowOracle:
    """The detector as a shifted float window with a cumsum search per
    step, O(W) per step: what DriftDetector computes, written plainly."""

    def __init__(self, alpha_warn=0.005, alpha_drift=0.001, max_window=1000):
        self.max_window = max_window
        self._ln_w = math.log(1.0 / alpha_warn)
        self._ln_d = math.log(1.0 / alpha_drift)
        self.window = np.zeros(0)
        self.cut = None
        self.streak = 0

    def step(self, e: float) -> str:
        if len(self.window) == self.max_window:
            self.window = self.window[1:]
            if self.cut is not None:
                self.cut -= 1
                if self.cut < 1:
                    self.cut = None
        self.window = np.append(self.window, e)
        w, n = self.window, len(self.window)
        if n < 2:
            return "stable"
        total = float(w.sum())
        xbar = total / n
        eps_x = math.sqrt(self._ln_d / (2.0 * n))
        c = self.cut
        if c is not None and not w[:c].mean() + math.sqrt(self._ln_d / (2.0 * c)) <= xbar + eps_x:
            self.cut = None
            self.streak = 0
        if self.cut is None:
            counts = np.arange(1, n)
            ok = np.cumsum(w[:-1]) / counts + np.sqrt(self._ln_d / (2.0 * counts)) <= xbar + eps_x
            first = int(np.argmax(ok))
            self.cut = first + 1 if ok[first] else None
            self.streak = 0
        if self.cut is None:
            return "stable"
        c, m = self.cut, n - self.cut
        prefix = float(w[:c].sum())
        diff = (total - prefix) / m - prefix / c
        scale = 0.5 * (1.0 / c + 1.0 / m)
        if diff >= math.sqrt(scale * self._ln_d):
            self.streak += 1
            if self.streak >= ensemble_module.CONFIRM:
                self.window, self.cut, self.streak = np.zeros(0), None, 0
                return "drift"
            return "warning"
        self.streak = 0
        return "warning" if diff >= math.sqrt(scale * self._ln_w) else "stable"


def drifting_errors(seed: int, steady: int, n: int) -> np.ndarray:
    """A 0/1 error stream: `steady` steps at error rate 0.1, then n steps
    whose rate jumps and falls back every 97 steps."""
    rng = np.random.default_rng(seed)
    rates = np.repeat(rng.choice([0.05, 0.2, 0.5, 0.9], size=n // 97 + 1), 97)[:n]
    return (rng.random(steady + n) < np.concatenate([np.full(steady, 0.1), rates])).astype(float)


class TestDriftDetectorOracle:
    @pytest.mark.parametrize("max_window", [4, 64, 1000])
    def test_same_verdicts_as_the_shifted_window(self, max_window):
        w = max_window
        det, oracle = DriftDetector(max_window=w), WindowOracle(max_window=w)
        phases, compactions = [], 0
        for e in drifting_errors(w, 3 * w, 2000):
            compactions += det._end == 2 * w
            phase = det.step(e)
            assert phase == oracle.step(e)
            assert (det.cut, det.streak) == (oracle.cut, oracle.streak)
            assert np.array_equal(det.window, oracle.window)
            phases.append(phase)
        assert compactions >= 1
        if w > 4:  # four errors are too few for any Hoeffding test to pass
            assert {"stable", "warning", "drift"} <= set(phases)

    def test_a_pinned_cut_slides_out_of_a_full_window(self, monkeypatch):
        # at the default levels a cut at 1 never holds (w[0] + eps(1) exceeds
        # mean(w) + eps(n) for every window), so the levels are loosened here
        monkeypatch.setattr(ensemble_module, "ALPHA_DRIFT", 0.2)
        monkeypatch.setattr(ensemble_module, "ALPHA_WARN", 0.3)
        w = 8
        det, oracle = DriftDetector(max_window=w), WindowOracle(0.3, 0.2, max_window=w)
        slides, phases = 0, set()
        for e in drifting_errors(3, 3 * w, 2000):
            slides += len(det) == w and det.cut == 1
            phase = det.step(e)
            assert phase == oracle.step(e)
            assert (det.cut, det.streak) == (oracle.cut, oracle.streak)
            assert np.array_equal(det.window, oracle.window)
            phases.add(phase)
        assert slides >= 1
        assert {"stable", "warning", "drift"} <= phases

    def test_roundtrip_right_after_a_compaction(self):
        w = 64
        det, oracle = DriftDetector(max_window=w), WindowOracle(max_window=w)
        errors = drifting_errors(11, 3 * w, 2000)
        for k, e in enumerate(errors):
            compacts = det._end == 2 * w
            det.step(e)
            oracle.step(e)
            if compacts:
                break
        assert compacts and det._start == 0
        clone = DriftDetector.from_snapshot(json.loads(json.dumps(det.snapshot())))
        assert np.array_equal(clone.window, det.window)
        for e in errors[k + 1:]:
            phase = oracle.step(e)
            assert det.step(e) == phase == clone.step(e)
            assert (clone.cut, clone.streak) == (oracle.cut, oracle.streak)
            assert np.array_equal(clone.window, oracle.window)


def pair_moments(y1, y2):
    """(var1, var2, cov) of two one-output series, from an MciState."""
    stats = MciState([None, None], 1)
    for a, b in zip(y1, y2):
        stats.update([np.array([float(a)]), np.array([float(b)])], [1, 1], 1, np.ones(1))
    m = stats.com[:, :, 0] / stats.count
    return m[0, 0], m[1, 1], m[0, 1]


class TestCompressionIndex:
    def test_identical_series_fully_compressible(self):
        assert compression_index(2.0, 2.0, 2.0) == 0.0

    def test_orthogonal_equal_variance_hits_upper_bound(self):
        # y1 = (1,-1,1,-1), y2 = (1,1,-1,-1): var 1 each, cov 0
        v1, v2, cov = pair_moments([1, -1, 1, -1], [1, 1, -1, -1])
        assert v1 == pytest.approx(1.0)
        assert v2 == pytest.approx(1.0)
        assert cov == pytest.approx(0.0)
        xi = compression_index(v1, v2, cov)
        assert abs(xi - 0.5 * (v1 + v2)) <= 1e-12

    def test_shifted_copy_fully_compressible(self):
        # y2 = y1 + c carries no extra information
        rng = np.random.default_rng(12)
        y = rng.normal(size=100)
        xi = compression_index(*pair_moments(y, y + 3.5))
        assert xi == pytest.approx(0.0, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        y1 = rng.normal(size=200)
        y2 = rng.normal(size=200)
        xi_a = compression_index(*pair_moments(y1, y2))
        xi_b = compression_index(*pair_moments(y1 + 17.0, y2))
        assert xi_a == pytest.approx(xi_b, abs=1e-9)

    def test_zero_variance_convention(self):
        assert compression_index(0.0, 3.0, 0.0) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 40)
        y1 = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        y2 = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        v1, v2 = y1.var(), y2.var()
        cov = ((y1 - y1.mean()) * (y2 - y2.mean())).mean()
        xi = compression_index(v1, v2, cov)
        assert -1e-12 <= xi <= 0.5 * (v1 + v2) + 1e-12
        assert xi == compression_index(v2, v1, cov)


class TestMerge:
    def _mci_from_series(self, ens, series, correct=None):
        """The voter record of the series, every prediction right unless
        correct overrides the per-voter counts."""
        mci = voter_record(ens)
        t = np.eye(ens.cfg.n_classes)[0]
        for row in series:
            mci.update([np.asarray(s, dtype=float) for s in row], [1] * len(row), 1, t)
        if correct is not None:
            mci.correct[:] = correct
        return mci

    def test_exact_clone_merges(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [1.0, 0.0])
        rng = np.random.default_rng(7)
        series = []
        for _ in range(40):
            s = rng.normal(size=2)
            series.append([s, s.copy()])
        merged = ens.merge_check(self._mci_from_series(ens, series))
        assert len(merged) == 1
        assert len(ens.members) == 1
        assert sum(m.beta for m in ens.members) == pytest.approx(1.0)

    def test_uncorrelated_members_never_merge(self):
        ens = Ensemble(base_cfg(delta_rel=0.9))
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [0.0, 1.0])
        series = []
        for k in range(40):
            a = 1.0 if k % 2 == 0 else -1.0
            b = 1.0 if (k // 2) % 2 == 0 else -1.0
            series.append([[a, a], [b, b]])
        merged = ens.merge_check(self._mci_from_series(ens, series))
        assert merged == []
        assert len(ens.members) == 2

    def test_duplicated_pair_merges_and_keeps_more_accurate(self):
        ens = Ensemble(base_cfg())
        for _ in range(3):
            constant_member(ens, [1.0, 0.0])
        rng = np.random.default_rng(8)
        series = []
        for _ in range(40):
            dup = rng.normal(size=2)
            other = rng.normal(size=2)
            series.append([dup, dup.copy(), other])
        survivor_uid = ens.members[1].uid
        dropped_uid = ens.members[0].uid
        merged = ens.merge_check(self._mci_from_series(ens, series, correct=[5, 9, 7]))
        assert merged == [(survivor_uid, dropped_uid)]
        assert len(ens.members) == 2
        assert ens.members[0].uid == survivor_uid

    def test_exact_accuracy_tie_drops_lower_index(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [1.0, 0.0])
        keep_uid = ens.members[1].uid
        drop_uid = ens.members[0].uid
        rng = np.random.default_rng(9)
        series = []
        for _ in range(30):
            s = rng.normal(size=2)
            series.append([s, s.copy()])
        merged = ens.merge_check(self._mci_from_series(ens, series, correct=[5, 5]))
        assert merged == [(keep_uid, drop_uid)]


class TestMciState:
    def test_moments_equal_pairwise_welford(self):
        """The record's moments are the per-pair Welford recurrences it
        replaced, to the bit, and the batch variances and covariances."""
        rng = np.random.default_rng(13)
        ys = rng.random((300, 3, 3))
        labels = rng.integers(1, 4, size=300)
        stats = MciState([None] * 3, 3)
        for y, label in zip(ys, labels):
            stats.update(list(y), [classes(yv) for yv in y], int(label), np.eye(3)[label - 1])
        assert stats.count == 300
        for v in range(3):
            sq = 0.0
            for y, label in zip(ys, labels):
                e = np.eye(3)[label - 1] - y[v]
                sq += float(e @ e)
            assert stats.sq_err[v] == sq
            assert stats.correct[v] == sum(classes(y[v]) == lab for y, lab in zip(ys, labels))
        for i in range(3):
            for j in range(i + 1, 3):
                n = 0
                mean1, mean2, m2_1, m2_2, com = (np.zeros(3) for _ in range(5))
                for y in ys:
                    n += 1
                    d1 = y[i] - mean1
                    d2 = y[j] - mean2
                    mean1 += d1 / n
                    mean2 += d2 / n
                    m2_1 += d1 * (y[i] - mean1)
                    m2_2 += d2 * (y[j] - mean2)
                    com += d1 * (y[j] - mean2)
                assert (stats.mean[i] == mean1).all() and (stats.mean[j] == mean2).all()
                assert (stats.com[i, i] == m2_1).all() and (stats.com[j, j] == m2_2).all()
                assert (stats.com[i, j] == com).all()
                cov = [np.cov(ys[:, i, o], ys[:, j, o], bias=True)[0, 1] for o in range(3)]
                np.testing.assert_allclose(stats.com[i, j] / 300, cov, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    stats.com[i, i] / 300, ys[:, i].var(axis=0), rtol=0, atol=1e-12
                )

    def test_lone_voter_is_not_recorded(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        stats = voter_record(ens)
        for _ in range(5):
            stats.update([np.array([1.0, 0.0])], [1], 2, np.array([0.0, 1.0]))
        assert stats.count == 0
        assert ens.select_winner(stats) == 0
        assert ens.merge_check(stats) == []

    def test_winners_are_voters_and_merges_keep_bootstrapping_members(self, monkeypatch):
        """A multivariate hyperplane run with delta_rel 0.5 (the benchmark's
        hyperplane-mv learner), watched from outside the ensemble."""
        select, merge = Ensemble.select_winner, Ensemble.merge_check
        shared = []  # winners picked among two or more voters

        def checked_select(self, stats):
            v = select(self, stats)
            assert any(stats.voters[v] is m for m in self.voters())
            if len(stats.voters) > 1:
                shared.append(v)
            return v

        def checked_merge(self, stats):
            bootstrapping = {m.uid for m in self.members if m.bootstrapping}
            merged = merge(self, stats)
            assert not {dropped for _, dropped in merged} & bootstrapping
            return merged

        monkeypatch.setattr(Ensemble, "select_winner", checked_select)
        monkeypatch.setattr(Ensemble, "merge_check", checked_merge)
        w_before, w_after = (0.9, 0.6, 0.3, 0.1), (0.1, 0.3, 0.6, 0.9)
        stream = gen_hyperplane(HyperplaneConfig(
            n_total=12_500, n_features=4, drift_start=3750, ramp_frac=0.1, seed=1,
            w_before=w_before, w_after=w_after, w0=0.5 * sum(w_before),
        ))
        cfg = base_cfg(n_features=4, chunk_size=1000, base_kind="multivariate", delta_rel=0.5)
        proto = EvalProtocol("holdout", train_per_stamp=1000, test_per_stamp=250, stamps=10)
        metrics, _ = run_holdout(stream, cfg, proto)
        assert sum(r["drifts"] for r in metrics.series) >= 1
        assert sum(r["merges"] for r in metrics.series) >= 1
        assert shared


def sea_chunks(n, chunk, seed=0, thresholds=(4.0, 7.0, 4.0, 7.0)):
    stream = gen_sea(SeaConfig(n_total=n, seed=seed, thresholds=thresholds))
    return chunks(stream, chunk)


class TestTrainChunk:
    def test_first_chunk_creates_single_member(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        rep = ens.train_chunk(next(iter(sea_chunks(100, 100))), sel)
        assert len(ens.members) == 1
        assert rep.accepted == 100  # cold-start chunk is fully supervised

    def test_drift_detected_soon_after_shift(self):
        # one abrupt shift midway: at least one drift event within 20
        # chunks after the boundary
        cfg = base_cfg(n_features=3, chunk_size=250)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        drift_chunks = []
        for i, ch in enumerate(sea_chunks(10_000, 250, thresholds=(4.0, 7.0))):
            rep = ens.train_chunk(ch, sel)
            if rep.drifts:
                drift_chunks.append(i)
        boundary = 5000 // 250
        assert any(boundary <= c < boundary + 20 for c in drift_chunks)

    def test_stationary_stream_keeps_ensemble_small(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        for ch in sea_chunks(5000, 100, thresholds=(7.0,)):
            rep = ens.train_chunk(ch, sel)
            assert sum(m.beta for m in ens.members) == pytest.approx(1.0, abs=1e-12)
        assert len(ens.members) <= 2

    def test_each_sample_touched_once(self, monkeypatch):
        """After the first chunk, the selector decides each row once."""
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        first, ch = list(sea_chunks(200, 100))
        ens.train_chunk(first, sel)
        calls = []
        inner = ActiveLearnState.decide

        def decide(self, p_input, p_output):
            calls.append(1)
            return inner(self, p_input, p_output)

        monkeypatch.setattr(ActiveLearnState, "decide", decide)
        ens.train_chunk(ch, sel)
        assert len(calls) == len(ch)

    def test_structural_invariants_after_chunks(self):
        cfg = base_cfg(n_features=3, chunk_size=200)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        for ch in sea_chunks(4000, 200):
            ens.train_chunk(ch, sel)
        for m in ens.members:
            m.model.check_invariants()

    def test_member_count_conservation(self):
        # every drift event adds exactly one member, every merge removes
        # exactly one; nothing else changes M
        cfg = base_cfg(n_features=3, chunk_size=250)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        prev = 0
        saw_drift = saw_merge = False
        for ch in sea_chunks(20_000, 250, thresholds=(4.0, 7.0, 4.0)):
            rep = ens.train_chunk(ch, sel)
            expected = max(prev, 1) + rep.drifts - rep.merges
            assert len(ens.members) == expected
            prev = len(ens.members)
            saw_drift = saw_drift or rep.drifts > 0
            saw_merge = saw_merge or rep.merges > 0
        assert saw_drift  # two shifts in the stream must trigger growth

    def test_drift_member_bootstraps_before_voting(self):
        cfg = base_cfg(n_features=3, chunk_size=200)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        source = sea_chunks(20_000, 200, thresholds=(4.0, 7.0))
        for ch in source:
            rep = ens.train_chunk(ch, sel)
            if rep.drifts:
                break
        else:
            pytest.fail("no drift event on a shifted stream")
        fresh = ens.members[-1]
        if fresh.bootstrapping:
            # not yet a voter, but it holds normalized weight already
            assert fresh not in ens.voters()
            ens.train_chunk(next(iter(source)), sel)
        assert not ens.members[-1].bootstrapping
        assert ens.members[-1].model.rde.count >= 1

    def test_empty_chunk_rejected(self):
        cfg = base_cfg()
        with pytest.raises(Exception):
            Ensemble(cfg).train_chunk(DataChunk([], 0), Selectors(cfg))

    def test_a_rejected_first_chunk_leaves_no_member(self):
        cfg = StreamConfig(n_features=2, n_classes=2, chunk_size=10)
        rng = np.random.default_rng(0)
        good = [Sample(rng.normal(size=2), i % 2 + 1) for i in range(10)]
        bad = list(good)
        bad[3] = Sample(np.array([np.nan, 0.0]), good[3].label)
        ens, sel = Ensemble(cfg), Selectors(cfg)
        with pytest.raises(DataError, match="row 3") as exc:
            ens.train_chunk(DataChunk(bad, 0), sel)
        assert exc.value.row == 3
        assert ens.members == [] and ens.next_uid == 0
        assert ens.digest() == Ensemble(cfg).digest()
        # the same chunk without the nan is still the cold start
        rep = ens.train_chunk(DataChunk(good, 0), sel)
        fresh, fresh_sel = Ensemble(cfg), Selectors(cfg)
        assert rep == fresh.train_chunk(DataChunk(good, 0), fresh_sel)
        assert rep.accepted == 10 and len(ens.members) == 1
        assert ens.digest() == fresh.digest()


class TestEnsembleSnapshot:
    def test_roundtrip_preserves_predictions_and_hash(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        for ch in sea_chunks(1000, 100):
            ens.train_chunk(ch, sel)
        blob = json.dumps(ens.snapshot())
        clone = Ensemble.from_snapshot(json.loads(blob))
        assert clone.snapshot_hash() == ens.snapshot_hash()
        x = np.array([5.0, 5.0, 5.0])
        assert clone.score_sample(x)[1] == ens.score_sample(x)[1]
        assert np.array_equal(clone.score_sample(x)[0], ens.score_sample(x)[0])

    @pytest.mark.parametrize(
        "section, key", [("cfg", "theta_step"), ("ensemble", "hyper")],
        ids=["cfg-theta_step", "ensemble-hyper"],
    )
    def test_unknown_key_is_data_error_naming_it(self, section, key):
        state = json.loads(json.dumps(Ensemble(base_cfg(n_features=3)).snapshot()))
        where = state if section == "ensemble" else state[section]
        where[key] = 0.05
        where["zz_extra"] = 1
        with pytest.raises(DataError, match=f"'{section}' has unknown keys: {key}, zz_extra$"):
            Ensemble.from_snapshot(state)

    def test_unknown_member_hyper_key_is_data_error_naming_it(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        ens.train_chunk(next(iter(sea_chunks(100, 100))), Selectors(cfg))
        state = json.loads(json.dumps(ens.snapshot()))
        state["members"][0]["model"]["hyper"] = {"theta_step": 0.05}
        with pytest.raises(DataError, match="'model' has unknown keys: hyper$"):
            Ensemble.from_snapshot(state)

    def test_member_age_min_is_what_cfg_sets(self):
        """Every member's rule age_min is AGE_CHUNKS chunks; a snapshot
        whose member holds another is a DataError naming the member."""
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        ens.train_chunk(next(iter(sea_chunks(100, 100))), Selectors(cfg))
        assert ens.members[0].model.age_min == ensemble_module.AGE_CHUNKS * 100
        state = json.loads(json.dumps(ens.snapshot()))
        clone = Ensemble.from_snapshot(state)
        assert clone._new_member().model.age_min == 200
        state["members"][0]["model"]["age_min"] = 7
        match = "'ensemble': member 0 has age_min 7, but cfg sets 200$"
        with pytest.raises(DataError, match=match):
            Ensemble.from_snapshot(state)

    # a 'hyper' section, less its age_min, as written while the
    # structure-learning thresholds were settings
    HYPER = {"err_grow": 0.5, "novelty_q": 0.95, "density_sigmas": 2.0, "volume_cap": 0.25,
             "prune_frac": 0.1, "decay": 0.99, "potential_frac": 0.2,
             "decay_strength": 1e-7, "init_spread": 1.0, "rls_init": 1e5}

    @pytest.mark.parametrize("layer, match", [
        ("ensemble", "'ensemble' has unknown keys: hyper$"),
        ("model", "'model' lacks keys: age_min and has unknown keys: hyper$"),
        ("rde", "'rde' has unknown keys: decay, dens_count$"),
        ("detector", "'detector' has unknown keys: confirm, state$"),
        ("selectors", "'al' has unknown keys: step, theta_max, theta_min$"),
    ])
    def test_snapshot_from_before_the_constants_is_data_error(self, layer, match):
        """Each layer of a snapshot in the form written before the
        thresholds became constants is refused by its own loader."""
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens, sel = Ensemble(cfg), Selectors(cfg)
        ens.train_chunk(next(iter(sea_chunks(100, 100))), sel)
        state = json.loads(json.dumps(ens.snapshot()))
        state["cfg"]["delta_abs"] = None
        model = state["members"][0]["model"]
        state["hyper"] = dict(self.HYPER, age_min=model["age_min"])
        model["hyper"] = dict(self.HYPER, age_min=model.pop("age_min"))
        model["rde"].update(decay=0.99, dens_count=model["rde"]["count"])
        state["detector"].update(confirm=3, state="stable")
        selectors = json.loads(json.dumps(sel.snapshot()))
        selectors["al"].update(step=0.01, theta_min=0.5, theta_max=0.95)
        load, old = {
            "ensemble": (Ensemble.from_snapshot, state),
            "model": (RuleClassifier.from_snapshot, model),
            "rde": (RdeState.from_snapshot, model["rde"]),
            "detector": (DriftDetector.from_snapshot, state["detector"]),
            "selectors": (Selectors.from_snapshot, selectors),
        }[layer]
        with pytest.raises(DataError, match=match):
            load(old)

    @pytest.mark.parametrize("section, match", [
        ("member", "'member' lacks keys: beta, bootstrapping, bootstrap_chunks, model$"),
        ("selectors", "'selectors' lacks keys: ofs_b$"),
        ("al", r"'al' has theta 0\.99 outside \[0\.5, 0\.95\]$"),
        ("standardizer", "'standardizer' lacks keys: m2$"),
    ])
    def test_bad_section_is_data_error_naming_it(self, section, match):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens, sel = Ensemble(cfg), Selectors(cfg)
        ens.train_chunk(next(iter(sea_chunks(100, 100))), sel)
        state = json.loads(json.dumps(ens.snapshot()))
        selectors = json.loads(json.dumps(sel.snapshot()))
        if section == "member":
            state["members"][0] = {"uid": 0}
        elif section == "standardizer":
            del state["standardizer"]["m2"]
        elif section == "selectors":
            del selectors["ofs_b"]
        else:
            selectors["al"]["theta"] = 0.99
        load, snap = (
            (Ensemble.from_snapshot, state) if section in ("member", "standardizer")
            else (Selectors.from_snapshot, selectors)
        )
        with pytest.raises(DataError, match=match):
            load(snap)

    def test_scoring_does_not_change_hash(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        for ch in sea_chunks(500, 100):
            ens.train_chunk(ch, sel)
        before = ens.snapshot_hash()
        for v in np.linspace(0.0, 10.0, 20):
            ens.score_sample(np.array([v, v, v]))
        assert ens.snapshot_hash() == before


def train_member(ens, m, samples, mask=None):
    """Train one member outside train_chunk, with the passes train_chunk makes."""
    for s in samples:
        z = ens.standardizer.transform(s.x)
        d2 = m.model.mahalanobis_sq(z, mask)
        scores = m.model.infer(z, d2, mask)[0] if m.model.rules else None
        m.model.train_sample(z, s.label, d2, scores, mask)


def mixed_ensemble(kind, mask):
    """Two voters with rules (weights 3:1), a voter without rules and a
    bootstrapping member with rules, trained on two SEA concepts."""
    cfg = base_cfg(n_features=3, n_classes=2, chunk_size=100, base_kind=kind)
    ens = Ensemble(cfg)
    sel = Selectors(cfg)
    for ch in sea_chunks(600, 100, seed=3):
        ens.train_chunk(ch, sel)
    other = list(gen_sea(SeaConfig(n_total=400, seed=4, thresholds=(7.0,))))
    train_member(ens, ens._new_member(), other[:200], mask)
    ens._new_member()
    boot = ens._new_member(bootstrapping=True)
    train_member(ens, boot, other[200:], mask)
    ens.members[0].beta = 3.0
    ens._normalize_betas()
    return ens


class TestBlockScoring:
    @pytest.mark.parametrize("kind", ["axis_parallel", "multivariate"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_block_equals_row_by_row(self, kind, masked):
        mask = np.array([1.0, 1.0, 0.0]) if masked else None
        ens = mixed_ensemble(kind, mask)
        boot = ens.members[-1]
        voters = ens.voters()
        assert sum(1 for m in voters if m.model.rules) >= 2
        assert any(not m.model.rules for m in voters) and boot.model.rules
        xs = np.random.default_rng(6).uniform(-1.0, 11.0, size=(60, 3))
        sigma, cls = ens.score_sample(xs, mask)
        assert sigma.shape == (60, 2) and cls.shape == (60,)
        rows = [ens.score_sample(x, mask) for x in xs]
        assert [int(c) for c in cls] == [c for _, c in rows]
        assert np.allclose(sigma, [s for s, _ in rows], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["axis_parallel", "multivariate"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_block_conflicts_equal_one_sample_calls(self, kind, masked):
        """Row r of the block conflict scores is the one-sample call, bit for
        bit, over every member as train_chunk passes them; the last row is
        so far out that every likelihood underflows."""
        mask = np.array([1.0, 1.0, 0.0]) if masked else None
        ens = mixed_ensemble(kind, mask)
        models = [m.model for m in ens.members]
        xs = np.random.default_rng(6).uniform(-1.0, 11.0, size=(30, 3))
        z = ens.standardizer.transform(np.vstack([xs, [1e4, -1e4, 1e4]]))
        d2s = [m.mahalanobis_sq(z, mask) for m in models]
        p_in = conflict_input(models, d2s)
        assert p_in.shape == (31,) and p_in[-1] == 0.5
        assert 0.5 < p_in[:-1].min() and p_in[:-1].max() < 1.0
        for r in range(31):
            one = conflict_input(models, [d2[r] for d2 in d2s])
            assert one.shape == () and one == p_in[r]
        d2v = {m: m.model.mahalanobis_sq(z[:-1], mask) for m in ens.voters()}
        sigma = np.vstack([ens.predict(z[:-1], d2v, mask)[0], np.zeros(2), [1.5, -0.5]])
        p_out = conflict_output(sigma)
        assert p_out[-2] == 0.5 and p_out[-1] == 1.0
        assert np.array_equal(p_out, [conflict_output(s) for s in sigma])


class TestFrozenOverflow:
    """A huge finite value passes the standardizer's checks; scoring it
    overflows the distances, and that must fail loudly, not score nan."""

    def test_huge_value_raises_data_error(self):
        cfg = base_cfg(n_features=3, chunk_size=250)
        proto = EvalProtocol(mode="holdout", train_per_stamp=250, test_per_stamp=250, stamps=4)
        _, ens = run_holdout(gen_sea(SeaConfig(n_total=2000, seed=1)), cfg, proto)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="the sample scores non-finite"):
                ens.score_sample([1e200, 5.0, 5.0])
            with pytest.raises(DataError, match="row 1 of the block"):
                ens.score_sample([[5.0, 5.0, 5.0], [1e200, 5.0, 5.0], [1.0, 2.0, 3.0]])
            assert ens.score_sample([[5.0, 5.0, 5.0], [1e150, 5.0, 5.0]])[1].shape == (2,)



class TestTrainingOverflow:
    """Raw values reach training only through the standardizer, which
    keeps them bounded; with it passing values through, a huge one
    overflows the distance pass of train_chunk, and that must raise
    there instead of leaving an inf or a nan in the model."""

    @pytest.mark.parametrize("kind", ["axis_parallel", "multivariate"])
    def test_overflow_in_training_raises_floating_point_error(self, monkeypatch, kind):
        cfg = base_cfg(chunk_size=50, base_kind=kind)
        ens, sel = Ensemble(cfg), Selectors(cfg)
        monkeypatch.setattr(ens.standardizer, "fit_transform",
                            lambda x: np.asarray(x, dtype=float))
        x = np.random.default_rng(0).normal(size=(100, 2))
        first, second = chunks([Sample(a, 1 + int(a.sum() > 0)) for a in x], 50)
        ens.train_chunk(first, sel)
        second.samples[0].x = np.array([1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="overflow|invalid"):
                ens.train_chunk(second, sel)


def two_region_stream(rng, u, lengths, far=6.0):
    """Alternating regions: near the origin the label is the sign of
    x1 + x2; at (far, ..., far) it is flipped, so each switch is a drift."""
    out = []
    for k, n in enumerate(lengths):
        center = np.full(u, far if k % 2 else 0.0)
        for _ in range(n):
            x = center + rng.normal(size=u)
            label = 1 if x[0] - center[0] + x[1] - center[1] > 0 else 2
            out.append(Sample(x, 3 - label if k % 2 else label))
    return out


def two_region_run(monkeypatch, score_test_rows=False):
    """Train on a two-region stream with a drift member, a recall and
    feature selection; returns (chunk reports, ensemble, selectors)."""
    cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=100, ofs_b=2)
    monkeypatch.setattr(rules_module, "POTENTIAL_FRAC", 0.6)
    monkeypatch.setattr(rules_module, "DENSITY_SIGMAS", 1.0)
    monkeypatch.setattr(Ensemble, "age_min", 30)
    ens = Ensemble(cfg)
    sel = Selectors(cfg)
    rng = np.random.default_rng(8)
    reports = []
    for ch in chunks(two_region_stream(rng, 3, (300, 1500, 500)), cfg.chunk_size):
        reports.append(ens.train_chunk(ch, sel))
        if score_test_rows:
            for x in np.random.default_rng(ch.index).normal(0.0, 3.0, size=(5, 3)):
                ens.score_sample(x, sel.mask_active)
    return reports, ens, sel


class TestDistancePasses:
    def test_one_pass_per_member_state_and_sample(self, monkeypatch):
        """Each row of a mahalanobis_sq call is keyed on (rules, mask, row).
        A key is scored once, except rows a block scored past the row it
        accepted: those are scored again after that accept, fewer of them
        than the block has rows.  The stream has a drift member, a recall,
        feature selection and frozen scoring."""
        log, banks, recalls = [], [], [0]
        inner = RuleClassifier.mahalanobis_sq
        inner_recall = RuleClassifier.recall_check
        inner_decide = ActiveLearnState.decide

        def counted(self, x, mask=None):
            b = self.rules
            banks.append(b)  # keeps every id() in the keys unique
            state = (id(b), b.centers.tobytes(), b.inv.tobytes(),
                     b"" if mask is None else mask.tobytes())
            log.append(("d2", [(state, row.tobytes()) for row in np.atleast_2d(x)]))
            return inner(self, x, mask)

        def recall(self, x, mask=None):
            got = inner_recall(self, x, mask)
            recalls[0] += got is not None
            return got

        def decide(self, p_input, p_output):
            take = inner_decide(self, p_input, p_output)
            log.append(("decide", take))
            return take

        monkeypatch.setattr(RuleClassifier, "mahalanobis_sq", counted)
        monkeypatch.setattr(RuleClassifier, "recall_check", recall)
        monkeypatch.setattr(ActiveLearnState, "decide", decide)
        reports, _, _ = two_region_run(monkeypatch, score_test_rows=True)
        assert sum(r.drifts for r in reports) >= 1 and recalls[0] >= 1
        last = {}  # key -> log index of the call that last scored it
        accepts = [i for i, (kind, what) in enumerate(log) if kind == "decide" and what]
        repeats = {}  # log index of a call -> its rows scored again later
        for i, (kind, keys) in enumerate(log):
            if kind != "d2":
                continue
            for key in keys:
                j = last.get(key)
                if j is not None:
                    assert any(j < a < i for a in accepts), "scored twice, no accept between"
                    repeats[j] = repeats.get(j, 0) + 1
                last[key] = i
        for j, n in repeats.items():
            assert n < len(log[j][1])
        assert max(len(keys) for kind, keys in log if kind == "d2") > 4
        assert repeats and len(accepts) > 100

    def test_lookahead_does_not_change_training(self, monkeypatch):
        reports, ens, sel = two_region_run(monkeypatch)
        assert sum(r.drifts for r in reports) >= 1
        monkeypatch.setattr(ensemble_module, "LOOKAHEAD", 1)
        again, ens1, sel1 = two_region_run(monkeypatch)
        assert again == reports
        assert ens1.snapshot_hash() == ens.snapshot_hash()
        assert sel1.snapshot() == sel.snapshot()


DEGENERATE = st.sampled_from(["none", "constant", "duplicate", "all_constant", "burst"])


class TestDegenerateStreams:
    # u reaches 40, where a multivariate update needs P's eigenvalues to keep
    # its rank-one result; a 600-sample stream takes under a second there
    @given(
        u=st.integers(1, 40),
        n_classes=st.sampled_from([2, 5]),
        shape=DEGENERATE,
        kind=st.sampled_from(["axis_parallel", "multivariate"]),
        ofs=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_weights_and_finite_scores(self, u, n_classes, shape, kind, ofs, seed):
        rng = np.random.default_rng(seed)
        n = 600
        x = rng.normal(size=(n, u))
        y = rng.integers(1, n_classes + 1, size=n)
        if shape == "constant":
            x[:, 0] = 3.0
        elif shape == "duplicate" and u > 1:
            x[:, 1] = x[:, 0]
        elif shape == "all_constant":
            x[:] = 1.5
        elif shape == "burst":
            y[150:450] = 1
        cfg = StreamConfig(n_features=u, n_classes=n_classes, chunk_size=100,
                           base_kind=kind, ofs_b=u - 1 if ofs and u > 1 else None)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ch in chunks([Sample(a, int(b)) for a, b in zip(x, y)], cfg.chunk_size):
                ens.train_chunk(ch, sel)
                for m in ens.members:
                    m.model.check_invariants()
                assert sum(m.beta for m in ens.members) == pytest.approx(1.0, abs=1e-12)
            mask = sel.mask
            for v in rng.normal(size=(20, u)):
                assert np.all(np.isfinite(ens.score_sample(v, mask)[0]))


def train_stream(cfg, x, labels) -> Ensemble:
    """An ensemble trained on the rows of x, chunk by chunk, with every
    member's invariants checked after each chunk."""
    ens, sel = Ensemble(cfg), Selectors(cfg)
    for ch in chunks(map(Sample, x, labels), cfg.chunk_size):
        ens.train_chunk(ch, sel)
        for m in ens.members:
            m.model.check_invariants()
    return ens


class TestWideStreams:
    @pytest.mark.parametrize("u", [28, 40])
    def test_births_at_the_cap_force_no_growth(self, u, monkeypatch):
        """2,000 samples x ~ N(0, I), labelled by the sign of x1 + x2, with
        multivariate rules.  A rule born at the volume cap whose volume
        rounded to just over it forced growth each time it won, and the
        next birth did the same: 21 rules at u = 28 and 379 at u = 40,
        almost all of them volume-forced."""
        decisions = []
        grow_check = RuleClassifier.grow_check

        def counted(self, *args):
            decisions.append(grow_check(self, *args))
            return decisions[-1]

        monkeypatch.setattr(RuleClassifier, "grow_check", counted)
        x = np.random.default_rng(1).normal(size=(2000, u))
        labels = np.where(x[:, 0] + x[:, 1] > 0, 1, 2).tolist()
        cfg = StreamConfig(n_features=u, n_classes=2, chunk_size=250, base_kind="multivariate")
        ens = train_stream(cfg, x, labels)
        assert len(decisions) > 500 and GrowDecision.VOLUME_FORCED not in decisions
        assert ens.total_rules <= 3

    @pytest.mark.parametrize("kind", ["axis_parallel", "multivariate"])
    def test_the_widest_stream_trains(self, kind):
        """u = 64, the most features the novelty gate's table covers."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, MAX_FEATURES))
        labels = np.where(x[:, 0] - x[:, 63] > 0, 1, 2).tolist()
        cfg = StreamConfig(n_features=MAX_FEATURES, n_classes=2, chunk_size=100, base_kind=kind)
        ens = train_stream(cfg, x, labels)
        assert ens.total_rules >= 1
        assert np.all(np.isfinite(ens.score_sample(rng.normal(size=(20, MAX_FEATURES)))[0]))
