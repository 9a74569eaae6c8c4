import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofuzzy.core import DataChunk, DataError, Sample, StreamConfig, chunks
from evofuzzy.datagen import SeaConfig, gen_sea
from evofuzzy.ensemble import (
    DriftDetector,
    Ensemble,
    MciState,
    PairStats,
    compression_index,
)
from evofuzzy.evaluate import EvalProtocol, run_holdout
from evofuzzy.rules import FuzzyRule, GrowPruneParams, RuleClassifier
from evofuzzy.selection import Selectors


def constant_member(ens, scores):
    """Append a member whose model always outputs the given scores."""
    m = ens._new_member()
    u, o = ens.cfg.n_features, ens.cfg.n_classes
    w = np.zeros((u + 1, o))
    w[0] = scores
    m.model.rules.append(
        FuzzyRule(
            center=np.zeros(u),
            inv_cov=np.eye(u),
            support=1,
            class_support=np.eye(o, dtype=np.int64)[0],
            weights=w,
            rls_cov=np.eye(u + 1),
        )
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


class TestSelectWinner:
    def test_single_member(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        assert ens.select_winner() == 0

    def test_argmin_mse(self):
        ens = Ensemble(base_cfg())
        for _ in range(3):
            constant_member(ens, [1.0, 0.0])
        for m, mse in zip(ens.members, (0.3, 0.1, 0.2)):
            m.chunk_seen = 10
            m.chunk_sq_err = mse * 10
        assert ens.select_winner() == 1

    def test_tie_goes_to_lowest_index(self):
        ens = Ensemble(base_cfg())
        for _ in range(2):
            constant_member(ens, [1.0, 0.0])
        for m in ens.members:
            m.chunk_seen = 5
            m.chunk_sq_err = 1.0
        assert ens.select_winner() == 0

    def test_no_observations_returns_first(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [0.0, 1.0])
        assert ens.select_winner() == 0


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
        with pytest.raises(ValueError):
            det.step(1.5)

    def test_snapshot_roundtrip(self):
        det = DriftDetector(max_window=64)
        rng = np.random.default_rng(5)
        for _ in range(50):
            det.step(float(rng.random() < 0.3))
        clone = DriftDetector.from_snapshot(det.snapshot())
        for e in (0.0, 1.0, 1.0, 0.0):
            assert det.step(e) == clone.step(e)


class TestCompressionIndex:
    def test_identical_series_fully_compressible(self):
        assert compression_index(2.0, 2.0, 2.0) == 0.0

    def test_orthogonal_equal_variance_hits_upper_bound(self):
        # y1 = (1,-1,1,-1), y2 = (1,1,-1,-1): var 1 each, cov 0
        st_ = PairStats(1)
        for a, b in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
            st_.update(np.array([float(a)]), np.array([float(b)]))
        v1, v2, cov = st_.var1[0], st_.var2[0], st_.cov[0]
        assert v1 == pytest.approx(1.0)
        assert v2 == pytest.approx(1.0)
        assert cov == pytest.approx(0.0)
        xi = compression_index(v1, v2, cov)
        assert abs(xi - 0.5 * (v1 + v2)) <= 1e-12

    def test_shifted_copy_fully_compressible(self):
        # y2 = y1 + c carries no extra information
        rng = np.random.default_rng(12)
        y = rng.normal(size=100)
        st_ = PairStats(1)
        for v in y:
            st_.update(np.array([v]), np.array([v + 3.5]))
        xi = compression_index(st_.var1[0], st_.var2[0], st_.cov[0])
        assert xi == pytest.approx(0.0, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        y1 = rng.normal(size=200)
        y2 = rng.normal(size=200)
        a = PairStats(1)
        b = PairStats(1)
        for p, q in zip(y1, y2):
            a.update(np.array([p]), np.array([q]))
            b.update(np.array([p + 17.0]), np.array([q]))
        xi_a = compression_index(a.var1[0], a.var2[0], a.cov[0])
        xi_b = compression_index(b.var1[0], b.var2[0], b.cov[0])
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
    def _mci_from_series(self, ens, series):
        mci = MciState(ens.cfg.n_classes)
        uids = [m.uid for m in ens.members]
        for row in series:
            mci.update(uids, [np.asarray(s, dtype=float) for s in row])
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
        for m, (correct, seen) in zip(ens.members, [(5, 10), (9, 10), (7, 10)]):
            m.chunk_correct, m.chunk_seen = correct, seen
        rng = np.random.default_rng(8)
        series = []
        for _ in range(40):
            dup = rng.normal(size=2)
            other = rng.normal(size=2)
            series.append([dup, dup.copy(), other])
        survivor_uid = ens.members[1].uid
        dropped_uid = ens.members[0].uid
        merged = ens.merge_check(self._mci_from_series(ens, series))
        assert merged == [(survivor_uid, dropped_uid)]
        assert len(ens.members) == 2
        assert ens.members[0].uid == survivor_uid

    def test_exact_accuracy_tie_drops_lower_index(self):
        ens = Ensemble(base_cfg())
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [1.0, 0.0])
        for m in ens.members:
            m.chunk_correct, m.chunk_seen = 5, 10
        keep_uid = ens.members[1].uid
        drop_uid = ens.members[0].uid
        rng = np.random.default_rng(9)
        series = []
        for _ in range(30):
            s = rng.normal(size=2)
            series.append([s, s.copy()])
        merged = ens.merge_check(self._mci_from_series(ens, series))
        assert merged == [(keep_uid, drop_uid)]

    def test_merge_respects_absolute_override(self):
        ens = Ensemble(base_cfg(delta_abs=1e-12))
        constant_member(ens, [1.0, 0.0])
        constant_member(ens, [1.0, 0.0])
        rng = np.random.default_rng(10)
        series = []
        for _ in range(30):
            a = rng.normal(size=2)
            series.append([a, a + rng.normal(scale=0.5, size=2)])  # noisy copy
        merged = ens.merge_check(self._mci_from_series(ens, series))
        assert merged == []


def sea_chunks(n, chunk, seed=0, thresholds=(4.0, 7.0, 4.0, 7.0)):
    stream = gen_sea(SeaConfig(n_total=n, seed=seed, thresholds=thresholds))
    return chunks(stream, chunk)


class TestTrainChunk:
    def test_first_chunk_creates_single_member(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        rep = ens.train_chunk(next(iter(sea_chunks(100, 100))), sel)
        assert rep.members == 1
        assert len(ens.members) == 1
        assert rep.seen == 100
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

    def test_each_sample_touched_once(self):
        cfg = base_cfg(n_features=3, chunk_size=100)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        ch = next(iter(sea_chunks(100, 100)))
        rep = ens.train_chunk(ch, sel)
        assert rep.seen == len(ch)

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
        assert ens.members[-1].bootstrap_count >= 1

    def test_empty_chunk_rejected(self):
        cfg = base_cfg()
        with pytest.raises(Exception):
            Ensemble(cfg).train_chunk(DataChunk([], 0), Selectors(cfg))


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

    def test_restored_ensemble_keeps_hyper_template(self):
        from evofuzzy.rules import GrowPruneParams

        cfg = base_cfg(n_features=3, chunk_size=100)
        hyper = GrowPruneParams(age_min=77, err_grow=0.4)
        ens = Ensemble(cfg, hyper=hyper)
        sel = Selectors(cfg)
        ens.train_chunk(next(iter(sea_chunks(100, 100))), sel)
        clone = Ensemble.from_snapshot(json.loads(json.dumps(ens.snapshot())))
        assert clone.hyper.age_min == 77
        assert clone.hyper.err_grow == 0.4
        fresh = clone._new_member()
        assert fresh.model.hyper.age_min == 77

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


class TestBlockScoring:
    @pytest.mark.parametrize("kind", ["axis_parallel", "multivariate"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_block_equals_row_by_row(self, kind, masked):
        cfg = base_cfg(n_features=3, n_classes=2, chunk_size=100, base_kind=kind)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        for ch in sea_chunks(600, 100, seed=3):
            ens.train_chunk(ch, sel)
        mask = np.array([1.0, 1.0, 0.0]) if masked else None
        other = list(gen_sea(SeaConfig(n_total=400, seed=4, thresholds=(7.0,))))
        train_member(ens, ens._new_member(), other[:200], mask)
        ens._new_member()  # a voter without rules
        boot = ens._new_member(bootstrapping=True)
        train_member(ens, boot, other[200:], mask)
        ens.members[0].beta = 3.0
        ens._normalize_betas()
        voters = ens.voters()
        assert sum(1 for m in voters if m.model.rules) >= 2
        assert any(not m.model.rules for m in voters) and boot.model.rules
        xs = np.random.default_rng(6).uniform(-1.0, 11.0, size=(60, 3))
        sigma, cls = ens.score_sample(xs, mask)
        assert sigma.shape == (60, 2) and cls.shape == (60,)
        rows = [ens.score_sample(x, mask) for x in xs]
        assert [int(c) for c in cls] == [c for _, c in rows]
        assert np.allclose(sigma, [s for s, _ in rows], rtol=0.0, atol=1e-12)


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


class TestDistancePasses:
    def test_one_pass_per_member_state_and_sample(self, monkeypatch):
        """Every mahalanobis_sq call sees a (rules, sample, mask) key no
        earlier call saw, on a stream with a drift member, a recall, feature
        selection and frozen scoring."""
        keys, banks, recalls = [], [], [0]
        inner = RuleClassifier.mahalanobis_sq
        inner_recall = RuleClassifier.recall_check

        def counted(self, x, mask=None):
            b = self.rules
            banks.append(b)  # keeps every id() in the keys unique
            m = b"" if mask is None else mask.tobytes()
            keys.append((id(b), b.centers.tobytes(), b.inv.tobytes(), x.tobytes(), m))
            return inner(self, x, mask)

        def recall(self, x, mask=None):
            got = inner_recall(self, x, mask)
            recalls[0] += got is not None
            return got

        monkeypatch.setattr(RuleClassifier, "mahalanobis_sq", counted)
        monkeypatch.setattr(RuleClassifier, "recall_check", recall)
        cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=100, ofs_b=2,
                           al_conjunction=False)
        hyper = GrowPruneParams(age_min=30, potential_frac=0.6, density_sigmas=1.0)
        ens = Ensemble(cfg, hyper=hyper)
        sel = Selectors(cfg)
        rng = np.random.default_rng(1)
        drifts = 0
        for ch in chunks(two_region_stream(rng, 3, (300, 1500, 500)), cfg.chunk_size):
            drifts += ens.train_chunk(ch, sel).drifts
            for x in np.random.default_rng(ch.index).normal(0.0, 3.0, size=(5, 3)):
                ens.score_sample(x, sel.mask.active)
        assert drifts >= 1 and recalls[0] >= 1
        assert len(keys) == len(set(keys))


DEGENERATE = st.sampled_from(["none", "constant", "duplicate", "all_constant", "burst"])


class TestDegenerateStreams:
    @given(
        u=st.integers(1, 4),
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
            mask = sel.mask.active if sel.ofs_enabled else None
            for v in rng.normal(size=(20, u)):
                assert np.all(np.isfinite(ens.score_sample(v, mask)[0]))
