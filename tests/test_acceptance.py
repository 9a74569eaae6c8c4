"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one pass/fail line into the terminal summary.  The
benchmark reproductions run the full desk-scale protocols; the property
suites pin the statistical guarantees of the drift detector, the
compression index, the consequent learner, and the feature-selection
gradient.
"""

import json
import math

import numpy as np
import pytest

from evofuzzy import selection
from evofuzzy.cli import main as cli_main
from evofuzzy.core import Sample, StreamConfig, chunks
from evofuzzy.datagen import HyperplaneConfig, SeaConfig, gen_hyperplane, gen_sea
from evofuzzy.ensemble import DriftDetector, Ensemble, compression_index
from evofuzzy.evaluate import EvalProtocol, run_cv, run_holdout
from evofuzzy.rules import RuleClassifier, weighted_rls_update
from evofuzzy.selection import (
    OFS_REG,
    Selectors,
    consequent_gradients,
    consequent_output,
    sgd_step,
)


def record(report, number, ok, detail):
    tag = "PASS" if ok else "FAIL"
    report.append(f"[{tag}] criterion {number}: {detail}")
    return ok


# -- benchmark fixtures (shared across criteria) ---------------------------


@pytest.fixture(scope="module")
def sea_run():
    cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=250, seed=1)
    proto = EvalProtocol(
        mode="holdout", train_per_stamp=250, test_per_stamp=250, stamps=200
    )
    stream = gen_sea(SeaConfig(n_total=100_000, seed=1))
    return run_holdout(stream, cfg, proto)


@pytest.fixture(scope="module")
def hyperplane_run():
    cfg = StreamConfig(n_features=4, n_classes=2, chunk_size=1000, seed=7)
    proto = EvalProtocol(
        mode="holdout", train_per_stamp=1000, test_per_stamp=250, stamps=96
    )
    stream = gen_hyperplane(HyperplaneConfig(n_total=120_000, seed=7))
    return run_holdout(stream, cfg, proto)


class TestCriterion01SeaHoldout:
    def test_sea_table_protocol(self, sea_run, acceptance_report):
        metrics, _ = sea_run
        ok_cr = metrics.cr >= 0.90
        ok_budget = metrics.accepted_frac <= 0.40
        ok_bc = metrics.bc <= 4.0
        ok_rt = metrics.rt < 60.0
        detail = (
            f"SEA holdout cr={metrics.cr:.4f} (>=0.90) "
            f"accepted={100 * metrics.accepted_frac:.1f}% (<=40%) "
            f"bc={metrics.bc:.2f} (<=4) rt={metrics.rt:.1f}s (<60)"
        )
        ok = record(acceptance_report, "01", ok_cr and ok_budget and ok_bc and ok_rt, detail)
        assert ok, detail

    def test_sea_drift_events_track_the_shifts(self, sea_run):
        # threshold shifts land at stamps 50, 100, 150 of the protocol;
        # each must be answered by a drift event within 20 stamps
        metrics, _ = sea_run
        drift_stamps = [r["n"] for r in metrics.series if r["drifts"] > 0]
        assert len(drift_stamps) >= 3
        for boundary in (50, 100, 150):
            assert any(boundary <= d < boundary + 20 for d in drift_stamps), (
                f"no drift event within 20 stamps of shift at {boundary}: {drift_stamps}"
            )


class TestCriterion02Hyperplane:
    def test_hyperplane_holdout(self, hyperplane_run, acceptance_report):
        metrics, _ = hyperplane_run
        ok_cr = metrics.cr >= 0.88
        ok_budget = metrics.accepted_frac <= 0.40
        detail = (
            f"hyperplane holdout cr={metrics.cr:.4f} (>=0.88) "
            f"accepted={100 * metrics.accepted_frac:.1f}% (<=40%)"
        )
        ok = record(acceptance_report, "02a", ok_cr and ok_budget, detail)
        assert ok, detail

    def test_drift_detected_after_boundary_across_seeds(self, acceptance_report):
        # drift begins at sample 40k = stamp 32 of the 1000/250 protocol;
        # a drift event must land within 20 stamps after it in >= 90% of
        # 20 seeded runs (streams truncated past the detection window)
        stamps = 52
        boundary = 32
        hits = 0
        for seed in range(20):
            cfg = StreamConfig(n_features=4, n_classes=2, chunk_size=1000, seed=seed)
            proto = EvalProtocol(
                mode="holdout", train_per_stamp=1000, test_per_stamp=250, stamps=stamps
            )
            stream = gen_hyperplane(
                HyperplaneConfig(n_total=stamps * 1250, drift_start=40_000, seed=seed)
            )
            metrics, _ = run_holdout(stream, cfg, proto)
            drifts = [r["n"] for r in metrics.series if r["drifts"] > 0]
            if any(boundary <= d < boundary + 20 for d in drifts):
                hits += 1
        detail = f"drift within 20 stamps of the 40k boundary in {hits}/20 seeds (>=18)"
        ok = record(acceptance_report, "02b", hits >= 18, detail)
        assert ok, detail


class TestCriterion03FeatureSelection:
    def test_sea_with_budget_two_selects_the_label_features(self, acceptance_report):
        # SEA labels depend on features 1 and 2 only; with a budget of two
        # the mask must hold exactly {1, 2} on >= 80% of the selection-active
        # samples after warm-up
        cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=250, seed=2, ofs_b=2)
        proto = EvalProtocol(
            mode="holdout", train_per_stamp=250, test_per_stamp=250, stamps=60
        )
        stream = gen_sea(SeaConfig(n_total=30_000, seed=2))
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        metrics, _ = run_holdout(stream, cfg, proto, learner=ens, selectors=sel)
        warm = metrics.series[10:]
        # with a budget of 2, the mask is {1,2} exactly when feature 3 is off
        total = sum(r["ts"] for r in warm)
        off_target = sum(r["mask_activations"][2] for r in warm)
        frac = 1.0 - off_target / total
        detail = f"features {{1,2}} active on {100 * frac:.1f}% of selection-active samples (>=80%)"
        ok = record(acceptance_report, "03", frac >= 0.80, detail)
        assert ok, detail


class TestCriterion04CvSubstitute:
    def test_sensor_shaped_cv_smoke(self, acceptance_report):
        # full-scale SUSY/TCM runs are not reproducible at desk scale
        # (5M-sample download; unpublished sensor data); the contract is
        # the CV path on a dataset of the same shape
        rng = np.random.default_rng(42)
        samples = []
        for _ in range(157):
            x = rng.normal(size=12)
            samples.append(Sample(x, 1 if x[:4].sum() > 0 else 2))
        cfg = StreamConfig(n_features=12, n_classes=2, chunk_size=20)
        metrics, _ = run_cv(samples, cfg, folds=5)
        ok = (
            metrics.stamps == 5
            and 0.0 <= metrics.cr <= 1.0
            and metrics.ts > 0
            and metrics.np > 0
        )
        detail = (
            f"12-feature 157-sample CV smoke: cr={metrics.cr:.3f} "
            f"fr={metrics.fr:.1f} np={metrics.np:.0f} ts={metrics.ts}"
        )
        ok = record(acceptance_report, "04", ok, detail)
        assert ok, detail


class TestCriterion05CompressionIndex:
    def test_property_suite(self, acceptance_report):
        rng = np.random.default_rng(0)
        worst_bound = 0.0
        worst_sym = 0.0
        worst_shift = 0.0
        for _ in range(10_000):
            n = int(rng.integers(2, 30))
            y1 = rng.normal(scale=rng.uniform(0.1, 4.0), size=n)
            y2 = rng.normal(scale=rng.uniform(0.1, 4.0), size=n)
            v1, v2 = y1.var(), y2.var()
            cov = ((y1 - y1.mean()) * (y2 - y2.mean())).mean()
            xi = compression_index(v1, v2, cov)
            worst_bound = max(worst_bound, -xi, xi - 0.5 * (v1 + v2))
            worst_sym = max(worst_sym, abs(xi - compression_index(v2, v1, cov)))
            shifted = y1 + rng.uniform(-50, 50)
            v1s = shifted.var()
            covs = ((shifted - shifted.mean()) * (y2 - y2.mean())).mean()
            worst_shift = max(worst_shift, abs(xi - compression_index(v1s, v2, covs)))
            assert compression_index(y1.var(), y1.var(), y1.var()) == 0.0
        saturation = abs(compression_index(1.0, 1.0, 0.0) - 1.0)
        ok = (
            worst_bound <= 1e-12
            and worst_sym == 0.0
            and worst_shift <= 1e-9
            and saturation <= 1e-12
        )
        detail = (
            f"compression index over 1e4 pairs: bound slack {worst_bound:.1e}, "
            f"symmetry {worst_sym:.1e}, translation {worst_shift:.1e}, "
            f"saturation {saturation:.1e}"
        )
        ok = record(acceptance_report, "05", ok, detail)
        assert ok, detail


class TestCriterion06DriftDetector:
    def test_false_alarms_and_detection_power(self, acceptance_report):
        false_alarms = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            det = DriftDetector(max_window=1000)
            errs = (rng.random(10_000) < 0.2).astype(float)
            if any(det.step(e) == "drift" for e in errs):
                false_alarms += 1
        detected = 0
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            det = DriftDetector(max_window=1000)
            errs = np.concatenate(
                [
                    (rng.random(500) < 0.1).astype(float),
                    (rng.random(500) < 0.6).astype(float),
                ]
            )
            if any(det.step(e) == "drift" for e in errs):
                detected += 1
        ok = false_alarms <= 5 and detected >= 99
        detail = (
            f"drift detector: {false_alarms}/100 false alarms (<=5), "
            f"{detected}/100 step changes detected (>=99)"
        )
        ok = record(acceptance_report, "06", ok, detail)
        assert ok, detail


class TestCriterion07ConsequentLearner:
    def test_least_squares_equivalence_and_decay(self, acceptance_report):
        rng = np.random.default_rng(3)
        u, o, n = 3, 2, 50
        X = rng.normal(size=(n, u))
        X_e = np.hstack([np.ones((n, 1)), X])
        T = X_e @ rng.normal(size=(u + 1, o))
        model = RuleClassifier(u, o)
        model.rules.append(
            centers=np.zeros(u),
            inv=np.ones(u),
            weights=np.zeros((u + 1, o)),
            rls_cov=1e8 * np.eye(u + 1),
            class_support=np.array([1, 0], dtype=np.int64),
            activity=0.0,
            peak_potential=0.0,
            age=0,
        )
        rls_cov, weights = model.rules.rls_cov[0], model.rules.weights[0]
        for xe, t in zip(X_e, T):
            weighted_rls_update(rls_cov, weights, 1.0, xe, t, 0.0)
        w_ls = np.linalg.lstsq(X_e, T, rcond=None)[0]
        gap = float(np.max(np.abs(weights - w_ls)))
        x_e = X_e[0]
        t = x_e @ weights
        before = np.linalg.norm(weights)
        weighted_rls_update(rls_cov, weights, 1.0, x_e, t, 1e-7)
        shrink = np.linalg.norm(weights) < before
        ok = gap <= 1e-6 and shrink
        detail = (
            f"consequent learner: |W - lstsq| = {gap:.2e} (<=1e-6), "
            f"norm shrinks under decay: {shrink}"
        )
        ok = record(acceptance_report, "07", ok, detail)
        assert ok, detail


class TestCriterion08FeatureSelectionGradient:
    def test_finite_differences_and_projection(self, acceptance_report, monkeypatch):
        rng = np.random.default_rng(4)
        worst_rel = 0.0
        for _ in range(5):
            models = []
            for _ in range(2):
                m = RuleClassifier(3, 2)
                m.rules.append(
                    centers=rng.normal(size=3),
                    inv=rng.uniform(0.5, 2.0, size=3),
                    weights=rng.normal(size=(4, 2)),
                    rls_cov=np.eye(4),
                    class_support=np.array([2, 1], dtype=np.int64),
                    activity=0.0,
                    peak_potential=0.0,
                    age=0,
                )
                models.append(m)
            x = rng.normal(size=3)
            t = np.array([1.0, 0.0])
            d2s = [m.mahalanobis_sq(x) for m in models]

            def loss():
                y = consequent_output(models, x, d2s)
                return 0.5 * float((t - y) @ (t - y))

            # the full-model gradient is what the update consumes; compare
            # it as one vector so vanishing-firing rules do not reduce the
            # check to finite-difference roundoff dust
            grads = consequent_gradients(models, x, t, d2s)
            h = 1e-6
            fds = []
            for w in (w for m in models for w in m.rules.weights):
                fd = np.zeros_like(w)
                for i in range(4):
                    for j in range(2):
                        orig = w[i, j]
                        w[i, j] = orig + h
                        up = loss()
                        w[i, j] = orig - h
                        down = loss()
                        w[i, j] = orig
                        fd[i, j] = (up - down) / (2 * h)
                fds.append(fd)
            g_all = np.concatenate([g.ravel() for g in grads])
            fd_all = np.concatenate([f.ravel() for f in fds])
            rel = np.linalg.norm(g_all - fd_all) / np.linalg.norm(fd_all)
            worst_rel = max(worst_rel, rel)
        bound_ok = True
        monkeypatch.setattr(selection, "OFS_RATE", 0.5)
        for _ in range(50):
            m = RuleClassifier(3, 2)
            m.rules.append(
                centers=np.zeros(3),
                inv=np.ones(3),
                weights=20 * rng.normal(size=(4, 2)),
                rls_cov=np.eye(4),
                class_support=np.array([1, 0], dtype=np.int64),
                activity=0.0,
                peak_potential=0.0,
                age=0,
            )
            x = rng.normal(size=3)
            sgd_step([m], x, np.array([0.0, 1.0]), [m.mahalanobis_sq(x)])
            if np.linalg.norm(m.rules.weights[0]) > 1 / math.sqrt(OFS_REG) + 1e-12:
                bound_ok = False
        ok = worst_rel <= 1e-4 and bound_ok
        detail = (
            f"selection gradient vs central differences: rel err {worst_rel:.2e} "
            f"(<=1e-4); projected norms within radius: {bound_ok}"
        )
        ok = record(acceptance_report, "08", ok, detail)
        assert ok, detail


class TestCriterion09StructuralInvariants:
    def test_invariants_hold_through_a_run(self, acceptance_report):
        cfg = StreamConfig(n_features=3, n_classes=2, chunk_size=200, seed=5)
        ens = Ensemble(cfg)
        sel = Selectors(cfg)
        stream = gen_sea(SeaConfig(n_total=6000, seed=5))
        betas_ok = True
        for ch in chunks(stream, cfg.chunk_size):
            ens.train_chunk(ch, sel)
            if abs(sum(m.beta for m in ens.members) - 1.0) > 1e-12:
                betas_ok = False
            for m in ens.members:
                m.model.check_invariants()
        # clone merge: append an exact copy of a member; it must be merged
        # away within two chunks
        clone_src = ens.members[0]
        clone = ens._new_member()
        clone.model = RuleClassifier.from_snapshot(clone_src.model.snapshot())
        m_before = len(ens.members)
        tail = list(gen_sea(SeaConfig(n_total=400, seed=6)))
        merged_within = None
        for i, ch in enumerate(chunks(tail, cfg.chunk_size)):
            ens.train_chunk(ch, sel)
            if len(ens.members) < m_before:
                merged_within = i + 1
                break
        clone_ok = merged_within is not None and merged_within <= 2
        # frozen scoring leaves the snapshot hash unchanged
        before = ens.snapshot_hash()
        for v in np.linspace(0, 10, 25):
            ens.score_sample(np.array([v, v, v]))
        purity_ok = ens.snapshot_hash() == before
        ok = betas_ok and clone_ok and purity_ok
        detail = (
            f"structural invariants: betas normalized {betas_ok}, clone merged "
            f"within {merged_within} chunk(s) (<=2), test purity {purity_ok}"
        )
        ok = record(acceptance_report, "09", ok, detail)
        assert ok, detail


class TestCriterion10Determinism:
    def test_identical_runs_write_identical_metrics(self, tmp_path, acceptance_report):
        """Bit-identical metrics files, with the one documented exception:
        rt is wall clock and varies between runs by nature, so the rt field
        is normalized in both files before comparison and everything else
        must match byte for byte."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = cli_main(
                [
                    "run", "--gen", "sea", "--n", "6000", "--stamps", "12",
                    "--train", "250", "--test", "250", "--seed", "9",
                    "--metrics", str(path),
                ]
            )
            assert code == 0

        def normalized(path):
            lines = []
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                assert isinstance(rec.get("rt"), float)
                rec["rt"] = 0.0
                lines.append(json.dumps(rec, sort_keys=True))
            return "\n".join(lines)

        same = normalized(paths[0]) == normalized(paths[1])
        detail = "two identical runs produce identical metrics files (rt field excepted)"
        ok = record(acceptance_report, "10", same, detail)
        assert ok, detail
