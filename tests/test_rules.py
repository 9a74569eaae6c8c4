import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import evofuzzy.rules as rules_module
from evofuzzy.core import MAX_FEATURES, DataError
from evofuzzy.rules import (
    GrowDecision,
    RdeState,
    RuleBank,
    RuleClassifier,
    _CHI2_95,
    extended_input,
    firings,
    weighted_rls_update,
)


def make_rule(center, inv_cov, weights=None, support=1, n_classes=2, diagonal=True):
    """The columns of one rule row, all of its support in class 1; the
    dispersion inv_cov (u, u) is passed as its diagonal when diagonal."""
    center = np.asarray(center, dtype=float)
    u = len(center)
    inv_cov = np.asarray(inv_cov, dtype=float)
    class_support = np.zeros(n_classes, dtype=np.int64)
    class_support[0] = support
    return dict(
        centers=center,
        inv=np.diag(inv_cov) if diagonal else inv_cov,
        weights=np.zeros((u + 1, n_classes)) if weights is None else weights,
        rls_cov=1e5 * np.eye(u + 1),
        class_support=class_support,
        activity=0.0,
        peak_potential=0.0,
        age=0,
    )


def dispersion(bank, i):
    """Rule i's inverse dispersion as a (u, u) matrix."""
    return np.diag(bank.inv[i]) if bank.diagonal else bank.inv[i]


def one_rule_model(center, inv_cov, kind="axis_parallel", **kw):
    model = RuleClassifier(len(center), 2, kind=kind)
    model.rules.append(**make_rule(center, inv_cov, diagonal=kind == "axis_parallel", **kw))
    return model


KINDS = ("axis_parallel", "multivariate")


def passes(model, x):
    """The distance and scoring passes a caller of train_sample makes."""
    d2 = model.mahalanobis_sq(x)
    return d2, model.infer(x, d2)[0]


def train(model, x, label):
    """One training step, with the passes a caller of train_sample makes."""
    x = np.asarray(x, dtype=float)
    return model.train_sample(x, label, *passes(model, x))


def infer(model, x):
    return model.infer(x, model.mahalanobis_sq(x))


class TestFire:
    """Firing exp(-d) of a one-rule model, d from mahalanobis_sq, for
    both kinds of dispersion."""

    def test_unit_at_center(self):
        for kind in KINDS:
            model = one_rule_model([1.0, -2.0], np.eye(2), kind)
            assert math.exp(-model.mahalanobis_sq(np.array([1.0, -2.0]))[0]) == 1.0

    def test_identity_dispersion_basis_vector(self):
        for kind in KINDS:
            model = one_rule_model([0.0, 0.0], np.eye(2), kind)
            d2 = model.mahalanobis_sq(np.array([1.0, 0.0]))[0]
            assert math.exp(-d2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_diagonal_dispersion(self):
        for kind in KINDS:
            model = one_rule_model([0.0, 0.0], np.diag([4.0, 1.0]), kind)
            d2 = model.mahalanobis_sq(np.array([0.5, 0.0]))[0]
            assert math.exp(-d2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mask_zeroes_contribution(self):
        mask = np.array([1.0, 0.0])
        for kind in KINDS:
            model = one_rule_model([0.0, 0.0], np.eye(2), kind)
            assert math.exp(-model.mahalanobis_sq(np.array([0.0, 9.0]), mask)[0]) == 1.0


class TestRuleVolume:
    """The stored volume det(Sigma) of a one-rule model."""

    def test_identity(self):
        for kind in KINDS:
            model = one_rule_model([0, 0], np.eye(2), kind)
            assert model.rules.volumes[0] == pytest.approx(1.0)

    def test_tight_rule(self):
        for kind in KINDS:
            model = one_rule_model([0, 0], np.diag([4.0, 4.0]), kind)
            assert model.rules.volumes[0] == pytest.approx(1 / 16)

    def test_wide_rule(self):
        for kind in KINDS:
            model = one_rule_model([0, 0], np.diag([0.25, 1.0]), kind)
            assert model.rules.volumes[0] == pytest.approx(4.0)

    def test_volume_follows_dispersion_updates(self):
        rng = np.random.default_rng(1)
        for kind in KINDS:
            model = RuleClassifier(3, 2, kind=kind)
            for _ in range(40):
                train(model, rng.normal(size=3), int(rng.integers(1, 3)))
            for i in range(len(model.rules)):
                det = np.linalg.det(dispersion(model.rules, i))
                assert model.rules.volumes[i] == pytest.approx(1.0 / det, rel=1e-12)
            model.check_invariants()

    @pytest.mark.parametrize("name", RuleBank.DERIVED)
    def test_invariants_need_each_derived_column_in_step(self, name):
        for kind in KINDS:
            model = one_rule_model([0.0, 0.0], np.diag([3.0, 0.7]), kind)
            train(model, np.array([0.5, -0.2]), 2)
            model.check_invariants()
            col = getattr(model.rules, name)
            col.flat[0] = col.flat[0] + 1 if col.dtype.kind == "i" else np.nextafter(col.flat[0], 9)
            with pytest.raises(AssertionError, match=f"{name} out of step"):
                model.check_invariants()

    def test_invariants_need_volumes_exactly_in_step(self):
        for kind in KINDS:
            model = one_rule_model([0.0, 0.0], np.diag([3.0, 0.7]), kind)
            model.check_invariants()
            model.rules.volumes[0] = np.nextafter(model.rules.volumes[0], np.inf)
            with pytest.raises(AssertionError):
                model.check_invariants()


class TestRuleBank:
    def test_axis_parallel_bank_rejects_full_dispersion(self):
        model = RuleClassifier(2, 2)
        with pytest.raises(ValueError):
            model.rules.append(**make_rule([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], diagonal=False))
        assert len(model.rules) == 0
        for name in [f.key for f in RuleBank.FIELDS] + ["volumes"]:
            assert len(getattr(model.rules, name)) == 0

    def test_indefinite_dispersion_rejected(self):
        for kind in KINDS:
            model = RuleClassifier(2, 2, kind=kind)
            with pytest.raises(FloatingPointError):
                model.rules.append(
                    **make_rule([0.0, 0.0], np.diag([1.0, -1.0]), diagonal=kind == "axis_parallel")
                )
            assert len(model.rules) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_move_round_trip_keeps_every_column(self, kind):
        rng = np.random.default_rng(2)
        model = RuleClassifier(3, 2, kind=kind, age_min=20)
        for _ in range(60):
            train(model, rng.normal(0.0, 2.0, 3), int(rng.integers(1, 3)))
        names = [f.key for f in RuleBank.FIELDS] + ["volumes"]
        rules = {name: getattr(model.rules, name).copy() for name in names}
        archive = {name: getattr(model.archive, name).copy() for name in names}
        n, a = len(model.rules), len(model.archive)
        assert n >= 3 and len(np.unique(model.rules.age)) > 1
        assert model.rules.move(1, model.archive) == a
        assert model.archive.move(a, model.rules) == n - 1
        order = [i for i in range(n) if i != 1] + [1]
        for name in names:
            got = getattr(model.rules, name)
            assert got.dtype == rules[name].dtype
            assert np.array_equal(got, rules[name][order])
            assert np.array_equal(getattr(model.archive, name), archive[name])
        model.check_invariants()


class TestBankLoad:
    """RuleClassifier.from_snapshot restores each bank from its columns."""

    def trained_state(self, kind):
        rng = np.random.default_rng(6)
        model = RuleClassifier(2, 2, kind=kind)
        for _ in range(40):
            train(model, rng.normal(0.0, 2.0, 2), int(rng.integers(1, 3)))
        assert len(model.rules) >= 2
        return json.loads(json.dumps(model.snapshot()))

    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_column(self, kind):
        state = self.trained_state(kind)
        del state["rules"]["rls_cov"]
        with pytest.raises(DataError, match=r"'rules' lacks keys: rls_cov$"):
            RuleClassifier.from_snapshot(state)

    def test_list_of_rules_is_missing_every_column(self):
        state = self.trained_state("axis_parallel")
        rules = state["rules"]
        state["rules"] = [{k: v[i] for k, v in rules.items()} for i in range(len(rules["age"]))]
        with pytest.raises(DataError, match=r"'rules' lacks keys: centers, inv,"):
            RuleClassifier.from_snapshot(state)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrongly_shaped_column(self, kind):
        state = self.trained_state(kind)
        for name, bad in (
            ("centers", lambda col: [c[:1] for c in col]),
            ("weights", lambda col: col[1:]),
            ("inv", lambda col: [np.diag(c).tolist() for c in col]),  # (u,) <-> (u, u)
            ("class_support", lambda col: [c + [0] for c in col]),
        ):
            broken = json.loads(json.dumps(state))
            broken["rules"][name] = bad(broken["rules"][name])
            with pytest.raises(DataError, match=f"'rules' has {name} of shape"):
                RuleClassifier.from_snapshot(broken)

    @pytest.mark.parametrize("kind", KINDS)
    def test_indefinite_dispersion(self, kind):
        state = self.trained_state(kind)
        state["rules"]["inv"][1] = [1.0, -2.0] if kind == "axis_parallel" else [[1.0, 0.0], [0.0, -2.0]]
        with pytest.raises(DataError, match="positive definiteness"):
            RuleClassifier.from_snapshot(state)

    @pytest.mark.parametrize("support, match", [
        ([0, 0], "'rules': class_support has a rule support below 1$"),
        ([2, -1], r"'rules' has class_support with a value outside \[0, inf\]$"),
    ], ids=["zero", "negative"])
    def test_class_support_below_one(self, support, match):
        """A rule without support would divide by zero in its first update."""
        state = self.trained_state("multivariate")
        state["rules"]["class_support"][1] = support
        with pytest.raises(DataError, match=match):
            RuleClassifier.from_snapshot(state)


class TestChi2Quantile:
    def test_table_equals_scipy_stats_bit_for_bit(self):
        """The table holds the NOVELTY_Q quantile for every count of
        active features up to the feature bound."""
        assert len(_CHI2_95) == MAX_FEATURES == 64
        for df in range(1, MAX_FEATURES + 1):
            assert _CHI2_95[df - 1].hex() == float(chi2.ppf(rules_module.NOVELTY_Q, df)).hex()

    def test_package_import_leaves_scipy_stats_out(self):
        """Neither the import nor a short SEA run, whose novelty gate
        reads the table, loads any part of scipy."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import evofuzzy

        env = dict(os.environ, PYTHONPATH=str(Path(evofuzzy.__file__).parents[1]))
        code = (
            "import sys, evofuzzy as ef\n"
            "print('scipy' in sys.modules)\n"
            "gates = []\n"
            "grow_check = ef.RuleClassifier.grow_check\n"
            "def counted(self, density, t, d2, scores, win, mask=None):\n"
            "    gates.append(win is not None)\n"
            "    return grow_check(self, density, t, d2, scores, win, mask)\n"
            "ef.RuleClassifier.grow_check = counted\n"
            "proto = ef.EvalProtocol('holdout', 250, 250, stamps=4)\n"
            "cfg = ef.StreamConfig(n_features=3, n_classes=2, chunk_size=250)\n"
            "ef.run_holdout(ef.gen_sea(ef.SeaConfig(n_total=2000, seed=1)), cfg, proto)\n"
            "print(sum(gates) > 0, 'scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.split() == ["False", "True", "False"]


class TestFeatureBound:
    @pytest.mark.parametrize("kind", KINDS)
    def test_at_most_64_features(self, kind):
        assert RuleClassifier(MAX_FEATURES, 2, kind).n_features == 64
        with pytest.raises(ValueError, match=r"^n_features must be in \[1, 64\]$"):
            RuleClassifier(MAX_FEATURES + 1, 2, kind)

    def test_snapshot_past_the_bound_is_data_error(self):
        state = json.loads(json.dumps(RuleClassifier(3, 2).snapshot()))
        state["n_features"] = MAX_FEATURES + 1
        with pytest.raises(DataError, match=r"^snapshot section 'model' has n_features 65 "
                                            r"outside \[1, 64\]$"):
            RuleClassifier.from_snapshot(state)


class TestInfer:
    def test_single_rule_is_exact_consequent(self):
        model = RuleClassifier(2, 2)
        w = np.array([[0.2, 0.8], [1.0, -1.0], [0.5, 0.0]])
        model.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=w))
        x = np.array([0.3, -0.7])
        scores, cls = infer(model, x)
        expected = extended_input(x) @ w
        assert np.allclose(scores, expected, rtol=1e-12)
        assert cls == int(np.argmax(expected)) + 1

    def test_two_identical_rules_match_single(self):
        w = np.array([[0.2, 0.8], [1.0, -1.0], [0.5, 0.0]])
        single = RuleClassifier(2, 2)
        single.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=w))
        double = RuleClassifier(2, 2)
        double.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=w))
        double.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=w))
        x = np.array([0.4, 0.1])
        assert np.allclose(infer(single, x)[0], infer(double, x)[0], rtol=1e-12)

    def test_two_rules_hand_computed(self):
        wa = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        wb = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        model = RuleClassifier(2, 2)
        model.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=wa))
        model.rules.append(**make_rule([2.0, 0.0], np.eye(2), weights=wb))
        x = np.array([0.0, 0.0])  # at rule A's center
        fa, fb = 1.0, math.exp(-4.0)
        la, lb = fa / (fa + fb), fb / (fa + fb)
        scores, cls = infer(model, x)
        assert np.allclose(scores, [la, lb], rtol=1e-12)
        assert cls == 1

    def test_empty_model_scores_zero(self):
        model = RuleClassifier(2, 3)
        scores, cls = infer(model, np.array([0.4, -1.0]))
        assert np.array_equal(scores, np.zeros(3)) and cls == 1
        scores, cls = infer(model, np.ones((4, 2)))
        assert np.array_equal(scores, np.zeros((4, 3))) and np.array_equal(cls, [1, 1, 1, 1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_rows_match_single_vectors(self, kind):
        rng = np.random.default_rng(5)
        model = RuleClassifier(3, 3, kind=kind)
        for x in rng.normal(size=(300, 3)):
            train(model, x, int(rng.integers(1, 4)))
        assert len(model.rules) >= 2
        mask = np.array([1.0, 0.0, 1.0])
        xs = rng.normal(0.0, 2.0, size=(40, 3))
        for m in (None, mask):
            d2 = model.mahalanobis_sq(xs, m)
            scores, cls = model.infer(xs, d2, m)
            assert d2.shape == (40, len(model.rules)) and scores.shape == (40, 3)
            assert firings(d2).sum(axis=1) == pytest.approx(np.ones(40), abs=1e-12)
            assert extended_input(xs, m).shape == (40, 4)
            for i, x in enumerate(xs):
                d2_i = model.mahalanobis_sq(x, m)
                s_i, c_i = model.infer(x, d2_i, m)
                assert np.allclose(d2[i], d2_i, rtol=1e-12, atol=0.0)
                assert np.allclose(scores[i], s_i, rtol=0.0, atol=1e-12)
                assert cls[i] == c_i

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=50)
    def test_normalized_firings_sum_to_one(self, xs):
        model = RuleClassifier(2, 2)
        model.rules.append(**make_rule([0.0, 0.0], np.eye(2)))
        model.rules.append(**make_rule([3.0, -1.0], np.diag([2.0, 0.5])))
        model.rules.append(**make_rule([-40.0, 40.0], np.eye(2)))
        lam = firings(model.mahalanobis_sq(np.array(xs)))
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam >= 0)


def winner_model(invs, supports):
    """Two-feature rules at the origin, rule i with inverse dispersion
    diagonal invs[i] (volume 1 / invs[i]^2 against a cap of 9) and class
    supports supports[i]."""
    model = RuleClassifier(2, 2)
    for inv, cs in zip(invs, supports):
        model.rules.append(**{**make_rule([0.0, 0.0], inv * np.eye(2)), "class_support": cs})
    return model


class TestWinner:
    def test_within_cap_rule_beats_a_closer_over_cap_rule(self):
        model = winner_model([0.01, 1.0], [[1, 0], [1, 0]])
        assert model.rules.volumes[0] > model.volume_cap >= model.rules.volumes[1]
        assert model.winner(np.array([0.0, 5.0]), 1) == 1

    @pytest.mark.parametrize("d2, win", [([0.0, 5.0], 0), ([5.0, 0.0], 1)])
    def test_plain_score_decides_when_every_rule_is_over_cap(self, d2, win):
        model = winner_model([0.01, 0.01], [[1, 0], [1, 0]])
        assert (model.rules.volumes > model.volume_cap).all()
        assert model.winner(np.array(d2), 1) == win

    def test_purer_rule_beats_an_equally_close_impure_one(self):
        # equal supports, so equal priors: only the purity for the label differs
        model = winner_model([1.0, 1.0], [[1, 3], [3, 1]])
        assert model.winner(np.array([1.0, 1.0]), 1) == 1
        assert model.winner(np.array([1.0, 1.0]), 2) == 0

    def test_tie_goes_to_the_lowest_index(self):
        model = winner_model([1.0, 1.0, 1.0], [[2, 1], [2, 1], [2, 1]])
        assert model.winner(np.array([2.0, 1.0, 1.0]), 1) == 1
        assert model.winner(np.array([1.0, 1.0, 1.0]), 2) == 0


class TestGrowCheck:
    def test_empty_model_always_grows(self):
        model = RuleClassifier(2, 2)
        x = np.zeros(2)
        d = model.grow_check(model.rde.potential(x), np.array([1.0, 0.0]), *passes(model, x), None)
        assert d is GrowDecision.GROW

    def test_center_hit_with_correct_prediction_updates(self):
        model = RuleClassifier(2, 2)
        w = np.zeros((3, 2))
        w[0] = [1.0, 0.0]  # predicts class 1 exactly at the center
        model.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=w, support=5))
        x = np.zeros(2)
        d = model.grow_check(model.rde.potential(x), np.array([1.0, 0.0]), *passes(model, x), 0)
        assert d is GrowDecision.UPDATE

    def test_far_wrong_sample_grows_against_predicate_oracle(self):
        model = RuleClassifier(2, 2)
        w = np.zeros((3, 2))
        w[0] = [1.0, 0.0]
        model.rules.append(**make_rule([0.0, 0.0], np.eye(2), weights=w, support=30))
        rng = np.random.default_rng(0)
        history = [rng.normal(0.0, 0.5, size=2) for _ in range(30)]
        for h in history:
            model.rde.update(h)
        x = np.array([10.0, 10.0])
        model.rde.update(x)
        t = np.array([0.0, 1.0])
        # oracle: re-derive the three predicates from raw quantities
        scores = extended_input(x) @ w
        err_gate = np.linalg.norm(t - scores) > rules_module.ERR_GROW
        d2 = float(x @ np.eye(2) @ x)
        novelty_gate = d2 > chi2.ppf(rules_module.NOVELTY_Q, 2)
        seq = history + [x]
        densities = []
        for k, v in enumerate(seq, start=1):
            mu = np.mean(seq[:k], axis=0)
            msq = np.mean([p @ p for p in seq[:k]])
            spread = msq - mu @ mu
            densities.append(1.0 / (1.0 + (v - mu) @ (v - mu) + spread))
        # exponentially weighted mean/variance of the density series
        a = 1.0 - rules_module.DECAY
        dmean, dvar = densities[0], 0.0
        for d in densities[1:]:
            delta = d - dmean
            dmean += a * delta
            dvar = (1.0 - a) * (dvar + a * delta * delta)
        density_gate = densities[-1] < dmean - rules_module.DENSITY_SIGMAS * math.sqrt(dvar)
        assert err_gate and novelty_gate and density_gate
        assert model.grow_check(model.rde.potential(x), t, *passes(model, x), 0) is GrowDecision.GROW

    def test_oversized_winner_forces_growth(self):
        model = RuleClassifier(2, 2)
        w = np.zeros((3, 2))
        w[0] = [1.0, 0.0]
        # volume = 1/det = 1e4 > 0.25 * 6^2 = 9
        model.rules.append(**make_rule([0.0, 0.0], np.diag([0.01, 0.01]), weights=w))
        x = np.zeros(2)
        d = model.grow_check(model.rde.potential(x), np.array([1.0, 0.0]), *passes(model, x), 0)
        assert d is GrowDecision.VOLUME_FORCED
        assert d.grows


class TestAddRule:
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_birth_at_the_cap_stays_within_it(self, kind):
        """A rule born far from the others takes the spread sigma_cap,
        whose volume can round to just over the cap: for 24 of u = 1..64
        with each kind.  Such a birth is tightened by a few ulps to within
        the cap, so it does not force growth when it next wins; every
        other birth keeps the spread 1 / sigma_cap^2 to the bit."""
        t = np.array([1.0, 0.0])
        over = 0
        for u in range(1, MAX_FEATURES + 1):
            model = RuleClassifier(u, 2, kind)
            model.add_rule(np.zeros(u), t, None)
            model.add_rule(np.full(u, 1e6), t, 0)
            b = model.rules
            sigma_cap = model.volume_cap ** (1.0 / (2.0 * u))
            spread = np.full(u, 1.0 / (sigma_cap * sigma_cap))
            inv = b.inv[1] if b.diagonal else np.diagonal(b.inv[1])
            assert b.diagonal or np.array_equal(b.inv[1], np.diag(inv))
            if b.volume(spread if b.diagonal else np.diag(spread)) > model.volume_cap:
                over += 1
                assert np.all(inv == inv[0]) and inv[0] > spread[0]
                assert inv[0] <= spread[0] * (1.0 + 1e-14)
            else:
                assert np.array_equal(inv, spread)
            assert b.volumes[1] <= model.volume_cap
            x = b.centers[1]
            d2, scores = passes(model, x)
            assert model.winner(d2, 1) == 1
            assert model.grow_check(1.0, t, d2, scores, 1) is GrowDecision.UPDATE
        assert over > 0

    def test_first_rule_fields(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        b = model.rules
        assert np.array_equal(b.centers[0], [0.0, 0.0])
        assert np.array_equal(b.inv[0], [1.0, 1.0])
        assert b.supports[0] == 1
        assert np.array_equal(b.class_support[0], [1, 0])
        assert np.all(b.weights[0] == 0.0)
        assert np.array_equal(b.rls_cov[0], 1e5 * np.eye(3))
        assert b.activity[0] == 1.0 and b.peak_potential[0] == 0.0 and b.age[0] == 0

    def test_second_rule_spread_from_nearest_center(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        model.add_rule(np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0)
        # distance 2 -> sigma0 = 1 -> identity dispersion
        assert np.allclose(dispersion(model.rules, 1), np.eye(2))

    def test_spread_floor(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        model.add_rule(np.array([0.05, 0.0]), np.array([0.0, 1.0]), 0)
        # sigma0 floored at 0.1 -> inv_cov = 100 I
        assert np.allclose(dispersion(model.rules, 1), 100.0 * np.eye(2))

    def test_consequent_copied_from_winner(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        model.rules.weights[0] = 7.0
        model.add_rule(np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0)
        assert np.all(model.rules.weights[1] == 7.0)


class TestUpdateWinner:
    def test_center_hit_is_noop_on_geometry(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([1.0, 1.0]), np.array([1.0, 0.0]), None)
        before_c = model.rules.centers[0].copy()
        before_s = model.rules.inv[0].copy()
        model.update_winner(np.array([1.0, 1.0]), 1, 0)
        assert np.array_equal(model.rules.centers[0], before_c)
        assert np.array_equal(model.rules.inv[0], before_s)
        assert model.rules.supports[0] == 2

    def test_class_support_tracks_labels(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        for label in (1, 2, 2, 1, 1):
            model.update_winner(np.array([0.1, -0.1]), label, 0)
        assert model.rules.supports[0] == 6
        assert np.array_equal(model.rules.class_support[0], [4, 2])

    def test_monte_carlo_against_batch_oracle(self):
        rng = np.random.default_rng(3)
        true_mean = np.array([1.0, -0.5])
        true_cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        xs = rng.multivariate_normal(true_mean, true_cov, size=100)
        model = RuleClassifier(2, 2, kind="multivariate")
        model.add_rule(xs[0], np.array([1.0, 0.0]), None)
        for x in xs[1:]:
            model.update_winner(x, 1, 0)
        center = model.rules.centers[0]
        # center is the exact running mean of all absorbed samples
        assert np.allclose(center, xs.mean(axis=0), rtol=1e-9, atol=1e-9)
        se = np.sqrt(np.diag(true_cov) / len(xs))
        assert np.all(np.abs(center - true_mean) < 3 * se)
        cov_est = np.linalg.inv(model.rules.inv[0])
        rel = np.linalg.norm(cov_est - true_cov) / np.linalg.norm(true_cov)
        assert rel < 0.30

    def test_axis_parallel_offdiagonals_stay_zero(self):
        # an axis-parallel bank stores no off-diagonals: inv stays (R, u)
        rng = np.random.default_rng(4)
        model = RuleClassifier(2, 2, kind="axis_parallel")
        model.add_rule(rng.normal(size=2), np.array([1.0, 0.0]), None)
        for _ in range(50):
            model.update_winner(rng.normal(size=2), int(rng.integers(1, 3)), 0)
        assert model.rules.inv.shape == (1, 2) and np.all(model.rules.inv > 0.0)

    def test_masked_features_stay_frozen(self):
        model = RuleClassifier(2, 2, kind="axis_parallel")
        model.add_rule(np.array([0.0, 5.0]), np.array([1.0, 0.0]), None)
        mask = np.array([1.0, 0.0])
        before = model.rules.inv[0, 1]
        for x in ([1.0, -3.0], [0.5, 8.0], [-0.7, 0.0]):
            model.update_winner(np.array(x), 1, 0, mask)
        assert model.rules.centers[0, 1] == 5.0
        assert model.rules.inv[0, 1] == before

    @staticmethod
    def boolean_index_update(inv, d_old, n):
        """The diagonal recurrence as a gather over the live features and a scatter back."""
        live = d_old != 0.0
        var = 1.0 / inv
        upd = ((n - 1) * var[live] + d_old[live] ** 2 * (n - 1) / n) / n
        var[live] = np.maximum(upd, rules_module.EIG_FLOOR)
        return 1.0 / var

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_diagonal_update_equals_the_boolean_index_form(self, seed):
        """Under a partial mask and with exact-zero displacements, frozen
        features keep their inv bits, and live ones equal the boolean-index
        recurrence bit for bit."""
        rng = np.random.default_rng(seed)
        u = int(rng.integers(2, 13))
        # a step past 1 / (1 / inv), so a frozen entry that went through
        # a reciprocal twice would show
        inv = np.nextafter(rng.uniform(0.05, 20.0, u), np.inf)
        center = rng.normal(size=u)
        model = RuleClassifier(u, 2, kind="axis_parallel")
        support = int(rng.integers(1, 50))
        model.rules.append(**make_rule(center, np.diag(inv), support=support))
        x = rng.normal(size=u)
        hit = rng.random(u) < 0.3
        x[hit] = center[hit]
        mask = (rng.random(u) < 0.6).astype(float)
        mask[int(rng.integers(u))] = 1.0
        model.update_winner(x, 1, 0, mask)
        d_old = (x - center) * mask
        live = d_old != 0.0
        got = model.rules.inv[0]
        assert np.array_equal(got[~live].view(np.int64), inv[~live].view(np.int64))
        oracle = self.boolean_index_update(inv.copy(), d_old, support + 1)
        assert np.array_equal(got[live], oracle[live])

    def test_diagonal_update_at_extreme_variances(self):
        """With floating-point errors raising, a frozen variance whose
        recurrence would overflow leaves the update quiet, and a live one
        that overflows raises as the boolean-index form does."""
        n = 10**9
        inv = np.array([1e-300, 1.0, 4.0])
        mask = np.array([0.0, 1.0, 1.0])
        model = RuleClassifier(3, 2, kind="axis_parallel")
        model.rules.append(**make_rule(np.zeros(3), np.diag(inv), support=n - 1))
        x = np.array([3.0, 0.5, 0.0])
        with np.errstate(over="raise", invalid="raise"):
            model.update_winner(x, 1, 0, mask)
            oracle = self.boolean_index_update(inv.copy(), x * mask, n)
        got = model.rules.inv[0]
        assert got[0] == inv[0] and got[2] == inv[2] and got[1] == oracle[1]
        model.check_invariants()
        x = np.array([0.0, 1e200, 0.0])
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError):
                self.boolean_index_update(model.rules.inv[0].copy(), x, n + 1)
            with pytest.raises(FloatingPointError):
                model.update_winner(x, 1, 0, mask)

    def test_rank_one_update_matches_explicit_inverse(self, monkeypatch):
        """2,000 unmasked multivariate updates take the Sherman-Morrison
        step, and the stored inverse matches the inverse of the covariance
        recurrence run explicitly."""
        repairs = []
        repair = rules_module._repair_spd
        monkeypatch.setattr(rules_module, "_repair_spd", lambda m: repairs.append(1) or repair(m))
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))
        xs = rng.multivariate_normal(np.zeros(4), a @ a.T + 0.1 * np.eye(4), size=2001)
        model = RuleClassifier(4, 2, kind="multivariate")
        model.add_rule(xs[0], np.array([1.0, 0.0]), None)
        center, cov = xs[0].copy(), np.linalg.inv(model.rules.inv[0])
        for n, x in enumerate(xs[1:], start=2):
            model.update_winner(x, 1, 0)
            d = x - center
            center += d / n
            cov = (n - 1) / n * (cov + np.outer(d, d) / n)
        assert not repairs
        oracle = np.linalg.inv(cov)
        assert np.linalg.norm(model.rules.inv[0] - oracle) <= 1e-9 * np.linalg.norm(oracle)
        model.check_invariants()

    @pytest.mark.parametrize("mask", [None, np.array([1.0, 0.0, 1.0])], ids=["unmasked", "masked"])
    def test_explicit_repair_path_near_the_floor(self, monkeypatch, mask):
        """An inverse near 1/EIG_FLOOR, or a partial mask, takes the
        explicit path with both repairs, and the bank stays valid."""
        repairs = []
        repair = rules_module._repair_spd
        monkeypatch.setattr(rules_module, "_repair_spd", lambda m: repairs.append(1) or repair(m))
        model = RuleClassifier(3, 2, kind="multivariate")
        near = 0.9 / rules_module.EIG_FLOOR if mask is None else 1.0
        model.rules.append(**make_rule([0.0, 0.0, 0.0], np.diag([near, 1.0, 1.0]), diagonal=False))
        model.update_winner(np.array([1e-5, 0.5, -0.3]), 1, 0, mask)
        assert len(repairs) == 2
        model.check_invariants()
        assert np.linalg.eigvalsh(model.rules.inv[0])[0] > 0.0

    @pytest.mark.parametrize("u, scale", [(12, 1.0), (24, 1.0), (64, 1e4)])
    def test_rank_one_update_past_the_determinant_bound(self, monkeypatch, u, scale):
        """Past u = 9 the det/trace bound fails for a well-conditioned P,
        so its eigenvalues decide: the Sherman-Morrison result is kept and
        matches the explicit path, while a P with an eigenvalue near
        1/EIG_FLOOR still takes the explicit path with both repairs.  At
        u = 64 both traces put trace^(u-1) past the float range, which
        the bound takes as failing."""
        repairs = []
        repair = rules_module._repair_spd
        monkeypatch.setattr(rules_module, "_repair_spd", lambda m: repairs.append(1) or repair(m))
        rng = np.random.default_rng(u)
        a = rng.normal(size=(u, u))
        p = scale * np.linalg.inv(a @ a.T / u + np.eye(u))
        model = RuleClassifier(u, 2, kind="multivariate")
        model.rules.append(**make_rule(np.zeros(u), p, support=9, diagonal=False))
        x = rng.normal(size=u)
        model.update_winner(x, 1, 0)
        n = 10
        cov = (n - 1) / n * (np.linalg.inv(p) + np.outer(x, x) / n)
        oracle = np.linalg.inv(cov)
        tr, det = oracle.trace(), np.linalg.det(oracle)
        # the bound alone rejects it
        assert math.log(det) - (u - 1) * math.log(tr) <= math.log(rules_module.EIG_FLOOR)
        assert not repairs
        got = model.rules.inv[0]
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)
        assert model.rules.volumes[0] == pytest.approx(1.0 / det, rel=1e-9)
        model.check_invariants()

        near = np.eye(u)
        near[0, 0] = 0.9 / rules_module.EIG_FLOOR
        model.rules.append(**make_rule(np.zeros(u), near, support=1, diagonal=False))
        x = np.full(u, 0.5)
        x[0] = 0.0  # the step scales that eigenvalue by n/(n-1) = 2, past the floor
        model.update_winner(x, 1, 1)
        assert len(repairs) == 2
        model.check_invariants()


class TestWeightedRls:
    def test_matches_closed_form_least_squares(self):
        rng = np.random.default_rng(11)
        u, o, n = 3, 2, 50
        X = rng.normal(size=(n, u))
        X_e = np.hstack([np.ones((n, 1)), X])
        w_true = rng.normal(size=(u + 1, o))
        T = X_e @ w_true  # noiseless linear target
        weights, rls_cov = np.zeros((u + 1, o)), 1e8 * np.eye(u + 1)
        for xe, t in zip(X_e, T):
            weighted_rls_update(rls_cov, weights, 1.0, xe, t, 0.0)
        w_ls = np.linalg.lstsq(X_e, T, rcond=None)[0]
        assert np.max(np.abs(weights - w_ls)) <= 1e-6

    def test_zero_error_zero_decay_leaves_weights(self):
        weights, rls_cov = np.array([[1.0, 0.0], [2.0, -1.0]]), 1e5 * np.eye(2)
        x_e = np.array([1.0, 0.5])
        t = x_e @ weights  # exactly on the model
        before = weights.copy()
        weighted_rls_update(rls_cov, weights, 1.0, x_e, t, 0.0)
        assert np.array_equal(weights, before)

    def test_decay_strictly_shrinks_on_zero_error(self):
        weights, rls_cov = np.array([[1.0, 0.0], [2.0, -1.0]]), 1e5 * np.eye(2)
        x_e = np.array([1.0, 0.5])
        t = x_e @ weights
        before = np.linalg.norm(weights)
        weighted_rls_update(rls_cov, weights, 1.0, x_e, t, 1e-7)
        assert np.linalg.norm(weights) < before


class TestPrune:
    def test_batched_potentials_equal_per_center_products(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            u = int(rng.integers(1, 10))
            rde = RdeState(u)
            for x in rng.normal(size=(int(rng.integers(1, 20)), u)) * rng.uniform(0.1, 50.0):
                rde.update(x)
            centers = rng.normal(size=(int(rng.integers(1, 8)), u)) * rng.uniform(0.1, 50.0)
            spread = max(rde.sq_norm_mean - float(rde.mean @ rde.mean), 0.0)
            rows = [1.0 / (1.0 + float((c - rde.mean) @ (c - rde.mean)) + spread) for c in centers]
            assert np.array_equal(rde.potential(centers), rows)
            assert [rde.potential(c) for c in centers] == rows


    def _two_rule_model(self, monkeypatch, age=1000, age_min=10):
        monkeypatch.setattr(rules_module, "DECAY", 0.9)
        model = RuleClassifier(2, 2, age_min=age_min)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        model.add_rule(np.array([8.0, 8.0]), np.array([0.0, 1.0]), 0)
        model.rules.age[:] = age
        model.rules.activity[:] = 0.5
        return model

    def test_inactive_rule_pruned_per_recurrence_oracle(self, monkeypatch):
        model = self._two_rule_model(monkeypatch)
        g = rules_module.DECAY
        a = [0.5, 0.5]
        pruned_at = None
        for t in range(1, 200):
            a = [g * a[0] + (1 - g) * 1.0, g * a[1]]  # oracle recurrence
            flags = model.prune_check(np.array([1.0, 0.0]))
            expect = a[1] < rules_module.PRUNE_FRAC * np.mean(a)
            if expect:
                assert flags and flags[0][1] == "inactive"
                pruned_at = t
                break
            assert not flags
        assert pruned_at is not None
        assert len(model.rules) == 1
        assert len(model.archive) == 1

    def test_stale_rule_pruned_when_stream_moves_away(self, monkeypatch):
        monkeypatch.setattr(rules_module, "POTENTIAL_FRAC", 0.5)
        model = RuleClassifier(2, 2, age_min=5)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        model.add_rule(np.array([10.0, 10.0]), np.array([0.0, 1.0]), 0)
        model.rules.age[:] = 100
        rng = np.random.default_rng(5)
        for _ in range(30):  # stream near the first rule: builds its peak
            model.rde.update(rng.normal(0.0, 0.3, 2))
            model.prune_check(np.array([0.5, 0.5]))
        assert len(model.rules) == 2
        pruned = False
        for _ in range(400):  # stream drifts to the far rule
            model.rde.update(np.array([10.0, 10.0]) + rng.normal(0.0, 0.3, 2))
            flags = model.prune_check(np.array([0.5, 0.5]))
            if flags:
                assert flags[0][1] == "stale"
                pruned = True
                break
        assert pruned
        assert np.array_equal(model.rules.centers[0], [10.0, 10.0])

    def test_last_rule_never_pruned(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), None)
        model.rules.age[0] = 10_000
        model.rules.activity[0] = 0.0
        assert model.prune_check(np.array([0.0])) == []
        assert len(model.rules) == 1


class TestRecall:
    def test_empty_archive_returns_none(self):
        model = RuleClassifier(2, 2)
        assert model.recall_check(np.zeros(2)) is None

    def test_archived_rule_at_exact_location_reactivates(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([5.0, 5.0]), np.array([1.0, 0.0]), None)
        archived = make_rule([0.0, 0.0], np.eye(2), weights=np.full((3, 2), 3.0))
        model.archive.append(**archived)
        got = model.recall_check(np.array([0.0, 0.0]))
        assert got == 1
        assert len(model.rules) == 2
        assert np.array_equal(model.rules.centers[1], [0.0, 0.0])
        assert len(model.archive) == 0
        # consequent survives recall bit-exactly; the pruning baseline restarts
        assert np.array_equal(model.rules.weights[1], archived["weights"])
        assert model.rules.activity[1] == 0.5 and model.rules.age[1] == 0
        assert model.rules.peak_potential[1] == model.rde.potential(np.zeros(2))

    def test_weak_archived_rule_stays_archived(self):
        model = RuleClassifier(2, 2)
        model.add_rule(np.array([5.0, 5.0]), np.array([1.0, 0.0]), None)
        model.archive.append(**make_rule([0.0, 0.0], np.eye(2)))
        # fire at distance 2 is exp(-4) ~ 0.018 < handicap exp(-0.95)
        assert model.recall_check(np.array([2.0, 0.0])) is None
        assert len(model.archive) == 1

    def test_cyclic_concept_reactivates_pruned_rules(self, monkeypatch):
        # concept A -> concept B (far region, long enough for staleness
        # pruning) -> concept A reappears concentrated on its original
        # core; a rule pruned during the B phase should come back in at
        # least half the seeded runs
        monkeypatch.setattr(rules_module, "POTENTIAL_FRAC", 0.6)
        monkeypatch.setattr(rules_module, "DENSITY_SIGMAS", 1.0)
        hits = 0
        seeds = range(10)
        for seed in seeds:
            rng = np.random.default_rng(100 + seed)
            model = RuleClassifier(2, 2, age_min=30)

            def phase(center, label, n, spread):
                for _ in range(n):
                    x = np.asarray(center) + rng.normal(0.0, spread, 2)
                    train(model, x, label)

            phase([0.0, 0.0], 1, 150, 0.6)
            # rules have no identity beyond their arrays: an archived rule
            # keeps its center, and only a recall takes it out of the archive
            a_rules = set(map(tuple, model.rules.centers))
            phase([12.0, 12.0], 2, 400, 0.6)
            archived_a = set(map(tuple, model.archive.centers)) & a_rules
            if not archived_a:
                continue
            phase([0.0, 0.0], 1, 100, 0.25)
            if archived_a - set(map(tuple, model.archive.centers)):
                hits += 1
        assert hits >= len(seeds) / 2


class TestTrainSample:
    def test_first_sample_creates_one_rule(self):
        model = RuleClassifier(2, 2)
        train(model, np.array([0.3, -0.3]), 1)
        assert len(model.rules) == 1

    def _blob_stream(self, rng, n, rot=0.0):
        c1, c2 = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
        cov = np.diag([0.25, 0.25])
        if rot:
            R = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
            cov = R @ np.diag([0.5, 0.02]) @ R.T
        xs, ys = [], []
        for _ in range(n):
            if rng.random() < 0.5:
                xs.append(rng.multivariate_normal(c1, cov))
                ys.append(1)
            else:
                xs.append(rng.multivariate_normal(c2, cov))
                ys.append(2)
        return xs, ys

    def test_two_blobs_small_rulebase_high_accuracy(self):
        rng = np.random.default_rng(7)
        xs, ys = self._blob_stream(rng, 500)
        model = RuleClassifier(2, 2, age_min=100)
        for x, y in zip(xs, ys):
            train(model, x, y)
        correct = sum(infer(model, x)[1] == y for x, y in zip(xs, ys))
        assert len(model.rules) <= 10
        assert correct / len(xs) >= 0.95
        model.check_invariants()

    def test_multivariate_no_larger_than_axis_on_rotated_blobs(self):
        rng = np.random.default_rng(8)
        xs, ys = self._blob_stream(rng, 500, rot=math.pi / 4)
        counts = {}
        for kind in ("axis_parallel", "multivariate"):
            model = RuleClassifier(2, 2, kind=kind, age_min=100)
            for x, y in zip(xs, ys):
                train(model, x, y)
            counts[kind] = len(model.rules)
            correct = sum(infer(model, x)[1] == y for x, y in zip(xs, ys))
            assert correct / len(xs) >= 0.95
        assert counts["multivariate"] <= counts["axis_parallel"]

    def test_invariants_hold_throughout_random_training(self):
        rng = np.random.default_rng(9)
        for kind in ("axis_parallel", "multivariate"):
            model = RuleClassifier(3, 3, kind=kind, age_min=20)
            for i in range(200):
                x = rng.normal(0.0, 2.0, 3)
                train(model, x, int(rng.integers(1, 4)))
                if i % 25 == 0:
                    model.check_invariants()
                    lam = firings(model.mahalanobis_sq(x))
                    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            model.check_invariants()


class TestSnapshot:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(10)
        model = RuleClassifier(2, 2, kind="multivariate")
        for _ in range(80):
            train(model, rng.normal(0.0, 2.0, 2), int(rng.integers(1, 3)))
        blob = json.dumps(model.snapshot())
        clone = RuleClassifier.from_snapshot(json.loads(blob))
        assert len(clone.rules) == len(model.rules)
        for name in ("centers", "inv", "volumes", "weights", "rls_cov", "class_support"):
            assert np.array_equal(getattr(model.rules, name), getattr(clone.rules, name))
        x = rng.normal(size=2)
        assert np.array_equal(infer(model, x)[0], infer(clone, x)[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_with_archive_stays_in_step(self, kind, monkeypatch):
        rng = np.random.default_rng(12)
        monkeypatch.setattr(rules_module, "POTENTIAL_FRAC", 0.6)
        monkeypatch.setattr(rules_module, "DENSITY_SIGMAS", 1.0)
        model = RuleClassifier(2, 2, kind=kind, age_min=30)

        def phase(models, center, label, n, spread):
            for _ in range(n):
                x = np.asarray(center) + rng.normal(0.0, spread, 2)
                for m in models:
                    train(m, x, label)

        phase([model], [0.0, 0.0], 1, 150, 0.6)
        phase([model], [12.0, 12.0], 2, 400, 0.6)
        assert len(model.archive) > 0
        blob = json.dumps(model.snapshot())
        clone = RuleClassifier.from_snapshot(json.loads(blob))
        assert json.dumps(clone.snapshot()) == blob
        phase([model, clone], [0.0, 0.0], 1, 100, 0.25)
        assert json.dumps(clone.snapshot()) == json.dumps(model.snapshot())

    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_rebuilds_the_derived_columns(self, kind, monkeypatch):
        """A snapshot leaves the derived columns out, and loading
        recomputes each of them bit for bit, in the archive too."""
        rng = np.random.default_rng(13)
        monkeypatch.setattr(rules_module, "POTENTIAL_FRAC", 0.6)
        monkeypatch.setattr(rules_module, "DENSITY_SIGMAS", 1.0)
        model = RuleClassifier(2, 3, kind=kind, age_min=30)
        centers = np.array([[0.0, 0.0], [9.0, 9.0], [0.0, 9.0], [20.0, -20.0]])
        # three classes, then class 3 alone prunes two rules, then a far
        # sample grows one
        for n in range(610):
            c = int(rng.integers(3)) if n < 300 else 2 if n < 600 else 3
            train(model, centers[c] + rng.normal(0.0, 0.6, 2), c % 3 + 1)
        assert len(model.rules) == 2 and len(model.archive) == 2
        state = json.loads(json.dumps(model.snapshot()))
        assert not set(RuleBank.DERIVED) & set(state["rules"])
        clone = RuleClassifier.from_snapshot(state)
        clone.check_invariants()
        for bank in ("rules", "archive"):
            for name in RuleBank.DERIVED:
                col = getattr(getattr(clone, bank), name)
                assert np.array_equal(col, getattr(getattr(model, bank), name))
                assert col.dtype == getattr(getattr(model, bank), name).dtype

    def test_infer_is_pure(self):
        model = RuleClassifier(2, 2)
        train(model, np.array([0.0, 0.0]), 1)
        before = json.dumps(model.snapshot(), sort_keys=True)
        for _ in range(5):
            infer(model, np.array([1.0, 2.0]))
        assert json.dumps(model.snapshot(), sort_keys=True) == before
