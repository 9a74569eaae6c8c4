import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofuzzy import selection
from evofuzzy.core import THETA_INIT, THETA_MIN, StreamConfig
from evofuzzy.rules import RuleClassifier, extended_input, firings
from evofuzzy.selection import (
    OFS_REG,
    ActiveLearnState,
    Selectors,
    accepts,
    apply_mask,
    conflict_input,
    conflict_output,
    consequent_gradients,
    consequent_output,
    feature_scores,
    sgd_step,
)


def model_with_rules(specs, n_classes=2, u=2):
    """specs: list of (center, inv_diag, class_support, weights or None)."""
    m = RuleClassifier(u, n_classes)
    for center, inv_diag, cs, w in specs:
        m.rules.append(
            centers=center,
            inv=inv_diag,
            weights=np.zeros((u + 1, n_classes)) if w is None else w,
            rls_cov=np.eye(u + 1),
            class_support=cs,
            activity=0.0,
            peak_potential=0.0,
            age=0,
        )
    return m


def p_input(models, x):
    """conflict_input with the distance pass made here."""
    return conflict_input(models, [m.mahalanobis_sq(x) for m in models])


def distances(models, x):
    return [m.mahalanobis_sq(x) for m in models]


class TestConflictInput:
    def test_single_pure_rule_laplace_posterior(self):
        # one rule, pure class 1, sample at its center: the likelihood
        # cancels and the posterior is the smoothed class share (2/3, 1/3)
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [1, 0], None)])
        p = p_input([m], np.zeros(2))
        assert p == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_symmetric_opposite_rules_give_half(self):
        m = model_with_rules(
            [
                ([-1.0, 0.0], [1.0, 1.0], [5, 0], None),
                ([1.0, 0.0], [1.0, 1.0], [0, 5], None),
            ]
        )
        p = p_input([m], np.zeros(2))
        assert p == pytest.approx(0.5, rel=1e-12)

    def test_support_skew_pulls_posterior_to_heavy_rule(self):
        m = model_with_rules(
            [
                ([-1.0, 0.0], [1.0, 1.0], [100, 0], None),
                ([1.0, 0.0], [1.0, 1.0], [0, 1], None),
            ]
        )
        p = p_input([m], np.zeros(2))
        # oracle: direct evaluation of the posterior mixture
        like = math.exp(-1.0) / math.sqrt(2 * math.pi)  # same for both rules
        prior = np.array([100, 1]) / 101.0
        pur = np.array([[101 / 102, 1 / 102], [1 / 3, 2 / 3]])
        num = (like * prior) @ pur
        assert p == pytest.approx(num.max() / num.sum(), rel=1e-12)
        assert p > 0.5

    def test_underflow_far_sample_is_uninformative(self):
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [3, 0], None)])
        p = p_input([m], np.array([1e4, 1e4]))
        assert p == pytest.approx(0.5)

    def test_flattens_rules_across_models(self):
        a = model_with_rules([([-1.0, 0.0], [1.0, 1.0], [5, 0], None)])
        b = model_with_rules([([1.0, 0.0], [1.0, 1.0], [0, 5], None)])
        both = model_with_rules(
            [
                ([-1.0, 0.0], [1.0, 1.0], [5, 0], None),
                ([1.0, 0.0], [1.0, 1.0], [0, 5], None),
            ]
        )
        x = np.array([0.2, 0.1])
        assert p_input([a, b], x) == pytest.approx(
            p_input([both], x), rel=1e-12
        )


class TestConflictOutput:
    def test_tie_is_maximal_conflict(self):
        assert conflict_output(np.array([0.8, 0.8])) == 0.5

    def test_clean_win(self):
        assert conflict_output(np.array([1.0, 0.0])) == 1.0

    def test_truncation_of_overshoot(self):
        # conf = 1.5 / (1.5 - 0.5) = 1.5, truncated to 1
        assert conflict_output(np.array([1.5, -0.5])) == 1.0

    def test_vanishing_pair_is_half(self):
        assert conflict_output(np.zeros(2)) == 0.5

    def test_multiclass_uses_top_two(self):
        assert conflict_output(np.array([0.2, 0.5, 0.3])) == pytest.approx(0.625)


class TestDecide:
    def test_confident_both_spaces_rejected(self):
        al = ActiveLearnState()
        assert not al.decide(0.9, 0.9)

    def test_conflict_in_one_space_alone_is_rejected(self):
        assert not accepts(0.7, 0.9, 0.5)
        assert not accepts(0.7, 0.5, 0.9)
        assert accepts(0.7, 0.5, 0.5)

    def test_threshold_walks_and_clamps(self):
        al = ActiveLearnState()
        for _ in range(500):
            al.decide(1.0, 1.0)  # rejects push theta up
        assert al.theta == pytest.approx(0.95)
        for _ in range(500):
            al.decide(0.0, 0.0)  # accepts pull it down
        assert al.theta == pytest.approx(0.5)

    def test_near_tie_stream_keeps_high_acceptance(self):
        # every score pair is a near-tie, so conflict stays maximal in the
        # output space; acceptance stays high even as theta walks down to
        # its floor
        rng = np.random.default_rng(0)
        al = ActiveLearnState()
        taken = 0
        n = 1000
        for _ in range(n):
            s = 0.8 + 0.01 * rng.random()
            sigma = np.array([s, s])
            taken += al.decide(0.5, conflict_output(sigma))
        assert taken / n >= 0.9
        assert al.theta == pytest.approx(THETA_MIN)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_acceptance_monotone_in_theta(self, t1, t2, p_in, p_out):
        lo, hi = min(t1, t2), max(t1, t2)
        if accepts(lo, p_in, p_out):
            assert accepts(hi, p_in, p_out)


class TestVirtualModel:
    def test_zero_error_only_shrinks_weights(self):
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [1, 0], None)])
        w0 = np.array([[1.0, 0.0], [0.4, -0.2], [0.1, 0.3]])
        m.rules.weights[0] = w0
        x = np.zeros(2)  # x_e = (1, 0, 0): prediction is the intercept row
        t = w0[0].copy()
        sgd_step([m], x, t, distances([m], x))
        assert np.allclose(m.rules.weights[0], (1 - 0.05 * 0.01) * w0, rtol=1e-12)

    def test_projection_scale(self):
        # reg = 0.01 -> radius 10; a weight matrix of norm 20 lands exactly
        # on the ball: the shrink factor cancels in the projection
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [1, 0], None)])
        w0 = np.zeros((3, 2))
        w0[0, 0] = 20.0
        m.rules.weights[0] = w0
        x = np.zeros(2)
        sgd_step([m], x, np.array([w0[0, 0] * (1 - 0.05 * 0.01), 0.0]), distances([m], x))
        assert np.allclose(m.rules.weights[0], 0.5 * w0, rtol=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        a = model_with_rules(
            [([0.0, 0.0], [1.0, 1.0], [2, 1], rng.normal(size=(3, 2)))]
        )
        b = model_with_rules(
            [([1.0, -1.0], [2.0, 0.5], [1, 3], rng.normal(size=(3, 2)))]
        )
        models = [a, b]
        x = rng.normal(size=2)
        t = np.array([1.0, 0.0])

        d2s = distances(models, x)

        def loss():
            y = consequent_output(models, x, d2s)
            return 0.5 * float((t - y) @ (t - y))

        grads = consequent_gradients(models, x, t, d2s)
        h = 1e-6
        assert len(grads) == len(models)
        for m, g in zip(models, grads):
            w = m.rules.weights
            assert g.shape == w.shape
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + h
                up = loss()
                w[idx] = orig - h
                down = loss()
                w[idx] = orig
                fd = (up - down) / (2 * h)
                assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("rule_counts", [(3,), (0,), (2, 5), (4, 0, 1), (1, 3, 2)],
                             ids=lambda c: "rules-" + "-".join(map(str, c)))
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_gradients_equal_the_split_form(self, rule_counts, masked):
        """Each model's gradient is, bit for bit, its slice of the flat
        (R, u+1, O) gradient that np.split cut at the rule offsets."""
        rng = np.random.default_rng(sum(rule_counts) + 10 * masked)
        u = 3
        models = [model_with_rules([(rng.normal(size=u), rng.uniform(0.5, 2.0, u), [2, 1],
                                     rng.normal(size=(u + 1, 2))) for _ in range(r)], u=u)
                  for r in rule_counts]
        x, t = rng.normal(size=u), np.array([0.0, 1.0])
        mask = np.array([1.0, 0.0, 1.0]) if masked else None
        d2s = distances(models, x)
        lam = firings(np.concatenate(d2s))
        x_e = extended_input(x, mask)
        y = (lam[:, None] * (x_e @ np.concatenate([m.rules.weights for m in models]))).sum(axis=0)
        flat = lam[:, None, None] * np.outer(x_e, y - t)
        oracle = np.split(flat, np.cumsum(rule_counts)[:-1])
        grads = consequent_gradients(models, x, t, d2s, mask)
        assert len(grads) == len(oracle)
        for g, o in zip(grads, oracle):
            assert g.shape == o.shape and np.array_equal(g, o)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weights_stay_inside_ball(self, seed):
        rng = np.random.default_rng(seed)
        m = model_with_rules(
            [
                ([0.0, 0.0], [1.0, 1.0], [2, 1], 5 * rng.normal(size=(3, 2))),
                ([1.0, 1.0], [1.0, 2.0], [1, 2], 5 * rng.normal(size=(3, 2))),
            ]
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "OFS_RATE", 0.5)
            for _ in range(5):
                x = rng.normal(size=2)
                sgd_step([m], x, np.array([1.0, 0.0]), distances([m], x))
        for w in m.rules.weights:
            assert np.linalg.norm(w) <= 1 / math.sqrt(OFS_REG) + 1e-12


class TestFeatureScores:
    def test_direct_evaluation(self):
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [1, 0], None)])
        m.rules.weights[0] = [[9.0, 0.0], [2.0, 0.0], [1.0, 0.0]]
        scores = feature_scores([m], 2)
        assert np.allclose(scores, [2 / 3, 1 / 3])

    def test_absolute_values_prevent_cancellation(self):
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [1, 0], None)])
        m.rules.weights[0] = [[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]
        assert np.allclose(feature_scores([m], 2), [0.5, 0.5])
        m.rules.weights[0] = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        assert np.allclose(feature_scores([m], 2), [0.5, 0.5])

    def test_all_zero_weights_uniform(self):
        m = model_with_rules([([0.0, 0.0], [1.0, 1.0], [1, 0], None)])
        assert np.allclose(feature_scores([m], 2), [0.5, 0.5])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_scores_form_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        m = model_with_rules(
            [([0.0, 0.0], [1.0, 1.0], [1, 0], rng.normal(size=(3, 2)))]
        )
        s = feature_scores([m], 2)
        assert np.all(s >= 0)
        assert s.sum() == pytest.approx(1.0)


class TestApplyMask:
    def test_full_budget_is_identity(self):
        mask = apply_mask(np.array([0.2, 0.5, 0.3]), 3)
        assert np.array_equal(mask, [1.0, 1.0, 1.0])

    def test_top_two(self):
        mask = apply_mask(np.array([0.5, 0.3, 0.2]), 2)
        assert np.array_equal(mask, [1.0, 1.0, 0.0])

    def test_ties_resolve_to_lowest_index(self):
        mask = apply_mask(np.array([0.3, 0.3, 0.4]), 2)
        assert np.array_equal(mask, [1.0, 0.0, 1.0])

    def test_masking_is_idempotent(self):
        x = np.array([1.0, -2.0, 3.0])
        mask = apply_mask(np.array([0.6, 0.1, 0.3]), 2)
        once = extended_input(x, mask)
        twice = extended_input(x * mask, mask)
        assert np.array_equal(once, twice)

    def test_budget_range_checked(self):
        with pytest.raises(ValueError):
            apply_mask(np.array([0.5, 0.5]), 0)

    @given(st.one_of(
        st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=1, max_size=16),
        st.integers(1, 16).flatmap(lambda u: st.sampled_from([[0.0] * u, [1.0 / u] * u])),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16)),
        st.data())
    @settings(max_examples=200)
    def test_order_equals_the_lexsort_order(self, scores, data):
        """The b features kept are the first b of the (-score, index)
        lexsort order, ties and all-equal scores included."""
        scores = np.array(scores)
        b = data.draw(st.integers(1, len(scores)))
        oracle = np.zeros(len(scores))
        oracle[np.lexsort((np.arange(len(scores)), -scores))[:b]] = 1.0
        assert np.array_equal(apply_mask(scores, b), oracle)


class TestConfigStubs:
    def test_selectors_inherit_config(self):
        cfg = StreamConfig(n_features=3, n_classes=2, ofs_b=2)
        sel = Selectors(cfg)
        assert sel.mask is not None
        assert sel.al.theta == THETA_INIT
        assert np.array_equal(sel.mask_active, [1.0, 1.0, 1.0])


def two_models(seed):
    rng = np.random.default_rng(seed)
    return [
        model_with_rules([([0.0, 0.0], [1.0, 1.0], [2, 1], rng.normal(size=(3, 2))),
                          ([1.0, 1.0], [1.0, 2.0], [1, 2], rng.normal(size=(3, 2)))]),
        model_with_rules([([-1.0, 0.5], [2.0, 0.5], [1, 3], rng.normal(size=(3, 2)))]),
    ]


class TestSelectors:
    def test_mask_is_none_without_feature_selection(self):
        assert Selectors(StreamConfig(n_features=3, n_classes=2)).mask is None
        sel = Selectors(StreamConfig(n_features=3, n_classes=2, ofs_b=2))
        assert sel.mask is sel.mask_active

    def test_right_answer_keeps_consequents_and_refreshes_mask(self):
        models = two_models(5)
        before = [m.rules.weights.copy() for m in models]
        sel = Selectors(StreamConfig(n_features=2, n_classes=2, ofs_b=1))
        old_active, old_scores = sel.mask_active, sel.mask_scores
        x = np.array([0.3, -0.7])
        sel.learn(models, x, np.array([1.0, 0.0]), distances(models, x), wrong=False)
        for m, w in zip(models, before):
            assert np.array_equal(m.rules.weights, w)
        assert np.array_equal(sel.mask_scores, feature_scores(models, 2))
        assert np.array_equal(sel.mask_active, apply_mask(sel.mask_scores, 1))
        assert not np.array_equal(sel.mask_scores, old_scores)
        assert not np.array_equal(sel.mask_active, old_active)

    def test_wrong_answer_steps_under_the_mask(self):
        sel = Selectors(StreamConfig(n_features=2, n_classes=2, ofs_b=1))
        sel.mask_active = np.array([0.0, 1.0])
        models, expected = two_models(6), two_models(6)
        x, t = np.array([0.3, -0.7]), np.array([1.0, 0.0])
        sgd_step(expected, x, t, distances(expected, x), np.array([0.0, 1.0]))
        sel.learn(models, x, t, distances(models, x), wrong=True)
        for m, e in zip(models, expected):
            assert np.array_equal(m.rules.weights, e.rules.weights)
        assert np.array_equal(sel.mask_scores, feature_scores(models, 2))
