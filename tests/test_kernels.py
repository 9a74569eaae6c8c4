"""The accept-path and scoring kernels against their earlier forms.

Each kernel was rewritten to make fewer numpy and Python calls or to walk
contiguous operands; the earlier form is kept here, and the two must
agree bit for bit on rule banks of both kinds, trained or random, with a
feature mask and without.
"""

import copy
import math

import numpy as np
import pytest

from evofuzzy import rules as rules_module
from evofuzzy.rules import (
    DECAY,
    POTENTIAL_FRAC,
    PRUNE_FRAC,
    RdeState,
    RuleBank,
    RuleClassifier,
    classes,
    firings,
    weighted_rls_update,
)
from evofuzzy.selection import conflict_input

KINDS = ("axis_parallel", "multivariate")
MASKS = {"no-mask": None, "mask": np.array([1.0, 0.0, 1.0])}
CASES = [(kind, mask) for kind in KINDS for mask in MASKS]


# -- the earlier forms --------------------------------------------------------


def old_mahalanobis_sq(bank, x, mask):
    diff = x[..., None, :] - bank.centers
    if mask is not None:
        diff = diff * mask
    if bank.diagonal:
        return np.einsum("...rj,rj->...r", diff * diff, bank.inv)
    return np.einsum("...ri,rij,...rj->...r", diff, bank.inv, diff)


def old_infer(model, x, d2, mask):
    lam = firings(d2)
    x_e = rules_module.extended_input(x, mask)
    per_rule = np.einsum("...e,reo->...ro", x_e, model.rules.weights)
    scores = (lam[..., None, :] @ per_rule)[..., 0, :]
    return scores, classes(scores)


def old_weighted_rls_update(psi, weights, lam, x_e, target, decay_strength):
    v = psi @ x_e
    denom = 1.0 / lam + float(x_e @ v)
    k = v / denom
    p = psi - np.outer(k, v)
    psi[...] = 0.5 * (p + p.T)
    err = target - x_e @ weights
    weights += np.outer(k, err)
    if decay_strength > 0.0:
        weights -= (2.0 * decay_strength) * (psi @ weights)


def old_winner(model, d2, label):
    b = model.rules
    supports = b.class_support.sum(axis=1)
    log_prior = np.log(supports / supports.sum())
    purity = (b.class_support[:, label - 1] + 1.0) / (supports + model.n_classes)
    score = -d2 + log_prior + np.log(purity)
    legal = b.volumes <= model.volume_cap
    if legal.any() and not legal.all():
        score = np.where(legal, score, -np.inf)
    return int(np.argmax(score))


def old_conflict_input(models, d2s):
    n_classes = models[0].n_classes
    banks = [m.rules for m in models]
    volumes = np.concatenate([b.volumes for b in banks])
    class_support = np.concatenate([b.class_support for b in banks])
    supports = class_support.sum(axis=1)
    prior = supports / supports.sum()
    pur = (class_support + 1.0) / (supports[:, None] + n_classes)
    with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
        like = np.exp(-np.concatenate(d2s, axis=-1)) / np.sqrt(2.0 * math.pi * volumes)
        evidence = ((like * prior)[..., None, :] @ pur)[..., 0, :]
        z = evidence.sum(axis=-1)
        p = np.where((z > 0.0) & (z < np.inf), evidence.max(axis=-1) / z, 1.0 / n_classes)
    return float(p) if p.ndim == 0 else p


def old_firings(d2):
    f = np.exp(-(d2 - d2.min(axis=-1, keepdims=True, initial=np.inf)))
    return f / f.sum(axis=-1, keepdims=True)


def old_rde_update(rde, x):
    rde.count += 1
    rde.mean += (x - rde.mean) / rde.count
    rde.sq_norm_mean += (float(x @ x) - rde.sq_norm_mean) / rde.count
    diff = x - rde.mean
    spread = max(rde.sq_norm_mean - float(rde.mean @ rde.mean), 0.0)
    d = float(1.0 / (1.0 + (diff[None, :] @ diff[:, None])[0, 0] + spread))
    if rde.count == 1:
        rde.dens_mean, rde.dens_var = d, 0.0
    else:
        a = 1.0 - DECAY
        delta = d - rde.dens_mean
        rde.dens_mean += a * delta
        rde.dens_var = (1.0 - a) * (rde.dens_var + a * delta * delta)
    return d


def old_prune_check(model, lam):
    b = model.rules
    act = b.activity
    act *= DECAY
    act += (1.0 - DECAY) * lam
    potentials = model.rde.potential(b.centers)
    np.maximum(b.peak_potential, potentials, out=b.peak_potential)
    if len(b) < 2:
        return []
    inactive = act < PRUNE_FRAC * (act.sum() / len(b))
    stale = potentials < POTENTIAL_FRAC * b.peak_potential
    flagged = (b.age >= model.age_min) & (inactive | stale)
    if not flagged.any():
        return []
    if flagged.all():
        flagged[np.argmax(act)] = False
    pruned = np.flatnonzero(flagged).tolist()
    for i in reversed(pruned):
        b.move(i, model.archive)
    return [(i, "inactive" if inactive[i] else "stale") for i in pruned]


# -- random cases -----------------------------------------------------------------


def states(kind, mask, seed, n=120):
    """A model along a random 3-class stream, yielded before each of its
    n training steps with the step's sample, label and distances."""
    rng = np.random.default_rng(seed)
    model = RuleClassifier(3, 3, kind=kind, age_min=20)
    centers = rng.normal(0.0, 3.0, (4, 3))
    for _ in range(n):
        c = int(rng.integers(4))
        x = centers[c] + rng.normal(0.0, 1.0, 3)
        label = c % 3 + 1
        d2 = model.mahalanobis_sq(x, mask)
        yield model, x, label, d2
        model.train_sample(x, label, d2, model.infer(x, d2, mask)[0], mask)


def random_model(kind, u, n_rules, rng):
    """A 3-class model with n_rules random rules.  A multivariate inverse
    dispersion is (q * w) @ q.T, the form _repair_spd returns when it
    floors an eigenvalue, which is not exactly symmetric."""
    model = RuleClassifier(u, 3, kind=kind)
    for _ in range(n_rules):
        w = np.exp(rng.uniform(-3.0, 3.0, u))
        q = np.linalg.qr(rng.normal(size=(u, u)))[0]
        model.rules.append(
            centers=rng.normal(0.0, 2.0, u), inv=w if model.rules.diagonal else (q * w) @ q.T,
            weights=rng.normal(0.0, 1.0, (u + 1, 3)), rls_cov=np.eye(u + 1),
            class_support=[1, 0, 0], activity=0.0, peak_potential=0.0, age=0,
        )
    return model


def same_bank(a: RuleBank, b: RuleBank) -> bool:
    names = [f.key for f in RuleBank.FIELDS] + list(RuleBank.DERIVED)
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in names)


@pytest.mark.parametrize("kind, mask", CASES)
def test_weighted_rls_update(kind, mask):
    rng = np.random.default_rng(1)
    checked = 0
    for model, x, label, d2 in states(kind, MASKS[mask], seed=2):
        b = model.rules
        x_e = rules_module.extended_input(x, MASKS[mask])
        target = np.eye(3)[label - 1]
        for i, lam in enumerate(firings(d2)):
            lam = max(float(lam), float(rng.uniform(1e-6, 1.0)))
            for decay in (0.0, rules_module.DECAY_STRENGTH):
                psi, w = b.rls_cov[i].copy(), b.weights[i].copy()
                old_psi, old_w = psi.copy(), w.copy()
                weighted_rls_update(psi, w, lam, x_e, target, decay)
                old_weighted_rls_update(old_psi, old_w, lam, x_e, target, decay)
                assert np.array_equal(psi, old_psi) and np.array_equal(w, old_w)
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("kind, mask", CASES)
def test_winner(kind, mask, monkeypatch):
    checked = over_cap = 0
    default = rules_module.VOLUME_CAP
    for model, x, label, d2 in states(kind, MASKS[mask], seed=3):
        if not len(d2):
            continue
        for cap in (default, np.median(model.rules.volumes) / 6.0 ** 3):
            # the median cap puts some rules over it, unless all volumes tie
            monkeypatch.setattr(rules_module, "VOLUME_CAP", cap)
            over_cap += 0 < np.count_nonzero(model.rules.volumes > model.volume_cap) < len(d2)
            for lab in (1, 2, 3):
                assert model.winner(d2, lab) == old_winner(model, d2, lab)
                checked += 1
        monkeypatch.setattr(rules_module, "VOLUME_CAP", default)
    assert checked > 500 and over_cap > 20


@pytest.mark.parametrize("kind, mask", CASES)
def test_conflict_input(kind, mask):
    rng = np.random.default_rng(4)
    pair = zip(states(kind, MASKS[mask], seed=5), states(kind, MASKS[mask], seed=6))
    checked = 0
    for (m1, x, _, d2), (m2, _, _, _) in pair:
        if not (len(m1.rules) and len(m2.rules)):
            continue
        block = np.vstack([x, rng.normal(0.0, 4.0, (6, 3)), [[40.0, -40.0, 40.0]]])
        for models in ([m1], [m1, m2], [m2, m1]):
            for z in (x, block):
                d2s = [m.mahalanobis_sq(z, MASKS[mask]) for m in models]
                new, old = conflict_input(models, d2s), old_conflict_input(models, d2s)
                assert np.shape(new) == np.shape(old) and np.array_equal(new, old)
                checked += 1
    assert checked > 500


def test_firings():
    rng = np.random.default_rng(7)
    cases = [np.zeros(0), np.zeros((3, 0)), np.array([np.inf, np.inf]), np.array([800.0, 900.0])]
    for _ in range(2000):
        shape = (int(rng.integers(1, 6)),) if rng.random() < 0.5 else tuple(rng.integers(1, 6, 2))
        cases.append(rng.exponential(10.0 ** rng.uniform(-2, 3), shape))
    for d2 in cases:
        with np.errstate(invalid="ignore"):
            assert np.array_equal(firings(d2), old_firings(d2), equal_nan=True)


def test_rde_update():
    rng = np.random.default_rng(8)
    for u in (1, 3, 12):
        new, old = RdeState(u), RdeState(u)
        for _ in range(3000):
            x = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), u)
            assert new.update(x) == old_rde_update(old, x)
        assert new.snapshot() == old.snapshot()


@pytest.mark.parametrize("kind, mask", CASES)
def test_prune_check(kind, mask):
    rng = np.random.default_rng(9)
    checked = pruned = 0
    for model, x, label, d2 in states(kind, MASKS[mask], seed=10):
        if not len(d2):
            continue
        new, old = copy.deepcopy(model), copy.deepcopy(model)
        r = len(d2)
        age = rng.integers(0, 2 * model.age_min, r)
        activity, peak = rng.uniform(0.0, 1.0, r), rng.uniform(0.0, 1.2, r)
        for m in (new, old):
            m.rules.age[:], m.rules.activity[:], m.rules.peak_potential[:] = age, activity, peak
        lam = firings(d2)
        got = new.prune_check(lam)
        assert got == old_prune_check(old, lam)
        assert same_bank(new.rules, old.rules) and same_bank(new.archive, old.archive)
        checked += 1
        pruned += bool(got)
    assert checked > 100 and pruned > 10


# one vector (None) and blocks of these many rows
ROWS = (None, 0, 1, 2, 3, 8, 250)


def assert_scoring_kernels(model, x, mask):
    """Distances and scores of x on model equal the earlier forms'."""
    d2 = model.mahalanobis_sq(x, mask)
    assert d2.shape == x.shape[:-1] + (len(model.rules),) and d2.flags.c_contiguous
    want = old_mahalanobis_sq(model.rules, x, mask)
    if not model.rules.diagonal and x.shape == (2, 2):
        # the one case the rule-major form changes: a 2-row block at u = 2
        # gets the bits its rows have in a block of three or more rows
        want = old_mahalanobis_sq(model.rules, np.vstack([x, x[:1]]), mask)[:2]
    assert np.array_equal(d2, want)
    scores, cls = model.infer(x, d2, mask)
    old_scores, old_cls = old_infer(model, x, d2, mask)
    assert np.array_equal(scores, old_scores) and np.array_equal(cls, old_cls)


@pytest.mark.parametrize("u", range(1, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_scoring_kernels_on_random_banks(kind, u):
    rng = np.random.default_rng(11 + u)
    asymmetric = 0
    for n_rules in (0, 1, 2, 5):
        model = random_model(kind, u, n_rules, rng)
        inv = model.rules.inv
        asymmetric += inv.ndim == 3 and not np.array_equal(inv, inv.swapaxes(1, 2))
        for mask in (None, (rng.random(u) < 0.6).astype(float)):
            for rows in ROWS:
                x = rng.normal(0.0, 3.0, u if rows is None else (rows, u))
                assert_scoring_kernels(model, x, mask)
    assert kind == "axis_parallel" or u == 1 or asymmetric


@pytest.mark.parametrize("kind, mask", CASES)
def test_scoring_kernels_on_trained_banks(kind, mask):
    rng = np.random.default_rng(12)
    checked = 0
    for model, x, _, _ in states(kind, MASKS[mask], seed=13):
        block = rng.normal(0.0, 3.0, (int(rng.integers(0, 9)), 3))
        for z in (x, block):
            assert_scoring_kernels(model, z, MASKS[mask])
            checked += 1
    assert checked == 240


def test_two_rows_at_two_features():
    """At u = 2 the earlier form sums a row of a 1- or 2-row block in
    another order than a row of a larger block; the rule-major form moves
    the 2-row block to the larger blocks' order and keeps the rest."""
    rng = np.random.default_rng(14)
    moved = 0
    for _ in range(300):
        model = random_model("multivariate", 2, int(rng.integers(1, 6)), rng)
        block = rng.normal(0.0, 3.0, (3, 2))
        larger = old_mahalanobis_sq(model.rules, block, None)
        assert np.array_equal(model.mahalanobis_sq(block[:2]), larger[:2])
        for x in (block[0], block[:1]):
            assert np.array_equal(model.mahalanobis_sq(x), old_mahalanobis_sq(model.rules, x, None))
        moved += not np.array_equal(larger[:2], old_mahalanobis_sq(model.rules, block[:2], None))
    assert moved > 0
