"""Sample selection (online active learning) and online feature selection.

A sample enters training only when the ensemble is in conflict about it,
measured in two spaces: the Bayesian posterior over classes built from
all rules of all members (input space), and the truncated preference
degree between the two most dominant ensemble outputs (output space).
The conflict threshold adapts multiplicatively so acceptance pressure
tracks the stream.

Feature selection runs over the same flattened rule set viewed as one
model: consequents are nudged by projected stochastic gradient descent
on misclassified samples, feature sensitivities are read off the weight
magnitudes, and the B most sensitive features stay active.  Every
accepted sample re-scores all features, dropped ones included, but a
dropped feature's input is zeroed under the mask, so its weights hardly
grow and in practice it does not come back.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .core import (MAX_FEATURES, THETA_INIT, THETA_MAX, THETA_MIN, THETA_STEP, Field, State,
                   StreamConfig)
from .rules import RuleClassifier, extended_input, firings

# Step size and L2 weight of the feature-selection SGD.
OFS_RATE = 0.05
OFS_REG = 0.01


class ActiveLearnState(State):
    """Adaptive conflict threshold with clamped multiplicative steps.

    The threshold starts at THETA_INIT.  Accepting shrinks it by
    (1 - THETA_STEP), rejecting grows it by (1 + THETA_STEP); both are
    clamped to [THETA_MIN, THETA_MAX].
    """

    FIELDS = (Field("theta", float, lo=THETA_MIN, hi=THETA_MAX),)
    SECTION = "al"

    def __init__(self):
        self.theta = THETA_INIT

    def decide(self, p_input: float, p_output: float) -> bool:
        take = accepts(self.theta, p_input, p_output)
        if take:
            self.theta = max(self.theta * (1.0 - THETA_STEP), THETA_MIN)
        else:
            self.theta = min(self.theta * (1.0 + THETA_STEP), THETA_MAX)
        return take


def accepts(theta: float, p_input: float, p_output: float) -> bool:
    """Acceptance predicate; monotone in theta.

    Conflict in both spaces admits the sample, as in the discard rule of
    the reference pseudocode; conflict in either space alone labels about
    half of a SEA stream, past the reported label budgets.
    """
    return p_input <= theta and p_output <= theta


def _joined(arrays: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
    """The models' arrays as one: the lone array itself, or their concatenation."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def conflict_input(models: Sequence[RuleClassifier], d2s: Sequence[np.ndarray]):
    """Winning-class posterior over the flattened rule set.

    d2s holds each model's mahalanobis_sq of one sample (R,) or of a
    block (N, R).  For each class o the evidence is
    sum_i P(o | R_i) P(x | R_i) P(R_i) with P(R_i) the support prior,
    P(o | R_i) the Laplace-smoothed class share, and P(x | R_i) the
    Gaussian likelihood with the (2 pi V)^-1/2 volume normalizer.
    Returns the largest normalized posterior, a 0-d array for one sample
    and an array for a block; where all likelihoods underflow the
    posterior is uninformative, 1 / n_classes.
    """
    supports, pur, norms = map(_joined, zip(*[(m.rules.supports, m.rules.purity, m.rules.norms)
                                              for m in models]))
    d2 = _joined(d2s, axis=-1)
    prior = supports / supports.sum()
    like = np.exp(-d2) / norms
    # one (1, R) @ (R, O) product per sample, so a block row is
    # computed exactly as the sample alone
    evidence = ((like * prior)[..., None, :] @ pur)[..., 0, :]
    z = evidence.sum(axis=-1)
    p = np.divide(evidence.max(axis=-1), z, out=np.full(np.shape(z), 1.0 / pur.shape[-1]),
                  where=(z > 0.0) & (z < np.inf))
    return p


def conflict_output(sigma: np.ndarray):
    """Truncated preference degree between the two dominant outputs.

    conf = y1 / (y1 + y2) clamped to [0, 1]; a vanishing pair denotes
    maximal conflict, 0.5.  A 0-d array for one score vector, an array
    for a block (N, O).
    """
    if sigma.shape[-1] < 2:
        raise ValueError("need at least two class scores")
    top2 = np.partition(sigma, -2, axis=-1)
    y2, y1 = top2[..., -2], top2[..., -1]
    denom = y1 + y2
    conf = np.divide(y1, denom, out=np.full(np.shape(denom), 0.5), where=denom != 0.0)
    return np.minimum(np.maximum(conf, 0.0, out=conf), 1.0, out=conf)


def consequent_output(models: Sequence[RuleClassifier], x, d2s, mask=None) -> np.ndarray:
    """Output of all rules of all models viewed as one flat consequent
    model; d2s holds each model's mahalanobis_sq of x, in model order."""
    return _output(models, firings(_joined(d2s)), extended_input(x, mask))


def _output(models: Sequence[RuleClassifier], lam: np.ndarray, x_e: np.ndarray) -> np.ndarray:
    # summed a rule at a time, in the flat order of the firings
    weights = _joined([m.rules.weights for m in models])
    return (lam[:, None] * (x_e @ weights)).sum(axis=0)


def consequent_gradients(models: Sequence[RuleClassifier], x, t_onehot, d2s, mask=None) -> list:
    """Gradient of E = 0.5 ||t - y||^2 for the flat model, lam_i
    outer(x_e, y - t) for rule i: one (R, u+1, O) array per model."""
    lam = firings(_joined(d2s))
    x_e = extended_input(x, mask)
    outer = x_e[:, None] * (_output(models, lam, x_e) - t_onehot)  # np.outer's own arithmetic
    sizes = [len(m.rules) for m in models]
    return [lam[hi - n:hi, None, None] * outer for n, hi in zip(sizes, accumulate(sizes))]


def sgd_step(models: Sequence[RuleClassifier], x, t_onehot, d2s, mask=None) -> None:
    """Projected SGD step on the squared error of the flat model.

    Each consequent takes the L2-regularized step
    W <- (1 - OFS_RATE*OFS_REG) W - OFS_RATE dE/dW and is then projected
    onto the ball of radius 1/sqrt(OFS_REG).  The writes go straight to
    each model's consequent array, which its least-squares updates share.
    """
    radius = 1.0 / math.sqrt(OFS_REG)
    for m, g in zip(models, consequent_gradients(models, x, t_onehot, d2s, mask)):
        weights = m.rules.weights
        weights *= 1.0 - OFS_RATE * OFS_REG
        weights -= OFS_RATE * g
        # one (1, n) @ (n, 1) product per rule, equal to np.linalg.norm's dot bit for bit
        flat = weights.reshape(len(weights), 1, math.prod(weights.shape[1:]))
        norms = np.sqrt(flat @ flat.swapaxes(1, 2))
        if norms.max(initial=0.0) > radius:  # most steps stay inside the ball
            weights *= np.divide(radius, norms, out=np.ones_like(norms), where=norms > radius)


def feature_scores(models: Sequence[RuleClassifier], n_features: int) -> np.ndarray:
    """Per-feature sensitivity from consequent weight magnitudes.

    Absolute values prevent sign cancellation across rules and outputs;
    the intercept row is excluded.  All-zero weights give the uniform
    vector.
    """
    weights = _joined([m.rules.weights for m in models])
    total = np.abs(weights[:, 1:, :]).sum(axis=2).sum(axis=0)
    z = total.sum()
    if z <= 0.0:
        return np.full(n_features, 1.0 / n_features)
    return total / z


def apply_mask(scores: np.ndarray, b: int) -> np.ndarray:
    """1.0 for the b largest sensitivities, else 0.0; lowest index on ties."""
    u = len(scores)
    if not 1 <= b <= u:
        raise ValueError("b must be in [1, n_features]")
    # stable: sort by (-score, index) so ties resolve to the lowest index
    order = (-scores).argsort(kind="stable")
    active = np.zeros(u)
    active[order[:b]] = 1.0
    return active


class Selectors(State):
    """Selection state carried across chunks: threshold, mask, sensitivities."""

    FIELDS = (
        Field("n_features", int, lo=1, hi=MAX_FEATURES), Field("ofs_b", int, lo=1, hi="u"),
        Field("al", ActiveLearnState),
        Field("mask_active", float, ("u",), lo=0.0, hi=1.0),
        Field("mask_scores", float, ("u",), lo=0.0),
    )
    SECTION = "selectors"

    def __init__(self, cfg: StreamConfig):
        self.al = ActiveLearnState()
        self.ofs_b = cfg.ofs_b
        self.n_features = cfg.n_features
        self.mask_active = np.ones(cfg.n_features)
        self.mask_scores = np.full(cfg.n_features, 1.0 / cfg.n_features)

    @property
    def mask(self) -> Optional[np.ndarray]:
        """The mask the learner applies; None when ofs_b == n_features."""
        return self.mask_active if self.ofs_b < self.n_features else None

    def learn(self, models: Sequence[RuleClassifier], x, t_onehot, d2s, wrong: bool) -> None:
        """An SGD step under the mask if the ensemble got the accepted
        sample wrong, then a fresh mask."""
        if wrong:
            sgd_step(models, x, t_onehot, d2s, self.mask)
        self.refresh_mask(models)

    def refresh_mask(self, models: Sequence[RuleClassifier]) -> None:
        # new arrays, never writes into the old ones, which callers may hold
        self.mask_scores = feature_scores(models, self.n_features)
        self.mask_active = apply_mask(self.mask_scores, self.ofs_b)
