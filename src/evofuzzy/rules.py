"""Evolving fuzzy rule-based classifier with linear consequents.

A classifier is a set of Gaussian rules.  Each rule has a center and an
inverse dispersion matrix (diagonal for the axis-parallel variant, full
for the multivariate one), per-class support counts, and a first-order
consequent fitted online by firing-weighted recursive least squares with
a quadratic weight-decay term.  A classifier stores its rules, and its
archive, as stacked arrays (RuleBank) that are updated in place.

Structure evolves per sample: rules are grown when a sample is erroneous,
novel by a chi-square Mahalanobis gate, and sits in a low-density region
of the stream; stale or inactive rules are pruned into an archive; and
archived rules can be recalled when an old concept reappears.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .core import MAX_FEATURES, DataError, Field, State, onehot

# Eigenvalue floor used when repairing a dispersion matrix that lost
# positive definiteness, and the variance floor for diagonal updates.
EIG_FLOOR = 1e-8

# Rules with normalized firing below this are skipped by the consequent update.
FIRING_EPS = 1e-6

# Structure-learning thresholds.  The code reads them at call time, so a
# test may monkeypatch them.
ERR_GROW = 0.5  # prediction-error gate for growing (one-hot target space)
NOVELTY_Q = 0.95  # quantile of the novelty gate, whose chi-square table _CHI2_95 holds at 0.95
DENSITY_SIGMAS = 2.0  # sigmas below the mean density that count as sparse
VOLUME_CAP = 0.25  # share of the volume proxy 6^u a rule may fill before growth is forced
PRUNE_FRAC = 0.1  # share of the mean activity below which a rule is inactive
DECAY = 0.99  # decay factor of the activity and density statistics
POTENTIAL_FRAC = 0.2  # share of a rule's peak potential below which it is stale
DECAY_STRENGTH = 1e-7  # weight-decay coefficient of the consequent update
INIT_SPREAD = 1.0  # spread of the very first rule
RLS_INIT = 1e5  # diagonal of a fresh rule's consequent covariance


class GrowDecision(Enum):
    GROW = "grow"
    UPDATE = "update_winner"
    VOLUME_FORCED = "grow_denied_by_volume"

    @property
    def grows(self) -> bool:
        return self is not GrowDecision.UPDATE


class RdeState(State):
    """Recursive density estimate of the stream around a point.

    Keeps the running input mean and mean squared norm; density at x is
    the inverse multiquadratic

        D(x) = 1 / (1 + ||x - mean||^2 + msq - ||mean||^2)

    where msq - ||mean||^2 is the total variance seen so far.  Densities
    of incoming samples are tracked with exponentially weighted mean and
    variance: each density is measured against the stream statistics of
    its own moment, so old densities must fade or one early high-density
    regime inflates the spread forever and the sparseness gate goes dead.
    """

    FIELDS = (
        Field("count", int), Field("mean", float, ("u",)), Field("sq_norm_mean", float, lo=0.0),
        Field("dens_mean", float), Field("dens_var", float, lo=0.0),
    )
    SECTION = "rde"

    def __init__(self, n_features: int):
        self.count = 0
        self.mean = np.zeros(n_features)
        self.sq_norm_mean = 0.0
        self.dens_mean = 0.0
        self.dens_var = 0.0

    def update(self, x: np.ndarray) -> float:
        self.count += 1
        self.mean += (x - self.mean) / self.count
        self.sq_norm_mean += (float(x @ x) - self.sq_norm_mean) / self.count
        d = self.potential(x)
        if self.count == 1:
            self.dens_mean = d
            self.dens_var = 0.0
        else:
            a = 1.0 - DECAY
            delta = d - self.dens_mean
            self.dens_mean += a * delta
            self.dens_var = (1.0 - a) * (self.dens_var + a * delta * delta)
        return d

    def potential(self, points: np.ndarray):
        """Density at one point (u,), a float, or at each row of (R, u)."""
        diff = points - self.mean
        if self.count == 0:
            return 1.0 if diff.ndim == 1 else np.ones(len(diff))
        spread = max(self.sq_norm_mean - float(self.mean @ self.mean), 0.0)
        if diff.ndim == 1:
            return 1.0 / (1.0 + float(diff @ diff) + spread)
        # one (1, u) @ (u, 1) product per row, equal to diff @ diff bit for bit
        return 1.0 / (1.0 + (diff[:, None, :] @ diff[:, :, None])[:, 0, 0] + spread)


class RuleBank(State):
    """Rules as stacked arrays, one row per rule, changed in place.

    centers         (R, u)
    inv             inverse dispersions: (R, u) diagonals for axis-parallel
                    rules, (R, u, u) matrices for multivariate ones
    weights         (R, u+1, O) consequents
    rls_cov         (R, u+1, u+1) consequent covariances
    class_support   (R, O) counts
    activity, peak_potential, age   (R,)

    and the DERIVED columns, which change only on an accept: volumes (R,)
    det(Sigma) and norms sqrt(2 pi volumes), kept in step with inv by
    set_inv; supports (R,) the row sums of class_support, the Laplace
    purity (R, O) (class_support + 1) / (supports + O) and its log, kept
    in step by count.

    A row is the only form a rule takes.  Adding and moving rows
    reallocates every array, so a reference to one is only good until
    the next append or move.  A snapshot holds every column but the
    derived ones, which loading recomputes.
    """

    FIELDS = (
        Field("centers", float, ("R", "u")), Field("inv", float, ("R", "u", "D")),
        Field("weights", float, ("R", "u+1", "O")), Field("rls_cov", float, ("R", "u+1", "u+1")),
        Field("class_support", int, ("R", "O")), Field("activity", float, ("R",)),
        Field("peak_potential", float, ("R",)), Field("age", int, ("R",)),
    )
    DERIVED = ("volumes", "norms", "supports", "purity", "log_purity")

    def __init__(self, n_features: int, n_classes: int, diagonal: bool):
        u = n_features
        dims = {"R": 0, "u": u, "u+1": u + 1, "O": n_classes, "D": None if diagonal else u}
        for f in self.FIELDS:
            shape = [dims[n] for n in f.shape if dims[n] is not None]
            setattr(self, f.key, np.empty(shape, dtype=np.int64 if f.kind is int else float))
        self._complete()

    def __len__(self) -> int:
        return len(self.centers)

    def volume(self, inv: np.ndarray) -> float:
        """det(Sigma) = 1 / det(inv); positive for a valid rule."""
        det = inv.prod() if self.diagonal else np.linalg.det(inv)
        if not det > 0:
            raise FloatingPointError("rule dispersion (inv) lost positive definiteness")
        return 1.0 / det

    def set_inv(self, i: int, inv: np.ndarray, volume: Optional[float] = None) -> None:
        """Store rule i's inverse dispersion, its volume (given or computed) and its norm."""
        self.volumes[i] = self.volume(inv) if volume is None else volume
        self.norms[i] = np.sqrt(2.0 * math.pi * self.volumes[i])
        self.inv[i] = inv

    def count(self, i: int, label: int) -> int:
        """Count a sample of class label in rule i; returns its support."""
        self.class_support[i, label - 1] += 1
        self.supports[i] += 1
        self.purity[i] = (self.class_support[i] + 1.0) / (self.supports[i] + self.purity.shape[1])
        np.log(self.purity[i], out=self.log_purity[i])
        return int(self.supports[i])

    def _derive(self, inv: np.ndarray, class_support: np.ndarray) -> dict:
        """The derived columns of the rows inv and class_support give."""
        volumes = np.array([self.volume(v) for v in inv], dtype=float)
        supports = class_support.sum(axis=1)
        purity = (class_support + 1.0) / (supports[:, None] + class_support.shape[1])
        return dict(volumes=volumes, norms=np.sqrt(2.0 * math.pi * volumes), supports=supports,
                    purity=purity, log_purity=np.log(purity))

    def append(self, **row) -> int:
        """Add a rule as the last row, given one value per column in the
        bank's form; returns its index.  A value of the wrong shape raises
        ValueError and leaves the bank as it was."""
        rows = {name: np.asarray(v, dtype=getattr(self, name).dtype)[None] for name, v in row.items()}
        rows.update(self._derive(rows["inv"], rows["class_support"]))
        self.__dict__.update({name: np.concatenate([getattr(self, name), v])
                              for name, v in rows.items()})
        return len(self) - 1

    def move(self, i: int, dst: "RuleBank") -> int:
        """Move row i to the end of bank dst; returns its index there."""
        for name in [f.key for f in self.FIELDS] + list(self.DERIVED):
            col = getattr(self, name)
            setattr(dst, name, np.concatenate([getattr(dst, name), col[i : i + 1]]))
            setattr(self, name, np.delete(col, i, axis=0))
        return len(dst) - 1

    def _complete(self) -> None:
        self.diagonal = self.inv.ndim == 2
        self.__dict__.update(self._derive(self.inv, self.class_support))
        # update_winner divides by a support less one after counting the sample
        if (self.supports < 1).any():
            raise ValueError("class_support has a rule support below 1")

    def mahalanobis_sq(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Squared Mahalanobis distance from x to every rule center: (R,)
        for one vector x (u,), (N, R) for a block (N, u).

        Masked-out features contribute zero to the distance.  Multivariate
        rules are evaluated rule-major: a block's differences form one
        C-ordered (R, u, N) array and its result is a C-ordered (N, R)
        copy.  That is the sample-major (N, R, u) form bit for bit, but for
        a 2-row block at u = 2, whose rows get the bits of a larger block.
        """
        if self.diagonal:
            diff = x[..., None, :] - self.centers
            if mask is not None:
                diff = diff * mask
            return np.einsum("...rj,rj->...r", diff * diff, self.inv)
        # diff is (R, u) for one vector and (R, u, N), one column per sample, for a block
        block = x.ndim == 2
        diff = np.subtract(x.T, self.centers[..., None] if block else self.centers, order="C")
        if mask is not None:
            diff *= mask[:, None] if block else mask
        d2 = np.einsum("ri...,rij,rj...->r...", diff, self.inv, diff)
        # a copy, not a view: firings' row sums differ over a transposed view
        return np.ascontiguousarray(d2.T) if block else d2


def weighted_rls_update(
    psi: np.ndarray,
    weights: np.ndarray,
    lam: float,
    x_e: np.ndarray,
    target: np.ndarray,
    decay_strength: float,
) -> None:
    """One firing-weighted recursive least squares step with weight decay.

    Updates the consequent covariance psi and the weights in place:

    K    = P x / (1/lam + x P x')
    P    <- P - K x P
    W    <- W + K (t - x W) - 2 c P W      (quadratic decay, gradient 2W)
    """
    v = psi @ x_e
    denom = 1.0 / lam + float(x_e @ v)
    if denom <= 0:
        raise FloatingPointError("consequent covariance lost positive definiteness")
    k = v / denom
    p = psi - k[:, None] * v
    np.add(p, p.T, out=psi)
    psi *= 0.5
    err = target - x_e @ weights
    weights += k[:, None] * err
    if decay_strength > 0.0:
        weights -= (2.0 * decay_strength) * (psi @ weights)


# chi2.ppf(0.95, df) for df = 1..64, written by scripts/chi2_table.py: the
# novelty gate's threshold at df active features, so MAX_FEATURES is its length.
_CHI2_95 = (
    3.841458820694124, 5.991464547107979, 7.814727903251179, 9.487729036781154, 11.070497693516351,
    12.591587243743977, 14.067140449340169, 15.50731305586545, 16.918977604620448, 18.307038053275146,
    19.67513757268249, 21.02606981748307, 22.362032494826934, 23.684791304840576, 24.995790139728616,
    26.29622760486423, 27.58711163827534, 28.869299430392623, 30.14352720564616, 31.410432844230918,
    32.670573340917315, 33.92443847144381, 35.17246162690806, 36.41502850180731, 37.65248413348277,
    38.885138659830055, 40.113272069413625, 41.33713815142739, 42.55696780429269, 43.77297182574219,
    44.98534328036513, 46.19425952027847, 47.39988391908093, 48.602367367294164, 49.80184956820181,
    50.99846016571065, 52.192319730102895, 53.383540622969356, 54.572227758941736, 55.75847927888702,
    56.94238714682408, 58.12403768086803, 59.30351202689981, 60.480886582336446, 61.65623337627955,
    62.829620411408165, 64.00111197221803, 65.17076890356982, 66.3386488629688, 67.5048065495412,
    68.66929391228578, 69.83216033984813, 70.99345283378227, 72.15321616702309, 73.31149302908324,
    74.46832415930936, 75.62374846937608, 76.7778031560615, 77.93052380523042, 79.08194448784874,
    80.23209784876272, 81.3810151888991, 82.5287265414718, 83.67526074272097,
)


def _repair_spd(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    if w[0] > EIG_FLOOR:
        return m
    w = np.clip(w, EIG_FLOOR, None)
    return (v * w) @ v.T


def _clear_of_floors(p: np.ndarray, det: float) -> bool:
    """Whether the explicit path would floor no eigenvalue of the inverse
    dispersion p nor of its covariance, and its volume 1/det is finite."""
    w = np.linalg.eigvalsh(p)
    return EIG_FLOOR < w[0] and w[-1] < 1.0 / EIG_FLOOR and 0.0 < det and 1.0 / det < math.inf


class RuleClassifier(State):
    """An evolving bank of fuzzy rules plus a bank of pruned (archived) ones.

    One trainer mutates a classifier; inference on a snapshot is pure.
    An argument d2 is mahalanobis_sq(x, mask) on the rules as they stand,
    scores is infer(x, d2, mask)[0] on them and win the winner on them
    (win is None without rules), so each is computed once.
    """

    FIELDS = (
        Field("n_features", int, lo=1, hi=MAX_FEATURES), Field("n_classes", int, lo=2),
        Field("kind", str), Field("age_min", int), Field("rde", RdeState), Field("rules", RuleBank),
        Field("archive", RuleBank),
    )
    SECTION = "model"

    def __init__(
        self, n_features: int, n_classes: int, kind: str = "axis_parallel", age_min: int = 500
    ):
        self.kind = kind
        self.n_features = n_features
        self._complete()
        self.n_classes = n_classes
        # minimum age (samples) before a rule may be pruned
        self.age_min = age_min
        diagonal = kind == "axis_parallel"
        self.rules = RuleBank(n_features, n_classes, diagonal)
        self.archive = RuleBank(n_features, n_classes, diagonal)
        self.rde = RdeState(n_features)

    def _complete(self) -> None:
        if self.kind not in ("axis_parallel", "multivariate"):
            raise ValueError("kind must be axis_parallel or multivariate")
        if not 1 <= self.n_features <= MAX_FEATURES:
            raise ValueError(f"n_features must be in [1, {MAX_FEATURES}]")

    @property
    def volume_cap(self) -> float:
        """Largest rule volume before growth is forced."""
        return VOLUME_CAP * 6.0 ** self.n_features

    # -- inference -------------------------------------------------------

    def mahalanobis_sq(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Squared Mahalanobis distance from x, (u,) or (N, u), to every
        rule center."""
        return self.rules.mahalanobis_sq(x, mask)

    def infer(self, x: np.ndarray, d2: np.ndarray, mask: Optional[np.ndarray] = None):
        """Weighted-consequent scores and the predicted class.

        scores_o = sum_i lam_i * (x_e @ W_i)_o; the predicted class is the
        argmax with the lowest index winning ties, so a classifier without
        rules sums to zero scores and predicts class 1.  For a block x
        (N, u) with d2 (N, R) both come back per row.  The consequents are
        summed over a contiguous (u+1, R, O) copy, bit for bit the sum over
        the (R, u+1, O) bank.  Pure: no state change.
        """
        lam = firings(d2)
        x_e = extended_input(x, mask)
        weights = np.ascontiguousarray(self.rules.weights.transpose(1, 0, 2))
        per_rule = np.einsum("...e,ero->...ro", x_e, weights)
        scores = (lam[..., None, :] @ per_rule)[..., 0, :]
        return scores, classes(scores)

    # -- structure learning ----------------------------------------------

    def winner(self, d2: np.ndarray, label: int) -> int:
        """Log-softened winner: firing, prior, and class purity combined.

        Rules whose volume already exceeds the growth cap are skipped while
        any within-cap rule exists; otherwise a bloated rule with near-unit
        firing everywhere keeps absorbing samples and the forced growth that
        is supposed to relieve it never hands the region to the new rules.
        """
        if len(d2) == 1:
            return 0
        b = self.rules
        score = -d2 + np.log(b.supports / b.supports.sum()) + b.log_purity[:, label - 1]
        over = b.volumes > self.volume_cap
        if over.any() and not over.all():
            score = np.where(over, -np.inf, score)
        return int(score.argmax())

    def grow_check(
        self,
        density: float,
        t_onehot: np.ndarray,
        d2: np.ndarray,
        scores: np.ndarray,
        win: Optional[int],
        mask: Optional[np.ndarray] = None,
    ) -> GrowDecision:
        """Decide between growing a rule and updating the winner.

        Growth requires all three at once: large prediction error, novelty
        past the chi-square Mahalanobis gate, and low stream density where
        the sample sits: density, the stream density at the sample as
        rde.update returned it.  An oversized winner also forces growth
        instead of further expansion.
        """
        if win is None:
            return GrowDecision.GROW
        e = t_onehot - scores
        err = math.sqrt(float(e @ e))
        active = self.n_features if mask is None else int(np.count_nonzero(mask))
        novel = d2[win] > _CHI2_95[max(active, 1) - 1]
        sparse = False
        if self.rde.count >= 2:
            sparse = density < self.rde.dens_mean - DENSITY_SIGMAS * math.sqrt(self.rde.dens_var)
        if err > ERR_GROW and novel and sparse:
            return GrowDecision.GROW
        if self.rules.volumes[win] > self.volume_cap:
            return GrowDecision.VOLUME_FORCED
        return GrowDecision.UPDATE

    def add_rule(
        self,
        x: np.ndarray,
        t_onehot: np.ndarray,
        win: Optional[int],
        mask: Optional[np.ndarray] = None,
    ) -> int:
        """Create a rule at x.

        Spread is half the distance to the nearest existing center,
        floored at 0.1 (INIT_SPREAD for the very first rule).  The
        consequent is copied from the winner so a fresh rule does not
        cold-start at zero.
        """
        u = self.n_features
        label = int(np.argmax(t_onehot)) + 1
        # isotropic spread that keeps a fresh rule's volume at or below the
        # growth cap; without it a rule born far from the others instantly
        # violates the volume check and forces growth on every sample after
        sigma_cap = self.volume_cap ** (1.0 / (2.0 * u))
        if self.rules:
            w0 = self.rules.weights[win]
            diff = self.rules.centers - x[None, :]
            if mask is not None:
                diff = diff * mask
            nearest = float(np.sqrt((diff * diff).sum(axis=1).min()))
            sigma0 = max(min(0.5 * nearest, sigma_cap), 0.1)
        else:
            w0 = np.zeros((u + 1, self.n_classes))
            sigma0 = min(INIT_SPREAD, sigma_cap)
        inv = np.full(u, 1.0 / (sigma0 * sigma0))
        diagonal = self.rules.diagonal
        # at sigma_cap the volume can round to just over the cap, where the
        # rule would force growth when it wins: tighten it an ulp at a time
        while self.rules.volume(inv if diagonal else np.diag(inv)) > self.volume_cap:
            inv = np.nextafter(inv, np.inf)
        return self.rules.append(
            centers=x,
            inv=inv if diagonal else np.diag(inv),
            weights=w0,
            rls_cov=RLS_INIT * np.eye(u + 1),
            class_support=np.arange(1, self.n_classes + 1) == label,
            activity=1.0 / (len(self.rules) + 1),
            peak_potential=0.0,
            age=0,
        )

    def recall_check(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> Optional[int]:
        """Reactivate the best-firing archived rule if it beats a fresh one;
        returns its index among the rules, or None.

        A hypothetical fresh rule fires 1 at its own center; the archived
        rule must beat that handicapped by h = exp(-q * u / 2).  The
        reactivated rule keeps its consequent and dispersion untouched.
        """
        if not self.archive:
            return None
        fires = np.exp(-self.archive.mahalanobis_sq(x, mask))
        best = int(np.argmax(fires))
        handicap = math.exp(-NOVELTY_Q * self.n_features / 2.0)
        if fires[best] > handicap:
            b = self.rules
            i = self.archive.move(best, b)
            b.activity[i] = 1.0 / len(b)
            # restart the pruning baseline, otherwise the staleness that
            # archived the rule still holds and it bounces straight back
            b.age[i] = 0
            b.peak_potential[i] = self.rde.potential(b.centers[i])
            return i
        return None

    def update_winner(self, x: np.ndarray, label: int, win: int, mask: Optional[np.ndarray] = None):
        """Absorb a sample into the winning rule (support, center, dispersion).

        The dispersion follows the incremental covariance recurrence
        S <- ((N-1) S + outer(x - C_old, x - C_new)) / N, projected to the
        diagonal for axis-parallel rules.  Zero-displacement components are
        skipped so an exact center hit leaves the dispersion untouched, and
        masked features stay frozen.

        With d = x - C_old the recurrence reads S <- ((N-1)/N)(S + d d'/N),
        a rank-one step, so a multivariate rule without a feature mask
        updates its stored inverse P by Sherman-Morrison:
        P <- N/(N-1) (P - v v'/(N + d'v)) with v = P d.  That result is
        kept only where neither eigenvalue floor of the explicit path binds.
        Two bounds decide first: trace(P) < 1/EIG_FLOOR bounds the
        covariance's eigenvalues from below, det(P)/trace(P)^(u-1) >
        EIG_FLOOR those of P.  The second is low by up to u^(u-1) for an
        isotropic P, so past u = 9 it fails on most updates; where a bound
        fails, P's eigenvalues decide (_clear_of_floors).  Otherwise, and
        under a partial mask, the covariance is inverted, updated and
        repaired explicitly from the old P.
        """
        b = self.rules
        n = b.count(win, label)
        d_old = x - b.centers[win]
        if mask is not None:
            d_old = d_old * mask
        b.centers[win] += d_old / n
        # x - C_new = d_old * (n-1)/n, so the cross outer product stays symmetric
        if b.diagonal:
            live = d_old != 0.0
            if live.any():
                inv = b.inv[win]
                # frozen variances read 0 and are never divided, so they cannot overflow
                var = np.divide(1.0, inv, out=np.zeros(self.n_features), where=live)
                upd = np.maximum(((n - 1) * var + d_old ** 2 * (n - 1) / n) / n, EIG_FLOOR)
                b.set_inv(win, np.where(live, 1.0 / upd, inv))
        elif d_old.any():
            p = b.inv[win]
            if mask is None or mask.all():
                v = p @ d_old
                p_new = (p - v[:, None] * v / (n + float(d_old @ v))) * (n / (n - 1))
                tr, det = float(p_new.trace()), float(np.linalg.det(p_new))
                try:
                    bounded = det / tr ** (self.n_features - 1) > EIG_FLOOR
                except OverflowError:  # trace^(u-1) past the float range: the bound fails
                    bounded = False
                if tr < 1.0 / EIG_FLOOR and bounded or _clear_of_floors(p_new, det):
                    b.set_inv(win, p_new, 1.0 / det)  # 1/det is volume(p_new)
                    return
            active = np.ones(self.n_features, dtype=bool) if mask is None else mask > 0
            cov = np.linalg.inv(p)
            sub = cov[np.ix_(active, active)]
            d = d_old[active]
            sub = ((n - 1) * sub + np.outer(d, d) * (n - 1) / n) / n
            cov[np.ix_(active, active)] = sub
            inv = np.linalg.inv(_repair_spd(cov))
            b.set_inv(win, _repair_spd(inv))

    def prune_check(self, lam: np.ndarray) -> list:
        """Update activity/potential statistics, then prune flagged rules.

        A rule old enough is flagged inactive when its decayed firing falls
        below PRUNE_FRAC of the mean, or stale when its potential against
        the current stream statistics falls below POTENTIAL_FRAC of its own
        peak.  Flagged rules move to the archive; the last rule is never
        pruned.
        """
        b = self.rules
        act = b.activity
        act *= DECAY
        act += (1.0 - DECAY) * lam
        potentials = self.rde.potential(b.centers)
        np.maximum(b.peak_potential, potentials, out=b.peak_potential)
        n = len(act)
        if n < 2 or b.age.max() < self.age_min:
            return []
        inactive = act < PRUNE_FRAC * (act.sum() / n)  # np.mean's own arithmetic
        stale = potentials < POTENTIAL_FRAC * b.peak_potential
        flagged = (b.age >= self.age_min) & (inactive | stale)
        if not flagged.any():
            return []
        if flagged.all():
            flagged[np.argmax(act)] = False
        pruned = np.flatnonzero(flagged).tolist()
        for i in reversed(pruned):
            b.move(i, self.archive)
        return [(i, "inactive" if inactive[i] else "stale") for i in pruned]

    def train_sample(
        self,
        x: np.ndarray,
        label: int,
        d2: np.ndarray,
        scores: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One supervised training step: grow/recall/update, fit, prune.
        Returns d2 on the rules as the step leaves them."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise DataError(f"expected {self.n_features} features, got {x.shape}")
        t = onehot(label, self.n_classes)
        density = self.rde.update(x)
        win = self.winner(d2, label) if len(d2) else None
        if not self.grow_check(density, t, d2, scores, win, mask).grows:
            self.update_winner(x, label, win, mask)
        elif self.recall_check(x, mask) is None:
            self.add_rule(x, t, win, mask)
        else:
            d2 = self.mahalanobis_sq(x, mask)
            self.update_winner(x, label, self.winner(d2, label), mask)
        d2 = self.mahalanobis_sq(x, mask)
        lam = firings(d2)
        x_e = extended_input(x, mask)
        b = self.rules
        for i in (lam > FIRING_EPS).nonzero()[0]:
            weighted_rls_update(b.rls_cov[i], b.weights[i], float(lam[i]), x_e, t, DECAY_STRENGTH)
        pruned = self.prune_check(lam)
        self.rules.age += 1
        if pruned:
            d2 = np.delete(d2, [i for i, _ in pruned])
        return d2

    def check_invariants(self, tol: float = 1e-10) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        for b in (self.rules, self.archive):
            assert np.all(b.class_support >= 0) and np.all(b.supports >= 1)
            eig = b.inv if b.diagonal else np.linalg.eigvalsh(0.5 * (b.inv + b.inv.swapaxes(1, 2)))
            psi = np.linalg.eigvalsh(0.5 * (b.rls_cov + b.rls_cov.swapaxes(1, 2)))
            assert np.all(eig > -tol) and np.all(psi[:, 0] > -tol)
            for name, col in b._derive(b.inv, b.class_support).items():
                assert np.array_equal(getattr(b, name), col), f"{name} out of step"


def firings(d2: np.ndarray) -> np.ndarray:
    """Normalized firings of squared distances, shifted against underflow:
    each row of rules (the last axis) sums to 1, and no rules give none."""
    f = np.exp(d2.min(axis=-1, keepdims=True, initial=np.inf) - d2)
    return f / f.sum(axis=-1, keepdims=True)


def extended_input(x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """[1, x] with masked features forced to zero, for x (u,) or (N, u)."""
    xm = x if mask is None else x * mask
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., 0] = 1.0
    out[..., 1:] = xm
    return out


def classes(scores: np.ndarray):
    """1-based argmax over the last axis, the lowest index winning ties:
    an int for one score vector, an array for a block."""
    cls = scores.argmax(axis=-1) + 1
    return int(cls) if scores.ndim == 1 else cls
