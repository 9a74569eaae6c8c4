"""Weighted ensemble of evolving fuzzy classifiers for drifting streams.

Members vote with normalized weights that are penalized on mistakes and
rewarded on correct predictions.  A Hoeffding-bound detector watches the
ensemble's 0/1 error on accepted samples and classifies the stream as
stable, warning, or drift; drift adds a fresh member trained on the rest
of the chunk.  After each chunk, members whose outputs carry almost no
mutual information loss are merged, keeping the more accurate one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DataChunk, DataError, Field, RunningStandardizer, State, StreamConfig, onehot
from .rules import RuleClassifier, classes
from .selection import Selectors, conflict_input, conflict_output


class EmptyEnsembleError(RuntimeError):
    """Prediction was requested from an ensemble with no members."""


# Consecutive drift-level steps the detector needs before it signals drift.
CONFIRM = 3

# The detector's Hoeffding confidence levels, warning and drift; the drift
# level is the stricter one.
ALPHA_WARN = 0.005
ALPHA_DRIFT = 0.001

# A wrong voter's weight is scaled by PENALTY, a right one's by 2 - PENALTY.
PENALTY = 0.5


class DriftDetector(State):
    """Three-state drift detector on a bounded error window.

    The window holds per-sample errors, each 0 or 1 (range [a, b] =
    [0, 1]).  A cut point splits it into prefix Z and suffix Y.  A
    candidate cut c is accepted when mean(Z) + eps(c) <= mean(X) + eps(n)
    with the one-sample Hoeffding radius eps(k) = sqrt(ln(1/ALPHA_DRIFT) / 2k);
    the earliest cut found is pinned until it stops holding, slides out,
    or drift fires.

    Given a pinned cut, the one-sided mean increase mean(Y) - mean(Z) is
    tested against the two-sample Hoeffding radius

        eps_a = sqrt(ln(1/alpha) / 2 * (1/c + 1/m))

    at the drift level ALPHA_DRIFT and at the warning level ALPHA_WARN.
    Because the pinned cut is re-tested on every sample, a single crossing
    is cheap noise; drift is signaled (and the window cleared) only after
    the drift-level condition holds on CONFIRM consecutive steps, which
    controls the compounded false-alarm rate while costing a couple of
    samples of detection delay.  Unconfirmed crossings report warning.

    The window is kept as integer prefix counts of its errors, as in
    HDDM_A's running counts: _cum[j] counts the errors among the first j
    entries of a buffer of 2W + 1 counts, and the window is the stretch
    _start.._end of it.  A step appends one count and, on a full window,
    advances _start; the stretch moves to the front once every W steps.
    So the window total and a pinned cut's prefix are two reads, and the
    search for a cut is one vector compare of prefix means plus a table
    of eps(c) against the bound: O(n) while no cut is pinned, with no
    shift, cumsum or square root over the window.  A snapshot holds the
    window, not the counts, so it does not depend on where the stretch lies.
    """

    FIELDS = (
        Field("max_window", int, lo=2), Field("window", float, ("n",)),
        Field("cut", int, none=True), Field("streak", int, hi=CONFIRM - 1),
    )
    SECTION = "detector"

    def __init__(self, max_window: int = 1000):
        if max_window < 2:
            raise ValueError("max_window must be >= 2")
        self.max_window = max_window
        self.reset()
        self._complete()

    def _complete(self) -> None:
        if not (self.cut is None or 1 <= self.cut < len(self)):
            raise ValueError(f"cut must be None or in 1..{len(self) - 1}, got {self.cut!r}")
        self._ln_w = math.log(1.0 / ALPHA_WARN)
        self._ln_d = math.log(1.0 / ALPHA_DRIFT)
        self._counts = np.arange(1.0, self.max_window)
        self._eps = np.sqrt(self._ln_d / (2.0 * self._counts))

    def __len__(self) -> int:
        return self._end - self._start

    @property
    def window(self) -> np.ndarray:
        return np.diff(self._cum[self._start : self._end + 1]).astype(float)

    @window.setter
    def window(self, errors: np.ndarray) -> None:
        """Start from a window of errors, each 0 or 1."""
        if len(errors) > self.max_window:
            raise ValueError(f"window must list at most {self.max_window} errors")
        if not np.all((errors == 0.0) | (errors == 1.0)):
            raise ValueError("window errors must each be 0 or 1")
        self._cum = np.zeros(2 * self.max_window + 1, dtype=np.int64)
        self._cum[1 : len(errors) + 1] = np.cumsum(errors.astype(np.int64))
        self._start, self._end = 0, len(errors)

    def reset(self) -> None:
        self.window, self.cut, self.streak = np.zeros(0), None, 0

    def step(self, err01) -> str:
        if err01 not in (0, 1):
            raise ValueError(f"error must be 0 or 1, got {err01!r}")
        cum, s = self._cum, self._start
        if self._end - s == self.max_window:
            s = self._start = s + 1
            if self.cut is not None:
                self.cut -= 1
                if self.cut < 1:
                    self.cut = None
        if self._end == len(cum) - 1:
            n = self._end - s
            cum[: n + 1] = cum[s:] - cum[s]
            s = self._start = 0
            self._end = n
        e = self._end
        cum[e + 1] = cum[e] + int(err01)
        self._end = e = e + 1
        n = e - s
        if n < 2:
            return "stable"
        base = int(cum[s])
        total = int(cum[e]) - base
        bound = total / n + math.sqrt(self._ln_d / (2.0 * n))
        c = self.cut
        if c is not None:
            holds = (int(cum[s + c]) - base) / c + math.sqrt(self._ln_d / (2.0 * c)) <= bound
            c = c if holds else None
        if c is None:
            ok = (cum[s + 1 : e] - base) / self._counts[: n - 1] + self._eps[: n - 1] <= bound
            first = int(ok.argmax())
            c = self.cut = first + 1 if ok[first] else None
            self.streak = 0
        if c is None:
            return "stable"
        m = n - c
        prefix = int(cum[s + c]) - base
        diff = (total - prefix) / m - prefix / c
        scale = 0.5 * (1.0 / c + 1.0 / m)
        if diff >= math.sqrt(scale * self._ln_d):
            self.streak += 1
            if self.streak >= CONFIRM:
                self.reset()
                return "drift"
            return "warning"
        self.streak = 0
        return "warning" if diff >= math.sqrt(scale * self._ln_w) else "stable"


def compression_index(v1, v2, cov):
    """Information loss when one of two series is dropped, elementwise.

    xi = ((v1 + v2) - sqrt((v1 + v2)^2 - 4 v1 v2 (1 - rho^2))) / 2

    Zero means one series is an affine image of the other (nothing is
    lost); the maximum (v1 + v2) / 2 is reached for uncorrelated series
    of equal variance.  A zero-variance series is fully compressible by
    convention.  Bounded by 0 <= xi <= (v1 + v2) / 2 for all inputs.  A
    0-d array for scalars, an array for arrays.
    """
    if np.any(v1 < 0) or np.any(v2 < 0):
        raise ValueError("variances must be nonnegative")
    prod = v1 * v2
    rho_sq = np.divide(cov * cov, prod, out=np.zeros(np.shape(prod)), where=prod != 0.0)
    s = v1 + v2
    disc = s * s - 4.0 * prod * (1.0 - np.minimum(rho_sq, 1.0))
    return np.where(prod == 0.0, 0.0, 0.5 * (s - np.sqrt(np.maximum(disc, 0.0))))


class MciState:
    """What the chunk's voters did on its accepted samples.

    The voter set is fixed for a chunk: a drift member bootstraps until
    the chunk ends and merges run after it, and every voter scores every
    accepted sample.  Per voter v the record holds its correct
    predictions, its squared error, and the Welford moments of its output
    series: mean[v] and the co-moments com[v, w], whose diagonal is the
    voter's own m2.  A lone voter has nothing to compare with, so nothing
    is recorded for it.
    """

    def __init__(self, voters: list, n_classes: int):
        self.voters = voters
        self.count = 0
        v = len(voters)
        self.correct = np.zeros(v, dtype=np.int64)
        self.sq_err = np.zeros(v)
        self.mean = np.zeros((v, n_classes))
        self.com = np.zeros((v, v, n_classes))

    def update(self, scores: list, preds: list, label: int, t: np.ndarray) -> None:
        if len(self.voters) < 2:
            return
        self.count += 1
        for v, (y, pred) in enumerate(zip(scores, preds)):
            e = t - y
            self.sq_err[v] += float(e @ e)
            self.correct[v] += pred == label
        y = np.array(scores)
        d = y - self.mean
        self.mean += d / self.count
        self.com += d[:, None, :] * (y - self.mean)[None, :, :]


@dataclass(eq=False)
class EnsembleMember(State):
    model: RuleClassifier
    beta: float = 1.0
    uid: int = 0
    bootstrapping: bool = False
    bootstrap_chunks: int = 0

    FIELDS = (
        Field("beta", float, lo=0.0, hi=1.0), Field("uid", int), Field("bootstrapping", bool),
        Field("bootstrap_chunks", int), Field("model", RuleClassifier),
    )
    SECTION = "member"


@dataclass(frozen=True)
class ChunkReport:
    """What happened in one chunk; the learner holds the state at its end.
    Built once, at the end of the chunk, and frozen, so a forked learner
    can share the reports of the chunks it has in common."""

    accepted: int = 0
    drifts: int = 0
    warnings: int = 0
    merges: int = 0
    mask: tuple = ()
    mask_activations: tuple = ()


def chunk_labels(samples: list, n_classes: int) -> list:
    """The samples' labels, each None or an int (not a bool) in 1..n_classes,
    which train_chunk checks first; a DataError names the first bad row."""
    labels = [s.label for s in samples]
    ok = {None, *range(1, n_classes + 1)}
    if set(map(type, labels)) <= {int, type(None)} and set(labels) <= ok:
        return labels
    k = next(k for k, y in enumerate(labels) if type(y) not in (int, type(None)) or y not in ok)
    raise DataError(f"row {k} of the chunk: label {labels[k]!r} is not None or an int in "
                    f"1..{n_classes}", k)


# The drift detector's window, in chunks.
DETECTOR_CHUNKS = 4

# A rule's minimum age before it may be pruned, in chunks.
AGE_CHUNKS = 2

# Rows of the first block pass after an accept; a block that the
# threshold rejects whole is followed by one twice as long.
LOOKAHEAD = 8

# A fresh drift member must absorb at least this many accepted samples
# before it votes; otherwise it keeps training through the next chunk.
BOOTSTRAP_MIN_SAMPLES = 5


class Ensemble(State):
    """Penalty/reward weighted ensemble with an open structure.

    One trainer thread mutates an ensemble; scoring a snapshot is safe
    from any number of readers.
    """

    FIELDS = (
        Field("cfg", StreamConfig), Field("standardizer", RunningStandardizer),
        Field("detector", DriftDetector), Field("next_uid", int),
        Field("members", [EnsembleMember]),
    )
    SECTION = "ensemble"

    def __init__(self, cfg: StreamConfig):
        self.cfg = cfg
        self.members: list[EnsembleMember] = []
        self.detector = DriftDetector(max_window=DETECTOR_CHUNKS * cfg.chunk_size)
        self.standardizer = RunningStandardizer(cfg.n_features)
        self.next_uid = 0

    @property
    def age_min(self) -> int:
        """The rule age_min of every member, which cfg sets."""
        return AGE_CHUNKS * self.cfg.chunk_size

    def _complete(self) -> None:
        """The members and the detector are what cfg makes."""
        cfg, have = self.cfg, self.detector.max_window
        for m in self.members:
            if m.model.kind != cfg.base_kind:
                raise ValueError(f"member {m.uid} has kind {m.model.kind!r}, "
                                 f"but cfg base_kind {cfg.base_kind!r}")
            if m.model.age_min != self.age_min:
                raise ValueError(f"member {m.uid} has age_min {m.model.age_min!r}, "
                                 f"but cfg sets {self.age_min!r}")
        want = DETECTOR_CHUNKS * cfg.chunk_size
        if have != want:
            raise ValueError(f"detector max_window {have!r} differs from {want!r}, which cfg sets")

    # -- membership --------------------------------------------------------

    def _new_member(self, bootstrapping: bool = False) -> EnsembleMember:
        model = RuleClassifier(
            self.cfg.n_features, self.cfg.n_classes, self.cfg.base_kind, self.age_min
        )
        m = EnsembleMember(
            model=model, beta=1.0, uid=self.next_uid, bootstrapping=bootstrapping
        )
        self.next_uid += 1
        self.members.append(m)
        self._normalize_betas()
        return m

    def _normalize_betas(self) -> None:
        s = sum([m.beta for m in self.members])
        if s > 0:
            for m in self.members:
                m.beta /= s

    def voters(self) -> list:
        return [m for m in self.members if not m.bootstrapping]

    @property
    def total_rules(self) -> int:
        return sum(len(m.model.rules) for m in self.members)

    # -- prediction ---------------------------------------------------------

    def predict(self, z: np.ndarray, d2s: dict, mask: Optional[np.ndarray] = None):
        """Weighted vote sigma_o = sum_i beta_i y_io over mature members.

        d2s maps each voter to mahalanobis_sq(z, mask) on its rules.
        Returns (global scores, predicted class, per-voter list of
        (scores, class) as infer gives them), each per row for a block
        z (N, u).
        """
        if not self.members:
            raise EmptyEnsembleError("ensemble has no members")
        sigma = np.zeros(z.shape[:-1] + (self.cfg.n_classes,))
        votes = []
        for m in self.voters():
            votes.append(m.model.infer(z, d2s[m], mask))
            sigma += m.beta * votes[-1][0]
        return sigma, classes(sigma), votes

    def score_sample(self, x_raw: np.ndarray, mask: Optional[np.ndarray] = None):
        """Frozen scoring of one vector (u,) or a test block (N, u): no
        statistics are updated.  Returns (sigma, class), per row for a
        block.  A value too large for the model (its scores overflow)
        raises DataError naming the row."""
        z = self.standardizer.transform(x_raw)
        with np.errstate(over="ignore", invalid="ignore"):
            d2s = {m: m.model.mahalanobis_sq(z, mask) for m in self.voters()}
            sigma, cls, _ = self.predict(z, d2s, mask)
        if not np.isfinite(sigma).all():  # one pass over the block; rows only on a fault
            row = int(np.argmin(np.isfinite(sigma).all(axis=-1))) if z.ndim == 2 else None
            where = "the sample" if row is None else f"row {row} of the block"
            raise DataError(f"{where} scores non-finite values (a feature value is too large)", row)
        return sigma, cls

    # -- weight adaptation ----------------------------------------------------

    def reward_penalize(self, preds: list, true_label: int) -> None:
        """Scale each voter's weight by its verdict, then renormalize.

        wrong: beta <- beta * PENALTY; right: beta <- min(beta * (2 - PENALTY), 1).
        """
        for m, pred in zip(self.voters(), preds):
            if pred != true_label:
                m.beta *= PENALTY
            else:
                m.beta = min(m.beta * (2.0 - PENALTY), 1.0)
        self._normalize_betas()

    def select_winner(self, stats: MciState) -> int:
        """Index into stats.voters of the voter with the lowest chunk MSE so
        far, the first on a tie; 0 while nothing is recorded (a lone voter)."""
        if stats.count == 0:
            return 0
        return int(np.argmin(stats.sq_err / stats.count))

    # -- merging ---------------------------------------------------------------

    def merge_check(self, stats: MciState) -> list:
        """Merge the most redundant voter pair, at most one per chunk.

        A pair qualifies when its mean compression index over class
        dimensions falls below delta_rel times the pair's mean output
        variance.  The voter with fewer correct predictions in the chunk
        is dropped, the first of the pair on an exact tie; the survivor
        absorbs the dropped weight.
        """
        n = stats.count
        if n < 2:
            return []
        var = np.diagonal(stats.com).T / n
        xi = compression_index(var[:, None], var[None, :], stats.com / n).mean(axis=2)
        vm = var.mean(axis=1)
        qualifying = np.triu(xi <= self.cfg.delta_rel * (0.5 * (vm[:, None] + vm[None, :])), 1)
        if not qualifying.any():
            return []
        # row-major argmin: the least xi, then the least i, then the least j
        i, j = divmod(int(np.where(qualifying, xi, np.inf).argmin()), len(xi))
        keep, drop = (i, j) if stats.correct[i] > stats.correct[j] else (j, i)
        survivor, dropped = stats.voters[keep], stats.voters[drop]
        survivor.beta = min(survivor.beta + dropped.beta, 1.0)
        self.members.remove(dropped)
        self._normalize_betas()
        return [(survivor.uid, dropped.uid)]

    # -- the chunk loop ----------------------------------------------------------

    @np.errstate(over="raise", invalid="raise")
    def train_chunk(self, chunk: DataChunk, selectors: Selectors) -> ChunkReport:
        """Process one chunk: select, vote, adapt weights, detect drift, train.

        The chunk is standardized first.  Then the next rows are scored as
        one block against the model as it stands (distances, vote and both
        conflict scores), and the threshold scan decides them in order up
        to the first accept.  Rejected samples change no model state and
        receive a prediction only.  The accepted sample feeds the weight
        update, the chunk's voter record and the drift detector, the phase
        decides the structural action, and scoring resumes at the next
        row against the changed model.  So each decision reads one
        distance pass of its sample per member state; only rows past an
        accept are scored again, at most a block of them per accept.  The
        block starts at LOOKAHEAD rows and doubles over a run of rejects.
        The first chunk trains on every sample, one row per block.  An
        overflow or invalid operation raises FloatingPointError where it
        happens instead of leaving an inf or a nan in the model.
        """
        if len(chunk) == 0:
            raise DataError("empty chunk")
        labels = chunk_labels(chunk.samples, self.cfg.n_classes)
        # standardized first: a chunk it rejects leaves no member behind
        zs = self.standardizer.fit_transform([s.x for s in chunk.samples])
        cold_start = not self.members
        if cold_start:
            self._new_member()
        accepted = drifts = warnings = 0
        mci = MciState(self.voters(), self.cfg.n_classes)
        activations = np.zeros(self.cfg.n_features)
        first_look = 1 if cold_start else LOOKAHEAD
        k, look = 0, first_look
        while k < len(zs):
            mask = selectors.mask
            block = zs[k : k + look]
            d2s = {m: m.model.mahalanobis_sq(block, mask) for m in self.members}
            sigma, cls, votes = self.predict(block, d2s, mask)
            if cold_start:
                # the very first chunk trains the first member fully
                # supervised, so the output confidence is meaningful before
                # the selector starts filtering
                r = 0
            else:
                p_in = conflict_input([m.model for m in d2s], list(d2s.values()))
                p_out = conflict_output(sigma)
                pairs = enumerate(zip(p_in.tolist(), p_out.tolist()))
                r = next((i for i, (a, b) in pairs if selectors.al.decide(a, b)), None)
            n = len(block) if r is None else r + 1
            k += n
            if r is None:
                look *= 2
                continue
            look = first_look
            label = labels[k - 1]
            if label is None:
                raise DataError(f"row {k - 1} of the chunk: accepted an unlabeled sample", k - 1)
            z, cls = block[r], cls[r]
            d2s = {m: d2[r] for m, d2 in d2s.items()}
            member_scores = [sc[r] for sc, _ in votes]
            preds = [c[r] for _, c in votes]
            accepted += 1
            t = onehot(label, self.cfg.n_classes)
            self.reward_penalize(preds, label)
            mci.update(member_scores, preds, label, t)
            phase = self.detector.step(0.0 if cls == label else 1.0)
            if phase == "drift":
                drifts += 1
                m = self._new_member(bootstrapping=True)
                d2s[m] = m.model.mahalanobis_sq(z, mask)
            elif phase == "warning":
                warnings += 1
            else:
                v = self.select_winner(mci)
                m = mci.voters[v]
                d2s[m] = m.model.train_sample(z, label, d2s[m], member_scores[v], mask)
            for m in self.members:
                if m.bootstrapping:
                    sc = m.model.infer(z, d2s[m], mask)[0]
                    d2s[m] = m.model.train_sample(z, label, d2s[m], sc, mask)
            activations += selectors.mask_active
            if mask is not None:
                selectors.learn([m.model for m in d2s], z, t, list(d2s.values()), cls != label)
        for m in self.members:
            if m.bootstrapping:
                m.bootstrap_chunks += 1
                # trained only while it bootstraps, so its samples are its rde count
                if m.model.rde.count >= BOOTSTRAP_MIN_SAMPLES or m.bootstrap_chunks >= 2:
                    m.bootstrapping = False
        return ChunkReport(accepted, drifts, warnings, len(self.merge_check(mci)),
                           tuple(int(v) for v in selectors.mask_active),
                           tuple(int(v) for v in activations))

    def snapshot_hash(self) -> bytes:
        """The bytes digest() hashes (State.state_bytes), which scoring
        must leave as they are; callers compare them for equality."""
        return self.state_bytes()
