"""Shared stream types, running standardization, and chunk iteration.

Everything downstream (base classifiers, the ensemble, active learning,
feature selection) operates in one coordinate frame: raw feature vectors
are standardized once at ingestion with running statistics, so every
module sees the same view of the stream.  Test blocks reuse the frozen
statistics without updating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

# Floor applied to running standard deviations so constant features map to 0
# instead of dividing by zero.
STD_FLOOR = 1e-8

# The active-learning threshold moves by this factor per decision and
# stays within [THETA_MIN, THETA_MAX].
THETA_STEP = 0.01
THETA_MIN = 0.5
THETA_MAX = 0.95


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Malformed or insufficient input data (CLI exit code 3)."""


def check_section(state, keys, section: str) -> dict:
    """A snapshot section that must be a dict of exactly these keys; a
    missing or unknown key raises DataError naming it."""
    names = set(state) if isinstance(state, dict) else set()
    missing = [k for k in keys if k not in names]
    unknown = sorted(names - set(keys))
    if missing or unknown:
        faults = [f"lacks keys: {', '.join(missing)}"] if missing else []
        faults += [f"has unknown keys: {', '.join(unknown)}"] if unknown else []
        raise DataError(f"snapshot section {section!r} {' and '.join(faults)}")
    return state


@dataclass(eq=False)
class Sample:
    """One observation: feature vector, optional 1-based class label."""

    x: np.ndarray
    label: Optional[int] = None


@dataclass
class DataChunk:
    """An ordered batch of samples with its position in the stream."""

    samples: list
    index: int

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class StreamConfig:
    """Stream-level knobs shared by the ensemble and its helpers.

    ``alpha_drift`` must be stricter (smaller) than ``alpha_warn``; the
    constructor enforces it.  ``ofs_b`` defaults to ``n_features`` which
    disables feature selection.
    """

    n_features: int
    n_classes: int
    chunk_size: int = 250
    theta: float = 0.7
    delta_rel: float = 0.02
    alpha_warn: float = 0.005
    alpha_drift: float = 0.001
    penalty: float = 0.5
    ofs_b: Optional[int] = None
    seed: int = 0
    base_kind: str = "axis_parallel"
    # conjunctive acceptance (conflict required in both spaces) matches the
    # discard rule of the reference pseudocode and the reported label budgets;
    # the disjunctive reading is available for ablation
    al_conjunction: bool = True

    def __post_init__(self):
        if self.n_features < 1:
            raise ConfigError("n_features must be >= 1")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if not THETA_MIN <= self.theta <= THETA_MAX:
            raise ConfigError(f"theta must be in [{THETA_MIN}, {THETA_MAX}]")
        if self.delta_rel < 0.0:
            raise ConfigError("delta_rel must be >= 0")
        if not 0.0 < self.alpha_drift < self.alpha_warn < 1.0:
            raise ConfigError("need 0 < alpha_drift < alpha_warn < 1")
        if not 0.0 < self.penalty < 1.0:
            raise ConfigError("penalty must be in (0, 1)")
        if self.ofs_b is None:
            self.ofs_b = self.n_features
        if not 1 <= self.ofs_b <= self.n_features:
            raise ConfigError("ofs_b must be in [1, n_features]")
        if self.base_kind not in ("axis_parallel", "multivariate"):
            raise ConfigError("base_kind must be axis_parallel or multivariate")


class RunningStandardizer:
    """Streaming feature standardization via Welford's algorithm.

    The update is O(n_features) per sample and numerically stable:

        n     <- n + 1
        delta <- x - mean
        mean  <- mean + delta / n
        m2    <- m2 + delta * (x - mean)

    The variance estimate uses the n-1 denominator so it matches a batch
    ``np.var(..., ddof=1)`` over the same prefix.  ``fit_transform`` is
    the streaming step (absorb the sample, then scale it); ``transform``
    scales against frozen statistics and is what test blocks use.
    """

    def __init__(self, n_features: int):
        if n_features < 1:
            raise ConfigError("n_features must be >= 1")
        self.n_features = n_features
        self.count = 0
        self.mean = np.zeros(n_features)
        self.m2 = np.zeros(n_features)

    @property
    def var(self) -> np.ndarray:
        return self.m2 / max(self.count - 1, 1)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Scale one vector (u,) or a block (N, u) against current
        statistics without updating them.

        With fewer than two samples seen there is no variance estimate
        yet; vectors are centered but left unscaled rather than divided
        by the floor.
        """
        return self._scale(self._check(x, "block"))

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """The training-path step: absorb one sample (u,) or the rows of a
        chunk (N, u) in order, and scale each row by the statistics just
        after it.  A row that fails leaves the statistics as they were
        before the call, so a chunk is absorbed whole or not at all."""
        x = self._check(x, "chunk")
        rows = x.reshape(-1, self.n_features)
        # the recurrence per feature in Python floats: the same IEEE
        # operations as on numpy vectors, without a numpy call per row
        means, m2s = [], []
        for col, mean, m2 in zip(rows.T.tolist(), self.mean.tolist(), self.m2.tolist()):
            col_means, col_m2s = [mean], [m2]
            for count, v in enumerate(col, self.count + 1):
                delta = v - mean
                mean += delta / count
                m2 += delta * (v - mean)
                col_means.append(mean)
                col_m2s.append(m2)
            means.append(col_means)
            m2s.append(col_m2s)
        means, m2s = np.array(means).T, np.array(m2s).T  # (N + 1, u), row 0 the prior state
        finite = np.isfinite(m2s).all(axis=1)
        if not finite.all():
            raise DataError(
                _row(x, int(np.argmin(finite)) - 1, "chunk")
                + "feature values overflow the running statistics"
            )
        counts = np.arange(self.count + 1, self.count + len(rows) + 1)[:, None]
        self.count += len(rows)
        self.mean, self.m2 = means[-1].copy(), m2s[-1].copy()
        centered = rows - means[1:]
        std = np.sqrt(m2s[1:] / np.maximum(counts - 1, 1))
        z = np.where(counts < 2, centered, centered / np.maximum(std, STD_FLOOR))
        return z.reshape(x.shape)

    def _scale(self, x: np.ndarray) -> np.ndarray:
        if self.count < 2:
            return x - self.mean
        return (x - self.mean) / np.maximum(self.std, STD_FLOOR)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean.tolist(),
            "m2": self.m2.tolist(),
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "RunningStandardizer":
        state = check_section(state, ("count", "mean", "m2"), "standardizer")
        s = cls(len(state["mean"]))
        s.count = int(state["count"])
        s.mean = np.asarray(state["mean"], dtype=float)
        s.m2 = np.asarray(state["m2"], dtype=float)
        return s

    def _check(self, x, noun: str) -> np.ndarray:
        """x as floats: one vector (u,) or a block (N, u), whose rows
        errors name as rows of the noun ("block", "chunk")."""
        try:
            x = np.asarray(x, dtype=float)
        except ValueError:
            bad = next((k for k, v in enumerate(x) if np.shape(v) != (self.n_features,)), None)
            where = "" if bad is None else f"row {bad} of the {noun}: "
            raise DataError(f"{where}expected numeric vectors of length {self.n_features}") from None
        if x.shape[-1:] != (self.n_features,) or x.ndim > 2:
            raise DataError(
                f"expected vector of length {self.n_features}, got shape {x.shape}"
            )
        finite = np.isfinite(x).all(axis=-1)
        if not finite.all():
            raise DataError(_row(x, int(np.argmin(finite)), noun) + "feature values must be finite")
        return x


def _row(x: np.ndarray, k: int, noun: str) -> str:
    """Error prefix naming row k of a block x, empty for one vector."""
    return f"row {k} of the {noun}: " if x.ndim == 2 else ""


def chunks(source: Iterable[Sample], size: int) -> Iterator[DataChunk]:
    """Group a sample stream into consecutive non-overlapping chunks.

    A final partial chunk (fewer than ``size`` samples) is yielded as-is.
    Order and total count are preserved exactly.
    """
    if size < 1:
        raise ConfigError("chunk size must be >= 1")
    buf = []
    index = 0
    for s in source:
        buf.append(s)
        if len(buf) == size:
            yield DataChunk(buf, index)
            buf = []
            index += 1
    if buf:
        yield DataChunk(buf, index)


def onehot(label: int, n_classes: int) -> np.ndarray:
    """1-based class index -> one-hot regression target."""
    if not 1 <= label <= n_classes:
        raise DataError(f"label {label} outside 1..{n_classes}")
    t = np.zeros(n_classes)
    t[label - 1] = 1.0
    return t
