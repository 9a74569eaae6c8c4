"""Shared stream types, running standardization, and chunk iteration.

Everything downstream (base classifiers, the ensemble, active learning,
feature selection) operates in one coordinate frame: raw feature vectors
are standardized once at ingestion with running statistics, so every
module sees the same view of the stream.  Test blocks reuse the frozen
statistics without updating them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import ChainMap
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

# Floor applied to running standard deviations so constant features map to 0
# instead of dividing by zero.
STD_FLOOR = 1e-8

# Most features a stream may have: the rules' novelty gate reads its
# chi-square threshold, one per count of active features, from a table of
# 64 (rules._CHI2_95).
MAX_FEATURES = 64

# The active-learning threshold starts at THETA_INIT, moves by this factor
# per decision and stays within [THETA_MIN, THETA_MAX].
THETA_INIT = 0.7
THETA_STEP = 0.01
THETA_MIN = 0.5
THETA_MAX = 0.95


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Malformed or insufficient input data (CLI exit code 3); row indexes
    the bad row, if any, in the rows that the raising call was given."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class Field(NamedTuple):
    """One snapshot field of a state class, held in the attribute of the
    same name.

    kind is int (a count >= 0 unless lo says otherwise), float (finite),
    bool or str, a State class for a nested section or [cls] for a list
    of them.  With a shape, the field is an int64 or float64 array whose
    axes name dimensions: u features, u+1, O classes, D (see DIMS), and
    any other name, such as R rules, for the size that the section's
    first array with that axis has.  lo and hi bound the values, hi may
    name a dimension; none admits None.
    """

    key: str
    kind: object
    shape: tuple = ()
    lo: object = None
    hi: object = None
    none: bool = False


class State:
    """A class whose snapshot is its FIELDS table; snapshot, from_snapshot
    and digest walk the table in declaration order.

    Loading checks each section's keys and each field's type, dtype,
    shape and range, and raises a DataError naming the section and the
    field.  The _complete hook then checks what the table cannot say and
    rebuilds derived state from the fields (__init__ may call it too); its
    ValueError or FloatingPointError, which names the field, becomes a
    DataError naming the section.
    """

    FIELDS: tuple = ()
    SECTION = ""

    def __init_subclass__(cls):
        cls.PLAN = tuple((f.key, _how(f)) for f in cls.FIELDS)

    def snapshot(self) -> dict:
        """The fields as a dict, nested states as theirs, arrays as lists."""
        out = {}
        for key, how in self.PLAN:
            v = getattr(self, key)
            if how is list:
                out[key] = [s.snapshot() for s in v]
            elif how is State:
                out[key] = v.snapshot()
            elif how is np.ndarray:
                out[key] = v.tolist()
            else:
                out[key] = v
        return out

    def digest(self) -> str:
        """SHA-256 of state_bytes(): each key, each array's dtype, shape
        and bytes and a canonical form of each scalar, so np.float64 and
        float agree."""
        return hashlib.sha256(self.state_bytes()).hexdigest()

    def state_bytes(self) -> bytes:
        """The bytes digest() hashes, which one pass collects and joins.
        Two states with equal bytes have equal digests, so comparing the
        bytes is at least as strict as comparing the digests."""
        return b"".join(self._digest_parts([]))

    def _digest_parts(self, parts: list) -> list:
        for key, how in self.PLAN:
            v = getattr(self, key)
            if how is list:
                for s in v:
                    s._digest_parts(parts)
            elif how is State:
                v._digest_parts(parts)
            elif how is np.ndarray:
                parts += (_array_header(key, v.dtype, v.shape), np.ascontiguousarray(v))
            else:
                parts.append(f"{key}={v if v is None else how(v)!r};".encode())
        return parts

    def copy(self):
        """A new instance of the class that shares nothing training
        changes: each attribute, derived and private ones included, is
        copied by type, an array with its copy, a section with its copy
        and a list of sections as a new list of their copies.  A scalar
        or None is immutable and shared; any other value raises TypeError."""
        new = self.__class__.__new__(self.__class__)
        for key, v in self.__dict__.items():
            if isinstance(v, (np.ndarray, State)):
                v = v.copy()
            elif isinstance(v, list):
                v = [s.copy() for s in v]
            elif not (v is None or isinstance(v, (*SCALARS, np.generic))):
                raise TypeError(f"{type(self).__name__}.{key}: cannot copy a {type(v).__name__}")
            new.__dict__[key] = v
        return new

    @classmethod
    def from_snapshot(cls, state: dict):
        return _load(cls, state, cls.SECTION, ChainMap())

    def _complete(self) -> None:
        pass


SCALARS = (int, float, bool, str)


@lru_cache(maxsize=1024)
def _array_header(key: str, dtype: np.dtype, shape: tuple) -> bytes:
    """An array's key, dtype and shape as the digest hashes them, cached
    because the same headers recur from one digest to the next."""
    return f"{key}:{dtype.str}{shape}".encode()


def _how(f: Field):
    """How snapshot and digest walk a field, once per class (State.PLAN):
    list for a list of sections, State for one, np.ndarray for an array,
    else the scalar's kind."""
    if isinstance(f.kind, list):
        return list
    if f.kind not in SCALARS:
        return State
    return np.ndarray if f.shape else f.kind


# The settings that fix a dimension for the whole snapshot, and how: D is
# the second axis of a full inverse dispersion, None (no axis) for a
# diagonal one.
DIMS = {
    "n_features": lambda v, dims: {"u": v, "u+1": v + 1},
    "n_classes": lambda v, dims: {"O": v},
    "kind": lambda v, dims: {"D": dims["u"] if v == "multivariate" else None},
}


def _load(cls, state, section: str, dims: ChainMap):
    keys = [f.key for f in cls.FIELDS]
    names = set(state) if isinstance(state, dict) else set()
    missing = [k for k in keys if k not in names]
    unknown = sorted(names - set(keys))
    if missing or unknown:
        faults = [f"lacks keys: {', '.join(missing)}"] if missing else []
        faults += [f"has unknown keys: {', '.join(unknown)}"] if unknown else []
        raise DataError(f"snapshot section {section!r} {' and '.join(faults)}")
    dims = dims.new_child()  # a size an array binds holds for this section
    values = [(f, _value(f, state[f.key], section, dims)) for f in cls.FIELDS]
    obj = cls.__new__(cls)
    try:
        for f, v in values:
            setattr(obj, f.key, v)
        obj._complete()
    except (ValueError, FloatingPointError) as e:
        raise DataError(f"snapshot section {section!r}: {e}") from None
    return obj


def _value(f: Field, v, section: str, dims: ChainMap):
    """A field's checked value, as its attribute holds it."""
    where = f"snapshot section {section!r} has {f.key}"
    if isinstance(f.kind, list):
        if not isinstance(v, list):
            raise DataError(f"{where} of type {type(v).__name__}, expected list")
        return [_load(f.kind[0], s, f.kind[0].SECTION, dims) for s in v]
    if f.kind not in SCALARS:
        return _load(f.kind, v, f.key, dims)
    if f.shape:
        return _array(f, v, where, dims)
    if v is None and f.none:
        return v
    if not isinstance(v, (int, float) if f.kind is float else f.kind) or (
        isinstance(v, bool) is not (f.kind is bool)
    ):
        raise DataError(f"{where} of type {type(v).__name__}, expected {f.kind.__name__}")
    v = f.kind(v)
    lo, hi = _range(f, dims)
    if f.kind in (int, float) and not (lo <= v <= hi and (f.kind is int or math.isfinite(v))):
        raise DataError(f"{where} {v!r} outside [{lo}, {hi}]")
    for name, size in DIMS[f.key](v, dims).items() if f.key in DIMS else ():
        if dims.maps[-1].setdefault(name, size) != size:
            raise DataError(f"{where} {v!r}, which does not fit {name} = {dims[name]}")
    return v


def _array(f: Field, v, where: str, dims: ChainMap) -> np.ndarray:
    try:
        a = np.asarray(v)
    except ValueError:  # ragged
        a = np.asarray(None)
    if a.size and a.dtype.kind not in ("iu" if f.kind is int else "iuf"):
        raise DataError(f"{where} that is not an array of {f.kind.__name__}s")
    if a.shape == (0,) and len(f.shape) > 1:  # no rows
        a = a.reshape([0] + [dims[n] for n in f.shape[1:] if dims[n] is not None])
    got = a.shape + (-1,) * len(f.shape)
    sizes = [dims.setdefault(n, got[i]) for i, n in enumerate(f.shape)]
    want = tuple(size for size in sizes if size is not None)
    if a.shape != want:
        raise DataError(f"{where} of shape {a.shape}, expected {want}")
    a = a.astype(np.int64 if f.kind is int else float)
    lo, hi = _range(f, dims)
    if not (np.isfinite(a).all() and (a >= lo).all() and (a <= hi).all()):
        raise DataError(f"{where} with a value outside [{lo}, {hi}]")
    return a


def _range(f: Field, dims: ChainMap) -> tuple:
    lo = (0 if f.kind is int else -math.inf) if f.lo is None else f.lo
    return lo, math.inf if f.hi is None else dims[f.hi] if isinstance(f.hi, str) else f.hi


@dataclass(eq=False, slots=True)
class Sample:
    """One observation: feature vector, optional 1-based class label.
    Slotted: a sample takes no attributes besides these two."""

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
class StreamConfig(State):
    """Stream-level knobs shared by the ensemble and its helpers.

    ``ofs_b`` defaults to ``n_features`` which disables feature selection.
    """

    FIELDS = (
        Field("n_features", int), Field("n_classes", int), Field("chunk_size", int),
        Field("delta_rel", float), Field("ofs_b", int), Field("seed", int, lo=-math.inf),
        Field("base_kind", str),
    )

    n_features: int
    n_classes: int
    chunk_size: int = 250
    delta_rel: float = 0.02
    ofs_b: Optional[int] = None
    seed: int = 0
    base_kind: str = "axis_parallel"

    def __post_init__(self):
        if self.n_features < 1:
            raise ConfigError("n_features must be >= 1")
        if self.n_features > MAX_FEATURES:
            raise ConfigError(f"n_features must be <= {MAX_FEATURES}")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.delta_rel < 0.0:
            raise ConfigError("delta_rel must be >= 0")
        if self.ofs_b is None:
            self.ofs_b = self.n_features
        if not 1 <= self.ofs_b <= self.n_features:
            raise ConfigError("ofs_b must be in [1, n_features]")
        if self.base_kind not in ("axis_parallel", "multivariate"):
            raise ConfigError("base_kind must be axis_parallel or multivariate")

    _complete = __post_init__


class RunningStandardizer(State):
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

    FIELDS = (Field("count", int), Field("mean", float, ("u",)),
              Field("m2", float, ("u",), lo=0.0))
    SECTION = "standardizer"

    def __init__(self, n_features: int):
        if n_features < 1:
            raise ConfigError("n_features must be >= 1")
        self.count = 0
        self.mean = np.zeros(n_features)
        self.m2 = np.zeros(n_features)

    @property
    def n_features(self) -> int:
        return len(self.mean)

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
        # operations as on numpy vectors, without a call per row
        steps = []
        for col, mean, m2 in zip(rows.T.tolist(), self.mean.tolist(), self.m2.tolist()):
            steps.append([(mean, m2)] + [(mean := mean + (delta := v - mean) / count,
                                          m2 := m2 + delta * (v - mean))
                                         for count, v in enumerate(col, self.count + 1)])
        means, m2s = np.array(steps).transpose(2, 1, 0)  # (N + 1, u), row 0 the prior state
        finite = np.isfinite(m2s).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite)) - 1
            # a fresh learner's first value overflows only with the second
            if k == 1 and self.count == 0 and np.abs(rows[0]).max() > np.abs(rows[1]).max():
                k = 0
            raise _row_error(x, k, "chunk", "feature values overflow the running statistics")
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
        if not np.isfinite(x).all():  # one pass over the block; rows only on a fault
            finite = np.isfinite(x).all(axis=-1)
            raise _row_error(x, int(np.argmin(finite)), noun, "feature values must be finite")
        return x


def _row_error(x: np.ndarray, k: int, noun: str, what: str) -> DataError:
    """A DataError saying what, naming row k of a block x but no row of a vector."""
    return DataError(f"row {k} of the {noun}: {what}", k) if x.ndim == 2 else DataError(what)


def chunks(source: Iterable[Sample], size: int) -> Iterator[DataChunk]:
    """Group a sample stream into consecutive non-overlapping chunks.

    A final partial chunk (fewer than ``size`` samples) is yielded as-is.
    Order and total count are preserved exactly.
    """
    if size < 1:
        raise ConfigError("chunk size must be >= 1")
    it = iter(source)
    batches = iter(lambda: list(itertools.islice(it, size)), [])  # until one comes back empty
    yield from (DataChunk(batch, index) for index, batch in enumerate(batches))


def onehot(label: int, n_classes: int) -> np.ndarray:
    """1-based class index -> one-hot regression target."""
    if not 1 <= label <= n_classes:
        raise DataError(f"label {label} outside 1..{n_classes}")
    t = np.zeros(n_classes)
    t[label - 1] = 1.0
    return t
