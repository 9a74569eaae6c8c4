"""Synthetic concept-drift stream generators and CSV ingestion.

Streams are pure functions of their config and seed: the same seed gives
a bit-identical sample sequence.  The CSV contract is a header row, u
numeric feature columns, then one integer column named ``class`` with
values 1..O.

Both generators draw from ``np.random.default_rng(seed)`` in a fixed
order, and work one block of ``_BLOCK`` rows at a time.  After the
hyperplane weights, each block is one ``uniform`` call of ``_BLOCK`` x u
values; then come the block's per-sample draws, in stream order: for
each sample its mix draw (hyperplane, from ``drift_start`` on) and then
its noise draw (when ``noise_frac`` > 0).  A SEA sample's draws follow
the block that holds its kept candidate.  A generated ``Sample.x`` is a
row view of its block's array (SEA: of the block's kept rows).
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import ConfigError, DataError, Sample

_BLOCK = 4096  # candidates drawn per RNG call


@dataclass
class SeaConfig:
    """Sum-threshold stream: three uniform features on [0, 10], class 2
    below the threshold, with abrupt threshold switches at equally spaced
    points and the class-2 share held near minority_frac by resampling."""

    n_total: int = 100_000
    thresholds: tuple = (4.0, 7.0, 4.0, 7.0)
    minority_frac: float = 0.25
    noise_frac: float = 0.0
    seed: int = 0
    n_features: int = 3

    def __post_init__(self):
        if self.n_total < 1 or not self.thresholds:
            raise ConfigError("need n_total >= 1 and a nonempty threshold schedule")
        if not 0.0 < self.minority_frac < 1.0:
            raise ConfigError("minority_frac must be in (0, 1)")
        if not 0.0 <= self.noise_frac < 1.0:
            raise ConfigError("noise_frac must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _margin(w, x):
    """w . x of one row (u,) or of each row of a block (N, u), summed left
    to right: the same IEEE operations for a row alone and in a block."""
    x = np.asarray(x, dtype=float)
    return sum((x[..., j] * w[j] for j in range(1, len(w))), x[..., 0] * w[0])


def gen_sea(cfg: SeaConfig) -> Iterator[Sample]:
    rng = np.random.default_rng(cfg.seed)
    segment = max(cfg.n_total // len(cfg.thresholds), 1)
    last = len(cfg.thresholds) - 1
    i = n2 = k = 0
    switch = segment  # the sample at which threshold k + 1 takes over
    theta, force = cfg.thresholds[0], False
    while i < cfg.n_total:
        buf = rng.uniform(0.0, 10.0, size=(_BLOCK, cfg.n_features))
        # x[0] + x[1] of each row of buf as Python floats: the same IEEE add
        # as on the row alone, so a candidate is tested and labelled without
        # touching its row, and only the kept rows are copied out
        sums = (buf[:, 0] + buf[:, 1]).tolist()
        kept, labels = [], []
        for pos, total in enumerate(sums):
            if i == cfg.n_total:
                break
            below = total < theta
            if force and not below:
                continue  # a forced search goes on, into the next block if need be
            kept.append(pos)
            labels.append(2 if below else 1)
            n2 += below
            i += 1
            if i == switch and k < last:
                k += 1
                theta = cfg.thresholds[k]
                switch += segment
            force = n2 / i < cfg.minority_frac
        if cfg.noise_frac > 0.0:
            flips = (rng.random(len(kept)) < cfg.noise_frac).tolist()
            labels = [3 - y if f else y for y, f in zip(labels, flips)]
        yield from map(Sample, buf[kept], labels)


@dataclass
class HyperplaneConfig:
    """Linear-rule stream with gradual drift: labels follow one random
    hyperplane, then mix toward a second one with probability ramping
    linearly from 0 to 1 over ramp_frac of the stream."""

    n_total: int = 120_000
    n_features: int = 4
    drift_start: Optional[int] = None  # n_total // 3 by default
    ramp_frac: float = 0.2
    noise_frac: float = 0.0
    seed: int = 0
    w_before: Optional[tuple] = None
    w_after: Optional[tuple] = None
    w0: Optional[float] = None

    def __post_init__(self):
        if self.n_features < 2:
            raise ConfigError("need at least 2 features")
        if self.drift_start is None:
            self.drift_start = self.n_total // 3
        if not 0 < self.drift_start < self.n_total:
            raise ConfigError("drift_start must fall inside the stream")
        if not 0.0 <= self.noise_frac < 1.0:
            raise ConfigError("noise_frac must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _unit_positive(rng, d: int) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, size=d)
    return w / np.linalg.norm(w)


def gen_hyperplane(cfg: HyperplaneConfig) -> Iterator[Sample]:
    rng = np.random.default_rng(cfg.seed)
    wb = (
        np.asarray(cfg.w_before, dtype=float)
        if cfg.w_before is not None
        else _unit_positive(rng, cfg.n_features)
    )
    wa = (
        np.asarray(cfg.w_after, dtype=float)
        if cfg.w_after is not None
        else _unit_positive(rng, cfg.n_features)
    )
    w0 = cfg.w0 if cfg.w0 is not None else 0.5 * float(wb.sum())
    ramp = max(int(cfg.ramp_frac * cfg.n_total), 1)
    noisy = cfg.noise_frac > 0.0
    for start in range(0, cfg.n_total, _BLOCK):
        buf = rng.uniform(0.0, 1.0, size=(_BLOCK, cfg.n_features))
        rows = buf[: cfg.n_total - start]
        n = len(rows)
        a = min(max(cfg.drift_start - start, 0), n)  # rows before the drift
        # a row before the drift draws its noise only; a row after it draws
        # its mix and then its noise
        u = rng.random(n * noisy + n - a)
        mix_u = u[a::2] if noisy else u
        to_after = np.zeros(n, dtype=bool)
        mix_p = np.minimum((np.arange(start + a, start + n) - cfg.drift_start) / ramp, 1.0)
        to_after[a:] = mix_u < mix_p
        m = _margin(wb, rows)
        m[to_after] = _margin(wa, rows[to_after])
        labels = np.where(m > w0, 1, 2)
        if noisy:
            flip = np.concatenate([u[:a], u[a + 1 :: 2]]) < cfg.noise_frac
            labels[flip] = 3 - labels[flip]
        yield from map(Sample, rows, labels.tolist())


def write_csv(samples: Iterable[Sample], path) -> int:
    """Write samples in the CSV contract; returns the number written.

    ``path`` is a file name or an open text file such as sys.stdout.
    Floats are written with repr precision so a round trip is exact.
    """
    n = 0
    opened = nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="")
    with opened as fh:
        writer = csv.writer(fh)
        header = None
        for s in samples:
            if header is None:
                header = [f"x{i + 1}" for i in range(len(s.x))] + ["class"]
                writer.writerow(header)
            if s.label is None:
                raise DataError("cannot write an unlabeled sample")
            writer.writerow([repr(float(v)) for v in s.x] + [int(s.label)])
            n += 1
        if header is None:
            raise DataError("no samples to write")
    return n


def _csv_rows(path) -> Iterator[tuple]:
    """(lineno, row) for each non-blank row under a valid header, every
    row checked to have the header's number of fields."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2 or header[-1].strip() != "class":
            raise DataError(f"{path}: last column must be named 'class'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            yield lineno, row


def load_csv(path, n_classes: Optional[int] = None) -> Iterator[Sample]:
    """Stream samples from a CSV file in constant memory.

    Labels must be integers >= 1 (and <= n_classes when given) and
    features finite.  A malformed row raises DataError naming the line.
    """
    for lineno, row in _csv_rows(path):
        try:
            x = np.array([float(v) for v in row[:-1]])
            label = int(row[-1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(x).all():
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        if label < 1 or (n_classes is not None and label > n_classes):
            raise DataError(f"{path}:{lineno}: unknown class value {row[-1]}")
        yield Sample(x, label)


def csv_line(path, index: int) -> int:
    """The line of the CSV file that holds sample index, counted from 0."""
    return next(line for k, (line, _) in enumerate(_csv_rows(path)) if k == index)


def csv_dims(path) -> tuple:
    """(n_features, n_classes) from the header and the observed labels."""
    max_label = 0
    for lineno, row in _csv_rows(path):
        try:
            max_label = max(max_label, int(row[-1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if max_label < 1:
        raise DataError(f"{path}: no labeled rows")
    if max_label < 2:
        raise DataError(f"{path}: every label is 1, so the stream has one class")
    return len(row) - 1, max_label
