"""Experiment harness: periodic hold-out, k-fold CV, metrics, metrics IO.

Hold-out alternates labeled training blocks with frozen test blocks; CV
bins the data contiguously (stream order preserved inside bins) and
rotates the held-out bin.  Wall-clock time covers learning and scoring
only, never data generation.  Test blocks are audited: the bytes that
the digests of the model and of the selectors hash (State.state_bytes),
each one pass over every field, must be equal before and after scoring.
"""

from __future__ import annotations

import itertools
import json
import operator
import time
from dataclasses import dataclass, field, fields
from statistics import mean, pstdev
from typing import Iterable, Optional

from .core import ConfigError, DataChunk, DataError, StreamConfig, chunks
from .ensemble import Ensemble, chunk_labels
from .selection import Selectors


@dataclass
class EvalProtocol:
    mode: str = "holdout"
    train_per_stamp: int = 250
    test_per_stamp: int = 250
    stamps: int = 200

    def __post_init__(self):
        if self.mode not in ("holdout", "cv"):
            raise ConfigError("mode must be holdout or cv")
        if self.mode == "holdout" and (
            self.train_per_stamp < 1 or self.test_per_stamp < 1 or self.stamps < 1
        ):
            raise ConfigError("holdout needs positive stamps and block sizes")


@dataclass
class RunMetrics:
    """Summary metrics plus the per-chunk (or per-fold) series.

    cr  classification rate on test blocks
    fr  mean fuzzy-rule count across the run
    bc  mean ensemble size
    np  mean network-parameter count
    ts  accepted (labeled) training samples, total
    rt  wall-clock seconds of learning plus scoring
    """

    cr: float = 0.0
    fr: float = 0.0
    bc: float = 0.0
    np: float = 0.0
    ts: int = 0
    rt: float = 0.0
    cr_std: float = 0.0
    fr_std: float = 0.0
    bc_std: float = 0.0
    np_std: float = 0.0
    stamps: int = 0
    offered: int = 0
    series: list = field(default_factory=list)

    @property
    def accepted_frac(self) -> float:
        return self.ts / self.offered if self.offered else 0.0


def count_parameters(ens: Ensemble) -> int:
    """Stored parameters: center + dispersion + consequent per rule, plus
    one voting weight per member.  Diagonal dispersions count u entries,
    full ones count the upper triangle u(u+1)/2."""
    u, o = ens.cfg.n_features, ens.cfg.n_classes
    dispersion = u if ens.cfg.base_kind == "axis_parallel" else u * (u + 1) // 2
    return (u + dispersion + (u + 1) * o) * ens.total_rules + len(ens.members)


def _take(it, n: int, what: str, stamp: int) -> list:
    block = list(itertools.islice(it, n))
    if len(block) < n:
        raise DataError(
            f"stream exhausted during {what} block of stamp {stamp} "
            f"(got {len(block)} of {n})"
        )
    return block


def _located(exc: DataError, name: str, at, ch, size: int) -> DataError:
    """exc from chunk ch of block name, which at maps into the stream: the
    new error names the block and carries its row as an index in the stream."""
    first = ch.index * size
    row = None if exc.row is None else at(first + exc.row)
    return DataError(f"{name} (samples {first}-{first + len(ch) - 1}): {exc}", row)


def _train_and_score(ens, sel, cfg, train, test, where: tuple, reports=None, fork_at=None):
    """Train on one block, then score another against the frozen model.

    Training resumes at chunk len(reports) of train's own chunk sequence,
    so chunk indices and DataError texts are the whole block's; with
    fork_at, the fork (State.copy of ens and of sel, and a new list of
    the frozen reports, which both share) is taken once that many chunks
    are trained.  The test block is scored a chunk at a time,
    one score_sample call per chunk, so no distance array grows past one
    chunk of rows.  where holds (name, at) of the train and the test block.
    Returns (chunk reports, correct test predictions, seconds of learning
    plus scoring, the fork or None).  Scoring must leave the learner and
    the selectors, whose mask the scorer reads, as they were: the bytes
    their digests hash (ens.snapshot_hash() and sel.state_bytes()) are
    compared before and after the test block, which is at least as strict
    as comparing the digests and spares the two hashes per side.
    """
    train_block, test_block = where
    size = cfg.chunk_size
    reports = [] if reports is None else reports
    fork = None
    t0 = time.perf_counter()
    for i in range(len(reports), -(-len(train) // size)):
        if i == fork_at:
            fork = ens.copy(), sel.copy(), list(reports)
        ch = DataChunk(train[i * size:(i + 1) * size], i)
        try:
            reports.append(ens.train_chunk(ch, sel))
        except DataError as exc:
            raise _located(exc, *train_block, ch, size) from None
    seconds = time.perf_counter() - t0
    before = ens.snapshot_hash(), sel.state_bytes()
    t0 = time.perf_counter()
    correct = 0
    for ch in chunks(test, size):
        try:
            labels = chunk_labels(ch.samples, cfg.n_classes)
            _, cls = ens.score_sample([s.x for s in ch.samples], sel.mask)
        except DataError as exc:
            raise _located(exc, *test_block, ch, size) from None
        # an unlabeled sample, None, equals no class: a miss
        correct += sum(map(operator.eq, cls.tolist(), labels))
    seconds += time.perf_counter() - t0
    if (ens.snapshot_hash(), sel.state_bytes()) != before:
        raise RuntimeError(f"{test_block[0]} mutated the model")
    return reports, correct, seconds, fork


def _record(n: int, ens, sel, reports, cr: float, rt: float) -> dict:
    """The metrics record of one hold-out stamp or CV fold."""
    return {
        "n": n,
        "cr": cr,
        "fr": ens.total_rules,
        "bc": len(ens.members),
        "np": count_parameters(ens),
        "ts": sum(r.accepted for r in reports),
        "rt": rt,
        "drifts": sum(r.drifts for r in reports),
        "warnings": sum(r.warnings for r in reports),
        "merges": sum(r.merges for r in reports),
        "theta": sel.al.theta,
        "mask": [int(v) for v in sel.mask_active],
        # summed as Python ints: np.sum would first convert the tuples to an array
        "mask_activations": [sum(col) for col in zip(*(r.mask_activations for r in reports))],
    }


def _summarize(series: list, offered: int, rt: float) -> RunMetrics:
    stats = {}
    for k in ("cr", "fr", "bc", "np"):
        values = [rec[k] for rec in series]
        stats[k], stats[f"{k}_std"] = mean(values), pstdev([float(v) for v in values])
    return RunMetrics(**stats, ts=sum(rec["ts"] for rec in series), rt=rt, stamps=len(series),
                      offered=offered, series=series)


def run_holdout(
    stream: Iterable,
    cfg: StreamConfig,
    protocol: EvalProtocol,
    learner: Optional[Ensemble] = None,
    selectors: Optional[Selectors] = None,
):
    """Alternating train/test blocks; returns (RunMetrics, learner).

    Each sample is consumed at most once.  Test blocks use frozen
    statistics and perform no learning or selection updates.  A learner
    or selectors passed in, say restored from snapshots, must have been
    built from cfg: a ConfigError names the first setting that differs.
    """
    if protocol.mode != "holdout":
        raise ConfigError(f"run_holdout runs mode holdout, not {protocol.mode!r}")
    it = iter(stream)
    ens = learner if learner is not None else Ensemble(cfg)
    sel = selectors if selectors is not None else Selectors(cfg)
    built = [(f"learner {f.key}", getattr(ens.cfg, f.key), getattr(cfg, f.key))
             for f in StreamConfig.FIELDS]
    built += [("selectors n_features", sel.n_features, cfg.n_features),
              ("selectors ofs_b", sel.ofs_b, cfg.ofs_b)]
    for name, have, want in built:
        if have != want:
            raise ConfigError(f"{name} is {have!r}, but cfg has {want!r}")
    series = []
    rt = 0.0
    for stamp in range(protocol.stamps):
        train = _take(it, protocol.train_per_stamp, "train", stamp)
        test = _take(it, protocol.test_per_stamp, "test", stamp)
        first = stamp * (len(train) + len(test))
        reports, correct, seconds, _ = _train_and_score(
            ens, sel, cfg, train, test,
            ((f"train block of stamp {stamp}", lambda i: first + i),
             (f"test block of stamp {stamp}", lambda i: first + len(train) + i)),
        )
        rt += seconds
        series.append(_record(stamp, ens, sel, reports, correct / len(test), rt))
    return _summarize(series, protocol.stamps * protocol.train_per_stamp, rt), ens


def run_cv(dataset, cfg: StreamConfig, folds: int = 10):
    """Contiguous-bin cross validation; returns (RunMetrics, last learner).

    Bin f is held out for testing while the remaining bins are streamed
    in their original order into a learner.  Folds f and f+1 train on the
    same bins 0..f-1 first, in the same order, so fold f+1 starts from
    State.copy() of fold f's learner and selectors, taken once fold f
    has trained the whole chunks of those bins, and shares fold f's
    reports of those chunks, which are frozen.  The learner
    is deterministic, so every record equals that of a fresh learner per
    fold, rt excepted: ts, drifts, merges and mask activations include
    the shared chunks, and rt counts each of them once, in the fold that
    trained it.  A k-fold run trains (k-1)(k+2)/2 bins instead of k(k-1).
    """
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    samples = list(dataset)
    if len(samples) < folds:
        raise DataError(f"need at least {folds} samples for {folds} folds")
    q, r = divmod(len(samples), folds)
    edges = [f * q + min(f, r) for f in range(folds + 1)]  # np.array_split's bins
    series = []
    offered = 0
    rt = 0.0
    ens = None
    fork = None
    for f in range(folds):
        lo, hi = edges[f], edges[f + 1]
        train = samples[:lo] + samples[hi:]
        test = samples[lo:hi]
        ens, sel, reports = fork or (Ensemble(cfg), Selectors(cfg), [])
        reports, correct, seconds, fork = _train_and_score(
            ens, sel, cfg, train, test,
            ((f"train bins of fold {f}", lambda i: i if i < lo else i + hi - lo),
             (f"test bin {f}", lambda i: lo + i)),
            reports, lo // cfg.chunk_size if f + 1 < folds else None,
        )
        rt += seconds
        offered += len(train)
        series.append(_record(f, ens, sel, reports, correct / len(test), rt))
    return _summarize(series, offered, rt), ens


def write_metrics(path, metrics: RunMetrics) -> None:
    """One JSON record per chunk plus a final summary record."""
    with open(path, "w") as fh:
        for rec in metrics.series:
            fh.write(json.dumps({"record": "chunk", **rec}, sort_keys=True) + "\n")
        summary = {f.name: getattr(metrics, f.name) for f in fields(metrics) if f.name != "series"}
        summary.update(accepted_frac=metrics.accepted_frac)
        fh.write(json.dumps({"record": "summary", **summary}, sort_keys=True) + "\n")


def read_metrics(path, keys: Optional[dict] = None):
    """Returns (chunk records, summary dict).  Every record must be a JSON
    object; keys, if given, maps "chunk" and "summary" to the keys each
    record of that kind must hold, each with the type of its value: int,
    or float, which admits an int (a bool is neither).  A fault raises
    DataError naming the line."""
    records = []
    summary = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: a record must be a JSON object, "
                                f"not {type(rec).__name__}")
            kind = "summary" if rec.get("record") == "summary" else "chunk"
            want = (keys or {}).get(kind, {})
            missing = [k for k in want if k not in rec]
            if missing:
                raise DataError(f"{path}:{lineno}: {kind} record lacks {', '.join(missing)}")
            for k, t in want.items():
                v = rec[k]
                if isinstance(v, bool) or not isinstance(v, (int, float) if t is float else t):
                    raise DataError(f"{path}:{lineno}: {kind} record has {k} {json.dumps(v)}, "
                                    f"which is not {'a number' if t is float else 'an int'}")
            if kind == "summary":
                summary = rec
            else:
                records.append(rec)
    if summary is None:
        raise DataError(f"{path}: missing summary record")
    return records, summary
