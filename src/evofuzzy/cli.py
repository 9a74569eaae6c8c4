"""Command-line interface: generate streams, run experiments, report.

Exit codes: 0 success, 2 configuration error, 3 data error.  An
argument @FILE of run stands for the arguments in FILE, one per line
(--ofs-b=2); a later argument wins over an earlier one.
"""

from __future__ import annotations

import argparse
import sys

from .core import ConfigError, DataError, StreamConfig
from .datagen import (
    HyperplaneConfig,
    SeaConfig,
    csv_dims,
    csv_line,
    gen_hyperplane,
    gen_sea,
    load_csv,
    write_csv,
)
from .evaluate import EvalProtocol, read_metrics, run_cv, run_holdout, write_metrics

_BASE_KINDS = {"axis": "axis_parallel", "multivariate": "multivariate"}

# the config and generator of each stream kind, and the flags that set a
# config field, by dest: the shared ones, then the kind's own gen flags
_STREAM_FLAGS = {"n": "n_total", "noise": "noise_frac", "seed": "seed"}
_GENERATORS = {
    "sea": (SeaConfig, gen_sea, {"thresholds": "thresholds", "minority": "minority_frac"}),
    "hyperplane": (HyperplaneConfig, gen_hyperplane,
                   {"d": "n_features", "drift_start": "drift_start"}),
}


# the keys of each record kind that the report prints, with their types:
# the table, the summary line
_REPORT_KEYS = {"chunk": {"n": int, "cr": float, "fr": int, "bc": int, "np": int, "ts": int},
                "summary": {"cr": float, "cr_std": float, "fr": float, "bc": float, "ts": int,
                            "rt": float}}


def thresholds(text: str) -> tuple:
    """A comma-separated threshold schedule, such as 4,7,4,7."""
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evofuzzy", description="Streaming fuzzy-rule ensemble classifier"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic stream as CSV")
    gen.add_argument("kind", choices=sorted(_GENERATORS))
    gen.add_argument("--n", type=int, help="total samples")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--noise", type=float, help="label flip fraction")
    gen.add_argument("--out", default=None, help="output CSV (default stdout)")
    gen.add_argument("--thresholds", type=thresholds, help="sea threshold schedule")
    gen.add_argument("--minority", type=float, help="sea minority share")
    gen.add_argument("--d", type=int, help="hyperplane dimensions")
    gen.add_argument("--drift-start", type=int)

    run = sub.add_parser("run", help="run an experiment", fromfile_prefix_chars="@")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV stream file")
    src.add_argument("--gen", dest="gen", choices=sorted(_GENERATORS))
    run.add_argument("--n", type=int, default=None, help="generated stream length")
    run.add_argument("--mode", choices=["holdout", "cv"], default=EvalProtocol.mode)
    run.add_argument("--folds", type=int, default=10)
    run.add_argument("--chunk", type=int, default=None, help="chunk size (default: train block)")
    run.add_argument("--stamps", type=int, default=EvalProtocol.stamps)
    run.add_argument("--train", type=int, default=EvalProtocol.train_per_stamp)
    run.add_argument("--test", type=int, default=EvalProtocol.test_per_stamp)
    run.add_argument(
        "--base", choices=sorted(_BASE_KINDS),
        default={v: k for k, v in _BASE_KINDS.items()}[StreamConfig.base_kind],
    )
    run.add_argument("--delta-rel", type=float, default=StreamConfig.delta_rel)
    run.add_argument("--ofs-b", type=int, default=StreamConfig.ofs_b, help="active feature budget")
    run.add_argument("--seed", type=int, default=StreamConfig.seed)
    run.add_argument("--metrics", default=None, help="metrics output file")

    rep = sub.add_parser("report", help="summarize a metrics file")
    rep.add_argument("--metrics", required=True)
    rep.add_argument("--summary", action="store_true")
    return parser


def _generated(kind: str, args):
    """(stream, config) of a generator, the config set by the flags given
    only; a given flag of another stream kind is a ConfigError."""
    cls, gen, own = _GENERATORS[kind]
    foreign = [f"--{flag.replace('_', '-')}" for other, (_, _, flags) in _GENERATORS.items()
               if other != kind for flag in flags if getattr(args, flag, None) is not None]
    if foreign:
        raise ConfigError(f"{kind} streams take no {', '.join(foreign)}")
    given = {field: getattr(args, flag, None) for flag, field in {**_STREAM_FLAGS, **own}.items()}
    cfg = cls(**{field: v for field, v in given.items() if v is not None})
    return gen(cfg), cfg


def _cmd_gen(args) -> int:
    stream, _ = _generated(args.kind, args)
    if args.out:
        n = write_csv(stream, args.out)
        print(f"wrote {n} samples to {args.out}")
    else:
        write_csv(stream, sys.stdout)
    return 0


def _make_stream(args):
    """Returns (sample iterable, n_features, n_classes)."""
    if args.data:
        if args.n is not None:
            raise ConfigError("--n sets the length of a generated stream, not of --data")
        u, o = csv_dims(args.data)
        return load_csv(args.data, n_classes=o), u, o
    stream, cfg = _generated(args.gen, args)
    return stream, cfg.n_features, 2


def _cmd_run(args) -> int:
    protocol = EvalProtocol(args.mode, args.train, args.test, args.stamps)
    stream, u, o = _make_stream(args)
    cfg = StreamConfig(
        n_features=u,
        n_classes=o,
        chunk_size=args.chunk if args.chunk is not None else args.train,
        delta_rel=args.delta_rel,
        ofs_b=args.ofs_b,
        seed=args.seed,
        base_kind=_BASE_KINDS[args.base],
    )
    try:
        metrics, _ = (run_holdout(stream, cfg, protocol) if protocol.mode == "holdout"
                      else run_cv(stream, cfg, folds=args.folds))
    except DataError as exc:  # name the CSV line of the row at fault
        if args.data and exc.row is not None:
            raise DataError(f"{args.data}:{csv_line(args.data, exc.row)}: {exc}") from None
        raise
    if args.metrics:
        write_metrics(args.metrics, metrics)
    print(
        f"cr={metrics.cr:.4f}±{metrics.cr_std:.4f} fr={metrics.fr:.2f} "
        f"bc={metrics.bc:.2f} np={metrics.np:.1f} ts={metrics.ts} "
        f"accepted={100 * metrics.accepted_frac:.1f}% rt={metrics.rt:.2f}s"
    )
    return 0


def _cmd_report(args) -> int:
    records, summary = read_metrics(args.metrics, _REPORT_KEYS)
    if args.summary:
        for key in sorted(summary):
            if key != "record":
                print(f"{key}: {summary[key]}")
        return 0
    print("n\tcr\tfr\tbc\tnp\tts\tdrifts\tmerges")
    for rec in records:
        print(
            f"{rec['n']}\t{rec['cr']:.4f}\t{rec['fr']}\t{rec['bc']}\t"
            f"{rec['np']}\t{rec['ts']}\t{rec.get('drifts', 0)}\t{rec.get('merges', 0)}"
        )
    print(
        f"summary: cr={summary['cr']:.4f}±{summary['cr_std']:.4f} "
        f"fr={summary['fr']:.2f} bc={summary['bc']:.2f} ts={summary['ts']} "
        f"rt={summary['rt']:.2f}s"
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
