"""Command-line interface: generate streams, run experiments, report.

Exit codes: 0 success, 2 configuration error, 3 data error.  A JSON
config file can prefill any flag of ``run``; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ConfigError, DataError, StreamConfig
from .datagen import (
    HyperplaneConfig,
    SeaConfig,
    csv_dims,
    gen_hyperplane,
    gen_sea,
    load_csv,
    write_csv,
)
from .evaluate import EvalProtocol, read_metrics, run_cv, run_holdout, write_metrics

_BASE_KINDS = {"axis": "axis_parallel", "multivariate": "multivariate"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evofuzzy",
        description="Streaming fuzzy-rule ensemble classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic stream as CSV")
    gen.add_argument("kind", choices=["sea", "hyperplane"])
    gen.add_argument("--n", type=int, default=None, help="total samples")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise", type=float, default=0.0, help="label flip fraction")
    gen.add_argument("--out", default=None, help="output CSV (default stdout)")
    gen.add_argument("--thresholds", default="4,7,4,7", help="sea threshold schedule")
    gen.add_argument("--minority", type=float, default=0.25, help="sea minority share")
    gen.add_argument("--d", type=int, default=4, help="hyperplane dimensions")
    gen.add_argument("--drift-start", type=int, default=40_000)

    run = sub.add_parser("run", help="run an experiment")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV stream file")
    src.add_argument("--gen", dest="gen", choices=["sea", "hyperplane"])
    run.add_argument("--n", type=int, default=None, help="generated stream length")
    run.add_argument("--mode", choices=["holdout", "cv"], default="holdout")
    run.add_argument("--folds", type=int, default=10)
    run.add_argument("--chunk", type=int, default=None, help="chunk size (default: train block)")
    run.add_argument("--stamps", type=int, default=200)
    run.add_argument("--train", type=int, default=250)
    run.add_argument("--test", type=int, default=250)
    run.add_argument("--base", choices=sorted(_BASE_KINDS), default="axis")
    run.add_argument("--theta", type=float, default=0.7)
    al = run.add_mutually_exclusive_group()
    al.add_argument(
        "--al-conjunction",
        dest="al_conjunction",
        action="store_true",
        default=True,
        help="require conflict in both spaces to accept (default)",
    )
    al.add_argument(
        "--al-disjunction",
        dest="al_conjunction",
        action="store_false",
        help="accept on conflict in either space (ablation)",
    )
    run.add_argument("--delta-rel", type=float, default=0.02)
    run.add_argument("--alpha-warn", type=float, default=0.005)
    run.add_argument("--alpha-drift", type=float, default=0.001)
    run.add_argument("--p", type=float, default=0.5, help="penalty/reward factor")
    run.add_argument("--ofs-b", type=int, default=None, help="active feature budget")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--metrics", default=None, help="metrics output file")
    run.add_argument("--config", default=None, help="JSON config file (flags override)")

    rep = sub.add_parser("report", help="summarize a metrics file")
    rep.add_argument("--metrics", required=True)
    rep.add_argument("--summary", action="store_true")
    return parser


def _apply_config_file(parser, argv):
    """Load --config defaults before the real parse; flags still override."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        with open(known.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {known.config}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    run_parser = None
    for action in parser._subparsers._group_actions:
        run_parser = action.choices.get("run")
    valid = {a.dest for a in run_parser._actions}
    unknown = set(cfg) - valid
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    run_parser.set_defaults(**cfg)


def _cmd_gen(args) -> int:
    if args.kind == "sea":
        thresholds = tuple(float(v) for v in str(args.thresholds).split(","))
        cfg = SeaConfig(
            n_total=args.n if args.n is not None else 100_000,
            thresholds=thresholds,
            minority_frac=args.minority,
            noise_frac=args.noise,
            seed=args.seed,
        )
        stream = gen_sea(cfg)
    else:
        cfg = HyperplaneConfig(
            n_total=args.n if args.n is not None else 120_000,
            n_features=args.d,
            drift_start=args.drift_start,
            noise_frac=args.noise,
            seed=args.seed,
        )
        stream = gen_hyperplane(cfg)
    if args.out:
        n = write_csv(stream, args.out)
        print(f"wrote {n} samples to {args.out}")
    else:
        write_csv(stream, sys.stdout)
    return 0


def _make_stream(args):
    """Returns (sample iterable, n_features, n_classes)."""
    if args.data:
        u, o = csv_dims(args.data)
        return load_csv(args.data, n_classes=o), u, o
    if args.gen == "sea":
        cfg = SeaConfig(
            n_total=args.n if args.n is not None else 100_000, seed=args.seed
        )
        return gen_sea(cfg), cfg.n_features, 2
    cfg = HyperplaneConfig(
        n_total=args.n if args.n is not None else 120_000, seed=args.seed
    )
    return gen_hyperplane(cfg), cfg.n_features, 2


def _cmd_run(args) -> int:
    stream, u, o = _make_stream(args)
    chunk = args.chunk if args.chunk is not None else args.train
    cfg = StreamConfig(
        n_features=u,
        n_classes=o,
        chunk_size=chunk,
        theta=args.theta,
        delta_rel=args.delta_rel,
        alpha_warn=args.alpha_warn,
        alpha_drift=args.alpha_drift,
        penalty=args.p,
        ofs_b=args.ofs_b,
        seed=args.seed,
        base_kind=_BASE_KINDS[args.base],
        al_conjunction=args.al_conjunction,
    )
    if args.mode == "holdout":
        protocol = EvalProtocol(
            mode="holdout",
            train_per_stamp=args.train,
            test_per_stamp=args.test,
            stamps=args.stamps,
        )
        metrics, _ = run_holdout(stream, cfg, protocol)
    else:
        metrics, _ = run_cv(stream, cfg, folds=args.folds)
    if args.metrics:
        write_metrics(args.metrics, metrics)
    print(
        f"cr={metrics.cr:.4f}±{metrics.cr_std:.4f} fr={metrics.fr:.2f} "
        f"bc={metrics.bc:.2f} np={metrics.np:.1f} ts={metrics.ts} "
        f"accepted={100 * metrics.accepted_frac:.1f}% rt={metrics.rt:.2f}s"
    )
    return 0


def _cmd_report(args) -> int:
    records, summary = read_metrics(args.metrics)
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
    parser = build_parser()
    try:
        _apply_config_file(parser, argv if argv is not None else sys.argv[1:])
        args = parser.parse_args(argv)
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
