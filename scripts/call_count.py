#!/usr/bin/env python3
"""Count the Python calls of the learner's train path and of the rest of the harness.

    python3 scripts/call_count.py [--workload W ...] [--seed N] [--top N]

Each workload (sea-axis, hyperplane-mv, sensor-ofs-cv by default) runs
its seeded streams through the public harness under cProfile, in a
fresh interpreter, and counts the calls that cProfile counts (Python
functions and C functions called from Python).  It reports two counts:

    train path  calls inside Ensemble.train_chunk, per offered sample
    the rest    every other call of the harness: scoring the test
                blocks, the audit and the records, per scored
                sample

The streams run twice: once profiled whole, and once with only each
train_chunk call profiled; the rest is the difference.  The streams and
the settings are the benchmark's own: perfbench/worker.py's WORKLOADS,
sub_seed and build.

A count is a work measure that needs no quiet machine: it is the same
on every run of the same code.  Each workload is counted twice, and the
script exits 1 if the two counts differ.  --json PATH writes the
counts to PATH.

--top N also prints two tables of the train path, per accepted sample:
the N functions with the most calls, and the N with the most own
seconds (time inside the function less its callees, under cProfile, so
inflated by the profiler's cost per call).  Each row gives both
figures.  The accepted samples are those the profiled train_chunk
calls report, so a CV fold prefix that several folds share counts once
(the JSON's "accepted" sums the records' ts, which count it once per
fold).  The call table repeats exactly; the seconds table is one
timing of the first of the two counts and is left out of the check.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402  (the benchmark's workloads; puts src/ on the path)

WORKLOADS = tuple(worker.WORKLOADS)


def stream_runs(workload: str, seed: int) -> list:
    """(zero-argument harness call, samples it scores) per stream of the
    workload, with the settings perfbench/worker.py runs it with."""
    import evofuzzy as ef
    from evofuzzy.evaluate import run_cv, run_holdout

    p = worker.WORKLOADS[workload]
    runs = []
    for j, samples in enumerate(worker.build(workload, seed, ef)):
        s = worker.sub_seed(seed, j)
        if workload == "sensor-ofs-cv":
            cfg = ef.StreamConfig(n_features=12, n_classes=2, chunk_size=p["chunk"], seed=s,
                                  ofs_b=p["budget"])
            runs.append((lambda x=samples, c=cfg: run_cv(x, c, folds=p["folds"]), len(samples)))
            continue
        sea = workload == "sea-axis"
        cfg = ef.StreamConfig(n_features=3 if sea else 4, n_classes=2, chunk_size=p["chunk"],
                              seed=s, delta_rel=p["delta_rel"],
                              base_kind="axis_parallel" if sea else "multivariate")
        proto = ef.EvalProtocol("holdout", train_per_stamp=p["train"], test_per_stamp=p["test"],
                                stamps=p["stamps"])
        runs.append((lambda x=samples, c=cfg: run_holdout(x, c, proto), p["stamps"] * p["test"]))
    return runs


def label(func: tuple) -> str:
    """module.py:line(name) for a Python function, cProfile's name for a C one."""
    path, line, name = func
    return name if path == "~" else f"{Path(path).name}:{line}({name})"


def top_rows(stats: dict, accepted: int, n: int) -> dict:
    """The n train-path functions with the most calls and with the most
    own seconds, as [label, calls, own µs] per accepted sample."""
    rows = [(label(f), nc / accepted, tt / accepted * 1e6) for f, (_, nc, tt, *_) in stats.items()
            if "_lsprof.Profiler" not in f[2]]
    return dict(top_accepted=accepted, top_calls=sorted(rows, key=lambda r: (-r[1], r[0]))[:n],
                top_self=sorted(rows, key=lambda r: (-r[2], r[0]))[:n])


def count(workload: str, seed: int, top: int = 0) -> dict:
    """Profile the workload's harness calls in this interpreter."""
    from evofuzzy.ensemble import Ensemble

    runs = stream_runs(workload, seed)
    train = cProfile.Profile()
    inner, reports = Ensemble.train_chunk, []

    def profiled(ens, chunk, sel):
        reports.append(train.runcall(inner, ens, chunk, sel))
        return reports[-1]

    Ensemble.train_chunk = profiled
    try:
        for run, _ in runs:
            run()
    finally:
        Ensemble.train_chunk = inner
    stats = pstats.Stats(train).stats
    # runcall counts one call of the profiler's own disable per chunk
    train_calls = sum(nc for (_, _, name), (_, nc, *_) in stats.items()
                      if "_lsprof.Profiler" not in name)
    whole = cProfile.Profile()
    offered = accepted = scored = 0
    for run, n_scored in runs:
        metrics, _ = whole.runcall(run)
        offered += metrics.offered
        accepted += metrics.ts
        scored += n_scored
    rest_calls = pstats.Stats(whole).total_calls - train_calls
    return dict(train_calls=train_calls, rest_calls=rest_calls, offered=offered,
                accepted=accepted, scored=scored, train_per_offered=train_calls / offered,
                rest_per_scored=rest_calls / scored,
                **(top_rows(stats, sum(r.accepted for r in reports), top) if top else {}))


def counted(c: dict) -> dict:
    """A count without its timings, which differ from run to run."""
    return dict(c, top_self=None, top_calls=[row[:2] for row in c.get("top_calls", ())])


def print_top(c: dict) -> None:
    """The two --top tables of one workload's count."""
    for key, title in (("top_calls", "most calls"), ("top_self", "most own time")):
        print(f"  train path, {title}, per accepted sample ({c['top_accepted']:,d} accepted):")
        for name, calls, own_us in c[key]:
            print(f"    {calls:9.2f} calls {own_us:9.2f} µs  {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to count (repeatable; default all three)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path, help="write the counts to this file")
    ap.add_argument("--top", type=int, default=0, metavar="N",
                    help="print the N train-path functions with the most calls and own time")
    ap.add_argument("--one", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(count(args.one, args.seed, args.top)))
        return 0

    out, status = {}, 0
    for w in args.workload or WORKLOADS:
        counts = []
        for _ in range(2):
            cmd = [sys.executable, __file__, "--one", w, "--seed", str(args.seed),
                   "--top", str(args.top)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            counts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        c = counts[0]
        same = counted(counts[0]) == counted(counts[1])
        status |= not same
        print(f"{w:14s} train path {c['train_calls']:>10,d} calls  {c['offered']:>7,d} offered  "
              f"{c['train_per_offered']:7.1f}/offered   rest {c['rest_calls']:>9,d} calls  "
              f"{c['scored']:>6,d} scored  {c['rest_per_scored']:6.1f}/scored  "
              f"{'repeats' if same else 'DIFFERS: %s then %s' % (counts[0], counts[1])}")
        if args.top:
            print_top(c)
        out[w] = dict(seed=args.seed, **c, repeats=same)
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
