#!/usr/bin/env python3
"""Count the Python calls of the learner's train path and of the rest of the harness.

    python3 scripts/call_count.py [--workload W ...] [--seed N]

Each workload (sea-axis, hyperplane-mv, sensor-ofs-cv by default) runs
its seeded streams through the public harness under cProfile, in a
fresh interpreter, and counts the calls that cProfile counts (Python
functions and C functions called from Python).  It reports two counts:

    train path  calls inside Ensemble.train_chunk, per offered sample
    the rest    every other call of the harness: scoring the test
                blocks, the audit digests and the records, per scored
                sample

The streams run twice: once profiled whole, and once with only each
train_chunk call profiled; the rest is the difference.  The streams
have the shapes of the benchmark's workloads of the same names: four
SEA streams of 50 stamps of 250 train / 250 test with axis-parallel
rules, four hyperplane streams of 10 stamps of 1000 / 250 with
multivariate rules and a drift at sample 3750, and two 12-channel
sensor streams of 2000 samples through 5-fold CV with a feature budget
of 6.  Stream j of seed N has seed 1000 N + j.

A count is a work measure that needs no quiet machine: it is the same
on every run of the same code.  Each workload is counted twice, and the
script exits 1 if the two counts differ.  --json PATH writes the
counts to PATH.
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

SEA = dict(streams=4, stamps=50, train=250, test=250, chunk=250)
HYP = dict(streams=4, stamps=10, train=1000, test=250, chunk=1000)
SENSOR = dict(streams=2, n=2000, folds=5, chunk=100, budget=6, change=800,
              before=(6, 7, 8), after=(9, 10, 11))
WORKLOADS = ("sea-axis", "hyperplane-mv", "sensor-ofs-cv")


def stream_runs(workload: str, seed: int) -> list:
    """(zero-argument harness call, samples it scores) per stream of the workload."""
    import numpy as np

    import evofuzzy as ef
    from evofuzzy.evaluate import run_cv, run_holdout

    runs = []
    if workload == "sensor-ofs-cv":
        p = SENSOR
        for j in range(p["streams"]):
            rng = np.random.default_rng(1000 * seed + j)
            x = rng.normal(size=(p["n"], 12))
            samples = [ef.Sample(x[i].copy(), 1 if x[i, list(p["before"] if i < p["change"]
                                                             else p["after"])].sum() > 0 else 2)
                       for i in range(p["n"])]
            cfg = ef.StreamConfig(n_features=12, n_classes=2, chunk_size=p["chunk"],
                                  seed=1000 * seed + j, ofs_b=p["budget"])
            runs.append((lambda s=samples, c=cfg: run_cv(s, c, folds=p["folds"]), p["n"]))
        return runs
    p = SEA if workload == "sea-axis" else HYP
    proto = ef.EvalProtocol("holdout", train_per_stamp=p["train"], test_per_stamp=p["test"],
                            stamps=p["stamps"])
    for j in range(p["streams"]):
        s = 1000 * seed + j
        n = p["stamps"] * (p["train"] + p["test"])
        if workload == "sea-axis":
            samples = list(ef.gen_sea(ef.SeaConfig(n_total=n, thresholds=(4.0,), seed=s)))
            cfg = ef.StreamConfig(n_features=3, n_classes=2, chunk_size=p["chunk"], seed=s)
        else:
            w_before, w_after = (0.9, 0.6, 0.3, 0.1), (0.1, 0.3, 0.6, 0.9)
            samples = list(ef.gen_hyperplane(ef.HyperplaneConfig(
                n_total=n, n_features=4, drift_start=3750, ramp_frac=0.1, seed=s,
                w_before=w_before, w_after=w_after, w0=0.5 * sum(w_before))))
            cfg = ef.StreamConfig(n_features=4, n_classes=2, chunk_size=p["chunk"], seed=s,
                                  delta_rel=0.5, base_kind="multivariate")
        runs.append((lambda s=samples, c=cfg: run_holdout(s, c, proto), p["stamps"] * p["test"]))
    return runs


def count(workload: str, seed: int) -> dict:
    """Profile the workload's harness calls in this interpreter."""
    from evofuzzy.ensemble import Ensemble

    runs = stream_runs(workload, seed)
    train = cProfile.Profile()
    inner = Ensemble.train_chunk
    Ensemble.train_chunk = lambda ens, chunk, sel: train.runcall(inner, ens, chunk, sel)
    try:
        for run, _ in runs:
            run()
    finally:
        Ensemble.train_chunk = inner
    # runcall counts one call of the profiler's own disable per chunk
    train_calls = sum(nc for (_, _, name), (_, nc, *_) in pstats.Stats(train).stats.items()
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
                rest_per_scored=rest_calls / scored)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to count (repeatable; default all three)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path, help="write the counts to this file")
    ap.add_argument("--one", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(count(args.one, args.seed)))
        return 0

    out, status = {}, 0
    for w in args.workload or WORKLOADS:
        counts = []
        for _ in range(2):
            cmd = [sys.executable, __file__, "--one", w, "--seed", str(args.seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            counts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        c = counts[0]
        same = counts[0] == counts[1]
        status |= not same
        print(f"{w:14s} train path {c['train_calls']:>10,d} calls  {c['offered']:>7,d} offered  "
              f"{c['train_per_offered']:7.1f}/offered   rest {c['rest_calls']:>9,d} calls  "
              f"{c['scored']:>6,d} scored  {c['rest_per_scored']:6.1f}/scored  "
              f"{'repeats' if same else 'DIFFERS: %s then %s' % (counts[0], counts[1])}")
        out[w] = dict(seed=args.seed, **c, repeats=same)
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
