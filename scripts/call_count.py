#!/usr/bin/env python3
"""Count the Python calls the learner makes per offered and per accepted sample.

    python3 scripts/call_count.py [--workload W ...] [--seed N]

Each workload (sea-axis, hyperplane-mv, sensor-ofs-cv by default) runs
its seeded streams through the public harness under cProfile, in a
fresh interpreter, and reports the calls that cProfile counts (Python
functions and C functions called from Python) divided by the offered
and by the accepted training samples.  The streams have the shapes of
the benchmark's workloads of the same names: four SEA streams of 50
stamps of 250 train / 250 test with axis-parallel rules, four
hyperplane streams of 10 stamps of 1000 / 250 with multivariate rules
and a drift at sample 3750, and two 12-channel sensor streams of 2000
samples through 5-fold CV with a feature budget of 6.  Stream j of
seed N has seed 1000 N + j.

The count is a work measure that needs no quiet machine: it is the same
on every run of the same code.  Each workload runs twice, and the
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
    """One zero-argument harness call per stream of the workload."""
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
            runs.append(lambda s=samples, c=cfg: run_cv(s, c, folds=p["folds"]))
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
        runs.append(lambda s=samples, c=cfg: run_holdout(s, c, proto))
    return runs


def count(workload: str, seed: int) -> dict:
    """Profile the workload's harness calls in this interpreter."""
    runs = stream_runs(workload, seed)
    prof = cProfile.Profile()
    offered = accepted = 0
    for run in runs:
        metrics, _ = prof.runcall(run)
        offered += metrics.offered
        accepted += metrics.ts
    calls = pstats.Stats(prof).total_calls
    return dict(calls=calls, offered=offered, accepted=accepted,
                per_offered=calls / offered, per_accepted=calls / accepted)


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
        print(f"{w:14s} {c['calls']:>10,d} calls  {c['offered']:>7,d} offered  "
              f"{c['accepted']:>6,d} accepted  {c['per_offered']:8.1f}/offered  "
              f"{c['per_accepted']:8.1f}/accepted  "
              f"{'repeats' if same else 'DIFFERS: %d then %d' % (c['calls'], counts[1]['calls'])}")
        out[w] = dict(seed=args.seed, **c, repeats=same)
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
