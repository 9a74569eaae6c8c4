#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N --pairs 10
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N --pairs 0 --setup-runs 10

Each pair runs ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` from the root of both checkouts, one after the
other; the parent runs first in even pairs and the change in odd ones.
For every end-to-end metric it prints each side's median and quartiles,
the ratio of the medians, the change's wins (ties count for neither,
"better" as BENCHMARK.json of CHANGE_DIR says) and whether the gap
between the medians exceeds the parent's interquartile range, and for
each side the raw (unscaled) train and test seconds per pass, test
being the harness seconds less the train seconds, which the run leaves
in perfbench/out/.  A faster test path moves the scaled train_sps too
(both share the reference-job scaling), so a test-path claim reads the
raw figures beside it.  With --json PATH the summary, the raw train,
harness and test seconds of every pass included, is stored in PATH under
the workload's name, with "(seed N)" after it for a seed other than
CLAIM_SEED, next to what the file already holds.

With --setup-runs N it also starts ``perfbench/worker.py --mode setup``
N times in each checkout, alternating as the pairs do and with the
environment perfbench/run.py gives its workers, and prints each side's
medians of the unscaled import_s, gen_s and ref_ms (stored under
"setup" with --json).  So set-up can be compared apart from the
reference-job scaling of setup_s.  --pairs 0 runs only these.  Nothing
in either checkout is changed apart from the benchmark's own
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# the seed a gain is claimed on; runs on other seeds confirm it
CLAIM_SEED = 7
# what a set-up worker reports, unscaled
SETUP_KEYS = ("import_s", "gen_s", "ref_ms")
# single-threaded BLAS, as perfbench/run.py starts its workers
WORKER_ENV = {"PYTHONHASHSEED": "0", **{v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS")}}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The run's result, with the raw wall times of its passes under "wall"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return dict(json.loads(lines[-1]), wall=json.loads(record.read_text())["wall"])


def setup_once(root: Path, workload: str, seed: int) -> dict:
    """One set-up worker's unscaled import_s, gen_s and ref_ms."""
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
           "--mode", "setup"]
    proc = subprocess.run(cmd, cwd=root, env=dict(os.environ, **WORKER_ENV),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return {k: json.loads(lines[-1])[k] for k in SETUP_KEYS}


def alternate(n: int, once) -> dict:
    """n results of once(side) for each side, the parent first in even rounds."""
    runs = {"parent": [], "change": []}
    for i in range(n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(once(side))
        print(f"round {i + 1}/{n} done", file=sys.stderr, flush=True)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: dict, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        out[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
            "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
            "ratio": cm / pm if pm else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "gap_exceeds_parent_iqr": abs(cm - pm) > p3 - p1,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--setup-runs", type=int, default=0,
                    help="set-up workers per side, timed unscaled")
    ap.add_argument("--json", type=Path, help="merge the summary into this file")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    entry = {"seed": args.seed}

    if args.pairs > 0:
        runs = alternate(args.pairs, lambda side: run_once(
            getattr(args, side), args.workload, args.seed, args.seconds))
        metrics = summarize(runs, better)
        failed = {side: [[r["failed"], r["attempted"]] for r in rs] for side, rs in runs.items()}
        # unscaled seconds of train_chunk, of the whole harness and of the rest, per pass
        raw = {side: {k: [[p[k] for p in r["wall"]] for r in rs] for k in ("train_s", "harness_s")}
               for side, rs in runs.items()}
        for sides in raw.values():
            sides["test_s"] = [[h - t for h, t in zip(*pair)]
                               for pair in zip(sides["harness_s"], sides["train_s"])]
        print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; "
              f"median [q1, q3] per side, ratio change/parent, change wins")
        for name, m in metrics.items():
            p, c = m["parent"], m["change"]
            print(f"{name:14s} {p['median']:>12.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  ->  {c['median']:>12.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']:10s}"
                  f" x{m['ratio'] or float('nan'):.3f}  wins {m['wins']}/{args.pairs}"
                  f"{'  gap > parent IQR' if m['gap_exceeds_parent_iqr'] else ''}")
        for side, rs in runs.items():
            spans = []
            for k in ("train_s", "test_s"):
                v = [t for passes in raw[side][k] for t in passes]
                spans.append(f"{k[:-2]} {statistics.median(v):.4g} [{min(v):.4g}, {max(v):.4g}]")
            print(f"{side}: failed {sum(f for f, _ in failed[side])} of "
                  f"{sum(a for _, a in failed[side])} operations, "
                  f"checks passed in {sum(r['correct'] for r in rs)} of {len(rs)} runs, "
                  f"raw seconds per pass median [min, max]: {', '.join(spans)}")
        entry.update(pairs=args.pairs, seconds=args.seconds, metrics=metrics,
                     failed_attempted=failed, raw_wall_s=raw)
    if args.setup_runs > 0:
        runs = alternate(args.setup_runs, lambda side: setup_once(
            getattr(args, side), args.workload, args.seed))
        setup = {k: {side: {"median": statistics.median(r[k] for r in rs),
                            "runs": [r[k] for r in rs]} for side, rs in runs.items()}
                 for k in SETUP_KEYS}
        print(f"{args.workload} seed {args.seed}, {args.setup_runs} set-up runs a side, "
              f"unscaled medians [min, max]")
        for k, sides in setup.items():
            p, c = sides["parent"], sides["change"]
            print(f"{k:8s} {p['median']:.4g} [{min(p['runs']):.4g}, {max(p['runs']):.4g}]"
                  f"  ->  {c['median']:.4g} [{min(c['runs']):.4g}, {max(c['runs']):.4g}]"
                  f"  x{c['median'] / p['median'] if p['median'] else float('nan'):.3f}")
        entry["setup"] = dict(setup, runs=args.setup_runs)
    if args.json:
        store = json.loads(args.json.read_text()) if args.json.is_file() else {}
        key = args.workload if args.seed == CLAIM_SEED else f"{args.workload} (seed {args.seed})"
        store[key] = dict(store.get(key, {}), **entry)
        args.json.write_text(json.dumps(store, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
