#!/usr/bin/env python3
"""Benchmark of the evofuzzy learner, run from the root of a checkout.

    python3 perfbench/run.py --workload sea-axis --seed 1 --seconds 30 --trace 0

Each interpreter it starts (worker.py) is fresh, single-threaded and
imports the sources under src/.  SETUP_CHILDREN interpreters only import
the package and build the input; they time set-up.  One more interpreter
builds the same input and runs a fixed number of whole passes of the
workload (worker.passes).  Every timing is scaled to one machine speed:
multiplied by REF_MS over the mean time of a reference job run next to
it (machine_speed.job), because on the shared VM the benchmark was built
on the processor's speed moves by up to 1.9x for tens of seconds at a
time.  Each figure of a pass is then taken at its median over the passes.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of stdout is the JSON result.  The same object, the raw
wall times of each pass and, in traced runs, the full per-layer table
are written under perfbench/out/.

An operation is one sample offered to or scored by a learner.  The
sensor workload adds a fixed-input probe to each pass whose samples
count as failed while the probe's check fails (see worker.py, PROBE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("sea-axis", "hyperplane-mv", "sensor-ofs-cv")
# milliseconds of one reference job (machine_speed.job) at the reference
# speed, about this VM's typical speed while the bounds were set
REF_MS = 0.40
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildError(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_percentile(chunks: int) -> int:
    """Highest whole percentile with at least ten chunks beyond it."""
    return math.floor(100 * (1 - 10 / chunks))


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_repeats(passes: list) -> list:
    failures = [f for p in passes for f in p["failures"]]
    for key in ("offered", "n_test", "labels_used", "test_correct", "model_params"):
        if len({p[key] for p in passes}) != 1:
            failures.append(f"{key} differs between repeats of the same input")
    if len({len(p["chunk_s"]) for p in passes}) != 1:
        failures.append("the number of train_chunk calls differs between repeats")
    traced = [p for p in passes if "trace" in p]
    for name in (traced[0]["trace"] if traced else {}):
        if len({p["trace"][name]["calls"] for p in traced}) != 1:
            failures.append(f"{name} call count differs between repeats")
    return failures


def scale(pass_or_setup: dict) -> float:
    """Factor that takes a time measured next to the reference job to the
    reference speed, at which the job takes REF_MS."""
    return REF_MS / pass_or_setup["ref_ms"]


def end_to_end(setups: list, passes: list) -> dict:
    med = statistics.median
    first = passes[0]
    # each chunk at its median over the passes, which repeat it exactly
    chunk_ms = [1e3 * med(times) for times in
                zip(*([t * scale(p) for t in p["chunk_s"]] for p in passes))]
    train_s = med(p["train_s"] * scale(p) for p in passes)
    test_s = med((p["harness_s"] - p["train_s"]) * scale(p) for p in passes)
    return {
        "setup_s": (med((s["import_s"] + s["gen_s"]) * scale(s) for s in setups), "s"),
        "train_sps": (first["offered"] / train_s, "samples/s"),
        "test_sps": (first["n_test"] / test_s, "samples/s"),
        "chunk_p50_ms": (med(chunk_ms), "ms"),
        "chunk_tail_ms": (percentile(chunk_ms, tail_percentile(len(chunk_ms))), "ms"),
        "peak_rss_mb": (first["peak_rss_mb"], "MiB"),
        "test_correct": (first["test_correct"], "count"),
    }


def per_layer(setups: list, untraced: list, traced: list) -> dict:
    med = statistics.median
    first = traced[0]
    out = {}
    for name, row in first["trace"].items():
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_ms"] = (med(p["trace"][name]["self_ms"] for p in traced), "ms")
    offered = first["offered"]
    mahal = first["trace"]["rules.RuleClassifier.mahalanobis_sq"]["calls"]
    overhead = (med(p["harness_s"] * scale(p) for p in traced)
                - med(p["harness_s"] * scale(p) for p in untraced))
    out.update({
        "rules.mahalanobis_sq.per_offered": (mahal / offered, "calls/sample"),
        "selection.accept_ratio": (first["labels_used"] / offered, "ratio"),
        "selection.labels_used": (first["labels_used"], "count"),
        "ensemble.model_params": (first["model_params"], "count"),
        "ensemble.members_mean": (first["members_mean"], "count"),
        "rules.rules_mean": (first["rules_mean"], "count"),
        "ensemble.drifts": (first["drifts"], "count"),
        "ensemble.merges": (first["merges"], "count"),
        "setup.import_s": (med(s["import_s"] for s in setups), "s"),
        "datagen.gen_s": (med(s["gen_s"] for s in setups), "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "evofuzzy" / "__init__.py").is_file():
        print(f"no evofuzzy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [child(args.workload, args.seed, "setup") for _ in range(SETUP_CHILDREN)]
        run = child(args.workload, args.seed, "trace" if args.trace else "run", args.seconds)
    except ChildError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    setups.append(run)
    passes = run["passes"]
    probes = [p["probe"] for p in passes if "probe" in p]
    failures = run["failures"] + check_repeats(passes)
    if args.trace:
        metrics = per_layer(setups, [p for p in passes if "trace" not in p],
                            [p for p in passes if "trace" in p])
    else:
        metrics = end_to_end(setups, passes)
    result = {
        "correct": not failures,
        "attempted": sum(p["samples"] for p in passes) + sum(p["samples"] for p in probes),
        "failed": sum(p["samples"] for p in probes if p["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, failures=failures,
                  probe=probes[0]["detail"] if probes else None,
                  wall=[{k: p[k] for k in ("harness_s", "train_s", "ref_ms")} for p in passes])
    if args.trace:
        traced = next(p for p in passes if "trace" in p)
        record.update(trace=traced["trace"], missing=traced["missing"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for f in failures:
        print(f"check failed: {f}")
    if probes:
        print(f"probe: {probes[0]['detail']}")
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
