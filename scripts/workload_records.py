#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over the records of its runs.

    python3 scripts/workload_records.py [--workload W ...] [--seed N]

Each workload (sea-axis, hyperplane-mv, sensor-ofs-cv by default) builds
its seeded streams and runs them through run_holdout or run_cv with the
settings perfbench/worker.py uses (scripts/call_count.py's stream_runs,
which takes WORKLOADS, sub_seed and build from the worker), on the
package under this checkout's src/.  The digest covers, stream by
stream, every metrics record with rt dropped and the final learner's
Ensemble.digest().  A change meant to be bit-identical prints the same
lines on both checkouts:

    diff <(python3 A/scripts/workload_records.py --seed 7) \\
         <(python3 B/scripts/workload_records.py --seed 7)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from call_count import WORKLOADS, stream_runs  # noqa: E402


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for run, _ in stream_runs(workload, seed):
        metrics, ens = run()
        for rec in metrics.series:
            h.update(json.dumps({k: v for k, v in rec.items() if k != "rt"}, sort_keys=True).encode())
        h.update(ens.digest().encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default all three)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for w in args.workload or WORKLOADS:
        print(f"{w:14s} seed {args.seed}  {digest(w, args.seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
