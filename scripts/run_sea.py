#!/usr/bin/env python3
"""Full SEA benchmark: 100k samples, 200 stamps of 250 train / 250 test.

Writes per-stamp metrics to sea_metrics.jsonl and prints the summary.
"""

import sys
from pathlib import Path

from evofuzzy.cli import build_parser, main

OUT = Path(__file__).resolve().parent.parent / "sea_metrics.jsonl"

if __name__ == "__main__":
    args = [
        "run", "--gen", "sea", "--n", "100000",
        "--mode", "holdout", "--stamps", "200", "--train", "250", "--test", "250",
        "--chunk", "250", "--seed", "1", "--metrics", str(OUT),
    ] + sys.argv[1:]
    code = main(args)
    if code == 0:
        print(f"metrics written to {build_parser().parse_args(args).metrics}")
    sys.exit(code)
