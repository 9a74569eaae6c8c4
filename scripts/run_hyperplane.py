#!/usr/bin/env python3
"""Rotating-hyperplane benchmark: 120k samples, gradual drift from 40k.

96 stamps of 1000 train / 250 test; writes hyperplane_metrics.jsonl.
"""

import sys
from pathlib import Path

from evofuzzy.cli import build_parser, main

OUT = Path(__file__).resolve().parent.parent / "hyperplane_metrics.jsonl"

if __name__ == "__main__":
    args = [
        "run", "--gen", "hyperplane", "--n", "120000",
        "--mode", "holdout", "--stamps", "96", "--train", "1000", "--test", "250",
        "--chunk", "1000", "--seed", "7", "--metrics", str(OUT),
    ] + sys.argv[1:]
    code = main(args)
    if code == 0:
        print(f"metrics written to {build_parser().parse_args(args).metrics}")
    sys.exit(code)
