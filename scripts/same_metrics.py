#!/usr/bin/env python3
"""Compare two metrics files record for record, ignoring the rt field.

    python3 scripts/same_metrics.py A.jsonl B.jsonl

Exits 0 when every record matches; otherwise prints the first record
that differs and exits 1.  rt is wall-clock time, so it is the one field
that differs between otherwise identical runs.
"""

import json
import sys


def records(path):
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                rec.pop("rt", None)
                yield rec


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (list(records(p)) for p in argv)
    for i in range(max(len(a), len(b))):
        ra = a[i] if i < len(a) else None
        rb = b[i] if i < len(b) else None
        if ra != rb:
            print(f"record {i + 1} differs:\n  {argv[0]}: {ra}\n  {argv[1]}: {rb}")
            return 1
    print(f"{len(a)} records match (rt excepted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
