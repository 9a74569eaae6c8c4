#!/usr/bin/env python3
"""Compare metrics files record for record, ignoring the rt field.

    python3 scripts/same_metrics.py A.jsonl B.jsonl
    python3 scripts/same_metrics.py A_DIR B_DIR

Exits 0 when every record matches; otherwise prints the first record
that differs and exits 1.  rt is wall-clock time, so it is the one field
that differs between otherwise identical runs.  Given two directories,
compares each *.jsonl in A_DIR with the file of the same name in B_DIR
and exits 1 if any of them differs, if the two do not hold the same
*.jsonl names, or if they hold none.
"""

import json
import sys
from pathlib import Path


def records(path):
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                rec.pop("rt", None)
                yield rec


def same_file(path_a, path_b, label: str = "") -> bool:
    a, b = list(records(path_a)), list(records(path_b))
    for i in range(max(len(a), len(b))):
        ra = a[i] if i < len(a) else None
        rb = b[i] if i < len(b) else None
        if ra != rb:
            print(f"record {i + 1} differs:\n  {path_a}: {ra}\n  {path_b}: {rb}")
            return False
    print(f"{label}{len(a)} records match (rt excepted)")
    return True


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    if not a.is_dir():
        return 0 if same_file(a, b) else 1
    names_a = {p.name for p in a.glob("*.jsonl")}
    if not names_a:
        print(f"{a}: no *.jsonl files to compare")
        return 1
    ok = True
    for name in sorted(names_a | {p.name for p in b.glob("*.jsonl")}):
        path_a, path_b = a / name, b / name
        if not path_b.is_file():
            print(f"{path_b}: missing")
            ok = False
        elif not path_a.is_file():
            print(f"{path_b}: not in {a}")
            ok = False
        elif not same_file(path_a, path_b, f"{name}: "):
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
