#!/usr/bin/env python3
"""Write the six reference metrics files a refactor is compared on.

    python3 scripts/reference_runs.py OUT_DIR

Runs, one after the other, on the package under this checkout's src/:

    sea.jsonl            scripts/run_sea.py
    hyperplane.jsonl     scripts/run_hyperplane.py
    hyperplane-mv.jsonl  scripts/run_hyperplane.py --base multivariate
    cv.jsonl             evofuzzy run --data h.csv --mode cv --folds 5 --ofs-b 2
                         on evofuzzy gen hyperplane --n 20000
                         --drift-start 10000 --seed 3
    cv-mv.jsonl          the cv.jsonl run with --base multivariate --ofs-b 2,
                         multivariate rules under a feature mask
    cv7.jsonl            evofuzzy run --data h.csv --config cv7.json, where
                         cv7.json holds {"mode": "cv", "folds": 7,
                         "ofs_b": 2}: the cv.jsonl run with --folds 7,
                         its settings read through the config-file path;
                         its bins of 2,858 and 2,857 samples end inside a
                         chunk of 250

The CSV and the config file live in a temporary directory, so the
working tree is left as it was.  Compare two OUT_DIRs with
scripts/same_metrics.py A_DIR B_DIR.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "h.csv"
        cv7 = Path(tmp) / "cv7.json"
        cv7.write_text(json.dumps({"mode": "cv", "folds": 7, "ofs_b": 2}))
        runs = [  # (metrics file or None, arguments to the interpreter)
            ("sea.jsonl", [SCRIPTS / "run_sea.py"]),
            ("hyperplane.jsonl", [SCRIPTS / "run_hyperplane.py"]),
            ("hyperplane-mv.jsonl", [SCRIPTS / "run_hyperplane.py", "--base", "multivariate"]),
            (None, ["-m", "evofuzzy", "gen", "hyperplane", "--n", "20000",
                    "--drift-start", "10000", "--seed", "3", "--out", csv]),
            ("cv.jsonl", ["-m", "evofuzzy", "run", "--data", csv, "--mode", "cv",
                          "--folds", "5", "--ofs-b", "2"]),
            ("cv-mv.jsonl", ["-m", "evofuzzy", "run", "--data", csv, "--mode", "cv",
                             "--folds", "5", "--base", "multivariate", "--ofs-b", "2"]),
            ("cv7.jsonl", ["-m", "evofuzzy", "run", "--data", csv, "--config", cv7]),
        ]
        for name, args in runs:
            cmd = [sys.executable, *map(str, args)]
            if name is not None:
                cmd += ["--metrics", str(out / name)]
            print("+", " ".join(cmd[1:]), flush=True)
            code = subprocess.run(cmd, env=env, cwd=tmp).returncode
            if code != 0:
                print(f"exit {code}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
