#!/usr/bin/env python3
"""Write the six reference metrics files a refactor is compared on.

    python3 scripts/reference_runs.py OUT_DIR

Runs, one after the other, on the package under this checkout's src/,
each an evofuzzy run command given --metrics OUT_DIR/<file>:

    sea.jsonl            run --gen sea --n 100000 --stamps 200
                         --train 250 --test 250 --seed 1
    hyperplane.jsonl     run --gen hyperplane --n 120000 --stamps 96
                         --train 1000 --test 250 --seed 7
    hyperplane-mv.jsonl  the hyperplane.jsonl run with --base multivariate
    cv.jsonl             run --data h.csv --mode cv --folds 5 --ofs-b 2
                         on evofuzzy gen hyperplane --n 20000
                         --drift-start 10000 --seed 3
    cv-mv.jsonl          the cv.jsonl run with --base multivariate --ofs-b 2,
                         multivariate rules under a feature mask
    cv7.jsonl            run @cv7.args --data h.csv, where cv7.args holds
                         the lines --mode=cv, --folds=7 and --ofs-b=2:
                         the cv.jsonl run with --folds 7, its settings
                         read from an argument file; its bins of 2,858
                         and 2,857 samples end inside a chunk of 250

The chunk of every run is its train block, the default.  The CSV and
the argument file live in a temporary directory, so the working tree
is left as it was.  Compare two OUT_DIRs with
scripts/same_metrics.py A_DIR B_DIR.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "h.csv"
        (Path(tmp) / "cv7.args").write_text("--mode=cv\n--folds=7\n--ofs-b=2\n")
        sea = ["-m", "evofuzzy", "run", "--gen", "sea", "--n", "100000", "--stamps", "200",
               "--train", "250", "--test", "250", "--seed", "1"]
        hyperplane = ["-m", "evofuzzy", "run", "--gen", "hyperplane", "--n", "120000",
                      "--stamps", "96", "--train", "1000", "--test", "250", "--seed", "7"]
        runs = [  # (metrics file or None, arguments to the interpreter)
            ("sea.jsonl", sea),
            ("hyperplane.jsonl", hyperplane),
            ("hyperplane-mv.jsonl", [*hyperplane, "--base", "multivariate"]),
            (None, ["-m", "evofuzzy", "gen", "hyperplane", "--n", "20000",
                    "--drift-start", "10000", "--seed", "3", "--out", csv]),
            ("cv.jsonl", ["-m", "evofuzzy", "run", "--data", csv, "--mode", "cv",
                          "--folds", "5", "--ofs-b", "2"]),
            ("cv-mv.jsonl", ["-m", "evofuzzy", "run", "--data", csv, "--mode", "cv",
                             "--folds", "5", "--base", "multivariate", "--ofs-b", "2"]),
            ("cv7.jsonl", ["-m", "evofuzzy", "run", "@cv7.args", "--data", csv]),
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
