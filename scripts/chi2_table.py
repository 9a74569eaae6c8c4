#!/usr/bin/env python3
"""Print the chi-square quantile table that src/evofuzzy/rules.py holds.

    python3 scripts/chi2_table.py

Writes to stdout the `_CHI2_95` literal: chi2.ppf(0.95, df) for df =
1..64, computed as 2 * gammaincinv(df / 2, 0.95), the expression that
chi2.ppf evaluates, at repr precision, five values per line.  Paste it
over the table in rules.py.  The novelty gate reads only this table,
so its length is the most features a stream may have (MAX_FEATURES in
core.py).  tests/test_rules.py checks every entry against
scipy.stats.chi2.ppf bit for bit, so regenerate the table only when
its size or quantile changes.  Needs scipy, which the package does not.
"""

import sys

from scipy.special import gammaincinv

Q = 0.95
MAX_DF = 64
PER_LINE = 5


def table() -> list:
    return [float(2.0 * gammaincinv(df / 2.0, Q)) for df in range(1, MAX_DF + 1)]


def literal(values: list) -> str:
    lines = [
        "    " + " ".join(f"{v!r}," for v in values[i : i + PER_LINE])
        for i in range(0, len(values), PER_LINE)
    ]
    return "_CHI2_95 = (\n" + "\n".join(lines) + "\n)"


def main(argv) -> int:
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(literal(table()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
