#!/usr/bin/env python3
"""Write the pinned snapshot fixture that tests/test_snapshot_format.py loads.

    python3 scripts/snapshot_fixture.py [OUT]

OUT defaults to tests/data/snapshots.json.  Trains, on the package under
this checkout's src/, two short runs and stores the Ensemble and
Selectors snapshots of each after its last chunk:

    sea-axis        axis-parallel rules on a SEA stream whose threshold
                    jumps from 3 to 14, 12 chunks of 30: a drift member
                    and an archived rule
    hyperplane-ofs  multivariate rules under a 2-of-4 feature mask on a
                    drifting hyperplane stream, 10 chunks of 40: an
                    archived rule and a pinned detector cut

Chunks are small because the drift detector's window, 4 chunks of
errors, dominates the bytes.  Regenerate the file only on a deliberate
change of the snapshot format.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from evofuzzy import Ensemble, Selectors, StreamConfig, chunks  # noqa: E402
from evofuzzy.datagen import (  # noqa: E402
    HyperplaneConfig,
    SeaConfig,
    gen_hyperplane,
    gen_sea,
)

RUNS = {
    "sea-axis": (
        lambda: gen_sea(SeaConfig(n_total=360, seed=5, thresholds=(3.0, 14.0))),
        dict(n_features=3, n_classes=2, chunk_size=30),
    ),
    "hyperplane-ofs": (
        lambda: gen_hyperplane(HyperplaneConfig(n_total=400, drift_start=200, seed=3)),
        dict(n_features=4, n_classes=2, chunk_size=40, ofs_b=2, base_kind="multivariate"),
    ),
}


def snapshots() -> dict:
    out = {}
    for name, (stream, cfg_kw) in RUNS.items():
        cfg = StreamConfig(**cfg_kw)
        ens, sel = Ensemble(cfg), Selectors(cfg)
        for ch in chunks(stream(), cfg.chunk_size):
            ens.train_chunk(ch, sel)
        out[name] = {"ensemble": ens.snapshot(), "selectors": sel.snapshot()}
    return out


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = Path(argv[0]) if argv else ROOT / "tests" / "data" / "snapshots.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshots(), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
