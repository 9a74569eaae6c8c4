"""One run of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload sea-axis --seed 1 --mode run --seconds 30

Modes: ``setup`` only imports the package and materialises the input;
``run`` then runs a fixed number of whole passes of the workload through
the public harness (see ``passes``), times every train_chunk call, each
stream's harness call and a reference job before each train_chunk call,
and checks every pass; ``trace`` alternates
untraced passes with passes that have every layer wrapped (see
layertrace.py).  The parent (run.py) pins BLAS to one thread.

A workload's input is several independent streams, one learner each
(one monitor per machine tool), all derived from --seed.  Rule counts
and label budgets of a single stream swing with the seed; their sum over
the streams is what keeps a run comparable with a run on another seed.

Every check here is computed apart from the learner or is a property
the method must have; none compares against stored output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# -- workload definitions ----------------------------------------------------

# Stationary SEA concept: class 2 when x1 + x2 < 4.  The default
# schedule's abrupt switches are left out: after a switch the learner
# can stop accepting labels for good on some seeds (see CHANGES.md).
SEA = dict(streams=4, stamps=50, train=250, test=250, chunk=250, threshold=4.0,
           delta_rel=0.02)

# Hyperplane concept, fixed so the labels can be recomputed: both planes
# pass through the centre of the unit cube and are 65 degrees apart.
# delta_rel 0.5 (default 0.02) makes the drift members merge: 2 to 5
# merges a pass on seeds 1-8, none at the default.
HYP = dict(
    streams=4, stamps=10, train=1000, test=250, chunk=1000, drift_start=3750,
    ramp_frac=0.1, w_before=(0.9, 0.6, 0.3, 0.1), w_after=(0.1, 0.3, 0.6, 0.9),
    delta_rel=0.5,
)
HYP["w0"] = 0.5 * sum(HYP["w_before"])

# Sensor-shaped streams: 12 channels, the label is the sign of the sum of
# one channel subset, and the subset moves at a known sample (a wear
# regime change).  Both subsets lie outside channels 0-5, the ones the
# mask locks onto (see CHANGES.md), so these streams run feature
# selection as it behaves today; PROBE checks what it should do.
SENSOR = dict(streams=2, n=2000, folds=5, chunk=100, budget=6, change=800,
              before=(6, 7, 8), after=(9, 10, 11))

# Fixed-input regime-change probe (independent of --seed): the subset
# moves to channels outside the mask, with a budget of exactly one
# subset.  It checks that the first accepted sample trains under B
# features, that the mask follows the move and that the rate beats the
# majority class of the test labels.
PROBE = dict(seed=0, stamps=16, train=100, test=25, chunk=100, budget=3,
             change=1000, before=(0, 1, 2), after=(6, 7, 8))

WORKLOADS = {"sea-axis": SEA, "hyperplane-mv": HYP, "sensor-ofs-cv": SENSOR}
CR_FLOOR = {"sea-axis": 0.90, "hyperplane-mv": 0.88}
LABEL_CEILING = 0.40
# seconds of one pass (probe included) at the reference speed; sets the
# fixed number of passes of a run
PASS_S = {"sea-axis": 14.0, "hyperplane-mv": 15.0, "sensor-ofs-cv": 8.5}
MIN_PASSES = 2
# reference jobs a set-up interpreter runs after its set-up
SETUP_JOBS = 100
SUBSET_FLOOR = 0.80


def sub_seed(seed: int, j: int) -> int:
    return 1000 * seed + j


def sea_mismatches(samples) -> int:
    theta = SEA["threshold"]
    bad = 0
    for s in samples:
        total = float(s.x[0]) + float(s.x[1])
        if total != theta and s.label != (2 if total < theta else 1):
            bad += 1
    return bad


def hyp_mismatches(samples) -> int:
    """Labels that fit neither plane allowed at their position."""
    ramp = max(int(HYP["ramp_frac"] * len(samples)), 1)
    bad = 0
    for i, s in enumerate(samples):
        side = []
        for w in (HYP["w_before"], HYP["w_after"]):
            margin = sum(a * float(b) for a, b in zip(w, s.x)) - HYP["w0"]
            side.append(None if abs(margin) < 1e-9 else (1 if margin > 0 else 2))
        if None in side:
            continue
        if i < HYP["drift_start"]:
            allowed = {side[0]}
        elif i >= HYP["drift_start"] + ramp:
            allowed = {side[1]}
        else:
            allowed = set(side)
        bad += s.label not in allowed
    return bad


def subset_stream(Sample, rng, n, change, before, after) -> list:
    x = rng.normal(size=(n, 12))
    out = []
    for i in range(n):
        subset = before if i < change else after
        out.append(Sample(x[i].copy(), 1 if x[i, list(subset)].sum() > 0 else 2))
    return out


def build(workload: str, seed: int, ef) -> list:
    """The workload's input streams; SEA and hyperplane through datagen."""
    p = WORKLOADS[workload]
    streams = []
    for j in range(p["streams"]):
        s = sub_seed(seed, j)
        if workload == "sea-axis":
            n = p["stamps"] * (p["train"] + p["test"])
            cfg = ef.SeaConfig(n_total=n, thresholds=(p["threshold"],), seed=s)
            streams.append(list(ef.gen_sea(cfg)))
        elif workload == "hyperplane-mv":
            n = p["stamps"] * (p["train"] + p["test"])
            cfg = ef.HyperplaneConfig(
                n_total=n, n_features=4, drift_start=p["drift_start"],
                ramp_frac=p["ramp_frac"], seed=s, w_before=p["w_before"],
                w_after=p["w_after"], w0=p["w0"],
            )
            streams.append(list(ef.gen_hyperplane(cfg)))
        else:
            import numpy as np

            streams.append(subset_stream(ef.Sample, np.random.default_rng(s), p["n"],
                                         p["change"], p["before"], p["after"]))
    return streams


# -- measurement ---------------------------------------------------------------


class ChunkRecorder:
    """Keeps every train_chunk report with its sample span and wall
    time; given the reference job (machine_speed.job), it also runs and
    times it right before each call."""

    def __init__(self, ef, position: dict, job=None):
        self.chunks: list = []  # (learner, first position, last position, report)
        self.seconds: list = []  # wall time of each call, in order
        self.ref_s: list = []  # wall time of the reference job before each call
        self._owner = ef.Ensemble
        self._inner = inner = ef.Ensemble.__dict__["train_chunk"]
        chunks, seconds, ref_s = self.chunks, self.seconds, self.ref_s

        def train_chunk(ens, chunk, selectors):
            if job:
                t0 = perf_counter()
                job()
                ref_s.append(perf_counter() - t0)
            t0 = perf_counter()
            report = inner(ens, chunk, selectors)
            seconds.append(perf_counter() - t0)
            chunks.append((ens, position[id(chunk.samples[0])],
                           position[id(chunk.samples[-1])], report))
            return report

        ef.Ensemble.train_chunk = train_chunk

    def uninstall(self) -> None:
        self._owner.train_chunk = self._inner


def test_positions(workload: str, n: int) -> list:
    if workload == "sensor-ofs-cv":
        return list(range(n))
    p = WORKLOADS[workload]
    block = p["train"] + p["test"]
    return [i for i in range(n) if i % block >= p["train"]]


def test_sizes(workload: str, n: int) -> list:
    p = WORKLOADS[workload]
    if workload == "sensor-ofs-cv":
        q, r = divmod(n, p["folds"])
        return [q + 1] * r + [q] * (p["folds"] - r)
    return [p["test"]] * p["stamps"]


def subset_held(chunks, subset, lo, hi) -> tuple:
    """Lower bound on the accepted samples in [lo, hi) whose mask held
    every feature of ``subset``, and the accepted count there."""
    accepted = held = 0
    for _, first, last, rep in chunks:
        if first >= lo and last < hi:
            accepted += rep.accepted
            missing = sum(rep.accepted - rep.mask_activations[j] for j in subset)
            held += max(rep.accepted - missing, 0)
    return held, accepted


def by_learner(chunks) -> dict:
    out: dict = {}
    for c in chunks:
        out.setdefault(id(c[0]), []).append(c)
    return out


def check_learners(chunks, failures: list) -> None:
    for learner_chunks in by_learner(chunks).values():
        ens = learner_chunks[0][0]
        for m in ens.members:
            try:
                m.model.check_invariants()
            except AssertionError:
                failures.append(f"member {m.uid} breaks check_invariants")
        total = sum(m.beta for m in ens.members)
        if abs(total - 1.0) > 1e-9:
            failures.append(f"member weights sum to {total!r}")


def check_drifts(chunks, change: int, failures: list) -> None:
    """Every learner signals drift in a chunk that starts after ``change``."""
    for learner_chunks in by_learner(chunks).values():
        if not any(rep.drifts and first >= change for _, first, _, rep in learner_chunks):
            failures.append(f"a learner signalled no drift after sample {change}")


def exact_budget(chunks, budget: int, n_features: int) -> bool:
    """Every chunk ends on exactly ``budget`` active features, and every
    accepted sample after each learner's first trained under exactly
    ``budget`` of them.  The first may train under any number from
    ``budget`` to ``n_features`` (PROBE checks that one)."""
    for learner_chunks in by_learner(chunks).values():
        seen_first = False
        for _, _, _, rep in learner_chunks:
            extra = sum(rep.mask_activations) - budget * rep.accepted
            if rep.accepted and not seen_first:
                seen_first = True
                ok = 0 <= extra <= n_features - budget
            else:
                ok = extra == 0
            if sum(rep.mask) != budget or not ok:
                return False
    return True


def run_probe(ef) -> dict:
    """The fixed-input regime-change probe; fails when the initial mask
    is wider than the budget, the mask misses the new subset or the rate
    does not beat the majority class."""
    import numpy as np

    p = PROBE
    block = p["train"] + p["test"]
    n = p["stamps"] * block
    samples = subset_stream(ef.Sample, np.random.default_rng(p["seed"]), n, p["change"],
                            p["before"], p["after"])
    rec = ChunkRecorder(ef, {id(s): i for i, s in enumerate(samples)})
    try:
        cfg = ef.StreamConfig(n_features=12, n_classes=2, chunk_size=p["chunk"], ofs_b=p["budget"])
        proto = ef.EvalProtocol("holdout", train_per_stamp=p["train"],
                                test_per_stamp=p["test"], stamps=p["stamps"])
        metrics, _ = ef.run_holdout(samples, cfg, proto)
    finally:
        rec.uninstall()
    first = rec.chunks[0][3]
    widest = sum(first.mask_activations) - p["budget"] * (first.accepted - 1)
    held, accepted = subset_held(rec.chunks, p["after"], p["change"] + 3 * block, n)
    frac = held / accepted if accepted else 0.0
    labels = [s.label for i, s in enumerate(samples) if i % block >= p["train"]]
    majority = max(Counter(labels).values()) / len(labels)
    rate = sum(round(r["cr"] * p["test"]) for r in metrics.series) / len(labels)
    return {
        "samples": n,
        "failed": widest != p["budget"] or frac < SUBSET_FLOOR or rate <= majority,
        "detail": f"first accepted sample trained under {widest} features (budget "
                  f"{p['budget']}); mask held the new subset {list(p['after'])} on >= "
                  f"{frac:.3f} of {accepted} accepted samples after the change "
                  f"(floor {SUBSET_FLOOR}); rate {rate:.3f}, majority {majority:.3f}",
    }


def run_stream(workload: str, samples, cfg_seed: int, ef, out: dict, job) -> None:
    """One learner through the harness on one stream, then its checks."""
    import evofuzzy.evaluate as evaluate

    p = WORKLOADS[workload]
    failures = out["failures"]
    rec = ChunkRecorder(ef, {id(s): i for i, s in enumerate(samples)}, job)
    t0 = perf_counter()
    try:
        if workload == "sensor-ofs-cv":
            cfg = ef.StreamConfig(n_features=12, n_classes=2, chunk_size=p["chunk"],
                                  seed=cfg_seed, ofs_b=p["budget"])
            metrics, _ = evaluate.run_cv(samples, cfg, folds=p["folds"])
        else:
            cfg = ef.StreamConfig(
                n_features=3 if workload == "sea-axis" else 4, n_classes=2,
                chunk_size=p["chunk"], seed=cfg_seed, delta_rel=p["delta_rel"],
                base_kind="axis_parallel" if workload == "sea-axis" else "multivariate",
            )
            proto = ef.EvalProtocol("holdout", train_per_stamp=p["train"],
                                    test_per_stamp=p["test"], stamps=p["stamps"])
            metrics, _ = evaluate.run_holdout(samples, cfg, proto)
    finally:
        harness_s = perf_counter() - t0
        rec.uninstall()

    n = len(samples)
    tests = test_positions(workload, n)
    correct = sum(round(r["cr"] * k) for r, k in zip(metrics.series, test_sizes(workload, n)))
    harness_s -= sum(rec.ref_s)
    out["harness_s"] += harness_s
    out["train_s"] += sum(rec.seconds)
    out["chunk_s"] += rec.seconds
    out["ref_s"] += rec.ref_s
    out["offered"] += metrics.offered
    out["n_test"] += len(tests)
    out["labels_used"] += metrics.ts
    out["test_correct"] += correct
    out["model_params"] += metrics.np / p["streams"]
    out["members_mean"] += metrics.bc / p["streams"]
    out["rules_mean"] += metrics.fr / p["streams"]
    out["drifts"] += sum(r["drifts"] for r in metrics.series)
    out["merges"] += sum(r["merges"] for r in metrics.series)

    check_learners(rec.chunks, failures)
    if workload == "sensor-ofs-cv":
        # the rate and the label-bearing channels are checked on PROBE:
        # with the label outside the channels the mask locks onto, the
        # rate sits at the majority share, above or below it by seed
        if not exact_budget(rec.chunks, p["budget"], 12):
            failures.append(f"a mask did not hold exactly {p['budget']} features")
        return
    majority = max(Counter(samples[i].label for i in tests).values()) / len(tests)
    rate = correct / len(tests)
    if rate <= majority:
        failures.append(f"rate {rate:.4f} does not beat the majority baseline {majority:.4f}")
    if rate < CR_FLOOR[workload]:
        failures.append(f"rate {rate:.4f} below the floor {CR_FLOOR[workload]}")
    if workload == "hyperplane-mv":
        check_drifts(rec.chunks, p["drift_start"], failures)


def run_pass(workload: str, seed: int, traced: bool, streams, ef) -> dict:
    """All streams once through the harness; the pass's figures and checks."""
    from layertrace import Tracer
    from machine_speed import job

    out = dict(failures=[], harness_s=0.0, train_s=0.0, chunk_s=[], ref_s=[], offered=0, n_test=0,
               labels_used=0, test_correct=0, model_params=0.0, members_mean=0.0,
               rules_mean=0.0, drifts=0, merges=0)
    tracer = Tracer()
    if traced:
        tracer.install()
        # a wrapped child, so no traced function counts its time as self
        job = tracer.wrap("reference job", job)
    try:
        for j, samples in enumerate(streams):
            run_stream(workload, samples, sub_seed(seed, j), ef, out, job)
    finally:
        tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "sea-axis" and out["labels_used"] > LABEL_CEILING * out["offered"]:
        share = out["labels_used"] / out["offered"]
        out["failures"].append(f"{share:.3f} of offered samples labelled (> {LABEL_CEILING})")
    out["samples"] = out["offered"] + out["n_test"]
    out["ref_ms"] = 1e3 * statistics.mean(out.pop("ref_s"))
    if traced:
        out["trace"] = tracer.table()
        out["missing"] = tracer.missing
    if workload == "sensor-ofs-cv":
        out["probe"] = run_probe(ef)
    return out


def passes(workload: str, seconds: float, traced: bool) -> int:
    """A fixed number of passes for a run of ``seconds``, the same on every
    commit; a traced round (an untraced pass and a traced one) counts
    twice."""
    per = PASS_S[workload] * (2 if traced else 1)
    return max(1 if traced else MIN_PASSES, int(seconds / per))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import evofuzzy as ef

    t1 = perf_counter()
    streams = build(args.workload, args.seed, ef)
    t2 = perf_counter()
    # a stream the benchmark builds itself is not datagen work
    out = {"import_s": t1 - t0, "gen_s": 0.0 if args.workload == "sensor-ofs-cv" else t2 - t1}
    from machine_speed import job

    t0 = perf_counter()
    for _ in range(SETUP_JOBS):
        job()
    out["ref_ms"] = 1e3 * (perf_counter() - t0) / SETUP_JOBS
    if args.mode != "setup":
        out["failures"] = []
        if args.workload != "sensor-ofs-cv":
            check = sea_mismatches if args.workload == "sea-axis" else hyp_mismatches
            bad = sum(check(s) for s in streams)
            if bad:
                out["failures"].append(f"{bad} labels disagree with the known concept")
        traced = args.mode == "trace"
        kinds = [False, True] if traced else [False]
        out["passes"] = [run_pass(args.workload, args.seed, kind, streams, ef)
                         for _ in range(passes(args.workload, args.seconds, traced))
                         for kind in kinds]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
