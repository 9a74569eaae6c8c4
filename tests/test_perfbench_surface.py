"""What the benchmark under perfbench/ reads of the package.

perfbench/worker.py reads every train_chunk report (accepted, drifts,
mask and mask_activations) and the learner's members, and
perfbench/layertrace.py wraps the learner's functions by name.  These
tests run both modules as they stand, so a report field or a function
that the benchmark needs fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import evofuzzy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# a layertrace target that names a class the package no longer has
STALE_TARGETS = ["selection.VirtualConsequentModel.sgd_step"]


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """(worker, layertrace), with sys.path as it was before worker.py
    prepended its own entries."""
    path = list(sys.path)
    try:
        return load("worker"), load("layertrace")
    finally:
        sys.path[:] = path


def test_probe_runs(perfbench):
    worker, _ = perfbench
    probe = worker.run_probe(evofuzzy)
    p = worker.PROBE
    assert probe["samples"] == p["stamps"] * (p["train"] + p["test"])
    assert isinstance(probe["failed"], bool)
    assert probe["detail"].startswith("first accepted sample trained under")


def test_checks_read_the_recorded_chunks(perfbench):
    """A short hold-out run under feature selection, its label subset
    moving at sample 400, recorded as the worker records a workload."""
    worker, _ = perfbench
    change, budget = 400, 3
    samples = worker.subset_stream(evofuzzy.Sample, np.random.default_rng(1), 1200, change,
                                   (0, 1, 2), (6, 7, 8))
    rec = worker.ChunkRecorder(evofuzzy, {id(s): i for i, s in enumerate(samples)})
    try:
        cfg = evofuzzy.StreamConfig(n_features=12, n_classes=2, chunk_size=100, ofs_b=budget)
        evofuzzy.run_holdout(samples, cfg, evofuzzy.EvalProtocol("holdout", 100, 50, 8))
    finally:
        rec.uninstall()
    assert evofuzzy.Ensemble.train_chunk is rec._inner
    assert len(rec.chunks) == 8 and len(rec.seconds) == 8
    assert worker.exact_budget(rec.chunks, budget, 12)
    failures = []
    worker.check_learners(rec.chunks, failures)
    worker.check_drifts(rec.chunks, change, failures)
    assert failures == []


def test_layertrace_finds_its_targets(perfbench):
    _, layertrace = perfbench
    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == STALE_TARGETS
    assert set(tracer.table()) == {name for name, *_ in layertrace.TARGETS}
