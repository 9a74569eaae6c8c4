"""Outside-in tracing of the learner's public functions.

The wrappers are installed in the workload process itself, by attribute
replacement on the classes and modules of ``evofuzzy``; nothing inside
the package changes.  Each wrapper keeps, in memory, the number of calls,
the total wall time and the time spent in wrapped calls nested inside it,
so a function's self time is its total minus its wrapped children.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

# (metric prefix, module the callers look the name up in, class or None,
# attribute).  conflict_input/conflict_output are patched where the
# ensemble looks them up, because ensemble.py imports them by name.
TARGETS = [
    ("core.RunningStandardizer.fit_transform", "core", "RunningStandardizer", "fit_transform"),
    ("core.RunningStandardizer.transform", "core", "RunningStandardizer", "transform"),
    ("rules.RuleClassifier.mahalanobis_sq", "rules", "RuleClassifier", "mahalanobis_sq"),
    ("rules.RuleClassifier.infer", "rules", "RuleClassifier", "infer"),
    ("rules.RuleClassifier.train_sample", "rules", "RuleClassifier", "train_sample"),
    ("rules.RuleClassifier.grow_check", "rules", "RuleClassifier", "grow_check"),
    ("rules.RuleClassifier.update_winner", "rules", "RuleClassifier", "update_winner"),
    ("rules.RuleClassifier.prune_check", "rules", "RuleClassifier", "prune_check"),
    ("rules.RuleClassifier.recall_check", "rules", "RuleClassifier", "recall_check"),
    ("rules.RuleClassifier.add_rule", "rules", "RuleClassifier", "add_rule"),
    ("rules.weighted_rls_update", "rules", None, "weighted_rls_update"),
    ("selection.conflict_input", "ensemble", None, "conflict_input"),
    ("selection.conflict_output", "ensemble", None, "conflict_output"),
    ("selection.ActiveLearnState.decide", "selection", "ActiveLearnState", "decide"),
    ("selection.VirtualConsequentModel.sgd_step", "selection", "VirtualConsequentModel", "sgd_step"),
    ("selection.Selectors.refresh_mask", "selection", "Selectors", "refresh_mask"),
    ("ensemble.Ensemble.train_chunk", "ensemble", "Ensemble", "train_chunk"),
    ("ensemble.Ensemble.predict", "ensemble", "Ensemble", "predict"),
    ("ensemble.Ensemble.score_sample", "ensemble", "Ensemble", "score_sample"),
    ("ensemble.Ensemble.merge_check", "ensemble", "Ensemble", "merge_check"),
    ("ensemble.Ensemble.snapshot_hash", "ensemble", "Ensemble", "snapshot_hash"),
    ("ensemble.DriftDetector.step", "ensemble", "DriftDetector", "step"),
    ("ensemble.MciState.update", "ensemble", "MciState", "update"),
    ("evaluate.run_holdout", "evaluate", None, "run_holdout"),
    ("evaluate.run_cv", "evaluate", None, "run_cv"),
]


class Tracer:
    """Installs counting/timing wrappers and restores the originals."""

    def __init__(self):
        self.stats: dict = {}  # name -> [calls, total_ns, nested_ns]
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                nested = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += nested
                if stack:
                    stack[-1] += dt

        return traced

    def install(self) -> None:
        """Wrap every target; a name that no longer exists is listed in
        ``missing`` and skipped."""
        for name, module, cls, attr in TARGETS:
            owner = importlib.import_module(f"evofuzzy.{module}")
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = owner.__dict__.get(attr) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def table(self) -> dict:
        """name -> {calls, total_ms, self_ms} for every target, zero for
        the ones that did not run or are missing."""
        out = {}
        for name, *_ in TARGETS:
            calls, total, nested = self.stats.get(name, (0, 0, 0))
            out[name] = {
                "calls": calls,
                "total_ms": total / 1e6,
                "self_ms": (total - nested) / 1e6,
            }
        return out
