"""Spans around the public functions of each ``meanherd`` layer, from outside.

``Tracer.install()`` wraps every function in ``TRACED`` at every binding in
the loaded ``meanherd`` modules: ``cross_gram`` is also bound by name in
``classifier``, ``embedding`` and ``herding``, and the herding entry points
in ``cli`` and ``lab``, so wrapping only the defining module would miss
those calls.  ``uninstall()`` puts the originals back.

A span is (name, start, end, parent index).  Self time is a span's duration
minus its direct children's, so the self times of one command add up to the
duration of its root ``cli.main`` span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name.  ``classifier.scores`` is the
# ``MeanClassifier.scores`` method, which ``score`` calls once per row.
TRACED = {
    ("meanherd.data", "load_csv"): "data.load_csv",
    ("meanherd.data", "load_sparse"): "data.load_sparse",
    ("meanherd.data", "flip_symmetric"): "data.flip_symmetric",
    ("meanherd.data", "flip_class_conditional"): "data.flip_class_conditional",
    ("meanherd.data", "contaminate"): "data.contaminate",
    ("meanherd.kernels", "cross_gram"): "kernels.cross_gram",
    ("meanherd.embedding", "squared_norm"): "embedding.squared_norm",
    ("meanherd.classifier", "fit"): "classifier.fit",
    ("meanherd.classifier", "mean_norm"): "classifier.mean_norm",
    ("meanherd.classifier", "MeanClassifier.scores"): "classifier.scores",
    ("meanherd.classifier", "margin_for_error"): "classifier.margin_for_error",
    ("meanherd.classifier", "mmd"): "classifier.mmd",
    ("meanherd.losses", "empirical_risk"): "losses.empirical_risk",
    ("meanherd.losses", "risk"): "losses.risk",
    ("meanherd.herding", "herd"): "herding.herd",
    ("meanherd.herding", "approximation_error"): "herding.approximation_error",
    ("meanherd.herding", "parallel_herd"): "herding.parallel_herd",
    ("meanherd.herding", "recursive_herd"): "herding.recursive_herd",
    ("meanherd.lab", "check_surrogate_regret"): "lab.check_surrogate_regret",
    ("meanherd.lab", "check_sln_immunity"): "lab.check_sln_immunity",
    ("meanherd.lab", "check_contamination"): "lab.check_contamination",
    ("meanherd.lab", "check_ber_immunity"): "lab.check_ber_immunity",
    ("meanherd.lab", "check_ghosh_bound"): "lab.check_ghosh_bound",
    ("meanherd.lab", "run_long_servedio"): "lab.run_long_servedio",
    ("meanherd.lab", "run_compression_experiment"): "lab.run_compression_experiment",
    ("meanherd.lab", "order_reversal_witness"): "lab.order_reversal_witness",
    ("meanherd.cli", "main"): "cli.main",
}

# Layer metrics: self time for every span name, call counts for these.
COUNTED = ("data.load_csv", "kernels.cross_gram", "embedding.squared_norm",
           "classifier.scores", "herding.herd", "herding.approximation_error")


def _rows(a) -> int:
    shape = np.shape(a)
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.kernel_entries = 0
        self.largest_block = 0        # kernel entries in the largest cross_gram result
        self.iterations = 0           # Frank-Wolfe iterations over all herd calls

    def _on_call(self, name, args, kwargs):
        if name == "kernels.cross_gram":
            params = dict(zip(("spec", "X", "Z"), args), **kwargs)
            entries = _rows(params["X"]) * _rows(params["Z"])
            self.kernel_entries += entries
            self.largest_block = max(self.largest_block, entries)

    def _on_return(self, name, result):
        if name == "herding.herd":
            self.iterations += len(result.trace) - 1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            self._on_call(name, args, kwargs)
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = time.perf_counter()
                spans[i][1] = t0
                stack.pop()
            self._on_return(name, result)
            return result

        return traced

    def install(self) -> None:
        for (module, attr), name in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:
                cls, method = attr.split(".")
                owner = getattr(owner, cls)
                attr = method
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            targets = [owner] + [m for key, m in list(sys.modules.items())
                                 if key.startswith("meanherd") and m is not owner]
            for target in targets:
                for binding, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, binding, original))
                        setattr(target, binding, wrapper)

    def uninstall(self) -> None:
        for target, binding, original in reversed(self._patches):
            setattr(target, binding, original)
        self._patches.clear()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]."""
        spans = self.spans
        child = defaultdict(float)
        for name, t0, t1, parent in spans[first:]:
            if parent >= first:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i in range(first, len(spans)):
            name, t0, t1, _ = spans[i]
            out[name] += (t1 - t0) - child[i]
        return out

    def calls(self, first: int = 0) -> dict[str, int]:
        out = defaultdict(int)
        for span in self.spans[first:]:
            out[span[0]] += 1
        return out
