"""Span recorder for the traced benchmark run; the untraced run never imports it.

``Tracer.install`` wraps the public functions and methods of every offdiag
layer module, rebinds each wrapped function in every offdiag namespace that
imported it, and wraps ``numpy.linalg.eigh`` and ``numpy.linalg.svd`` as
``operators.eigh`` / ``operators.svd``.  Each wrapped call records a span
(name, start, end, parent, iteration) in memory; ``write`` saves them at
the end.  A span's self time is its duration minus its child spans.  Calls
between functions of the intervals layer record no span of their own: the
layer's time is the same, and it keeps the per-eigenvalue calls from
dominating the trace.

Counts (calls, items, work, flags, bytes) are kept at the same boundaries.
They depend only on the inputs, so they repeat exactly for the same seed.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("intervals", "operators", "analysis", "subspaces", "harness", "io", "cli")
THEOREMS = {
    "analysis": ("SHIFT_BOUNDS", "SHIFT_I", "SHIFT_II", "SHIFT_III"),
    "subspaces": ("MAIN", "CASE2", "SUBORDINATED", "TAN_THETA", "MCE"),
}
FLAT_LAYERS = ("intervals",)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("operators.eigh.calls", "calls/iter", "lower"),
    ("operators.eigh.ms", "ms/iter", "lower"),
    ("operators.eigh.work_n3", "n3/iter", "lower"),
    ("operators.svd.calls", "calls/iter", "lower"),
    ("operators.svd.ms", "ms/iter", "lower"),
    ("operators.svd.work_mnk", "mnk/iter", "lower"),
    ("operators.validate_hermitian.calls", "calls/iter", "lower"),
    ("operators.validate_hermitian.ms", "ms/iter", "lower"),
    ("operators.select_eigenvalues.calls", "calls/iter", "lower"),
    ("operators.select_eigenvalues.items", "items/iter", "lower"),
    ("operators.select_eigenvalues.ms", "ms/iter", "lower"),
    ("operators.select.flags_made", "flags/iter", "lower"),
    ("operators.select.flags_kept_ratio", "ratio", "higher"),
    ("operators.projection.calls", "calls/iter", "lower"),
    ("operators.projection.ms", "ms/iter", "lower"),
    ("operators.ms", "ms/iter", "lower"),
    ("intervals.locate.calls", "calls/iter", "lower"),
    ("intervals.ms", "ms/iter", "lower"),
    ("analysis.build.calls", "calls/iter", "lower"),
    ("analysis.build.ms", "ms/iter", "lower"),
    ("analysis.build.eq", "eigh-eq/call", "lower"),
    *[(f"analysis.theorem.{t}.ms", "ms/iter", "lower") for t in THEOREMS["analysis"]],
    ("analysis.qnr_sample.ms", "ms/iter", "lower"),
    ("analysis.qnr_sample.us_per_sample", "us/sample", "lower"),
    ("analysis.ms", "ms/iter", "lower"),
    *[(f"subspaces.theorem.{t}.ms", "ms/iter", "lower") for t in THEOREMS["subspaces"]],
    ("subspaces.projection_difference_norm.calls", "calls/iter", "lower"),
    ("subspaces.projection_difference_norm.ms", "ms/iter", "lower"),
    ("subspaces.graph_operator.ms", "ms/iter", "lower"),
    ("subspaces.ms", "ms/iter", "lower"),
    ("harness.random_problem.ms", "ms/iter", "lower"),
    ("harness.batch_verify.ms", "ms/iter", "lower"),
    ("harness.search.evaluations", "evals/iter", "lower"),
    ("harness.search.us_per_eval", "us/eval", "lower"),
    ("harness.search.self_ms", "ms/iter", "lower"),
    ("harness.ms", "ms/iter", "lower"),
    ("io.load_problem.ms", "ms/iter", "lower"),
    ("io.parse_matrix.ms", "ms/iter", "lower"),
    ("io.bytes_read", "bytes/iter", "lower"),
    ("io.analysis_payload.ms", "ms/iter", "lower"),
    ("io.write_qnr_csv.ms", "ms/iter", "lower"),
    ("io.bytes_written", "bytes/iter", "lower"),
    ("io.ms", "ms/iter", "lower"),
    ("cli.main.ms", "ms/iter", "lower"),
    ("cli.self_ms", "ms/iter", "lower"),
    ("bench.eigh_ref_us", "us", "lower"),
    ("bench.wall_s_p50", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.iterations: list[int] = []
        self.stack: list[int] = []
        self.iteration = 0
        self.counts: Counter = Counter()
        self._made_flags: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._made_flags.clear()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.iterations.append(self.iteration)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self
        calls = name + ".calls"
        flat = name.split(".", 1)[0] + "." if name.startswith(FLAT_LAYERS) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[calls] += 1
            if before is not None:
                before(*args, **kwargs)
            if flat and tracer.stack and tracer.names[tracer.stack[-1]].startswith(flat):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, result)
            return result

        return traced

    # -- hooks at layer boundaries ----------------------------------------

    def _count_eigh_work(self, a, *args, **kwargs):
        shape = np.shape(a)
        self.counts["operators.eigh.work_n3"] += math.prod(shape[:-2]) * shape[-1] ** 3

    def _count_svd_work(self, a, *args, **kwargs):
        *batch, m, n = np.shape(a)
        self.counts["operators.svd.work_mnk"] += math.prod(batch) * m * n * min(m, n)

    def _count_items(self, eigenvalues, *args, **kwargs):
        self.counts["operators.select_eigenvalues.items"] += len(eigenvalues)

    def _after_select(self, idx, result):
        flags = result[2]
        self.counts["operators.select.flags_made"] += len(flags)
        for f in flags:
            self._made_flags[id(f)] = f

    def _after_theorem(self, layer: str):
        def after(idx, report):
            theorem = getattr(report, "theorem", None)
            if theorem is None:
                return
            self.names[idx] = f"{layer}.theorem.{theorem}"
            for f in report.flags:
                if self._made_flags.get(id(f)) is f:
                    self.counts["operators.select.flags_kept"] += 1
                    del self._made_flags[id(f)]

        return after

    def _count_bytes_read(self, path, *args, **kwargs):
        self.counts["io.bytes_read"] += os.path.getsize(path)

    def _count_samples(self, b, projection, n, *args, **kwargs):
        self.counts["analysis.qnr_sample.samples"] += n

    def _after_search(self, idx, result):
        self.counts["harness.search.evaluations"] += result.evaluations

    def count_bytes_written(self, paths) -> None:
        self.counts["io.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def _hooks(self, layer: str, name: str):
        if name == "operators.select_eigenvalues":
            return self._count_items, self._after_select
        if name == "io.load_problem":
            return self._count_bytes_read, None
        if name == "analysis.qnr_sample":
            return self._count_samples, None
        if name == "harness.search_worst_case":
            return None, self._after_search
        if layer in THEOREMS:
            return None, self._after_theorem(layer)
        return None, None

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"offdiag.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(obj, name, *self._hooks(layer, name))
                    wrapped[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "offdiag" and not modname.startswith("offdiag."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        linalg = np.linalg
        self._patch(linalg, "eigh", self._wrap(linalg.eigh, "operators.eigh", self._count_eigh_work))
        self._patch(linalg, "svd", self._wrap(linalg.svd, "operators.svd", self._count_svd_work))

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,iteration\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.iterations):
                fh.write(",".join(map(str, row)) + "\n")

    def self_and_inclusive_ns(self) -> tuple[dict, dict]:
        children = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[idx] - self.starts[idx]
        own, inclusive = defaultdict(int), defaultdict(int)
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            inclusive[name] += duration
            own[name] += duration - children[idx]
        return own, inclusive

    def layer_metrics(self, iterations: int, eigh_ref_us: float) -> dict[str, float]:
        """Per-iteration per-layer metrics over ``iterations`` traced iterations."""
        own, inclusive = self.self_and_inclusive_ns()
        counts = self.counts

        def ms(name: str) -> float:
            return own[name] / 1e6 / iterations

        def per_iter(key: str) -> float:
            return counts[key] / iterations

        def layer_ms(layer: str) -> float:
            return sum(v for k, v in own.items() if k.startswith(layer + ".")) / 1e6 / iterations

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        build_calls = counts["analysis.PerturbationProblem.build.calls"]
        made = counts["operators.select.flags_made"]
        evals = counts["harness.search.evaluations"]
        out = {
            "operators.eigh.calls": per_iter("operators.eigh.calls"),
            "operators.eigh.ms": ms("operators.eigh"),
            "operators.eigh.work_n3": per_iter("operators.eigh.work_n3"),
            "operators.svd.calls": per_iter("operators.svd.calls"),
            "operators.svd.ms": ms("operators.svd"),
            "operators.svd.work_mnk": per_iter("operators.svd.work_mnk"),
            "operators.validate_hermitian.calls": per_iter("operators.validate_hermitian.calls"),
            "operators.validate_hermitian.ms": ms("operators.validate_hermitian"),
            "operators.select_eigenvalues.calls": per_iter("operators.select_eigenvalues.calls"),
            "operators.select_eigenvalues.items": per_iter("operators.select_eigenvalues.items"),
            "operators.select_eigenvalues.ms": ms("operators.select_eigenvalues"),
            "operators.select.flags_made": per_iter("operators.select.flags_made"),
            # with no flags made, none was wasted
            "operators.select.flags_kept_ratio": ratio(counts["operators.select.flags_kept"], made)
            if made else 1.0,
            "operators.projection.calls": per_iter("operators.projection_from_eigenvectors.calls"),
            "operators.projection.ms": ms("operators.projection_from_eigenvectors"),
            "operators.ms": layer_ms("operators"),
            "intervals.locate.calls": per_iter("intervals.SpectralSet.locate.calls"),
            "intervals.ms": layer_ms("intervals"),
            "analysis.build.calls": per_iter("analysis.PerturbationProblem.build.calls"),
            "analysis.build.ms": ms("analysis.PerturbationProblem.build"),
            "analysis.build.eq": ratio(
                inclusive["analysis.PerturbationProblem.build"] / 1e3, build_calls * eigh_ref_us
            ),
            "analysis.qnr_sample.ms": ms("analysis.qnr_sample"),
            "analysis.qnr_sample.us_per_sample": ratio(
                inclusive["analysis.qnr_sample"] / 1e3, counts["analysis.qnr_sample.samples"]
            ),
            "analysis.ms": layer_ms("analysis"),
            "subspaces.projection_difference_norm.calls": per_iter(
                "subspaces.projection_difference_norm.calls"
            ),
            "subspaces.projection_difference_norm.ms": ms("subspaces.projection_difference_norm"),
            "subspaces.graph_operator.ms": ms("subspaces.graph_operator"),
            "subspaces.ms": layer_ms("subspaces"),
            "harness.random_problem.ms": ms("harness.random_problem"),
            "harness.batch_verify.ms": ms("harness.batch_verify"),
            "harness.search.evaluations": per_iter("harness.search.evaluations"),
            "harness.search.us_per_eval": ratio(inclusive["harness.search_worst_case"] / 1e3, evals),
            "harness.search.self_ms": ms("harness.search_worst_case"),
            "harness.ms": layer_ms("harness"),
            "io.load_problem.ms": ms("io.load_problem"),
            "io.parse_matrix.ms": ms("io.parse_matrix"),
            "io.bytes_read": per_iter("io.bytes_read"),
            "io.analysis_payload.ms": ms("io.analysis_payload"),
            "io.write_qnr_csv.ms": ms("io.write_qnr_csv"),
            "io.bytes_written": per_iter("io.bytes_written"),
            "io.ms": layer_ms("io"),
            "cli.main.ms": inclusive["cli.main"] / 1e6 / iterations,
            "cli.self_ms": layer_ms("cli"),
        }
        for layer, theorems in THEOREMS.items():
            for t in theorems:
                out[f"{layer}.theorem.{t}.ms"] = ms(f"{layer}.theorem.{t}")
        return out
