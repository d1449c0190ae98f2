"""Spans around the calls into each ``qwalk`` module, recorded from outside.

The tracer replaces module attributes that callers look up at call time
(``qwalk.cli.evolve``, ``qwalk.isomorphism.build_two_walker_matrix``, ...)
with wrappers that record a span per call: name, start, end, parent span
and thread.  Nothing inside ``src/`` is changed.  Spans stay in memory and
are written out once, after ``main`` returns.

A tracer runs in one of two modes.  A timing tracer records spans only.
A memory tracer also runs ``tracemalloc`` for the whole call; the spans
marked ``peak`` reset its peak on entry and record it on exit.  Its span
times are inflated by ``tracemalloc`` and are not used.

``layer_metrics`` turns a span file into the per-layer figures.  A layer
that does no work on a workload reports 0 for its figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import threading
import time
import tracemalloc

MB = 1024.0 * 1024.0

LAYERS = ("evolution", "analysis", "isomorphism", "coins", "statespace", "cli")

# (module, attribute, span name, peak).  Each attribute is looked up in
# that module by its callers at call time, so replacing it there puts the
# wrapper on the call path.  ``Class.method`` names an attribute of a
# class in the module.
WRAPPED = (
    ("qwalk.cli", "evolve", "evolution.evolve", True),
    ("qwalk.cli", "summarize", "analysis.summarize", False),
    ("qwalk.cli", "distribution", "analysis.distribution", False),
    ("qwalk.cli", "write_distribution_csv", "cli.csv_write", False),
    ("qwalk.cli", "_sweep_point", "cli.sweep_point", False),
    ("qwalk.cli", "hadamard", "coins.hadamard", False),
    ("qwalk.cli", "tensor", "coins.tensor", False),
    ("qwalk.cli", "fractional_swap", "coins.fractional_swap", False),
    ("qwalk.cli", "random_shared_coin", "coins.random_shared_coin", False),
    ("qwalk.cli", "verify_isomorphism", "isomorphism.verify", True),
    ("qwalk.cli", "check_translation_equivalence", "isomorphism.translation", True),
    ("qwalk.cli", "check_decomposition_claims", "isomorphism.claims", False),
    ("qwalk.evolution", "localized_state", "statespace.initial_state", False),
    ("qwalk.evolution", "as_coin_state", "statespace.as_coin_state", False),
    ("qwalk.evolution", "as_coin_field", "coins.as_coin_field", False),
    ("qwalk.isomorphism", "build_two_walker_matrix", "isomorphism.two_walker_matrix", False),
    ("qwalk.isomorphism", "transformed_step_matrix", "isomorphism.transformed_matrix", False),
    ("qwalk.isomorphism", "BasisPermutation.build", "isomorphism.permutation", False),
    ("qwalk.isomorphism", "BasisPermutation.conjugate", "isomorphism.conjugate", False),
    ("qwalk.isomorphism", "build_step_matrix", "evolution.build_step_matrix", False),
    ("qwalk.isomorphism", "random_su2", "coins.random_su2", False),
    ("qwalk.isomorphism", "tensor", "coins.tensor", False),
    ("qwalk.isomorphism", "fractional_swap", "coins.fractional_swap", False),
    ("qwalk.isomorphism", "su4_compose", "coins.su4_compose", False),
    ("qwalk.isomorphism", "as_coin_field", "coins.as_coin_field", False),
)

# Spans whose returned array is an operator counted in isomorphism.matrix_mb.
_OPERATORS = (
    "isomorphism.two_walker_matrix",
    "isomorphism.transformed_matrix",
    "isomorphism.conjugate",
)


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, thread, extra]``
    with times from ``time.perf_counter`` and ``parent`` an index into
    ``spans`` (None for the root)."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, peak: bool) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, threading.get_ident(), None])
        stack.append(idx)
        if peak and self.memory:
            tracemalloc.reset_peak()
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int, peak: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack().pop()
        if peak and self.memory:
            span[5] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}

    def _extra(self, idx: int, **values) -> None:
        span = self.spans[idx]
        span[5] = {**(span[5] or {}), **values}

    def _wrap_function(self, name: str, fn, peak: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, peak)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, peak)
            if name in _OPERATORS:
                tracer._extra(idx, nbytes=int(result.nbytes))
            elif name == "cli.csv_write":
                tracer._extra(idx, bytes=os.path.getsize(args[0]))
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn, peak: bool):
        """One span per ``next``: the time the generator body runs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name, peak)
                try:
                    report = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx, peak)
                amps = report.state.amplitudes
                tracer._extra(
                    idx,
                    step=report.step,
                    dim=report.state.dimensionality,
                    nbytes=int(amps.nbytes),
                    sites=math.prod(amps.shape[:-1]),
                )
                yield report

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, peak in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap_function(name, original.__func__, peak))
            elif name == "evolution.evolve":
                wrapped = self._wrap_generator(name, original, peak)
            else:
                wrapped = self._wrap_function(name, original, peak)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_main(self, argv: list[str]) -> int:
        """``qwalk.cli.main(argv)`` as the root span ``cli.main``."""
        import qwalk.cli

        if self.memory:
            tracemalloc.start()
        self._root = self._open("cli.main", False)
        try:
            return qwalk.cli.main(argv)
        finally:
            self._close(self._root, False)
            self._root = None
            tracemalloc.stop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[list], memory_spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one ``main`` call under the timing tracer and
    one under the memory tracer."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _thread, _extra in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    self_s = dict.fromkeys(LAYERS, 0.0)
    for idx, (name, start, end, _p, _t, _e) in enumerate(spans):
        own = end - start - _union_length(children.get(idx, []))
        self_s[name.split(".")[0]] += max(own, 0.0)

    def named(name: str) -> list[list]:
        return [s for s in spans if s[0] == name]

    def total(name: str) -> float:
        return sum((s[2] - s[1] for s in named(name)), 0.0)

    def peak_mb(*names: str) -> float:
        peaks = [s[5]["peak_bytes"] for s in memory_spans if s[0] in names and s[5]]
        return max(peaks, default=0) / MB

    root = next(s for s in spans if s[0] == "cli.main")
    covered = _union_length([(s[1], s[2]) for s in spans if s[3] is not None])

    steps = [s for s in named("evolution.evolve") if s[5] and "step" in s[5]]
    evolve_s = total("evolution.evolve")
    site_steps = sum((s[5]["step"] + 1) ** s[5]["dim"] for s in steps)
    last = max(steps, key=lambda s: s[5]["step"], default=None)
    csv_s = total("cli.csv_write")
    csv_mb = sum(s[5]["bytes"] for s in named("cli.csv_write")) / MB
    sweep_points = [s[2] - s[1] for s in named("cli.sweep_point")]

    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update(
        {
            "evolution.evolve_s": evolve_s,
            "evolution.step_ms_p50": (
                statistics.median(s[2] - s[1] for s in steps) * 1e3 if steps else 0.0
            ),
            "evolution.site_steps_per_s": site_steps / evolve_s if evolve_s else 0.0,
            "evolution.lattice_use": (
                (last[5]["step"] + 1) ** last[5]["dim"] / last[5]["sites"] if last else 0.0
            ),
            "evolution.alloc_mb": sum(s[5]["nbytes"] for s in steps) / MB,
            "evolution.tracemalloc_peak_mb": peak_mb("evolution.evolve"),
            "statespace.initial_state_s": total("statespace.initial_state"),
            "analysis.summarize_s": total("analysis.summarize"),
            "analysis.distribution_s": total("analysis.distribution"),
            "cli.csv_write_s": csv_s,
            "cli.csv_write_mb_per_s": csv_mb / csv_s if csv_s else 0.0,
            "cli.sweep_point_s_p50": (
                statistics.median(sweep_points) if sweep_points else 0.0
            ),
            "coins.random_shared_coin_s": total("coins.random_shared_coin"),
            "isomorphism.verify_s": total("isomorphism.verify"),
            "isomorphism.two_walker_matrix_s": total("isomorphism.two_walker_matrix"),
            "isomorphism.transformed_matrix_s": total("isomorphism.transformed_matrix"),
            "isomorphism.permutation_s": total("isomorphism.permutation"),
            "isomorphism.permutation_builds": float(len(named("isomorphism.permutation"))),
            "isomorphism.conjugate_s": total("isomorphism.conjugate"),
            "isomorphism.claims_s": total("isomorphism.claims"),
            "isomorphism.matrix_mb": sum(
                s[5]["nbytes"] for name in _OPERATORS for s in named(name)
            )
            / MB,
            "isomorphism.tracemalloc_peak_mb": peak_mb(
                "isomorphism.verify", "isomorphism.translation"
            ),
            "trace.main_s": root[2] - root[1],
            "trace.coverage": covered / (root[2] - root[1]),
        }
    )
    return metrics
