"""Spans recorded from outside the package, around calls into each layer.

Nothing under ``src/`` is instrumented. The traced pass swaps a handful
of public names for timing wrappers and puts the originals back when it
ends:

* ``voxstokes.schur.pcg`` (the schur module imports ``pcg`` under that
  name); its op, prec and step-hook callbacks are spanned as well, so the
  self time of a pcg span is the CG vector work alone;
* ``StaggeredSystem.apply_laplacian / apply_divergence / apply_gradient``
  and the two ``matrix_*`` exports;
* the names ``voxstokes.cli`` imports (``generate_packing``, ``stats``,
  ``assemble``, ``solve_schur``), which is how spans get inside
  ``run_sweep``;
* the dense builders ``voxstokes.spectra`` calls from ``analyze_spectrum``.

Calls the benchmark makes itself (``solve_schur``, ``run_sweep``,
``analyze_spectrum``) are spanned at the call site with ``Tracer.span``.
Spans stay in memory until the run ends; a span's self time is its
duration minus the durations of its direct children, which cover disjoint
parts of it because everything runs in one thread.
"""
from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

# name in the package -> span name
APPLY_SPANS = {
    "apply_laplacian": "operators.apply_A",
    "apply_divergence": "operators.apply_B",
    "apply_gradient": "operators.apply_Bt",
    "matrix_laplacian": "operators.matrix_A",
    "matrix_divergence": "operators.matrix_B",
}
CLI_SPANS = {
    "generate_packing": "geometry.generate",
    "stats": "geometry.stats",
    "assemble": "operators.assemble",
    "solve_schur": "schur.solve_schur",
}
SPECTRA_SPANS = {
    "dense_schur": "spectra.dense_schur",
    "dense_simple": "spectra.dense_simple",
    "eig_sym": "spectra.eig_sym",
    "assemble": "operators.assemble",
}


@contextlib.contextmanager
def patched(obj, attr, value):
    """Set ``obj.attr`` to ``value`` for the duration of the block."""
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


class Tracer:
    """In-memory spans: ``[name, parent, root, start, end]`` per call.

    ``root`` is the index of the outermost open span when the span
    started, so every span of one benchmark operation shares it.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else index
        self.spans.append([name, parent, root, perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index) -> None:
        self.spans[index][4] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_pcg(self, pcg):
        @functools.wraps(pcg)
        def traced(op, prec, rhs, x0=None, cfg=None, step_hook=None):
            op = self.wrap("krylov.op", op)
            if prec is not None:
                prec = self.wrap("krylov.prec", prec)
            if step_hook is not None:
                step_hook = self.wrap("krylov.step_hook", step_hook)
            index = self.open("krylov.pcg")
            try:
                result = pcg(op, prec, rhs, x0, cfg, step_hook)
            finally:
                self.close(index)
            self.counters["krylov.pcg.iters"] += result.iterations
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced names in for the duration of the block."""
        from voxstokes import cli, schur, spectra
        from voxstokes.operators import StaggeredSystem

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(schur, "pcg", self._wrap_pcg(schur.pcg)))
            for attr, name in APPLY_SPANS.items():
                method = getattr(StaggeredSystem, attr)
                stack.enter_context(
                    patched(StaggeredSystem, attr, self.wrap(name, method))
                )
            for module, table in ((cli, CLI_SPANS), (spectra, SPECTRA_SPANS)):
                for attr, name in table.items():
                    fn = getattr(module, attr)
                    stack.enter_context(patched(module, attr, self.wrap(name, fn)))
            yield self

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, median duration."""
        covered = [0.0] * len(self.spans)
        for name, parent, _root, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        durations = defaultdict(list)
        self_s = defaultdict(float)
        for i, (name, _parent, _root, start, end) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - covered[i]
        return {
            name: {
                "calls": len(values),
                "total_s": float(sum(values)),
                "self_s": self_s[name],
                "median_ms": float(np.median(values)) * 1e3,
            }
            for name, values in sorted(durations.items())
        }
