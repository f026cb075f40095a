"""Span and counter recorder for the traced benchmark pass.

``Tracer.installed()`` replaces each layer's public functions, in every
``hartogs`` module namespace that binds them (``coeff_function`` is imported
by name into ``cli``, ``kernel``, ``shiftops`` and ``subnormality``), with a
wrapper that records one span per call: layer, function, parent span, start
and end.  Spans stay in memory; ``metrics()`` turns them into per-layer self
times, a few inclusive stage times and work counters.

A layer is a module of the package.  A span's self time is its duration
minus the time its child spans cover, where a child's cover includes the
wrapper's own bookkeeping, so the tracer's cost falls outside every layer
and shows only in the traced pass's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
from collections import defaultdict

LAYERS = ("cli", "polytuple", "coeff", "geometry", "kernel", "shiftops", "subnormality", "hereditary")

# Per-element helpers that run inside the innermost loops: index arithmetic,
# box enumeration, scalar evaluation and number formatting.  Wrapping them
# would mostly time the wrapper, so their cost stays in the caller's self time.
UNTRACED = {
    "polytuple": {"unit_index", "tail_index", "add_index", "sub_index", "index_leq",
                  "is_nonnegative", "total_degree", "box", "box_size", "poly_eval",
                  "poly_eval_exact", "is_pure_term", "univariate_eval", "normalize_terms",
                  "parse_rational", "format_rational"},
    "subnormality": {"embedded_shift"},
}

RECURSION = {"univariate_coeffs", "reciprocal_power_coeffs"}
QUADRATURE = {"beta_integral_check", "hardy_norm_check", "bergman_norm_check", "disc_integral"}


def _public_functions(module):
    layer = module.__name__.rsplit(".", 1)[1]
    for name, fn in vars(module).items():
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
                and name not in UNTRACED.get(layer, ())):
            yield layer, name, fn


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [layer, name, parent, start, end, covered]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._admissible = importlib.import_module("hartogs.polytuple").admissibility_degree

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        hook = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            span = [layer, name, parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                span[3] = start
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            if parent >= 0:
                spans[parent][5] += clock() - entered
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore them on exit."""
        modules = [importlib.import_module(f"hartogs.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for layer, name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        patched = []
        for module in [importlib.import_module("hartogs"), *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # --- counters, computed after a span closes --------------------------------

    def _parent(self, span):
        return self.spans[span[2]] if span[2] >= 0 else None

    def _table_stats(self, span, values) -> None:
        parent = self._parent(span)
        if parent is not None and parent[0] == "coeff":
            return
        self.counters["coeff.cells"] += len(values)
        nonzero = [v for v in values if v]
        if nonzero:
            num = max(abs(v.numerator).bit_length() for v in nonzero)
            den = max(v.denominator.bit_length() for v in nonzero)
            self.counters["coeff.max_num_bits"] = max(self.counters["coeff.max_num_bits"], num)
            self.counters["coeff.max_den_bits"] = max(self.counters["coeff.max_den_bits"], den)

    def _after_coeff_function(self, span, args, kwargs, result) -> None:
        method = kwargs.get("method", args[3] if len(args) > 3 else "auto")
        if method == "auto":
            method = "product" if self._admissible(args[0]).admissible else "convolution"
        route = "coeff.product_s" if method == "product" else "coeff.general_s"
        self.counters[route] += span[4] - span[3]
        self._table_stats(span, result.values)

    def _after_recursion(self, span, args, kwargs, result) -> None:
        parent = self._parent(span)
        if parent is None or parent[1] not in RECURSION:
            self.counters["coeff.recursion_s"] += span[4] - span[3]
            self._table_stats(span, result if isinstance(result, list) else result.values)

    _after_univariate_coeffs = _after_recursion
    _after_reciprocal_power_coeffs = _after_recursion

    def _after_kernel_series_eval(self, span, args, kwargs, result) -> None:
        ctx, cutoff = args[0], args[3]
        self.counters["kernel.series_terms"] += math.comb(cutoff + ctx.P.n, ctx.P.n)

    def _after_quadrature(self, span, args, kwargs, result) -> None:
        parent = self._parent(span)
        if parent is None or parent[1] not in QUADRATURE:
            self.counters["kernel.quadrature_s"] += span[4] - span[3]

    _after_beta_integral_check = _after_quadrature
    _after_hardy_norm_check = _after_quadrature
    _after_bergman_norm_check = _after_quadrature
    _after_disc_integral = _after_quadrature

    def _after_moment_sequence(self, span, args, kwargs, result) -> None:
        self.counters["subnormality.sequence_s"] += span[4] - span[3]
        self.counters["subnormality.gammas"] += 1

    def _after_complete_monotonicity_check(self, span, args, kwargs, result) -> None:
        self.counters["subnormality.check_s"] += span[4] - span[3]
        self.counters["subnormality.pairs_checked"] += result.checked

    def _after_weight_table(self, span, args, kwargs, result) -> None:
        window = next(a for a in args if hasattr(a, "cells"))
        self.counters["shiftops.weights"] += window.size * args[0].n
        if hasattr(result, "cells_checked"):
            self.counters["shiftops.cells_checked"] += result.cells_checked

    _after_op_weights = _after_weight_table
    _after_hyponormality_diagonal = _after_weight_table
    _after_factorization_and_commutation_probe = _after_weight_table
    _after_circularity_check = _after_weight_table
    _after_polydisc_intertwining_check = _after_weight_table

    # --- summary -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and calls plus the counters, over the spans recorded."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        hereditary_calls = 0
        for layer, _name, parent, start, end, covered in self.spans:
            out[f"{layer}.self_s"] += end - start - covered
            if layer == "hereditary" and (parent < 0 or self.spans[parent][0] != layer):
                hereditary_calls += 1
        for key in ("coeff.general_s", "coeff.product_s", "coeff.recursion_s", "coeff.cells",
                    "coeff.max_num_bits", "coeff.max_den_bits", "kernel.series_terms",
                    "kernel.quadrature_s", "subnormality.sequence_s", "subnormality.check_s",
                    "subnormality.pairs_checked", "subnormality.gammas", "shiftops.cells_checked",
                    "shiftops.weights"):
            out[key] = self.counters.get(key, 0)
        out["hereditary.calls"] = hereditary_calls
        out["trace.spans"] = len(self.spans)
        return out
