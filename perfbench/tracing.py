"""Span tracing of charfactor's layers from outside the package.

A :class:`Tracer` replaces each public function at the place its caller looks
it up (a module attribute or a ``ShiftedSeries`` method) with a wrapper that
records one span per call: its name, start, end, parent span and the
instance it belongs to.  Spans are kept in flat in-memory arrays and
aggregated (or written out) only after the run.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from charfactor import _kernels, minimal_model, products, scanner, series, verifier

import workloads

ShiftedSeries = series.ShiftedSeries


def _binomial_fell_back(args, result) -> bool:
    return not result[1]


def _invert_fell_back(args, result) -> bool:
    return result[1] < args[1]


#: (owner, attribute, span name, fallback test); the owner is where the
#: caller looks the function up, so every call path gets its span
PATCHES = [
    (verifier, "verify", "verifier.verify", None),
    (scanner, "scan", "scanner.scan", None),
    (workloads, "emit", "cli.emit", None),
    (verifier, "contributing_pairs", "pairs.contributing_pairs", None),
    (verifier, "normalized_character", "minimal_model.normalized_character", None),
    (verifier, "build_lhs", "verifier.build_lhs", None),
    (verifier, "build_rhs", "verifier.build_rhs", None),
    (verifier, "integer_coefficients", "verifier.integer_coefficients", None),
    (verifier, "first_mismatch_degree", "verifier.first_mismatch_degree", None),
    (products, "triple_side", "products.triple_side", None),
    (products, "quintuple_side", "products.quintuple_side", None),
    (scanner, "triple_side", "products.triple_side", None),
    (scanner, "quintuple_side", "products.quintuple_side", None),
    (products, "pochhammer", "series.pochhammer", None),
    (series, "pochhammer", "series.pochhammer", None),
    (series, "bilateral_sum", "series.bilateral_sum", None),
    (minimal_model, "bilateral_sum", "series.bilateral_sum", None),
    (ShiftedSeries, "__mul__", "series.mul", None),
    (ShiftedSeries, "__rmul__", "series.mul", None),
    (ShiftedSeries, "__add__", "series.add", None),
    (ShiftedSeries, "__radd__", "series.add", None),
    (ShiftedSeries, "as_integer_series", "series.as_integer_series", None),
    (ShiftedSeries, "invert", "series.invert", None),
    (_kernels, "convolve", "kernels.convolve", None),
    (_kernels, "invert_unit", "kernels.invert_unit", _invert_fell_back),
    (_kernels, "binomial_product", "kernels.binomial_product", _binomial_fell_back),
]

INSTANCE = "bench.instance"


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fallbacks: Counter[str] = Counter()
        self._stack: list[int] = []
        self._instance = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self._instance)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, fell_back):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if fell_back is not None and fell_back(args, result):
                self.fallbacks[name] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper in :data:`PATCHES`; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, fell_back in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, fell_back))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def instance_span(self, instance_id: int):
        """Root span of one certificate or report; its descendants share the id."""
        self._instance = instance_id
        idx = self._open(self._name_id(INSTANCE))
        try:
            yield
        finally:
            self._close(idx)
            self._instance = -1

    def totals(self) -> tuple[dict[str, float], Counter[str]]:
        """Summed self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_time = dict.fromkeys(self.names, 0.0)
        calls: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            self_time[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_time, calls

    def write(self, path) -> None:
        """Write every span as columns of one JSON object."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "instance": self.instance.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)


def layer_metrics(tracer: Tracer, rounds: int, instances: int, counters: dict) -> dict[str, float]:
    """Per-layer metrics per traced round, from the spans and the round counters."""
    self_time, calls = tracer.totals()

    def s(*names: str) -> float:
        return sum(self_time.get(name, 0.0) for name in names) / rounds

    def n(*names: str) -> float:
        return sum(calls[name] for name in names) / rounds

    kernels = ("kernels.convolve", "kernels.invert_unit", "kernels.binomial_product")
    mul_calls = n("series.mul")
    hits, misses = counters["cache_hits"] / rounds, counters["cache_misses"] / rounds
    return {
        "pairs.self_s": s("pairs.contributing_pairs"),
        "pairs.calls_per_instance": n("pairs.contributing_pairs") / instances,
        "minimal_model.self_s": s("minimal_model.normalized_character"),
        "minimal_model.calls": n("minimal_model.normalized_character"),
        "products.self_s": s("products.triple_side", "products.quintuple_side"),
        "series.mul_self_s": s("series.mul"),
        "series.mul_calls": mul_calls,
        "series.add_self_s": s("series.add"),
        "series.as_integer_self_s": s("series.as_integer_series"),
        "series.pochhammer_self_s": s("series.pochhammer"),
        "series.invert_self_s": s("series.invert"),
        "series.bilateral_sum_self_s": s("series.bilateral_sum"),
        "series.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "series.cache_hits": hits,
        "series.cache_misses": misses,
        "kernels.self_s": s(*kernels),
        "kernels.calls": n(*kernels),
        "kernels.int64_share": n("kernels.convolve") / mul_calls if mul_calls else 0.0,
        "kernels.binomial_fallbacks": tracer.fallbacks["kernels.binomial_product"] / rounds,
        "kernels.invert_fallbacks": tracer.fallbacks["kernels.invert_unit"] / rounds,
        "verifier.rhs_builds_per_instance": n("verifier.build_rhs") / instances,
        "verifier.compare_self_s": s("verifier.integer_coefficients", "verifier.first_mismatch_degree"),
        "scanner.check_self_s": s("scanner.scan"),
        "cli.emit_self_s": s("cli.emit"),
        "cli.json_bytes": counters["json_bytes"] / rounds,
    }
