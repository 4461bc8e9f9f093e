"""The benchmark's workloads and the loop that times one round of each.

A round is one whole workload: clear the series caches (every ``charfactor``
CLI call starts cold), enumerate the instances, and for each one call the
public entry point (``verifier.verify`` or ``scanner.scan``) and encode the
result to JSON the way the CLI does.  A round runs serially in this process;
the CLI's process-pool sweep path is not timed.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from charfactor import scanner, series, verifier
from charfactor.params import ProductParams, Scheme, validate
from charfactor.verifier import IdentityKind

CACHED = (series.euler_product, series.partition_series, series.inverse_euler_power)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "verify" or "scan"
    order: int = 0  # N of every sweep instance
    bound: int = 0  # max p*p' (verify sweep) or max a'*B*n (scan sweep)
    #: fixed certificates (kind, scheme, p, p', a', b, b', c, order), each from cold caches
    certs: tuple = ()
    #: outputs per run that the independent reference recomputes, chosen by the seed
    ref_sample: int = 0
    #: order of the reference recomputation (at most the workload order)
    ref_order: int = 200

    def jobs(self):
        """Instances in canonical order, as (key, thunk returning the result object)."""
        if self.certs:
            for kind, scheme, p, pp, ap, b, bp, c, order in self.certs:
                fp = validate(Scheme(scheme), p, pp, ap, b, bp, c)
                yield ("verify", kind, p, pp, ap, b, bp, c, order), _verify_job(IdentityKind(kind), fp, order)
        elif self.mode == "verify":
            for kind in IdentityKind:
                for fp in verifier.iter_applicable_params(kind, self.bound):
                    key = ("verify", kind.value, fp.p, fp.p_prime, fp.a_prime, fp.b, fp.b_prime, fp.c, self.order)
                    yield key, _verify_job(kind, fp, self.order)
        else:
            for scheme in (Scheme.TRIPLE, Scheme.QUINTUPLE):
                for pp in scanner.iter_canonical_quadruples(scheme, self.bound):
                    key = ("scan", scheme.value, pp.a_prime, pp.B, pp.c, pp.n, self.order)
                    yield key, _scan_job(pp, self.order)


def _verify_job(kind: IdentityKind, fp, order: int):
    return lambda: verifier.verify(kind, fp, order)


def _scan_job(pp: ProductParams, order: int):
    return lambda: scanner.scan(pp, order)


# Workload make-up; README.md lists the instance counts and why each was chosen.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify_sweep",
            "every kind, all tuples with pp' <= 100 at N=200: per-instance Python overhead "
            "on int64-sized series (Fraction offsets, grid refinement, character multiplies)",
            mode="verify", order=200, bound=100, ref_sample=48,
        ),
        Workload(
            "scan_sweep",
            "both schemes, canonical quadruples with a'Bn <= 30 at N=2000: product side only, "
            "dominated by big-int convolution and pochhammer's pure-Python restart",
            mode="scan", order=2000, bound=30, ref_sample=4,
        ),
        Workload(
            "cert_high_order",
            "five single certificates at N=10^4 and 12,000, each from cold caches: a few huge "
            "dense big-int operations, one past pochhammer's int64 cliff",
            mode="verify", ref_sample=5,
            certs=(
                ("main", "triple", 2, 3, 3, 1, 1, 1, 10000),
                ("quint", "quintuple", 3, 4, 4, 1, 1, 1, 10000),
                ("main_b", "triple", 4, 3, 3, 1, 1, 1, 10000),
                ("quint_b", "quintuple", 3, 16, 4, 1, 1, 3, 10000),
                ("main", "triple", 2, 9, 3, 1, 1, 1, 12000),
            ),
        ),
    )
}

#: the same workloads at a tiny size, for checking the benchmark's own wiring
QUICK = {
    "verify_sweep": Workload("verify_sweep", "", mode="verify", order=60, bound=30, ref_sample=8,
                             ref_order=60),
    "scan_sweep": Workload("scan_sweep", "", mode="scan", order=100, bound=30, ref_sample=2),
    "cert_high_order": Workload(
        "cert_high_order", "", mode="verify", ref_sample=2, ref_order=60,
        certs=(
            ("main", "triple", 2, 3, 3, 1, 1, 1, 300),
            ("main_b", "triple", 4, 3, 3, 1, 1, 1, 300),
            ("main", "triple", 2, 9, 3, 1, 1, 1, 400),
        ),
    ),
}


def emit(result) -> str:
    """The JSON text the CLI prints for one certificate or report."""
    return json.dumps(result.to_json_dict(), indent=2)


@dataclass
class Round:
    start: float = 0.0
    end: float = 0.0
    keys: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    #: start and end perf_counter times of each instance, flattened
    spans: array = field(default_factory=lambda: array("d"))
    counters: dict = field(default_factory=lambda: {"cache_hits": 0, "cache_misses": 0, "json_bytes": 0})
    #: per instance, whether a later round repeated the first round's text
    same: list | bool | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def instance_times(self):
        """(start, end) of each instance."""
        return zip(self.spans[::2], self.spans[1::2])


def _clear_caches(counters: dict) -> None:
    for fn in CACHED:
        info = fn.cache_info()
        counters["cache_hits"] += info.hits
        counters["cache_misses"] += info.misses
        fn.cache_clear()


def run_round(workload: Workload, tracer=None) -> Round:
    """Run the whole workload once; ``tracer`` adds a root span per instance."""
    rnd = Round()
    _clear_caches({"cache_hits": 0, "cache_misses": 0})
    cold_each = bool(workload.certs)
    rnd.start = perf_counter()
    for i, (key, job) in enumerate(workload.jobs()):
        if cold_each and i:
            _clear_caches(rnd.counters)
        ts = perf_counter()
        if tracer is None:
            text = emit(job())
        else:
            with tracer.instance_span(i):
                text = emit(job())
        rnd.spans.extend((ts, perf_counter()))
        rnd.keys.append(key)
        rnd.texts.append(text)
    rnd.end = perf_counter()
    _clear_caches(rnd.counters)
    rnd.counters["json_bytes"] = sum(len(t.encode()) for t in rnd.texts)
    return rnd
