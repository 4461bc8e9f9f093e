"""charfactor benchmark: verify sweeps, scan sweeps and high-order certificates.

Run from the repository root:

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload scan_sweep --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --quick                 # every workload, tiny, checks + trace
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

A run measures whole rounds of one workload, serially in this process, for
about ``--seconds``.  ``--trace 0`` reports the end-to-end metrics in
reference seconds (see speed.py); ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics and the tracing overhead.  Every run checks its outputs
(see checks.py) and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and writes
``perfbench/results/BENCH_<workload>.json`` (plus the spans, in
``TRACE_<workload>.json``, when traced).  ``--seed`` chooses only which
outputs the independent reference recomputes.  The program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: where every run writes BENCH_<workload>.json, and TRACE_<workload>.json when traced
RESULTS = ROOT / "perfbench" / "results"

#: what a fresh ``charfactor`` CLI process pays before its first instance
SETUP_CODE = "import charfactor; from charfactor import _kernels; _kernels.warmup()"
SETUP_PER_ROUND = 2
RUN_SECONDS = 36

END_TO_END = [
    # (name, unit, bound as a share of the parent's median)
    ("wall_s", "s", 0.15),
    ("instance_p50_ms", "ms", 0.2),
    ("instance_p99_ms", "ms", 0.2),
    ("peak_rss_mb", "MB", 0.05),
    ("setup_s", "s", 0.25),
]

PER_LAYER = [
    ("pairs.self_s", "s", "lower"),
    ("pairs.calls_per_instance", "count", "lower"),
    ("minimal_model.self_s", "s", "lower"),
    ("minimal_model.calls", "count", "lower"),
    ("products.self_s", "s", "lower"),
    ("series.mul_self_s", "s", "lower"),
    ("series.mul_calls", "count", "lower"),
    ("series.add_self_s", "s", "lower"),
    ("series.as_integer_self_s", "s", "lower"),
    ("series.pochhammer_self_s", "s", "lower"),
    ("series.invert_self_s", "s", "lower"),
    ("series.bilateral_sum_self_s", "s", "lower"),
    ("series.cache_hit_ratio", "ratio", "higher"),
    ("series.cache_hits", "count", "higher"),
    ("series.cache_misses", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.int64_share", "ratio", "higher"),
    ("kernels.binomial_fallbacks", "count", "lower"),
    ("kernels.invert_fallbacks", "count", "lower"),
    ("verifier.rhs_builds_per_instance", "count", "lower"),
    ("verifier.compare_self_s", "s", "lower"),
    ("scanner.check_self_s", "s", "lower"),
    ("cli.emit_self_s", "s", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def benchmark_spec(workloads) -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    from charfactor import _kernels

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lane": _kernels.LANE,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _rounds_for(workload, seconds: float, tracer=None, between=None) -> list:
    """Whole rounds until the next one would end past ``seconds``.

    With a ``tracer``, rounds alternate untraced and traced, starting
    untraced, and there are at least two.  ``between`` runs before each
    round; its time counts against ``seconds``.  Only the first round keeps
    its output; each later one records which of its outputs repeat it.
    """
    from workloads import run_round

    start = perf_counter()
    rounds, iterations = [], []
    while True:
        t0 = perf_counter()
        if between is not None:
            between()
        if tracer is not None and len(rounds) % 2:
            with tracer.installed():
                rnd = run_round(workload, tracer)
        else:
            rnd = run_round(workload)
        if rounds:
            # memory must not grow with the number of rounds
            first = rounds[0]
            rnd.same = rnd.keys == first.keys and [a == b for a, b in zip(rnd.texts, first.texts)]
            rnd.keys, rnd.texts = first.keys, None
        rounds.append(rnd)
        iterations.append(perf_counter() - t0)
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and perf_counter() - start + statistics.median(iterations) > seconds:
            return rounds


def _spawn_setup(probe) -> tuple[float, float]:
    """Start one fresh interpreter that imports charfactor; returns its (start, end)."""
    probe.sample()
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=_program_env(), cwd=ROOT, check=True)
    t1 = perf_counter()
    probe.sample()
    return t0, t1


def _count_failures(workload, rounds: list, seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); later rounds must repeat the first one's output."""
    from checks import check_round

    first = rounds[0]
    failed_first, problems = check_round(workload, first.keys, first.texts, seed)
    attempted = failed = 0
    messages = problems + [f"{first.keys[i]}: {msg}" for i, msg in sorted(failed_first.items())]
    for rnd in rounds:
        attempted += len(rnd.keys)
        same = rnd.same if rnd is not first else [True] * len(rnd.keys)
        if problems:
            # every round fails: later ones must repeat the first one's instances
            failed += len(rnd.keys)
            continue
        if not same:
            failed += len(rnd.keys)
            messages.append("a later round enumerated different instances")
            continue
        for i, ok in enumerate(same):
            if i in failed_first:
                failed += 1
            elif not ok:
                failed += 1
                messages.append(f"{rnd.keys[i]}: output differs from the first round")
    return attempted, failed, messages


def run(workload, seed: int, seconds: float, trace: bool, results: Path = RESULTS) -> dict:
    """One benchmark run of one workload; returns the result object and records it under ``results``."""
    from charfactor import _kernels
    from speed import SpeedProbe
    from tracing import Tracer, layer_metrics

    _kernels.warmup()
    if trace:
        # per-layer numbers are raw seconds: a calibration sample inside a span
        # would count as that span's self time
        tracer = Tracer()
        rounds = _rounds_for(workload, seconds, tracer)
        attempted, failed, messages = _count_failures(workload, rounds, seed)
        untraced, traced = rounds[0::2], rounds[1::2]
        counters = {k: sum(r.counters[k] for r in traced) for k in traced[0].counters}
        metrics = layer_metrics(tracer, len(traced), len(traced[0].keys), counters)
        metrics["trace.overhead_ratio"] = (statistics.median(r.wall_s for r in traced)
                                           / statistics.median(r.wall_s for r in untraced) - 1)
        units = {n: u for n, u, _ in PER_LAYER}
        walls = [f"{r.wall_s:.3f}{'T' if i % 2 else ''}" for i, r in enumerate(rounds)]
    else:
        tracer = None
        probe = SpeedProbe()
        setups = []

        def spawn_setups():
            # the children run on the CPU whose speed the probe samples around them
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            try:
                with probe.paused():
                    setups.extend(_spawn_setup(probe) for _ in range(SETUP_PER_ROUND))
            finally:
                os.sched_setaffinity(0, cpus)

        with probe.sampling():
            rounds = _rounds_for(workload, seconds, between=spawn_setups)
            spawn_setups()
        # before the checks, which parse every output of the first round
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, messages = _count_failures(workload, rounds, seed)
        ref_walls = [probe.reference_seconds(r.start, r.end) for r in rounds]
        latencies = [probe.reference_seconds(t0, t1) for r in rounds for t0, t1 in r.instance_times()]
        metrics = {
            "wall_s": statistics.median(ref_walls),
            "instance_p50_ms": statistics.median(latencies) * 1e3,
            "instance_p99_ms": percentile(latencies, 99) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(probe.reference_seconds(t0, t1) for t0, t1 in setups),
        }
        units = {n: u for n, u, _ in END_TO_END}
        walls = [f"{r.wall_s:.3f} ({w:.3f})" for r, w in zip(rounds, ref_walls)]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(f"{workload.name} seed={seed} trace={int(trace)}: {attempted} instances, {failed} failed; "
          f"round wall s{' (reference s)' if not trace else ', T traced'}: {', '.join(walls)}")
    for msg in messages[:10]:
        print(f"  FAILED {msg}")
    for k, v in result["metrics"].items():
        print(f"  {k:34s} {v['value']:.6g} {v['unit']}")
    _write_results(results, workload, seed, trace, rounds, result, messages, tracer)
    return result


def _write_results(out: Path, workload, seed, trace, rounds, result, messages, tracer) -> None:
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}_trace" if trace else workload.name
    slowest = sorted(((t1 - t0, key) for r in rounds for key, (t0, t1) in zip(r.keys, r.instance_times())),
                     reverse=True)[:5]
    record = {
        "stamp": stamp(),
        "workload": workload.name,
        "seed": seed,
        "round_wall_s": [r.wall_s for r in rounds],
        "slowest_instances": [{"key": list(key), "latency_s": lat} for lat, key in slowest],
        "failures": messages,
        **result,
    }
    (out / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(out / f"TRACE_{workload.name}.json")


def quick() -> bool:
    """Every workload at a tiny size, untraced and traced, with all checks."""
    from workloads import QUICK

    ok = True
    for workload in QUICK.values():
        for trace in (False, True):
            result = run(workload, seed=1, seconds=0, trace=trace, results=RESULTS / "quick")
            ok &= result["correct"]
            print(json.dumps(result))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny run of every workload")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "charfactor" / "__init__.py").is_file():
        print(f"error: no charfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(WORKLOADS), indent=2) + "\n")
        return 0
    print("stamp " + json.dumps(stamp()))
    if args.quick:
        return 0 if quick() else 1
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
