"""Wiring tests for the benchmark: quick mode, BENCHMARK.json and the reference."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import reference
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_quick_mode_checks_every_workload_traced_and_untraced():
    proc = _bench("--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    end_to_end = {name for name, _, _ in run.END_TO_END}
    per_layer = {name for name, _, _ in run.PER_LAYER}
    assert len(results) == 6
    for untraced, traced in zip(results[::2], results[1::2]):
        for res, names in ((untraced, end_to_end), (traced, per_layer)):
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            assert set(res["metrics"]) == names


def test_benchmark_json_is_generated_from_the_spec():
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_spec(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "verify_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_partition_and_euler_product():
    assert reference.partition_numbers(100)[100] == 190569292
    euler = reference.expand_product([(1, m) for m in range(1, 41)], 40)
    pentagonal = {k * (3 * k - 1) // 2: (-1) ** k for k in range(-6, 7)}
    assert euler == [pentagonal.get(d, 0) for d in range(41)]
    assert reference.divide_by_euler(euler, 1) == [1] + [0] * 40


def test_reference_finds_the_known_counterexample():
    coeffs = reference.product_side("triple", 3, 1, 1, 10, 100)
    assert (65, 1, -1) in reference.sign_violations(coeffs, 10)


def test_round_problems_catch_missing_repeated_and_anchor_instances():
    sys.path.insert(0, str(run.SRC))
    from checks import COUNTEREXAMPLE, PLAIN_ONE, round_problems
    from workloads import QUICK

    for workload in QUICK.values():
        keys = [key for key, _ in workload.jobs()]
        anchor = PLAIN_ONE if workload.mode == "verify" else COUNTEREXAMPLE
        assert round_problems(workload, keys) == []
        assert len(round_problems(workload, keys[:-1])) == 1
        assert len(round_problems(workload, keys + keys[:1])) == 1
        assert len(round_problems(workload, [k for k in keys if k[:len(anchor)] != anchor])) == 2
