import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charfactor.cli import run


def test_verify_single_instance(capsys):
    code = run(["verify", "--kind", "main", "--p", "2", "--pp", "9", "--ap", "3",
                "--b", "1", "--bp", "1", "--c", "1", "--order", "120", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is True
    assert doc["sign_variant"] == "as_stated"
    assert doc["n"] == 3
    assert doc["lhs_prefix"][:7] == [1, -1, -1, 1, -1, 0, 2]


def test_verify_invalid_parameters_exit_2(capsys):
    single = ["verify", "--kind", "main", "--p", "2", "--pp", "9", "--ap", "3", "--b", "1", "--bp", "1"]
    for argv in (single + ["--c", "3", "--order", "50"],  # a' > c violated
                 single + ["--c", "1", "--order", "-1"],  # negative order
                 ["verify", "--sweep", "--max-pp", "-5"],  # negative sweep bounds
                 ["scan", "--sweep", "--max-size", "-3"],
                 ["verify", "--sweep", "--max-pp", "1", "--order", "-1"],  # negative order, empty sweep
                 ["scan", "--sweep", "--max-size", "0", "--order", "-5"]):
        code = run(argv)
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_verify_missing_flags_exit_2(capsys):
    code = run(["verify", "--kind", "main", "--p", "2", "--order", "50"])
    assert code == 2


def test_verify_output_is_deterministic(capsys):
    args = ["verify", "--p", "4", "--pp", "3", "--ap", "3", "--c", "1", "--order", "80", "--json"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_pairs_command(capsys):
    code = run(["pairs", "--scheme", "triple", "--p", "2", "--pp", "9", "--ap", "3", "--c", "1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [
        {"r": 1, "s": 2, "type": 2, "weight": 3},
        {"r": 1, "s": 5, "type": 1, "weight": 0},
        {"r": 1, "s": 8, "type": 2, "weight": -3},
    ]


def test_phi_command(capsys):
    code = run(["phi", "--ap", "3", "--c", "1", "--n", "3", "--order", "6", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coeffs"] == ["1", "-1", "-1", "1", "-1", "0", "2"]


def test_psi_command(capsys):
    code = run(["psi", "--ap", "2", "--c", "1", "--n", "3", "--order", "6", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coeffs"] == ["1", "-1", "-1", "1", "-1", "0", "2"]


def test_scan_command(capsys):
    code = run(["scan", "--scheme", "triple", "--ap", "3", "--c", "1", "--n", "3",
                "--order", "400", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == []
    assert doc["covered"] == "case1"
    assert doc["support"] == [0, 1, 2]


def test_scan_missing_quadruple_flags_exit_2(capsys):
    assert run(["scan", "--scheme", "triple"]) == 2
    assert capsys.readouterr().err == "error: missing flags: --ap, --c, --n\n"
    assert run(["scan", "--scheme", "quint", "--ap", "2", "--order", "40"]) == 2
    assert capsys.readouterr().err == "error: missing flags: --c, --n\n"


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "charfactor", "pairs", "--scheme", "triple",
         "--p", "2", "--pp", "9", "--ap", "3", "--c", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "count=3 (n=3)"


def test_realize_command(capsys):
    code = run(["realize", "--scheme", "triple", "--ap", "3", "--c", "1", "--n", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"p": 2, "pp": 9, "a": 2, "ap": 3, "b": 1, "bp": 1, "c": 1, "B": 1, "n": 3} in doc


def test_realize_limit(capsys):
    args = ["realize", "--scheme", "triple", "--ap", "3", "--c", "1", "--n", "3", "--limit"]
    assert run(args + ["0"]) == 0
    assert capsys.readouterr().out == "0 realizations\n"
    assert run(args + ["-1"]) == 2
    assert "limit must be nonnegative" in capsys.readouterr().err


def test_remark_command(capsys):
    assert run(["remark", "--ap", "5", "--c", "3", "--order", "60", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True


def test_verify_sweep_small(capsys):
    code = run(["verify", "--kind", "main", "--sweep", "--max-pp", "40", "--order", "60", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0
    assert doc["instances"] == len(doc["certificates"])
    assert all(c["match"] for c in doc["certificates"])


def test_scan_sweep_small(capsys):
    code = run(["scan", "--sweep", "--max-size", "8", "--order", "120", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["with_violations"] == 0


def test_verify_sweep_reports_a_failed_certificate(capsys, monkeypatch):
    import dataclasses

    from charfactor import verifier

    real, calls = verifier.verify, []

    def third_fails(kind, fp, order):
        cert = real(kind, fp, order)
        calls.append(fp)
        if len(calls) == 3:
            return dataclasses.replace(cert, match=False, sign_variant=verifier.FAILED, first_mismatch=0)
        return cert

    monkeypatch.setattr(verifier, "verify", third_fails)
    args = ["verify", "--kind", "main", "--sweep", "--max-pp", "20", "--order", "30"]
    assert run(args + ["--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 1
    assert [c["match"] for c in doc["certificates"]].index(False) == 2
    assert doc["certificates"][2]["first_mismatch"] == 0
    calls.clear()
    assert run(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].endswith(": match=False variant=failed")
    assert lines[-1] == "18 instances, 1 failures"


def test_main_exits_with_the_command_status(capsys, monkeypatch):
    # the console script's entry point: argv from sys.argv, status through SystemExit
    from charfactor.cli import main

    monkeypatch.setattr(sys, "argv", ["charfactor", "pairs", "--scheme", "triple",
                                      "--p", "2", "--pp", "9", "--ap", "3", "--c", "1"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.endswith("count=3 (n=3)\n")


def test_human_output_default(capsys):
    code = run(["verify", "--p", "2", "--pp", "9", "--ap", "3", "--c", "1", "--order", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "match=True" in out
    assert "pairs:" in out


def test_selftest_runs_clean(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all self-tests passed" in out


def _flip_first_factor(monkeypatch, name):
    """Replace ``charfactor.series.<name>`` by one whose first Pochhammer factor has the opposite sign."""
    from charfactor import series

    symbols = getattr(series, name)

    def flipped(u, v):
        (factors, base), *rest = symbols(u, v)
        flipped = series.SignedMonomial(-factors[0].sign, factors[0].exponent)
        return (((flipped, *factors[1:]), base), *rest)

    monkeypatch.setattr(series, name, flipped)


@pytest.mark.parametrize("name, scheme, failing", [
    ("quintuple_symbols", "quintuple", {"theta sums match product expansions"}),
    # quintuple_symbols and the remark products read series.triple_symbols too
    ("triple_symbols", "triple", {"theta sums match product expansions",
                                  "proved identities agree with the truncated check",
                                  "remark products telescope to 1"}),
])
def test_selftest_reports_a_failing_check(capsys, monkeypatch, name, scheme, failing):
    from charfactor.cli import _selftest_checks

    checks = [check for check, _ in _selftest_checks()]
    _flip_first_factor(monkeypatch, name)
    oracle = f"{scheme} product mismatch at u=q^0, v=q^1"
    assert run(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"FAIL theta sums match product expansions ({oracle})"
    assert len(lines) == len(checks)  # one line per check, no closing "all self-tests passed"
    for line, check in zip(lines, checks):
        assert line.startswith(("FAIL " if check in failing else "ok   ") + check)
    assert run(["selftest", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc[0] == {"check": "theta sums match product expansions", "status": "FAIL", "detail": oracle}
    assert {c["check"] for c in doc if c["status"] == "FAIL"} == failing
    assert all(c["detail"] is None for c in doc if c["status"] == "ok")
