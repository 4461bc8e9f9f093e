"""Default certificate and sweep JSON, sweep tables and series payloads stay byte-identical across refactors.

Each digest is the sha256 of the concatenated stdout of its commands, run
in-process; a change in one means the default output changed.
The sweep digest was computed before the theta sums moved to ``Theta``
records, the high-order one before the quintuple numerators were expanded in
one binomial pass, and the wide scan digest before the scan streams were
built straight from theta terms and partition numbers.  The verify sweep
digest, every kind at pp' <= 100 and N = 200 (the benchmark's
``verify_sweep``), was computed before certificates were built from plain
integers.
"""

import contextlib
import hashlib
import io

from charfactor.cli import run

KINDS = ("main", "main_a", "main_b", "quint", "quint_a", "quint_b", "quint_c")

COMMANDS = [["verify", "--kind", k, "--sweep", "--max-pp", "60", "--order", "90", "--json"] for k in KINDS]
COMMANDS.append(["scan", "--sweep", "--max-size", "20", "--order", "300", "--json"])

GOLDEN = "9b26dd3829c56b679c88a8532022b6b59630b81eb274776c9581e681bd207c9a"

#: every kind's sweep over pp' <= 100 at N = 200: 2,638 certificates
VERIFY_SWEEP = [["verify", "--kind", k, "--sweep", "--max-pp", "100", "--order", "200", "--json"] for k in KINDS]

GOLDEN_VERIFY_SWEEP = "eb8d6ba67edc2268e2f5554ae17485eef15d960490821fbf2f833f791bc1e6b0"

#: a scan sweep at order 1000, where stream coefficients pass 2^63
WIDE_SCAN = [["scan", "--sweep", "--max-size", "30", "--order", "1000", "--json"]]

GOLDEN_WIDE_SCAN = "197bf89bd850b96ef838c7200302dbe54b59bdeec969ef677da76eb662e95cdd"

#: single certificates at N = 10^4 and 12,000; the (2,9) numerator `(q;q)` peaks at 61 bits
HIGH_ORDER = [
    ["verify", "--kind", kind, "--p", p, "--pp", pp, "--ap", ap, "--c", c, "--order", order, "--json"]
    for kind, p, pp, ap, c, order in (
        ("main", "2", "3", "3", "1", "10000"),
        ("quint", "3", "4", "4", "1", "10000"),
        ("main_b", "4", "3", "3", "1", "10000"),
        ("quint_b", "3", "16", "4", "3", "10000"),
        ("main", "2", "9", "3", "1", "12000"),
    )
]

GOLDEN_HIGH_ORDER = "3c2bf8343427373d44a68cd89e2614580f47db31d9907c60cb8422c4308d54f0"


def _digest(commands) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run(argv)
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_default_sweep_json_is_byte_stable():
    assert _digest(COMMANDS) == GOLDEN


def test_verify_sweep_json_is_byte_stable():
    assert _digest(VERIFY_SWEEP) == GOLDEN_VERIFY_SWEEP


def test_wide_scan_json_is_byte_stable():
    assert _digest(WIDE_SCAN) == GOLDEN_WIDE_SCAN


def test_high_order_certificate_json_is_byte_stable():
    assert _digest(HIGH_ORDER) == GOLDEN_HIGH_ORDER


#: human sweep tables and the series payloads, which the JSON digests above do not reach
HUMAN_VERIFY_SWEEP = ["verify", "--kind", "main", "--sweep", "--max-pp", "20", "--order", "30"]

GOLDEN_HUMAN_VERIFY_SWEEP = "46f1da7ecef68e9e10745807e3ed51ef3d8f9a0750bdc2f6c907c06a49b644a6"

#: 197 triple quadruples at N = 100, one of them, (3,1,1,10), with a violation
HUMAN_SCAN_SWEEP = ["scan", "--scheme", "triple", "--sweep", "--max-size", "30", "--order", "100"]

GOLDEN_HUMAN_SCAN_SWEEP = "1aeabfcde1a8cafb1c7aef6a16d6d43b7d9d7593bd8f530e1cc6feea82375b57"


def _output(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def test_human_verify_sweep_is_byte_stable():
    code, text = _output(HUMAN_VERIFY_SWEEP)
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 19
    assert lines[0] == "p=2 p'=3 a'=3 b=1 b'=1 c=1 n=1: match=True variant=as_stated"
    assert lines[-1] == "18 instances, 0 failures"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_HUMAN_VERIFY_SWEEP


def test_human_scan_sweep_is_byte_stable():
    code, text = _output(HUMAN_SCAN_SWEEP)
    assert code == 1
    lines = text.splitlines()
    assert len(lines) == 198
    assert lines[9] == "triple a'=3 B=1 c=1 n=10 covered=none: 1 violations"
    assert lines[-1] == "197 quadruples, 1 with violations"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_HUMAN_SCAN_SWEEP


def test_series_json_is_byte_stable():
    coeffs = "".join(f'    "{c}",\n' for c in (1, -1, -1, 1, -1, 0))
    for name, scheme, ap in (("phi", "triple", 3), ("psi", "quintuple", 2)):
        code, text = _output([name, "--ap", str(ap), "--c", "1", "--n", "3", "--order", "6", "--json"])
        assert code == 0
        assert text == (f'{{\n  "scheme": "{scheme}",\n  "ap": {ap},\n  "B": 1,\n  "c": 1,\n  "n": 3,\n'
                        f'  "order": 6,\n  "coeffs": [\n{coeffs}    "2"\n  ]\n}}\n')
