"""Default certificate and sweep JSON stays byte-identical across refactors.

Each digest is the sha256 of the concatenated stdout of its commands, run
in-process on one thread; a change in one means the default output changed.
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


def test_default_sweep_json_is_byte_stable(monkeypatch):
    monkeypatch.setenv("CHARFACTOR_THREADS", "1")
    assert _digest(COMMANDS) == GOLDEN


def test_verify_sweep_json_is_byte_stable(monkeypatch):
    monkeypatch.setenv("CHARFACTOR_THREADS", "1")
    assert _digest(VERIFY_SWEEP) == GOLDEN_VERIFY_SWEEP


def test_wide_scan_json_is_byte_stable(monkeypatch):
    monkeypatch.setenv("CHARFACTOR_THREADS", "1")
    assert _digest(WIDE_SCAN) == GOLDEN_WIDE_SCAN


def test_high_order_certificate_json_is_byte_stable():
    assert _digest(HIGH_ORDER) == GOLDEN_HIGH_ORDER
