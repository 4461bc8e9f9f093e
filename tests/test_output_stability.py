"""Default sweep JSON stays byte-identical across refactors.

The digest is the sha256 of the concatenated stdout of the commands below,
run in-process on one thread.  It was computed before the theta sums moved to
``Theta`` records; a change in it means the default output changed.
"""

import contextlib
import hashlib
import io

from charfactor.cli import run

KINDS = ("main", "main_a", "main_b", "quint", "quint_a", "quint_b", "quint_c")

COMMANDS = [["verify", "--kind", k, "--sweep", "--max-pp", "60", "--order", "90", "--json"] for k in KINDS]
COMMANDS.append(["scan", "--sweep", "--max-size", "20", "--order", "300", "--json"])

GOLDEN = "9b26dd3829c56b679c88a8532022b6b59630b81eb274776c9581e681bd207c9a"


def test_default_sweep_json_is_byte_stable(monkeypatch):
    monkeypatch.setenv("CHARFACTOR_THREADS", "1")
    digest = hashlib.sha256()
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run(argv)
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == GOLDEN
