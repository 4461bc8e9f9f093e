import ast
from pathlib import Path

import charfactor

PACKAGE = Path(charfactor.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, except on import lines marked ``# noqa``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_package_imports_only_what_it_reads():
    # __init__ re-exports its imports; a "# noqa" import keeps a name that perfbench/tracing.py patches
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: found for p in modules if (found := unused_imports(p.read_text()))}
    assert unused == {}


def test_unused_imports_finds_an_unread_name():
    source = "import math\nimport numpy as np\nfrom .x import a, b  # noqa: F401\nfrom .y import (c,\n    d)\nnp.sign(d)\n"
    assert unused_imports(source) == ["math (line 1)", "c (line 4)"]
