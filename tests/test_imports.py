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


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(charfactor.__all__) == sorted(imported | {"__version__"})
    assert [name for name in charfactor.__all__ if not hasattr(charfactor, name)] == []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions, classes and assignments that no module in ``sources`` reads.

    A read is a loaded name, an attribute or an imported name, in any module.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    return [f"{module}: {name} (line {line})" for module, name, line in defined if name not in read]


def test_the_package_defines_no_orphaned_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_orphaned_private_names_finds_an_unread_definition():
    sources = {
        "a.py": ("_LIMIT = 8\n_TABLE: dict = {}\n__all__ = []\n\n\ndef _used():\n    def _inner():\n"
                 "        pass\n    return _LIMIT\n\n\ndef _orphan():\n    pass\n\n\nclass _Spare:\n    pass\n"),
        "b.py": "from .a import _used\nfrom . import a\n\na._TABLE.clear()\n",
    }
    assert orphaned_private_names(sources) == ["a.py: _orphan (line 12)", "a.py: _Spare (line 16)"]
