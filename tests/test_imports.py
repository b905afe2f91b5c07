"""Every name a module imports is used in that module, and every private
module-level function has a caller in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcdyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# bench/spans.py patches survey.omega_limit and survey.is_generic, so they
# stay imported there
ALLOWED = {("survey.py", "omega_limit"), ("survey.py", "is_generic")}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports in ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def uncalled_private_functions(sources: dict[str, str]) -> list[str]:
    """The module-level ``_``-prefixed functions in ``sources`` (module name
    -> source) that no ``Name`` or ``Attribute`` outside their own body
    refers to; an import or a docstring mention is no reference."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = [
        (name, node) for name, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    uncalled = []
    for name, fn in defs:
        inside = {id(n) for n in ast.walk(fn)}
        refs = (
            n for tree in trees.values() for n in ast.walk(tree)
            if id(n) not in inside
            and fn.name in (getattr(n, "id", None), getattr(n, "attr", None))
        )
        if next(refs, None) is None:
            uncalled.append(f"{name}:{fn.name}")
    return uncalled


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert [n for n in unused if (path.name, n) not in ALLOWED] == []


def test_the_guard_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\nfrom x import a, b as c\n"
        "math.pi\nc()\n"
    )
    assert unused_imports(source) == ["os", "a"]
    assert len(MODULES) >= 10


def test_every_private_function_has_a_caller():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert uncalled_private_functions(sources) == []


def test_the_guard_sees_uncalled_private_functions():
    a = (
        '"""Mentions _documented."""\n'
        "from b import _imported\n"
        "def _documented(): pass\n"
        "def _recursive(x): return _recursive(x)\n"
        "def _called(): pass\n"
        "def _imported(): pass\n"
        "def public(): return _called()\n"
    )
    b = "import a\ndef _by_attribute(): pass\na._imported()\n"
    c = "import b\nb._by_attribute\n"
    got = uncalled_private_functions({"a.py": a, "b.py": b, "c.py": c})
    assert got == ["a.py:_documented", "a.py:_recursive"]
