"""Every name a module imports is used in that module."""

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
