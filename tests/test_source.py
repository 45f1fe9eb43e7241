"""Static checks on greff's own source."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "greff"
# greff's modules, named as before; then the tests and the scripts
MODULES = [*sorted(SRC.glob("*.py")), *sorted(ROOT.glob("tests/*.py")),
           *sorted(ROOT.glob("scripts/*.py"))]


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by a module-level import that the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"
)
def test_a_module_imports_only_what_it_uses(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
