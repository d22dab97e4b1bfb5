"""Import guard: importing rovella loads no scipy module, and no module of
the package uses scipy.interpolate. scipy is imported inside the functions
that need it (scipy.sparse for the backward Ulam block product and the
scipy views `ulam_row_operator` and `OperatorCache.get`, scipy for the
manifest's version), so a command that needs neither does not pay for it:
Ulam vectors are pushed in numpy."""

import ast
from pathlib import Path

import pytest

import rovella

MODULES = sorted(Path(rovella.__file__).parent.glob("*.py"))


def _imported(node: ast.AST) -> list[str]:
    """The modules an import statement names (`from a import b` names a
    and a.b); [] for any other node or a relative import."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def _import_time(tree: ast.Module) -> list[str]:
    """The modules named by the imports that run when the module is
    imported: all but those in function bodies and `if TYPE_CHECKING:`."""
    names, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                   "typing.TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        names += _imported(node)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy(path):
    names = _import_time(ast.parse(path.read_text()))
    assert [n for n in names if n.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_interpolate(path):
    names = [n for node in ast.walk(ast.parse(path.read_text())) for n in _imported(node)]
    assert [n for n in names if n.startswith("scipy.interpolate")] == []
