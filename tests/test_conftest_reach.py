"""Reach guard for the test helpers: each top-level function of
`tests/conftest.py` is named by a test module or by other code of the
conftest, so a reference that no test reads any more cannot build up."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _names(tree) -> set[str]:
    """Every identifier that `tree` names: names, attributes, imports,
    arguments (a fixture is requested by one) and whole string constants
    (`request.getfixturevalue("table_fam")`, fixture params)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_conftest_function_is_named():
    conftest = ast.parse((TESTS / "conftest.py").read_text())
    named = set()
    for path in TESTS.glob("test_*.py"):
        named |= _names(ast.parse(path.read_text()))
    body = [(node, _names(node)) for node in conftest.body]
    unnamed = [
        fn.name for fn, _ in body
        if isinstance(fn, ast.FunctionDef)
        and fn.name not in named.union(*(names for node, names in body if node is not fn))
    ]
    assert unnamed == []
