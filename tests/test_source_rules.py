"""Rules checked on the library's source rather than on its behaviour.

Each rule is a function from a module's parsed source to the offending
lines; the tests run it on every module of ``src/scsp`` and, so that a
rule that can never fire does not pass unnoticed, on a snippet that
breaks it.
"""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "scsp"
MODULES = sorted(LIBRARY.rglob("*.py"))


def asserts(tree):
    """Assert statements, which ``python -O`` strips: an invariant must
    be a real check."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def _named(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _slotted(node):
    return isinstance(node, ast.Call) and any(
        k.arg == "slots" and isinstance(k.value, ast.Constant)
        and k.value.value is True for k in node.keywords)


def unslotted_dataclasses(tree):
    """Dataclasses that do not pass slots=True: one idiom for every value
    type, and no instance carries an attribute dict."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for d in node.decorator_list
            if _named(d) == "dataclass" and not _slotted(d)]


def private_imports(tree):
    """Imports of a ``_``-prefixed name: the command line reaches the
    solver through its public names only."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if any(part.startswith("_") for part in alias.name.split("."))]


def literal_int_memberships(tree):
    """Parameter checks such as ``k not in (1, 2)``, which admit True and
    1.0: an integer is checked with check_integer and then bounded."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for op, right in zip(node.ops, node.comparators)
            if isinstance(op, ast.NotIn)
            and isinstance(right, (ast.Tuple, ast.List, ast.Set))
            and any(isinstance(e, ast.Constant) and type(e.value) is int
                    for e in right.elts)]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_the_library_is_found():
    assert LIBRARY / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
@pytest.mark.parametrize("rule", [asserts, unslotted_dataclasses,
                                  literal_int_memberships])
def test_library_rules(rule, path):
    assert rule(parse(path)) == []


def test_cli_imports_public_names_only():
    assert private_imports(parse(LIBRARY / "cli.py")) == []


@pytest.mark.parametrize("rule, source", [
    (asserts, "def f(x):\n    assert x\n"),
    (unslotted_dataclasses, "@dataclass(frozen=True)\nclass A:\n    x: int\n"),
    (unslotted_dataclasses, "@dataclasses.dataclass\nclass A:\n    x: int\n"),
    (private_imports, "from .solver import _key, solve\n"),
    (private_imports, "import scsp._internal\n"),
    (literal_int_memberships, "if k not in (1, 2, 3):\n    pass\n"),
])
def test_each_rule_fires_on_a_breach(rule, source):
    assert rule(ast.parse(source)) != []
