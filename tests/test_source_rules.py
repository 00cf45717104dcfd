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
    """Imports of a ``_``-prefixed name: a module reaches another through
    its public names only."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if any(part.startswith("_") for part in alias.name.split("."))]


def _private(name):
    return (isinstance(name, str) and name.startswith("_")
            and not (name.startswith("__") and name.endswith("__")))


def foreign_private_attributes(tree):
    """Reads of a ``_``-prefixed, non-dunder attribute that the module does
    not define itself, also by name through ``getattr`` or ``attrgetter``:
    a representation stays private to the module that owns it, as an
    Evaluation's Fraction field is to ``evaluation``."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Store):
            defined.add(_named(node))
    lines = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else None
        if isinstance(node, ast.Call) and _named(node) in ("getattr",
                                                          "attrgetter"):
            strings = [a.value for a in node.args
                       if isinstance(a, ast.Constant)]
            name = strings[0] if strings else None
        if _private(name) and name not in defined:
            lines.append(node.lineno)
    return lines


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


def unmatched_exports(tree):
    """Names that ``__all__`` repeats or lists without importing them, and
    imports it leaves out: the package exports exactly what it imports,
    so removing a name cannot leave a stale or a silent export."""
    imported = {alias.asname or alias.name: node.lineno
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    listed = [element for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and any(_named(t) == "__all__" for t in node.targets)
              for element in node.value.elts]
    names = [element.value for element in listed]
    return ([e.lineno for e in listed
             if e.value not in imported or names.count(e.value) > 1]
            + [line for name, line in imported.items() if name not in names])


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_the_library_is_found():
    assert LIBRARY / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
@pytest.mark.parametrize("rule", [asserts, unslotted_dataclasses,
                                  literal_int_memberships, private_imports,
                                  foreign_private_attributes])
def test_library_rules(rule, path):
    assert rule(parse(path)) == []


def test_package_exports_what_it_imports():
    assert unmatched_exports(parse(LIBRARY / "__init__.py")) == []


@pytest.mark.parametrize("rule, source", [
    (asserts, "def f(x):\n    assert x\n"),
    (unslotted_dataclasses, "@dataclass(frozen=True)\nclass A:\n    x: int\n"),
    (unslotted_dataclasses, "@dataclasses.dataclass\nclass A:\n    x: int\n"),
    (private_imports, "from .solver import _key, solve\n"),
    (private_imports, "import scsp._internal\n"),
    (foreign_private_attributes, "def f(e):\n    return e._value\n"),
    (foreign_private_attributes, "x = Evaluation._make(None)\n"),
    (foreign_private_attributes, "read = attrgetter('_value')\n"),
    (literal_int_memberships, "if k not in (1, 2, 3):\n    pass\n"),
    (unmatched_exports, "from .a import b, c\n__all__ = ['b']\n"),
    (unmatched_exports, "from .a import b\n__all__ = ['b', 'c']\n"),
    (unmatched_exports, "from .a import b\n__all__ = ['b', 'b']\n"),
])
def test_each_rule_fires_on_a_breach(rule, source):
    assert rule(ast.parse(source)) != []


def test_a_module_may_read_the_private_names_it_defines():
    source = ("class A:\n    _hash = 0\n    def _make(self):\n"
              "        self._value = 1\n"
              "print(a._hash, a._make(), a._value, a.__dict__)\n")
    assert foreign_private_attributes(ast.parse(source)) == []
