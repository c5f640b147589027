"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "leakyqkd").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads or lists in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and public methods of those classes,
    of the modules `sources` (module name -> source) whose name no module
    reads, as a name or an attribute, and no `__all__` lists: code that only
    the tests use."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= exported(tree)
        read.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    definitions = [(f"{module}.{node.name}", node) for module, tree in trees.items()
                   for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions += [(f"{name}.{node.name}", node) for name, cls in definitions
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    return [name for name, node in definitions if node.name not in read]


def test_unused_import_detector():
    assert unused_imports("import math\nfrom .a import b, c as d\nprint(d)\n") == [
        "math (line 1)", "b (line 2)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unread_definition_detector():
    assert unread_definitions({"a": "def f():\n    pass\ndef g():\n    f()\nclass C:\n    pass\n",
                               "b": "import a\na.g()\n__all__ = ['C']\n"}) == []
    assert unread_definitions({"a": "def f():\n    pass\nclass C:\n    pass\n",
                               "b": "from a import C\nC()\n"}) == ["a.f"]
    methods = "class C:\n    def m(self):\n        pass\n    def n(self):\n        pass\n"
    assert unread_definitions({"a": methods + "    def _p(self):\n        pass\n",
                               "b": "from a import C\nC().n()\n"}) == ["a.C.m"]


def test_no_definitions_only_tests_use():
    assert unread_definitions({path.stem: path.read_text() for path in SOURCES}) == []
