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
    """Top-level functions, classes and constants (upper-case names bound by
    assignment), and public methods of those classes, of the modules
    `sources` (module name -> source) whose name no module reads, as a name
    or an attribute, and no `__all__` lists: code that only the tests use, or
    that nothing uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= exported(tree)
        read.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                    and not isinstance(node.ctx, ast.Store))
    definitions = [(f"{module}.{node.name}", node) for module, tree in trees.items()
                   for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions += [(f"{name}.{node.name}", node) for name, cls in definitions
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    names = [(qualified, node.name) for qualified, node in definitions]
    names += [(f"{module}.{target.id}", target.id) for module, tree in trees.items()
              for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name) and target.id.isupper()]
    return [qualified for qualified, name in names if name not in read]


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
    constants = "LIMIT = 40\n_TOL: float = 1e-9\nUSED = 2\n__version__ = '1'\n"
    assert unread_definitions({"a": constants + "def f():\n    return _TOL\n",
                               "b": "import a\na.f(a.USED)\n"}) == ["a.LIMIT"]


def test_no_definitions_only_tests_use():
    assert unread_definitions({path.stem: path.read_text() for path in SOURCES}) == []


def test_no_module_reads_around_a_cache():
    """`f.__wrapped__` calls a cached function past its cache: a second route
    to the same result, beside the cached one, that the cache's key no longer
    describes."""
    reads = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "__wrapped__"]
    assert reads == []


# `wc -l` of src/leakyqkd/*.py; a change may raise it only in its own diff, with a reason
SOURCE_LINES = 3_717  # 3,740 - 28 + 5: one basis re-solve in lp.py, chunk buffers sized per call


def test_source_stays_within_its_line_count():
    lines = sum(path.read_text().count("\n") for path in SOURCES)
    assert lines <= SOURCE_LINES, f"src/ has {lines} lines, the ratchet {SOURCE_LINES}"
