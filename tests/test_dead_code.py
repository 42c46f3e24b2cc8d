"""Every function and method in src/kcert is used by src/kcert itself, every
helper in tests/support.py is used by the tests, every module of src/kcert
and tests uses the names it imports, and only SparseMatrix's own methods
touch its layouts.

A function counts as used when its name appears, outside its own body, as a
name, an attribute or an import anywhere in the package (for support.py:
anywhere in tests).  Tests alone do not keep a kcert function alive: a
helper only the tests call belongs in tests/support.py, and one no test
calls is deleted.
"""

import ast
import pathlib
from collections import Counter

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kcert"

def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "%s.%s" % (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s.%s" % (module, node.name, item.name), item


def _parse(paths):
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def _unreferenced(defined, trees):
    """Functions and methods of the modules in defined whose names no module
    in trees mentions outside their own bodies."""
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    unused = set()
    for module, tree in defined.items():
        for qualname, node in _definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call is not a use
            own = sum(n == name for n in _names(node))
            if used[name] - own == 0:
                unused.add(qualname)
    return sorted(unused)


def test_every_function_has_a_src_reference():
    trees = _parse(sorted(SRC.glob("*.py")))
    assert _unreferenced(trees, trees) == []


# SparseMatrix's lazy layouts and the methods that build them; an operator
# built on a matrix reads only its n, p, mu, apply, rapply, T and digest
LAYOUT_NAMES = {"_row_layout", "_col_layout", "_rows", "_cols"}


def _layout_uses(trees):
    """(module, line, name) of each mention of a LAYOUT_NAMES name outside
    the methods of a class named SparseMatrix."""
    inside = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "SparseMatrix":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        inside.update(map(id, ast.walk(item)))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            else:
                continue
            if name in LAYOUT_NAMES and id(node) not in inside:
                found.append((module, node.lineno, name))
    return sorted(found)


def test_only_sparse_matrix_touches_its_layouts():
    assert _layout_uses(_parse(sorted(SRC.glob("*.py")))) == []


def test_layout_scan():
    tree = ast.parse("\n".join([
        "class SparseMatrix:",
        "    def _row_layout(self):",
        "        return self._rows",
        "class View:",
        "    def _col_layout(self):",
        "        return self.base._col_layout()",
    ]))
    assert _layout_uses({"m": tree}) == [
        ("m", 5, "_col_layout"), ("m", 6, "_col_layout")]


def test_every_support_helper_has_a_test_reference():
    trees = _parse(sorted(TESTS.glob("*.py")))
    assert _unreferenced({"support": trees["support"]}, trees) == []


def _unused_imports(source):
    """Names a module imports and never reads; an import whose first line
    carries "# noqa: F401" is kept for its side effects, and a name listed
    in __all__ is re-exported."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if isinstance(node, ast.Import):
                name = name.split(".")[0]
            imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        found = _unused_imports(path.read_text())
        if found:
            unused[path.name] = found
    assert not unused, unused


def test_unused_import_scan():
    source = "\n".join([
        "import os",
        "import os.path",
        "import json  # noqa: F401",
        "from a import (b, c as d,",
        "               e)",
        "import f.g",
        "__all__ = ['e']",
        "d(f.g)",
    ])
    assert _unused_imports(source) == [(2, "os"), (4, "b")]
