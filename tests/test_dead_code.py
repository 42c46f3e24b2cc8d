"""Every function and method in src/kcert is used by src/kcert itself.

A name counts as used when it appears, outside its own body, as a name, an
attribute or an import anywhere in the package.  Tests alone do not keep a
function alive: a helper only the tests call belongs in tests/support.py.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kcert"

# names the benchmark's tracer wraps (perfbench/tracer.py LAYERS); they go
# when the tracer stops naming them
ALLOWED = {"field.poly_lcm", "engine.Session.send_scalar"}


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


def test_every_function_has_a_src_reference():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    unused = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call is not a use
            own = sum(n == name for n in _names(node))
            if used[name] - own == 0:
                unused.add(qualname)
    assert not unused - ALLOWED, sorted(unused - ALLOWED)
