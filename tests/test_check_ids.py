"""The check ids a verifier can reject with, read from the source.

A reject names the check that failed.  This walk over src/kcert collects
every id a reject can carry: the literal ids passed to Session.test,
Session.check and RejectError, and the reject_id of _check_krylov_list.
The set is pinned, so adding or deleting a check shows up here.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kcert"

# call name: (position, keyword) of its id argument
ID_ARGUMENT = {
    "test": (2, "check_id"),
    "check": (1, "check_id"),
    "RejectError": (0, "check_id"),
    "_check_krylov_list": (4, "reject_id"),
}

CHECK_IDS = {
    # Session.test
    "checkpoint-link", "block-combination", "t-combination",
    "power-half-link", "power-link", "power-step", "power-target",
    "power-square", "seq-first-half", "seq-low-combination",
    "seq-high-combination", "combination-direct", "combination-delegated",
    "generator-recurrence", "generator-hankel", "charpoly-eval",
    # Session.check
    "tail-entry", "generator-shape", "kernel-witness", "charpoly-shape",
    # RejectError
    "degree-deficient",
    # _check_krylov_list
    "z-list", "t-list",
}


def _id_arguments():
    """(module, id argument node) for every call that names a check id."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name not in ID_ARGUMENT:
                continue
            at, key = ID_ARGUMENT[name]
            for arg in node.args[at:at + 1] + [
                    k.value for k in node.keywords if k.arg == key]:
                yield path.name, arg


def test_check_ids_are_pinned():
    literal = set()
    handed_on = set()
    for module, arg in _id_arguments():
        if isinstance(arg, ast.Constant):
            literal.add(arg.value)
        else:
            handed_on.add((module, ast.unparse(arg)))
    assert literal == CHECK_IDS
    # every other id argument passes a caller's id on unchanged:
    # Session.test to Session.check to RejectError, and _check_krylov_list
    # to Session.test
    assert handed_on == {("engine.py", "check_id"),
                         ("checkpoint.py", "reject_id")}
