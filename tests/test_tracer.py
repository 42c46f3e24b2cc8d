"""perfbench's tracer still finds every kcert function it times, except the
ones kcert deleted on purpose.

The tracer wraps its targets by name and lists the ones it cannot find in
``missing``, so a renamed function would silently empty a per-layer metric.
Under COVERED, exactly the DROPPED targets may be missing: the tracer
still names them until the benchmark changes, and any other missing
target fails.  perfbench/ is not a package, so the tracer is loaded from
its file, after every kcert module is imported.
"""

import importlib.util
import os

import kcert.cli  # noqa: F401  imports every module the tracer patches

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")

# of oracle.dense, only the charpoly prover's dense method is still in kcert
COVERED = ("kcert.matrix.", "kcert.engine.", "kcert.field.", "kcert.sequence.",
           "kcert.oracle.mat_from_sparse", "kcert.oracle.dense_charpoly")

# deleted from kcert with no protocol caller left: the scalar message path
# and the lcm helper; DiagScaledOp inherits apply and rapply, timed under
# SparseMatrix's
DROPPED = ("kcert.engine.Session.send_scalar", "kcert.engine.decode_scalar",
           "kcert.engine.encode_scalar", "kcert.field.poly_lcm",
           "kcert.matrix.DiagScaledOp.apply",
           "kcert.matrix.DiagScaledOp.rapply")


def test_tracer_finds_every_kcert_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tracer = mod.Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert sorted(m for m in missing if m.startswith(COVERED)) == \
        sorted(DROPPED)
