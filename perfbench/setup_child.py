"""One benchmark set-up, or its reference, in a fresh interpreter.

Usage: python3 -I setup_child.py ROOT WORKLOAD SEED OUT_PATH
       python3 -I setup_child.py reference

The first form prints the seconds from just before ``import kcert.cli`` to
just after the workload's matrix file is written.  Interpreter start-up is
excluded; everything kcert pulls in at import time is included, which a
re-import inside one process would hide.

The second form prints the seconds to import a fixed set of stdlib modules.
Both forms pay for a fresh process touching new memory, which the in-process
reference kernel does not see; set-up time is reported relative to this
reference, taken right before each set-up.
"""

import os
import sys
import time

REFERENCE_MODULES = ("argparse", "csv", "dataclasses", "decimal", "email.parser",
                     "fractions", "hashlib", "json", "logging", "pathlib", "random")


def reference():
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        __import__(name)
    return time.perf_counter() - t0


def setup(root, workload, seed, out):
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    t0 = time.perf_counter()
    import kcert
    import kcert.cli  # noqa: F401  (the entry point every timed call goes through)
    import inputs
    w = inputs.WORKLOADS[workload]
    kcert.write_matrix(kcert.SparseMatrix(w.n, inputs.P, inputs.triplets(w, seed)), out)
    return time.perf_counter() - t0


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        print(repr(reference()))
    else:
        print(repr(setup(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])))
