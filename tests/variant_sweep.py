"""Cost of each sequence certificate the applications can delegate to.

For every application kind (det, minpoly with one projection, charpoly),
every variant and n = 2^k and 2^k + 1 from 64 up to --max-n, print one row:
prove seconds and verify seconds (best of --repeat library calls, a proving
session and a verifying session replaying its bytes), transcript bytes and
the Verifier's field ops.  det runs on random_sparse(n, 3, seed) + I, which
takes the certified-generator path; minpoly and charpoly run on
random_sparse(n, 3, seed).  The last columns name, per (kind, n), the
variants with the fewest bytes, the fewest Verifier ops and the fastest
verify.  The CLI default (`cli.DEFAULT_VARIANT`) is chosen from this table.

    PYTHONPATH=src python3 tests/variant_sweep.py [--max-n 513] [--repeat 3]

pytest does not collect this file; the full default sweep takes minutes
(charpoly's prover does cubic work in n, in O(n^2) big-integer steps over
packed matrix columns; see kcert.oracle).
"""

import argparse
import time

from kcert import applications as apps, engine
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix, random_sparse

KINDS = {"det": apps.DET, "minpoly": apps.MINPOLY, "charpoly": apps.CHARPOLY}


def sizes(max_n):
    n = 64
    while n <= max_n:
        yield n
        if n + 1 <= max_n:
            yield n + 1
        n *= 2


def matrix(name, n, seed):
    mat = random_sparse(n, 3, seed, DEFAULT_PRIME)
    if name == "det":
        mat = SparseMatrix(n, mat.p, mat.triplets + tuple(
            (i, i, 1) for i in range(n)))
    return mat


def measure(kind, mat, values, repeat):
    """(prove s, verify s, bytes, Verifier field ops), best time of repeat."""
    spec = FieldSpec(mat.p)
    prove_s = verify_s = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        ps = engine.Session(spec, kind.header(mat, *values), "prove")
        kind.run(ps, mat)
        blob = ps.transcript_bytes()
        t1 = time.perf_counter()
        header, msgs = engine.parse_transcript(blob)
        vs = engine.Session(spec, header, "verify", recorded=msgs)
        outcome, _ = kind.run(vs, mat)
        t2 = time.perf_counter()
        if not outcome.accepted:
            raise SystemExit("%s rejected at %s" % (kind.name,
                                                     outcome.check_id))
        prove_s = min(prove_s, t1 - t0)
        verify_s = min(verify_s, t2 - t1)
    return prove_s, verify_s, len(blob), vs.verifier_ledger.field_ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=int, default=513)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--kinds", default=",".join(KINDS),
                    help="comma separated subset of %s" % ",".join(KINDS))
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print("| kind | n | variant | prove s | verify s | bytes | verifier ops "
          "| fewest bytes | fewest ops | fastest verify |")
    print("| --- | ---: | --- | ---: | ---: | ---: | ---: | --- | --- | --- |")
    for name in args.kinds.split(","):
        kind = KINDS[name]
        for n in sizes(args.max_n):
            mat = matrix(name, n, args.seed)
            rows = {}
            for variant in apps.ALL_VARIANTS:
                values = (variant, 1) if kind is apps.MINPOLY else (variant,)
                rows[variant] = measure(kind, mat, values, args.repeat)
            best = [min(rows, key=lambda v: rows[v][col]) for col in (2, 3, 1)]
            for variant, (prove_s, verify_s, size, ops) in rows.items():
                print("| %s | %d | %s | %.3f | %.4f | %d | %d | %s |"
                      % (name, n, variant, prove_s, verify_s, size, ops,
                         " | ".join(best)), flush=True)


if __name__ == "__main__":
    main()
