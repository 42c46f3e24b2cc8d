"""Certified linear-algebra results built on the sequence certificates.

minpoly    certify projection sequences at 2n terms, recover each run's
           generator with the iterative solver, combine by lcm, and hold
           the prover to a committed claim.
det        a committed claim plus either a kernel witness (singular) or a
           diagonally preconditioned minimal polynomial of full degree
           (nonsingular), retried with fresh scalings when the degree
           falls short.  The prover computes its claim by Wiedemann's
           method on D'A for a private diagonal D' (Kaltofen-Saunders
           preconditioning), one Krylov run of 2n terms, not by dense
           elimination.
charpoly   a committed monic polynomial g, audited at a random point:
           g(lambda) must equal the certified determinant of the
           materialised shift lambda I - A.
"""

import logging
import random

from . import engine
from .checkpoint import _block_protocol, direct_rows, list_rows
from .field import f_inv, minpoly_of_sequence, poly_degree, poly_eval, poly_lcm
from .logdepth import run_sequence_cert
from .matrix import (DiagScaledOp, SparseMatrix, matvec, reduce_vector,
                     scaled_accumulate)
from .oracle import dense_charpoly, mat_from_sparse
from .sequence import choose_K, choose_K_dense, compute_sequence

log = logging.getLogger(__name__)

C_U3 = 0x40
C_V3 = 0x41
M_MINPOLY = 0x42
M_MODE = 0x43
M_DETVAL = 0x44
M_WITNESS = 0x45
C_D = 0x46
M_CHARPOLY = 0x47
C_LAMBDA = 0x48

DET_ATTEMPTS = 3
CLAIM_ATTEMPTS = 3


def _certified_sequence(sess, op, u, v0, delta, variant):
    """One certified projection sequence under the chosen sub-protocol."""
    if variant == "checkpoint":
        s, _ = _block_protocol(sess, op, u, v0, delta,
                               choose_K(op.n, delta, op.mu), direct_rows)
        return s
    if variant == "dense":
        s, _ = _block_protocol(sess, op, u, v0, delta,
                               choose_K_dense(delta), list_rows)
        return s
    if variant in ("log", "single"):
        return run_sequence_cert(sess, op, u, v0, delta, variant)
    raise ValueError("unknown sequence variant %r" % (variant,))


def _certified_minpoly(sess, op, variant, projections):
    """lcm of the generators of `projections` certified sequences of A."""
    p = op.p
    n = op.n
    f = [1]
    for _ in range(projections):
        u = sess.challenge_vector(C_U3, n)
        v0 = sess.challenge_vector(C_V3, n)
        s = _certified_sequence(sess, op, u, v0, 2 * n, variant)
        role = engine.VERIFIER if sess.verifying else engine.PROVER
        with sess.charging(role):
            g = minpoly_of_sequence(s[:2 * n], p)
            f = poly_lcm(f, g, p)
    return f


def run_minpoly(sess, op, variant="single", projections=1):
    """Certify the minimal polynomial of A; returns (outcome, coefficients)."""
    if variant not in engine.VARIANT_CODES:
        raise ValueError("unknown sequence variant %r" % (variant,))
    if projections < 1:
        raise ValueError("need at least one projection")
    if sess.spec.sample_set_size < 100 * op.n * op.n:
        log.warning("sample set size %d is small for n = %d; "
                    "the certified polynomial may be a proper divisor",
                    sess.spec.sample_set_size, op.n)
    result = {}

    def body():
        f = _certified_minpoly(sess, op, variant, projections)
        claimed = sess.send_vector(M_MINPOLY, (lambda: f) if sess.proving else None)
        sess.check(claimed == f, "minpoly-mismatch", ())
        result["value"] = claimed

    outcome = engine.run_with_outcome(sess, body)
    return outcome, result.get("value")


MINPOLY = engine.Kind(engine.T_MINPOLY, "minpoly", ("variant", "projections"),
                      run_minpoly, value_key="minimal_polynomial")
minpoly_header = MINPOLY.header


def _det_of_scaled(f, dvec, p):
    """det A from the full-degree minimal polynomial f of diag(dvec) A.

    f is then the characteristic polynomial, so det(DA) = (-1)^n f(0); the
    product of dvec is divided out.  Charges n + 2 field operations.
    """
    n = len(dvec)
    det_b = f[0] if n % 2 == 0 else -f[0] % p
    prod = 1
    for di in dvec:
        prod = prod * di % p
    engine.charge_field_ops(n + 2)
    return det_b * f_inv(prod, p) % p


def _kernel_witness(b, f, v):
    """Nonzero w with B w = 0, from a generator f = x^k g of u^T B^i v.

    y = g(B) v is annihilated by B^k when f generates v's Krylov sequence,
    so stepping y <- B y at most k times reaches 0; the last nonzero y is
    the witness.  None when y is 0 or k steps do not reach 0 (f then
    generates only the projection).
    """
    p = b.p
    k = next(i for i, c in enumerate(f) if c)
    g = f[k:]
    y = list(v)
    for c in reversed(g[:-1]):
        y = reduce_vector(scaled_accumulate(matvec(b, y), c, v), p)
    if not any(y):
        return None
    for _ in range(k):
        z = matvec(b, y)
        if not any(z):
            return y
        y = z
    return None


def _det_claim(op, rng):
    """The prover's (det A, kernel witness or None), by Wiedemann on D'A.

    Each attempt draws a private diagonal D' and projections u', v' from
    rng and finds the generator f of u'^T (D'A)^i v', i < 2n.  Full degree
    with f(0) != 0 gives the determinant; f(0) = 0 proves A singular and
    leads to a kernel witness.  Otherwise, or when no witness turns up, the
    attempt is retried; after CLAIM_ATTEMPTS the prover gives up.
    Applications and dots are charged through matvec and dot.
    """
    p = op.p
    n = op.n
    for _ in range(CLAIM_ATTEMPTS):
        dvec = [rng.randrange(1, p) for _ in range(n)]
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        b = DiagScaledOp(dvec, op, "left")
        f = minpoly_of_sequence(compute_sequence(b, u, v, 2 * n - 1), p)
        if f[0] == 0:
            w = _kernel_witness(b, f, v)
            if w is not None:
                return 0, w
        elif poly_degree(f) == n:
            return _det_of_scaled(f, dvec, p), None
    raise engine.RejectError("degree-deficient", (CLAIM_ATTEMPTS,))


def _det_core(sess, op, variant, known=None):
    """Commit a determinant claim and certify it; returns the claimed value.

    A prover that already knows det A passes it as known; it then searches
    for a kernel witness only when known is 0.
    """
    p = op.p
    n = op.n
    claim = None
    if sess.proving:
        with sess.charging(engine.PROVER):
            if known:
                claim = (known, None)
            else:
                claim = _det_claim(op, random.Random(sess.header.encode()))
    mode = sess.send_mode(M_MODE, (lambda: 1 if claim[0] == 0 else 0) if claim else None)
    if mode not in (0, 1):
        raise engine.MalformedTranscript("unknown determinant mode byte")
    value = sess.send_scalar(M_DETVAL, (lambda: claim[0]) if claim else None)

    if mode == 1:
        w = sess.send_vector(M_WITNESS, (lambda: claim[1]) if claim else None,
                             expect_len=n)
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                sess.check(any(w), "kernel-witness", (0,))
                sess.check(not any(matvec(op, w)), "kernel-witness", (1,))
                sess.check(engine.scalar_equal(value, 0), "det-claim", ())
        return value

    for attempt in range(DET_ATTEMPTS):
        dvec = sess.challenge_vector(C_D, n, nonzero=True)
        b = DiagScaledOp(dvec, op, "left")
        f = _certified_minpoly(sess, b, variant, 1)
        if poly_degree(f) < n:
            continue
        role = engine.VERIFIER if sess.verifying else engine.PROVER
        with sess.charging(role):
            det_a = _det_of_scaled(f, dvec, p)
        sess.check(engine.scalar_equal(det_a, value), "det-claim", (attempt,))
        return value
    raise engine.RejectError("degree-deficient", (DET_ATTEMPTS,))


def run_det(sess, op, variant="single"):
    """Certify det(A); returns (outcome, value)."""
    if variant not in engine.VARIANT_CODES:
        raise ValueError("unknown sequence variant %r" % (variant,))
    result = {}

    def body():
        result["value"] = _det_core(sess, op, variant)

    outcome = engine.run_with_outcome(sess, body)
    return outcome, result.get("value") if outcome.accepted else None


DET = engine.Kind(engine.T_DET, "det", ("variant",), run_det,
                  value_key="determinant")
det_header = DET.header


def run_charpoly(sess, op, variant="single"):
    """Certify det(x I - A); returns (outcome, coefficients)."""
    if variant not in engine.VARIANT_CODES:
        raise ValueError("unknown sequence variant %r" % (variant,))
    result = {}

    def body():
        p = op.p
        n = op.n
        gdata = None
        if sess.proving:
            with sess.charging(engine.PROVER):
                gdata = dense_charpoly(mat_from_sparse(op), p)
        g = sess.send_vector(M_CHARPOLY, (lambda: gdata) if gdata else None)
        sess.check(len(g) == n + 1 and g[n] == 1, "charpoly-shape", ())
        lam = sess.challenge_scalar(C_LAMBDA)
        role = engine.VERIFIER if sess.verifying else engine.PROVER
        with sess.charging(role):
            # the shift is materialised: its own sparsity cost is what the
            # determinant run below gets charged for
            trips = [(r, c, -v % p) for r, c, v in op.triplets]
            trips += [(i, i, lam) for i in range(n)]
            cmat = SparseMatrix(n, p, trips)
            engine.charge_field_ops(op.nnz + n)
        # the prover's own g(lambda) is its claim for det(lambda I - A)
        gval = None
        if sess.proving:
            with sess.charging(engine.PROVER):
                gval = poly_eval(gdata, lam, p)
        dval = _det_core(sess, cmat, variant, gval)
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                gl = poly_eval(g, lam, p)
                sess.note_test(weight=n)
                sess.check(engine.scalar_equal(gl, dval), "charpoly-eval", ())
        result["value"] = g

    outcome = engine.run_with_outcome(sess, body)
    return outcome, result.get("value") if outcome.accepted else None


CHARPOLY = engine.Kind(engine.T_CHARPOLY, "charpoly", ("variant",),
                       run_charpoly, value_key="characteristic_polynomial")
charpoly_header = CHARPOLY.header
