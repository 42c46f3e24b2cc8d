"""Certified linear-algebra results on logdepth.sequence_cert's sequence
certificates: the resolvent for minpoly and charpoly, det's header variant.

minpoly    certify projection sequences at 2n terms and the generator of
           each, the later ones filtered by the polynomial certified so far.
det        Wiedemann's method on DA for a public random diagonal D
           (Kaltofen-Saunders preconditioning): one Krylov run of 2n terms
           per attempt.  A singular A is shown by a kernel witness;
           otherwise the run and its generator are certified and both sides
           read det A off the generator, retrying with fresh scalings when
           the degree falls short.
charpoly   a committed monic polynomial g, audited at a random point:
           g(lambda) must equal the certified determinant of
           lambda I - A, run as det on the black box ShiftedOp, which
           computes lambda v - A v in one pass over A's triplets or
           layout, builds no matrix and charges mu(A) + 2n for every
           lambda.

Under the resolvent each certified sequence sends three frames, s[:L],
A^L v and y (kcert.resolvent), and costs the Verifier one operator
application and O(n) further field ops; a det attempt adds its mode byte
and the generator round.

The generator certificate (Kaltofen-Nehring-Saunders, ISSAC 2011;
Dumas-Kaltofen, ISSAC 2014) replaces the verifier's Berlekamp-Massey run:
the prover sends the generator f and a solution y of a Hankel system, and
the verifier checks both with two random linear combinations of the
certified sequence, in O(n) field ops.
"""

import warnings
from operator import mul

from . import engine
from .field import (f_inv, hankel_solve, minpoly_of_sequence, poly_degree,
                    poly_eval, poly_mul, window_sums)
from .logdepth import DEFAULT_VARIANT, SEQUENCE, sequence_cert
from .matrix import (DiagScaledOp, ShiftedOp, dot, matvec, reduce_vector,
                     scaled_accumulate)
from .oracle import dense_charpoly, mat_from_sparse

M_MODE = 0x43
M_WITNESS = 0x45
M_CHARPOLY = 0x47
M_GENERATOR = 0x48
M_HANKEL = 0x49

DET_ATTEMPTS = 3


def _generator_verifier_bound(n):
    """Verifier field ops of _certified_generator at degree bound n.

    At degree L the two window passes, the two combinations and the
    right-hand side cost 4n + 14L - 7, plus twice the bit length of each
    window width for its power of rho.
    """
    return 18 * n + 4 * (2 * n).bit_length()


def _certified_generator(sess, s, n, gen=None):
    """Certified monic minimal generator f of s[:2n]; returns f.

    s is a certified sequence whose generator has degree at most n.  The
    prover sends f, of degree L, then, for the verifier's beta, y with
    H y = b for H = (s[i + j]), i, j < L, and b = (1, beta, ..., beta^(L-1)).
    For the verifier's rho, with window sums c_i = sum_(j < W) rho^j s[i + j]:

      generator-recurrence  sum f_i c_i = 0 at W = 2n - L: f annihilates
                            every window of s (error (2n - L - 1)/|S|);
      generator-hankel      sum y_i c_i = sum_(j < L) (rho beta)^j at W = L:
                            H y = b, so H is nonsingular (error 2(L - 1)/|S|,
                            for beta and rho).

    A generator of lower degree, padded with zeros, would lie in the kernel
    of H, so f is the minimal one.  The verifier spends O(n) field ops.  A
    prover holding minpoly_of_sequence(s[:2n], p) passes it as gen.
    """
    p = sess.spec.p
    s = s[:2 * n]
    # the prover's y comes from its own (f, a), whatever f a tamper hook sent
    honest = (None, None)
    if sess.proving:
        honest = gen or minpoly_of_sequence(s, p)
    f = sess.send_vector(M_GENERATOR, honest[0])
    L = len(f) - 1
    sess.check(1 <= len(f) <= n + 1 and f[L] == 1, "generator-shape")
    beta = sess.challenge_scalar()
    y = hankel_solve(*honest, beta, p) if sess.proving else None
    y = sess.send_vector(M_HANKEL, y, expect_len=L)
    rho = sess.challenge_scalar()
    if sess.verifying:
        c = window_sums(s, rho, 2 * n - L, L + 1, p)
        sess.test(dot(f, c, p), 0, "generator-recurrence",
                  weight=2 * n - L - 1)
        if L:
            c = window_sums(s, rho, L, L, p)
            engine.charge_field_ops(1)
            rhs = poly_eval([1] * L, rho * beta % p, p)
            sess.test(dot(y, c, p), rhs, "generator-hankel",
                      weight=2 * (L - 1))
    return f


def _certified_minpoly(sess, op, projections):
    """Minimal polynomial of A from `projections` certified sequences.

    The first sequence's certified generator starts F.  A later sequence s
    is filtered by F: t_i = sum_j F_j s[i + j] = u^T A^i F(A) v has the
    generator h = g / gcd(g, F), of degree at most n - deg F, for g the
    generator of s, so F h = lcm(F, g).  The filter costs the verifier
    O(n deg F) field ops.  Once deg F = n there is nothing left to find.
    """
    p = op.p
    n = op.n
    if sess.spec.sample_set_size < 100 * n * n:
        warnings.warn("sample set size %d is small for n = %d; the "
                      "certified polynomial may be a proper divisor"
                      % (sess.spec.sample_set_size, n))
    certify = sequence_cert(DEFAULT_VARIANT, n, op.mu, 2 * n)[0]
    f = [1]
    for _ in range(projections):
        deg = len(f) - 1
        if deg == n:
            break
        u = sess.challenge_vector(n)
        v0 = sess.challenge_vector(n)
        s = certify(sess, op, u, v0)
        if deg:
            width = 2 * (n - deg)
            s = [sum(map(mul, f, s[i:i + deg + 1])) % p for i in range(width)]
            engine.charge_field_ops(width * (2 * deg + 1))
        h = _certified_generator(sess, s, n - deg)
        if deg:
            engine.charge_field_ops(2 * len(f) * len(h))
        f = poly_mul(f, h, p)
    return f


MINPOLY = engine.Kind(0x10, "minpoly", ("projections",),
                      ((1, engine.WORDS),), _certified_minpoly,
                      value_key="minimal_polynomial")


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


def _det_core(sess, op, variant):
    """Certify det A and return it; one Krylov run of DA per attempt.

    D, u and v are drawn first and the prover finds the generator f of
    u^T (DA)^i v, i < 2n.  When f(0) = 0 and a kernel witness turns up, the
    witness alone is checked.  Otherwise the same run and then f are
    certified, and both sides read det A off f: 0 when x | f (f divides the
    minimal polynomial of DA), +-f(0) / prod D at full degree, and a fresh
    attempt when the degree falls short.
    """
    p = op.p
    n = op.n
    # every attempt certifies a run of DA, whose application costs mu + n
    certify, krylov = sequence_cert(variant, n, op.mu + n, 2 * n)[:2]
    for _ in range(DET_ATTEMPTS):
        dvec = sess.challenge_vector(n, nonzero=True)
        u = sess.challenge_vector(n)
        v0 = sess.challenge_vector(n)
        b = DiagScaledOp(dvec, op)
        run = gen = w = None
        if sess.proving:
            run = krylov(b, u, v0)
            gen = minpoly_of_sequence(run[0][:2 * n], p)
            if gen[0][0] == 0:
                w = _kernel_witness(b, gen[0], v0)
        mode = sess.send_mode(M_MODE, int(w is not None))
        if mode not in (0, 1):
            raise engine.MalformedTranscript("unknown determinant mode byte")
        if mode == 1:
            w = sess.send_vector(M_WITNESS, w, expect_len=n)
            if sess.verifying:
                sess.check(any(w), "kernel-witness", (0,))
                sess.check(not any(matvec(op, w)), "kernel-witness", (1,))
            return 0
        s = certify(sess, b, u, v0, run)
        f = _certified_generator(sess, s, n, gen)
        if f[0] == 0:
            return 0
        if poly_degree(f) == n:
            return _det_of_scaled(f, dvec, p)
    raise engine.RejectError("degree-deficient", (DET_ATTEMPTS,))


def _det_limit(sess, n, mu, variant):
    """det's Verifier budget for an operator whose application costs mu.

    Each attempt certifies a sequence of DA, whose application costs
    mu + n, and its generator; the last one reads det off in n + 2.
    """
    attempts = sum(tag == M_MODE for tag, _ in sess.messages)
    per_attempt = sequence_cert(variant, n, mu + n, 2 * n)[2][1]
    return attempts * (per_attempt + _generator_verifier_bound(n)) + n + 2


def _det_bound(sess, op, variant):
    return ("verifier_field_ops", sess.verifier_ledger.field_ops,
            "attempts (sequence(DA, 2n) + 18n + 4 log2(2n)) + n + 2",
            _det_limit(sess, op.n, op.mu, variant))


# det takes every variant the sequence kind runs
DET = engine.Kind(0x11, "det", ("variant",), (SEQUENCE.limits[1],),
                  _det_core, value_key="determinant", bound=_det_bound)


def _certified_charpoly(sess, op):
    """Certify det(x I - A); returns its coefficients."""
    p = op.p
    n = op.n
    gdata = None
    if sess.proving:
        gdata = dense_charpoly(mat_from_sparse(op), p)
    g = sess.send_vector(M_CHARPOLY, gdata)
    sess.check(len(g) == n + 1 and g[n] == 1, "charpoly-shape", ())
    lam = sess.challenge_scalar()
    dval = _det_core(sess, ShiftedOp(lam, op), DEFAULT_VARIANT)
    if sess.verifying:
        gl = poly_eval(g, lam, p)
        sess.test(gl, dval, "charpoly-eval", weight=n)
    return g


def _charpoly_bound(sess, op):
    # det's budget at lambda I - A, whose application costs mu + 2n for
    # every lambda, and g(lambda) with its test
    n = op.n
    limit = _det_limit(sess, n, op.mu + 2 * n, DEFAULT_VARIANT)
    return ("verifier_field_ops", sess.verifier_ledger.field_ops,
            "det(lambda I - A) + 2n + 1", limit + 2 * n + 1)


CHARPOLY = engine.Kind(0x12, "charpoly", (), (),
                       _certified_charpoly,
                       value_key="characteristic_polynomial",
                       bound=_charpoly_bound)
