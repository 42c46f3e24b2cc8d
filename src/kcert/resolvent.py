"""Resolvent certificate for a Krylov projection sequence.

The Verifier checks s[i] = u^T A^i v, i < L, by evaluating the sequence's
generating function once, at a random point lambda, through the resolvent
(I - lambda A)^-1.  Dumas, Kaltofen, Thome and Villard ("Linear time
interactive certificates for the minimal polynomial and the determinant of
a sparse matrix", ISSAC 2016) state a Verifier of this cost class:

  1. the Prover sends s[:L] and w = A^L v, for L = mK >= d + 1;
  2. the Verifier draws lambda;
  3. the Prover sends y = sum_(i<L) lambda^i A^i v;
  4. resolvent-identity: (I - lambda A) y = v - lambda^L w, entry by entry,
     with one operator application; a check, since it draws nothing;
  5. resolvent-horner: u^T y = sum_(i<L) s_i lambda^i by Horner; a test
     of weight L + 2n - 1.

The Verifier spends mu + 6n + 2L + O(log L) field ops.  Soundness: when
I - lambda A is nonsingular, step 4 forces y = (I - lambda A)^-1 (v -
lambda^L w), and det(I - lambda A) (u^T y - sum_(i<L) s_i lambda^i) is a
polynomial R in lambda of degree at most L + n - 1.  As a power series,
R / det(I - lambda A) begins with the true sequence less s, since w only
enters at lambda^L; so a wrong s makes R nonzero whatever w is, and w needs
no certificate of its own.  lambda passes as one of at most L + n - 1 roots
of R or n roots of det(I - lambda A): the error is (L + 2n - 1)/|S|.

The Prover takes everything from one chain with snapshots W_j = A^(jK) v,
the run compute_sequence(op, u, v, d + 1, snapshot_every=K) makes: w is
W_m, z = sum_(j<m) lambda^(jK) W_j, and y = sum_(i<K) lambda^i A^i z by
Horner, K - 1 matvecs on top of the chain's L.
"""

import math

from . import engine
from .field import poly_eval
from .matrix import dot, matvec, reduce_vector, scaled_accumulate
from .sequence import compute_sequence

M_SEQ = 0x50
M_END = 0x51
M_RES = 0x52


def choose_K(n, mu, delta):
    """Snapshot stride for s[:delta + 1] at application cost mu.

    sqrt(2n(delta + 1)/mu) balances the Prover's K - 1 extra matvecs
    against the ceil((delta + 1)/K) scaled sums of 2n field ops that build
    z; at most isqrt(delta) + 1, so the Prover's L + K - 1 matvecs stay
    within delta + 2 sqrt(delta) + 1.
    """
    K = math.isqrt(2 * n * (delta + 1) // max(mu, 1))
    return max(1, min(K, math.isqrt(delta) + 1))


def committed_length(delta, K):
    """L = mK, the least multiple of K above delta."""
    return (delta // K + 1) * K


def verifier_bound(n, mu, delta):
    """(formula, limit): the Verifier's field ops for s[:delta + 1].

    One application, 4n for the two sides of the identity, 2 bitlen(L) for
    lambda^L, 2n - 1 for u^T y, 2(L - 1) for Horner and 1 for the test.
    """
    L = committed_length(delta, choose_K(n, mu, delta))
    return ("mu + 6n + 2L + 2 log2(2L)",
            mu + 6 * n + 2 * L + 2 * L.bit_length())


def resolvent_cert(sess, op, u, v, delta, K, run=None):
    """Certified s[:delta + 1], s[i] = u^T A^i v, at snapshot stride K.

    A Prover holding compute_sequence(op, u, v, delta + 1,
    snapshot_every=K) passes it as run.
    """
    p = op.p
    n = op.n
    L = committed_length(delta, K)
    if sess.proving and run is None:
        run = compute_sequence(op, u, v, delta + 1, snapshot_every=K)
    s, snaps = run or (None, None)
    s = sess.send_vector(M_SEQ, s and s[:L], expect_len=L)
    w = sess.send_vector(M_END, snaps and snaps[-1], expect_len=n)
    lam = sess.challenge_scalar()
    y = None
    if sess.proving:
        # z by Horner in lambda^K over the snapshots, then y by Horner in
        # lambda A over z
        step = pow(lam, K, p)
        engine.charge_field_ops(2 * K.bit_length())
        z = snaps[-2]
        for wj in reversed(snaps[:-2]):
            z = reduce_vector(scaled_accumulate(wj, step, z), p)
        y = z
        for _ in range(K - 1):
            y = reduce_vector(scaled_accumulate(z, lam, matvec(op, y)), p)
    y = sess.send_vector(M_RES, y, expect_len=n)
    if sess.verifying:
        ay = matvec(op, y)
        lam_L = pow(lam, L, p)
        engine.charge_field_ops(2 * L.bit_length() + 4 * n)
        sess.check(not any((yi - vi - lam * ai + lam_L * wi) % p
                           for yi, vi, ai, wi in zip(y, v, ay, w)),
                   "resolvent-identity")
        sess.test(dot(u, y, p), poly_eval(s, lam, p), "resolvent-horner",
                  weight=L + 2 * n - 1)
    return s[:delta + 1]
