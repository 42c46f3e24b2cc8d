"""Blocked certificate for a Krylov projection sequence.

The prover commits checkpoint vectors W_j = A^{jK} v0 together with the
claimed sequence s.  The verifier then needs just two row vectors: Z = x^T
A^K for a random x, which links consecutive checkpoints, and T = sum_i r_i
u^T A^i over a random combination r, which ties each length-K block of s to
its checkpoint.  How Z and T are obtained varies:

  direct    the verifier computes both itself (2K operator applications);
  lists     the prover supplies the intermediate rows and the verifier spot
            checks each list with one random projection;
  delegate  Z comes out of a recursively certified sub-run on A^T, and T is
            committed, then audited against a second sub-run at a fresh
            projection vector.

A block of s that the checkpoints do not cover evenly leaves a tail: a
single leftover entry is checked directly against the last checkpoint,
a longer one gets its own combination row.
"""

from . import engine
from .matrix import (combine, dot, matvec, reduce_vector, scaled_accumulate,
                     vecmat)
from .sequence import compute_sequence

C_U = 0x01
C_V0 = 0x02
M_W = 0x03
M_S = 0x04
C_X = 0x05
C_R = 0x06
M_ZLIST = 0x07
M_TLIST = 0x08
C_YZ = 0x09
C_YT = 0x0A
M_T = 0x0B
M_TTAIL = 0x0C
C_PSI = 0x0D


def _check_krylov_list(sess, op, y, vecs, reject_id):
    """Spot-check vecs[i] = A^T vecs[i-1] for all i with one projection y."""
    p = op.p
    h = vecmat(y, op.T)
    for i in range(1, len(vecs)):
        lhs = dot(h, vecs[i - 1], p)
        rhs = dot(y, vecs[i], p)
        sess.note_test()
        sess.check(engine.scalar_equal(lhs, rhs), reject_id, (i,))


def _block_protocol(sess, op, u, v0, delta, K, zt_mode, delegate=None):
    """One blocked run; returns the committed (s, W) for enclosing protocols."""
    p = op.p
    n = op.n
    L = delta + 1
    m = -(-delta // K)  # committed checkpoints W_1 .. W_m
    q = L // K          # full blocks of s
    tail = L % K

    data = None
    if sess.proving:
        with sess.charging(engine.PROVER):
            data = compute_sequence(op, u, v0, delta,
                                    snapshot_every=K, chain_to=m * K)
    w = [v0]
    for j in range(1, m + 1):
        w.append(sess.send_vector(M_W, (lambda j=j: data[1][j]) if data else None,
                                  expect_len=n))
    s = sess.send_vector(M_S, (lambda: data[0]) if data else None, expect_len=L)

    x = sess.challenge_vector(C_X, n)
    for _ in range(64):
        if x != u:
            break
        x = sess.challenge_vector(C_X, n)
    else:
        raise ValueError("could not draw a projection distinct from u")

    z = t = t_tail = None
    if zt_mode == "direct":
        r = sess.challenge_vector(C_R, K)
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                z = list(x)
                for _ in range(K):
                    z = vecmat(z, op)
                t = [0] * n
                row = u
                for i in range(K):
                    if i > 0:
                        row = vecmat(row, op)
                    t = scaled_accumulate(t, r[i], row)
                    if tail >= 2 and i == tail - 1:
                        t_tail = reduce_vector(t, p)
                t = reduce_vector(t, p)
    elif zt_mode == "lists":
        zdata = tdata = None
        if sess.proving:
            with sess.charging(engine.PROVER):
                zdata = [x]
                for _ in range(K):
                    zdata.append(matvec(op.T, zdata[-1]))
                tdata = [u]
                for _ in range(K - 1):
                    tdata.append(matvec(op.T, tdata[-1]))
        z_full = [x]
        for i in range(1, K + 1):
            z_full.append(sess.send_vector(
                M_ZLIST, (lambda i=i: zdata[i]) if zdata else None, expect_len=n))
        t_full = [u]
        for i in range(1, K):
            t_full.append(sess.send_vector(
                M_TLIST, (lambda i=i: tdata[i]) if tdata else None, expect_len=n))
        y_z = sess.challenge_vector(C_YZ, n)
        y_t = sess.challenge_vector(C_YT, n)
        r = sess.challenge_vector(C_R, K)
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                _check_krylov_list(sess, op, y_z, z_full, "z-list")
                _check_krylov_list(sess, op, y_t, t_full, "t-list")
                z = z_full[K]
                t = [r[0] * ti for ti in t_full[0]]
                engine.charge_field_ops(n)
                for i in range(1, K):
                    t = scaled_accumulate(t, r[i], t_full[i])
                    if tail >= 2 and i == tail - 1:
                        t_tail = reduce_vector(t, p)
                t = reduce_vector(t, p)
    elif zt_mode == "delegate":
        _, zw = delegate(sess, op.T, x, x, K)
        z = zw[-1]
        r = sess.challenge_vector(C_R, K)
        tdata = None
        if sess.proving:
            with sess.charging(engine.PROVER):
                acc = [0] * n
                row = u
                ttail = None
                for i in range(K):
                    if i > 0:
                        row = vecmat(row, op)
                    acc = scaled_accumulate(acc, r[i], row)
                    if tail >= 2 and i == tail - 1:
                        ttail = reduce_vector(acc, p)
                tdata = (reduce_vector(acc, p), ttail)
        t = sess.send_vector(M_T, (lambda: tdata[0]) if tdata else None,
                             expect_len=n)
        if tail >= 2:
            t_tail = sess.send_vector(M_TTAIL, (lambda: tdata[1]) if tdata else None,
                                      expect_len=n)
        psi = sess.challenge_vector(C_PSI, n)
        gamma, _ = delegate(sess, op, u, psi, K - 1)
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                lhs = combine(r, gamma, p)
                rhs = dot(t, psi, p)
                sess.note_test()
                sess.check(engine.scalar_equal(lhs, rhs), "t-combination", ())
                if tail >= 2:
                    lhs = combine(r[:tail], gamma[:tail], p)
                    rhs = dot(t_tail, psi, p)
                    sess.note_test()
                    sess.check(engine.scalar_equal(lhs, rhs),
                               "t-tail-combination", ())
    else:
        raise ValueError("unknown zt mode %r" % (zt_mode,))

    if sess.verifying:
        with sess.charging(engine.VERIFIER):
            for j in range(1, m + 1):
                lhs = dot(x, w[j], p)
                rhs = dot(z, w[j - 1], p)
                sess.note_test()
                sess.check(engine.scalar_equal(lhs, rhs), "checkpoint-link", (j,))
            for j in range(q):
                lhs = combine(r, s[j * K:(j + 1) * K], p)
                rhs = dot(t, w[j], p)
                sess.note_test()
                sess.check(engine.scalar_equal(lhs, rhs), "block-combination", (j,))
            if tail == 1:
                # s[delta] meets the final checkpoint head on; no randomness used
                rhs = dot(u, w[m], p)
                sess.check(engine.scalar_equal(s[delta], rhs), "tail-entry", ())
            elif tail >= 2:
                lhs = combine(r[:tail], s[q * K:], p)
                rhs = dot(t_tail, w[q], p)
                sess.note_test()
                sess.check(engine.scalar_equal(lhs, rhs), "tail-combination", ())
    return s, w


def _validate(delta, K):
    if delta < 1:
        raise ValueError("sequence length parameter must be >= 1")
    if K < 1:
        raise ValueError("block size must be >= 1")


def checkpoint_header(mat, delta, K):
    params = (delta, K) + engine.digest_words(mat.digest)
    return engine.Header(engine.T_CHECKPOINT, mat.p, mat.n, params)


def run_checkpoint(sess, op, delta, K):
    """Certify u^T A^i v0 for i <= delta with verifier-computed Z and T rows."""
    _validate(delta, K)

    def body():
        u = sess.challenge_vector(C_U, op.n)
        v0 = sess.challenge_vector(C_V0, op.n)
        _block_protocol(sess, op, u, v0, delta, K, "direct")

    return engine.run_with_outcome(sess, body)


def dense_header(mat, delta, K):
    params = (delta, K) + engine.digest_words(mat.digest)
    return engine.Header(engine.T_DENSE, mat.p, mat.n, params)


def run_dense(sess, op, delta, K):
    """Certify the sequence with prover-supplied, spot-checked Z and T lists."""
    _validate(delta, K)

    def body():
        u = sess.challenge_vector(C_U, op.n)
        v0 = sess.challenge_vector(C_V0, op.n)
        _block_protocol(sess, op, u, v0, delta, K, "lists")

    return engine.run_with_outcome(sess, body)
