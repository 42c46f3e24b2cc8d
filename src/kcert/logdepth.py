"""Certificates whose verifier does logarithmically little operator work.

Two certificates for a single power w = A^d v:

  halving   the prover sends A^d v and A^(d//2) v, the verifier projects
            onto a random w and recurses on (A^T, w, d//2); one extra
            operator application per odd level.
  single    the prover sends the triple (A^(2^t) v, A^d v, A^(2^(t-1)) v)
            per level and the recursion peels one bit of d at a time; the
            verifier applies the operator exactly once, at the bottom.

On top of either power certificate sits a certificate for the whole
projection sequence s[i] = u^T A^i v: the sequence is committed once, its
two halves are tied to a certified midpoint power and to a committed
combination row T, and T itself is audited through a recursive sub-run at
a fresh projection.
"""

from . import engine
from .matrix import (combine, dot, matvec, reduce_vector, scaled_accumulate,
                     vecmat)

M_Z = 0x20
M_ZH = 0x21
M_ZT = 0x22
M_ZP = 0x23
C_W = 0x24
M_WH = 0x30
M_WFULL = 0x31
M_SEQ = 0x32
C_X2 = 0x33
C_R2 = 0x34
M_TCOMB = 0x35
C_PSI2 = 0x36
C_U2 = 0x37
C_V2 = 0x38

# header words are 64-bit, so a power d < 2^64 never needs a depth above 64
MAX_DEPTH = 64

VARIANT_CODES = {"checkpoint": 0, "dense": 1, "log": 2, "single": 3}
VARIANT_NAMES = {code: name for name, code in VARIANT_CODES.items()}


def _power_log(sess, op, v, d):
    """Certified (A^d v, A^(d//2) v) by halving the exponent each round."""
    p = op.p
    n = op.n
    data = None
    if sess.proving:
        with sess.charging(engine.PROVER):
            half = d // 2
            chain = list(v)
            zh = list(v)
            for i in range(1, d + 1):
                chain = matvec(op, chain)
                if i == half:
                    zh = list(chain)
            data = (chain, zh)
    z = sess.send_vector(M_Z, (lambda: data[0]) if data else None, expect_len=n)
    zh = sess.send_vector(M_ZH, (lambda: data[1]) if data else None, expect_len=n)
    if d == 1:
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                sess.check(engine.vectors_equal(zh, v), "power-half-base", ())
                sess.check(engine.vectors_equal(z, matvec(op, v)), "power-base", ())
        return z, zh
    w = sess.challenge_vector(C_W, n)
    y, _ = _power_log(sess, op.T, w, d // 2)
    if sess.verifying:
        with sess.charging(engine.VERIFIER):
            sess.note_test()
            sess.check(engine.scalar_equal(dot(w, zh, p), dot(y, v, p)),
                       "power-half-link", ())
            if d % 2 == 0:
                rhs = dot(y, zh, p)
            else:
                rhs = dot(y, matvec(op, zh), p)
            sess.note_test()
            sess.check(engine.scalar_equal(dot(w, z, p), rhs), "power-link", ())
    return z, zh


def _power_single(sess, op, v, d, t):
    """Certified (A^(2^t) v, A^d v, A^(2^(t-1)) v) with d <= 2^t.

    Exactly one verifier operator application across the whole recursion,
    at the t = 1 base.
    """
    p = op.p
    n = op.n
    half = 1 << (t - 1)
    full = 1 << t
    data = None
    if sess.proving:
        with sess.charging(engine.PROVER):
            # one chain of 2^t applications; A^d v is a snapshot on the way
            chain = list(v)
            z = list(v) if d == 0 else None
            for i in range(1, half + 1):
                chain = matvec(op, chain)
                if i == d:
                    z = list(chain)
            zp = list(chain)
            for i in range(half + 1, full + 1):
                chain = matvec(op, chain)
                if i == d:
                    z = list(chain)
            data = (chain, z, zp)
    zt = sess.send_vector(M_ZT, (lambda: data[0]) if data else None, expect_len=n)
    z = sess.send_vector(M_Z, (lambda: data[1]) if data else None, expect_len=n)
    zp = sess.send_vector(M_ZP, (lambda: data[2]) if data else None, expect_len=n)
    w = sess.challenge_vector(C_W, n)
    if t == 1:
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                y = matvec(op.T, w)
                sess.note_test()
                sess.check(engine.scalar_equal(dot(w, zp, p), dot(y, v, p)),
                           "power-step", (t,))
                if d == 2:
                    sess.note_test()
                    sess.check(engine.scalar_equal(dot(w, z, p), dot(y, zp, p)),
                               "power-target", (t,))
                    sess.check(engine.vectors_equal(zt, z), "power-square", (t,))
                else:
                    sess.check(engine.vectors_equal(z, zp), "power-target", (t,))
                    sess.note_test()
                    sess.check(engine.scalar_equal(dot(w, zt, p), dot(y, zp, p)),
                               "power-square", (t,))
        return zt, z, zp
    dp = d - half if d > half else d
    yt1, y, _ = _power_single(sess, op.T, w, dp, t - 1)
    if sess.verifying:
        with sess.charging(engine.VERIFIER):
            sess.note_test()
            sess.check(engine.scalar_equal(dot(w, zp, p), dot(yt1, v, p)),
                       "power-step", (t,))
            rhs = dot(y, zp, p) if d > half else dot(y, v, p)
            sess.note_test()
            sess.check(engine.scalar_equal(dot(w, z, p), rhs), "power-target", (t,))
            sess.note_test()
            sess.check(engine.scalar_equal(dot(w, zt, p), dot(yt1, zp, p)),
                       "power-square", (t,))
    return zt, z, zp


def minimal_depth(d):
    """Smallest t with d <= 2^t (at least 1)."""
    return max(1, (d - 1).bit_length())


def run_power(sess, op, v, d, variant, t=None):
    """Sub-protocol entry: certified A^d v under the chosen variant."""
    if variant == "log":
        z, _ = _power_log(sess, op, v, d)
        return z
    if variant == "single":
        if t is None:
            t = minimal_depth(d)
        _, z, _ = _power_single(sess, op, v, d, t)
        return z
    raise ValueError("unknown power variant %r" % (variant,))


def run_sequence_cert(sess, op, u, v, d, variant):
    """Certified s[i] = u^T A^i v for i <= d; returns s.

    d is rounded up to the next even value so the sequence splits into two
    equal halves; the extra trailing entry is certified along with the rest.
    """
    if d % 2:
        d += 1
    e = d // 2
    p = op.p
    n = op.n
    data = None
    if sess.proving:
        with sess.charging(engine.PROVER):
            chain = list(v)
            seq = [dot(u, chain, p)]
            wh = None
            for i in range(1, d + 1):
                chain = matvec(op, chain)
                seq.append(dot(u, chain, p))
                if i == e:
                    wh = list(chain)
            data = (wh, chain, seq)
    wh = sess.send_vector(M_WH, (lambda: data[0]) if data else None, expect_len=n)
    wfull = sess.send_vector(M_WFULL, (lambda: data[1]) if data else None,
                             expect_len=n)
    s = sess.send_vector(M_SEQ, (lambda: data[2]) if data else None,
                         expect_len=d + 1)
    if d == 2:
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                sess.check(engine.scalar_equal(s[0], dot(u, v, p)), "seq-base", (0,))
                sess.check(engine.vectors_equal(wh, matvec(op, v)), "seq-base", (1,))
                sess.check(engine.scalar_equal(s[1], dot(u, wh, p)), "seq-base", (2,))
                sess.check(engine.vectors_equal(wfull, matvec(op, wh)),
                           "seq-base", (3,))
                sess.check(engine.scalar_equal(s[2], dot(u, wfull, p)),
                           "seq-base", (4,))
        return s
    x = sess.challenge_vector(C_X2, n)
    z = run_power(sess, op.T, x, e, variant)
    if sess.verifying:
        with sess.charging(engine.VERIFIER):
            sess.note_test()
            sess.check(engine.scalar_equal(dot(x, wh, p), dot(z, v, p)),
                       "seq-first-half", ())
            sess.note_test()
            sess.check(engine.scalar_equal(dot(x, wfull, p), dot(z, wh, p)),
                       "seq-second-half", ())
    r = sess.challenge_vector(C_R2, e + 1)
    t_row = run_combination_cert(sess, op, u, r, e, variant)
    if sess.verifying:
        with sess.charging(engine.VERIFIER):
            sess.note_test()
            sess.check(engine.scalar_equal(combine(r, s[:e + 1], p),
                                           dot(t_row, v, p)),
                       "seq-low-combination", ())
            sess.note_test()
            sess.check(engine.scalar_equal(combine(r, s[e:], p),
                                           dot(t_row, wh, p)),
                       "seq-high-combination", ())
    return s


def run_combination_cert(sess, op, u, r, dcc, variant):
    """Certified row T = sum_i r[i] u^T A^i for i <= dcc; returns T."""
    p = op.p
    n = op.n
    data = None
    if sess.proving:
        with sess.charging(engine.PROVER):
            row = list(u)
            acc = [0] * n
            for i in range(dcc + 1):
                if i > 0:
                    row = vecmat(row, op)
                acc = scaled_accumulate(acc, r[i], row)
            data = reduce_vector(acc, p)
    t_row = sess.send_vector(M_TCOMB, (lambda: data) if data is not None else None,
                             expect_len=n)
    psi = sess.challenge_vector(C_PSI2, n)
    if dcc <= 1:
        if sess.verifying:
            with sess.charging(engine.VERIFIER):
                gamma = [dot(u, psi, p)]
                if dcc == 1:
                    gamma.append(dot(u, matvec(op, psi), p))
                sess.note_test()
                sess.check(engine.scalar_equal(combine(r[:dcc + 1], gamma, p),
                                               dot(t_row, psi, p)),
                           "combination-direct", ())
        return t_row
    sprime = run_sequence_cert(sess, op, u, psi, dcc, variant)
    if sess.verifying:
        with sess.charging(engine.VERIFIER):
            sess.note_test()
            sess.check(engine.scalar_equal(combine(r[:dcc + 1], sprime[:dcc + 1], p),
                                           dot(t_row, psi, p)),
                       "combination-delegated", ())
    return t_row


# -- sealed drivers, one per transcript kind

def power_log_header(mat, d):
    return engine.Header(engine.T_POWER_LOG, mat.p, mat.n,
                         (d,) + engine.digest_words(mat.digest))


def run_power_log(sess, op, d):
    if d < 1:
        raise ValueError("power must be >= 1")

    def body():
        v = sess.challenge_vector(C_V2, op.n)
        _power_log(sess, op, v, d)

    return engine.run_with_outcome(sess, body)


def power_single_header(mat, d, t=None):
    if t is None:
        t = minimal_depth(d)
    return engine.Header(engine.T_POWER_SINGLE, mat.p, mat.n,
                         (d, t) + engine.digest_words(mat.digest))


def run_power_single(sess, op, d, t=None):
    if d < 1:
        raise ValueError("power must be >= 1")
    if t is None:
        t = minimal_depth(d)
    if not 1 <= t <= MAX_DEPTH:
        raise ValueError("depth %d outside 1..%d" % (t, MAX_DEPTH))
    if minimal_depth(d) > t:
        raise ValueError("depth %d cannot reach power %d" % (t, d))

    def body():
        v = sess.challenge_vector(C_V2, op.n)
        _power_single(sess, op, v, d, t)

    return engine.run_with_outcome(sess, body)


def sequence_header(mat, d, variant):
    params = (d, VARIANT_CODES[variant]) + engine.digest_words(mat.digest)
    return engine.Header(engine.T_SEQUENCE, mat.p, mat.n, params)


def run_sequence(sess, op, d, variant):
    if d < 1:
        raise ValueError("sequence length parameter must be >= 1")
    if variant not in ("log", "single"):
        raise ValueError("sequence variant must be log or single")

    def body():
        u = sess.challenge_vector(C_U2, op.n)
        v = sess.challenge_vector(C_V2, op.n)
        run_sequence_cert(sess, op, u, v, d, variant)

    return engine.run_with_outcome(sess, body)


def combination_header(mat, d, variant):
    params = (d, VARIANT_CODES[variant]) + engine.digest_words(mat.digest)
    return engine.Header(engine.T_COMBINATION, mat.p, mat.n, params)


def run_combination(sess, op, d, variant):
    if d < 0:
        raise ValueError("combination degree must be >= 0")
    if variant not in ("log", "single"):
        raise ValueError("combination variant must be log or single")

    def body():
        u = sess.challenge_vector(C_U2, op.n)
        r = sess.challenge_vector(C_R2, d + 1)
        run_combination_cert(sess, op, u, r, d, variant)

    return engine.run_with_outcome(sess, body)
