"""Certificates whose verifier does logarithmically little operator work.

Two certificates for a single power w = A^d v, the variants of each kind:

  log       the prover sends A^d v and A^(d//2) v, the verifier projects
            onto a random w and recurses on (A^T, w, d//2); one extra
            operator application per odd level, and at d = 1 the verifier
            applies the operator itself.
  single    the prover sends A^(2^t) v and A^(2^(t-1)) v per level, from
            the least t with d <= 2^t down to 1, and A^d v only when d is
            neither; the recursion peels one bit of d at a time and the
            verifier applies the operator exactly once, at the bottom.

On top of either power certificate sits a certificate for the whole
projection sequence s[i] = u^T A^i v: the sequence is committed once with
its midpoint power A^(d/2) v, which a certified power ties to v; a committed
combination row T ties both halves of s to v and to that midpoint, and T
itself is audited through a recursive sub-run at a fresh projection.  A
sequence of three entries is not certified: the verifier recomputes it.

The prover builds the rows u^T A^i, i <= d/2, once per top-level
certificate: each level's s is those rows against v and against A^(d/2) v,
its T is a combination of them, and every audit sub-run projects onto the
same u, so it needs only a prefix of them.  A level then costs the prover
d/2 matvecs and no vecmats.

The sequence kind runs this certificate over either power certificate,
and, as its third variant, the resolvent certificate of kcert.resolvent.
sequence_cert is the one lookup of a variant's certificate, for the
sequence kind and for the applications of kcert.applications alike.
"""

from functools import partial

from . import engine, resolvent
from .matrix import dot, matvec
from .sequence import (combination_row, compute_sequence, krylov_rows,
                       minimal_depth, powers, seq_log_verifier_reference,
                       seq_single_verifier_reference, split_sequence)

M_Z = 0x20
M_ZH = 0x21
M_ZT = 0x22
M_ZP = 0x23
M_WH = 0x30
M_SEQ = 0x32
M_TCOMB = 0x35


def _power_log(sess, op, v, d):
    """Certified (A^d v, A^(d//2) v) by halving the exponent each round.

    At d = 1 nothing is sent: the half power is v itself, and both sides
    apply the operator once for A v, which the verifier would otherwise
    apply anyway to check a sent copy.
    """
    p = op.p
    n = op.n
    if d == 1:
        return matvec(op, v), v
    data = (None, None)
    if sess.proving:
        data = powers(op, v, (d, d // 2))
    z = sess.send_vector(M_Z, data[0], expect_len=n)
    zh = sess.send_vector(M_ZH, data[1], expect_len=n)
    w = sess.challenge_vector(n)
    y, _ = _power_log(sess, op.T, w, d // 2)
    if sess.verifying:
        sess.test(dot(w, zh, p), dot(y, v, p), "power-half-link")
        if d % 2 == 0:
            rhs = dot(y, zh, p)
        else:
            rhs = dot(y, matvec(op, zh), p)
        sess.test(dot(w, z, p), rhs, "power-link")
    return z, zh


def _power_single(sess, op, v, d, t):
    """Certified (A^(2^t) v, A^d v, A^(2^(t-1)) v) with d <= 2^t.

    The prover sends zt = A^(2^t) v and zp = A^(2^(t-1)) v, then z = A^d v
    only when d is neither 2^t nor 2^(t-1); otherwise z is zt or zp and the
    target test would repeat the square or the step test.  Exactly one
    verifier operator application across the whole recursion, at the t = 1
    base, where d is 1 or 2 and z is never sent.
    """
    p = op.p
    n = op.n
    half = 1 << (t - 1)
    data = (None, None, None)
    if sess.proving:
        data = powers(op, v, (1 << t, half, d))
    zt = sess.send_vector(M_ZT, data[0], expect_len=n)
    zp = sess.send_vector(M_ZP, data[1], expect_len=n)
    sent = d not in (half, 2 * half)
    if sent:
        z = sess.send_vector(M_Z, data[2], expect_len=n)
    else:
        z = zt if d > half else zp
    w = sess.challenge_vector(n)
    if t == 1:
        if sess.verifying:
            y = matvec(op.T, w)
            sess.test(dot(w, zp, p), dot(y, v, p), "power-step", (t,))
            sess.test(dot(w, zt, p), dot(y, zp, p), "power-square", (t,))
        return zt, z, zp
    dp = d - half if d > half else d
    yt1, y, _ = _power_single(sess, op.T, w, dp, t - 1)
    if sess.verifying:
        sess.test(dot(w, zp, p), dot(yt1, v, p), "power-step", (t,))
        if sent:
            rhs = dot(y, zp, p) if d > half else dot(y, v, p)
            sess.test(dot(w, z, p), rhs, "power-target", (t,))
        sess.test(dot(w, zt, p), dot(yt1, zp, p), "power-square", (t,))
    return zt, z, zp


def run_power(sess, op, v, d, variant):
    """Sub-protocol entry: certified A^d v under the chosen variant."""
    if variant == "log":
        z, _ = _power_log(sess, op, v, d)
        return z
    _, z, _ = _power_single(sess, op, v, d, minimal_depth(d))
    return z


def run_sequence_cert(sess, op, u, v, d, variant, run=None):
    """Certified s[i] = u^T A^i v for i <= d; returns s.

    d is rounded up to the next even value so the sequence splits into two
    equal halves; the extra trailing entry is certified along with the rest.
    The prover takes s, wh = A^(d/2) v and the rows u^T A^i, i <= d/2, from
    split_sequence(op, u, v, d) for the rounded d; a prover that already
    holds that split passes it as run.  The rows serve the combination
    certificate and, since every audit sub-run projects onto the same u,
    every level below it.

    Only the midpoint power wh is sent with s.  seq-first-half ties wh to v
    through the certified power; the combination row T then ties s[:e + 1]
    to v and s[e:] to wh.  A^d v itself is never read.
    """
    if d % 2:
        d += 1
    e = d // 2
    p = op.p
    n = op.n
    if sess.proving and run is None:
        run = split_sequence(op, u, v, d)
    if d == 2:
        # checking sent entries took the verifier the same two applications
        # as computing them, so nothing is sent and both sides compute them
        return run[0] if sess.proving else compute_sequence(op, u, v, 2)[0]
    s, wh, rows = run or (None, None, None)
    wh = sess.send_vector(M_WH, wh, expect_len=n)
    s = sess.send_vector(M_SEQ, s, expect_len=d + 1)
    x = sess.challenge_vector(n)
    z = run_power(sess, op.T, x, e, variant)
    if sess.verifying:
        sess.test(dot(x, wh, p), dot(z, v, p), "seq-first-half")
    r = sess.challenge_vector(e + 1)
    t_row = run_combination_cert(sess, op, u, r, e, variant, rows)
    if sess.verifying:
        sess.test(dot(r, s[:e + 1], p), dot(t_row, v, p),
                  "seq-low-combination")
        sess.test(dot(r, s[e:], p), dot(t_row, wh, p),
                  "seq-high-combination")
    return s


def run_combination_cert(sess, op, u, r, dcc, variant, rows=None):
    """Certified row T = sum_i r[i] u^T A^i for i <= dcc; returns T.

    A prover that already holds the rows u^T A^i for i <= dcc, as
    krylov_rows or split_sequence return them, passes them as rows; the
    audit sub-run takes its own from the same list.
    """
    p = op.p
    n = op.n
    data = None
    if sess.proving:
        if rows is None:
            rows = krylov_rows(op, u, dcc)
        data = combination_row(op, u, r, rows)
    t_row = sess.send_vector(M_TCOMB, data, expect_len=n)
    psi = sess.challenge_vector(n)
    if dcc <= 1:
        if sess.verifying:
            gamma = [dot(u, psi, p)]
            if dcc == 1:
                gamma.append(dot(u, matvec(op, psi), p))
            sess.test(dot(r[:dcc + 1], gamma, p), dot(t_row, psi, p),
                      "combination-direct")
        return t_row
    run = None
    if sess.proving:
        run = split_sequence(op, u, psi, dcc + dcc % 2, rows)
    sprime = run_sequence_cert(sess, op, u, psi, dcc, variant, run)
    if sess.verifying:
        sess.test(dot(r[:dcc + 1], sprime[:dcc + 1], p),
                  dot(t_row, psi, p), "combination-delegated")
    return t_row


# the header words of a "variant" parameter, each naming a sequence
# certificate; POWER and COMBINATION run the two log-depth ones
VARIANTS = {"log": 2, "single": 3, "resolvent": 4}
LOG_DEPTH = {k: VARIANTS[k] for k in ("log", "single")}

# minpoly's and charpoly's sequence certificate, and det's by default
DEFAULT_VARIANT = "resolvent"


def sequence_cert(variant, n, mu, delta):
    """(certify, krylov, (formula, limit)) of the sequence certificate
    variant names, for s[:delta + 1] at dimension n and application cost mu.

    certify(sess, op, u, v, run=None) returns the certified s, run being the
    prover's krylov(op, u, v) for an even delta; (formula, limit) is the
    Verifier's field-op budget.  resolvent snapshots the run at the K chosen
    here, and its budget is resolvent.verifier_bound.  Under log and single,
    for d = delta, of at most ceil(log2 d) - 1 halving levels, level i runs
    a power certificate ceil(log2 d) - 1 - i deep, which the reference
    sums, and its own tests, 10n + 2, which a second reference covers; its
    three combinations over half of s, 2e + 1 each, sum to under
    6d + 9 log2 d.  The verifier recomputes the three-entry base,
    2mu + 3(2n - 1).
    """
    if variant == "resolvent":
        K = resolvent.choose_K(n, mu, delta)
        return (lambda sess, op, u, v, run=None: resolvent.resolvent_cert(
                    sess, op, u, v, delta, K, run),
                partial(compute_sequence, delta=delta + 1, snapshot_every=K),
                resolvent.verifier_bound(n, mu, delta))
    if variant == "log":
        formula = "2 (0.5mu + 4n) ceil(log2 d)^2"
        ref = seq_log_verifier_reference(n, mu, delta)
    else:
        formula = "2 (mu ceil(log2 d) + 6n ceil(log2 d)^2)"
        ref = seq_single_verifier_reference(n, mu, delta)
    return (lambda sess, op, u, v, run=None: run_sequence_cert(
                sess, op, u, v, delta, variant, run),
            partial(split_sequence, d=delta),
            (formula + " + 6d + 2mu + 6n",
             int(2 * ref) + 6 * delta + 2 * mu + 6 * n))


# -- protocol bodies, one per transcript kind

def _run_power(sess, op, d, variant):
    v = sess.challenge_vector(op.n)
    run_power(sess, op, v, d, variant)


POWER = engine.Kind(
    0x04, "power", ("power", "variant"), ((1, None), LOG_DEPTH), _run_power,
    bound=lambda sess, op, d, variant: (
        "verifier_operator_applications", sess.verifier_ledger.applications,
        *(("ceil(log2 d) + 1", minimal_depth(d) + 1) if variant == "log"
          else ("1", 1))))


def _run_sequence(sess, op, d, variant):
    u = sess.challenge_vector(op.n)
    v = sess.challenge_vector(op.n)
    sequence_cert(variant, op.n, op.mu, d)[0](sess, op, u, v)


# every variant a header can name runs as a sequence certificate
SEQUENCE = engine.Kind(
    0x06, "sequence", ("length", "variant"), ((1, engine.WORDS), VARIANTS),
    _run_sequence,
    bound=lambda sess, op, d, variant: (
        "verifier_field_ops", sess.verifier_ledger.field_ops,
        *sequence_cert(variant, op.n, op.mu, d)[2]))


def _run_combination(sess, op, d, variant):
    u = sess.challenge_vector(op.n)
    r = sess.challenge_vector(d + 1)
    run_combination_cert(sess, op, u, r, d, variant)


COMBINATION = engine.Kind(0x07, "combination", ("degree", "variant"),
                          ((0, engine.WORDS), LOG_DEPTH), _run_combination)
