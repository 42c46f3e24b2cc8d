"""Blocked certificate for a Krylov projection sequence.

The prover commits checkpoint vectors W_j = A^{jK} v0 together with the
claimed sequence s.  The verifier then needs just two row vectors: Z = x^T
A^K for a random x, which links consecutive checkpoints, and T = sum_i r_i
u^T A^i over a random combination r, which ties each length-K block of s to
its checkpoint.  A row function supplies the combination r with Z and T;
there is one per way of obtaining them:

  direct_rows     the verifier computes both itself (2K operator
                  applications);
  list_rows       the prover supplies the intermediate rows and the verifier
                  spot checks each list with one random projection;
  delegated_rows  Z comes out of a recursively certified sub-run on A^T, and
                  T is committed, then audited against a second sub-run at a
                  fresh projection vector.

Every block is whole: when K does not divide delta, the last one ends at
s[mK - 1], m = ceil(delta / K), up to K - 2 entries past s[delta] that the
chain to W_m reaches anyway; when K does, s[delta] follows, checked on W_m.
"""

from . import engine
from .matrix import (combine, dot, dots, reduce_vector, scaled_accumulate,
                     vecmat)
from .sequence import (checkpoint_verifier_bound, combination_row,
                       compute_sequence, dense_verifier_bound, powers)

M_W = 0x03
M_S = 0x04
M_ZLIST = 0x07
M_TLIST = 0x08
M_T = 0x0B


def _check_krylov_list(sess, op, y, vecs, reject_id):
    """Spot-check vecs[i] = A^T vecs[i-1] for all i with one projection y."""
    h = vecmat(y, op.T)
    # lanes h and y share one packed pass over each vector
    at = dots([h, y], vecs, op.p, used=2 * (len(vecs) - 1))
    for i in range(1, len(vecs)):
        sess.test(at[i - 1][0], at[i][1], reject_id, (i,))


def direct_rows(sess, op, u, x, K):
    """(r, Z, T) with Z and T computed by the verifier itself."""
    z = t = None
    r = sess.challenge_vector(K)
    if sess.verifying:
        z = list(x)
        for _ in range(K):
            z = vecmat(z, op)
        t = combination_row(op, u, r)
    return r, z, t


def list_rows(sess, op, u, x, K):
    """(r, Z, T) from prover-supplied row lists, each spot-checked."""
    p = op.p
    n = op.n
    z = t = None
    zdata, tdata = [None] * (K + 1), [None] * K
    if sess.proving:
        zdata = powers(op.T, x, range(K + 1))
        tdata = powers(op.T, u, range(K))
    z_full = [x] + [sess.send_vector(M_ZLIST, zi, expect_len=n)
                    for zi in zdata[1:]]
    t_full = [u] + [sess.send_vector(M_TLIST, ti, expect_len=n)
                    for ti in tdata[1:]]
    y_z = sess.challenge_vector(n)
    y_t = sess.challenge_vector(n)
    r = sess.challenge_vector(K)
    if sess.verifying:
        _check_krylov_list(sess, op, y_z, z_full, "z-list")
        _check_krylov_list(sess, op, y_t, t_full, "t-list")
        z = z_full[K]
        t = [r[0] * ti for ti in t_full[0]]
        engine.charge_field_ops(n)
        for i in range(1, K):
            t = scaled_accumulate(t, r[i], t_full[i])
        t = reduce_vector(t, p)
    return r, z, t


def delegated_rows(child):
    """The row function whose sub-runs are child(sess, op, u, v0, delta)."""

    def rows(sess, op, u, x, K):
        p = op.p
        n = op.n
        _, zw = child(sess, op.T, x, x, K)
        z = zw[-1]
        r = sess.challenge_vector(K)
        t = combination_row(op, u, r) if sess.proving else None
        t = sess.send_vector(M_T, t, expect_len=n)
        psi = sess.challenge_vector(n)
        gamma, _ = child(sess, op, u, psi, K - 1)
        if sess.verifying:
            sess.test(combine(r, gamma, p), dot(t, psi, p), "t-combination")
        return r, z, t

    return rows


def _block_protocol(sess, op, u, v0, delta, K, rows, run=None):
    """One blocked run with Z and T from rows; returns the certified
    s[:delta + 1] and the committed checkpoints W.

    A prover that already holds compute_sequence(op, u, v0, delta,
    snapshot_every=K) passes it as run.
    """
    p = op.p
    n = op.n
    m = -(-delta // K)  # committed checkpoints W_1 .. W_m
    end = m * K == delta  # s[delta] follows the m blocks
    sent = m * K + end

    if run is None and sess.proving:
        run = compute_sequence(op, u, v0, delta, snapshot_every=K)
    s, snaps = run or (None, [None] * (m + 1))
    w = [v0] + [sess.send_vector(M_W, wj, expect_len=n) for wj in snaps[1:]]
    s = sess.send_vector(M_S, s and s[:sent], expect_len=sent)

    x = sess.challenge_vector(n)
    for _ in range(64):
        if x != u:
            break
        x = sess.challenge_vector(n)
    else:
        raise ValueError("could not draw a projection distinct from u")

    r, z, t = rows(sess, op, u, x, K)

    if sess.verifying:
        # every dot below reads a checkpoint, so lanes x, z, t and, for the
        # end entry, u share one packed pass over each: 2m link dots, m
        # block dots and the end one
        at = dots([x, z, t] + [u] * end, w, p, used=3 * m + end)
        for j in range(1, m + 1):
            sess.test(at[j][0], at[j - 1][1], "checkpoint-link", (j,))
        for j in range(m):
            sess.test(combine(r, s[j * K:(j + 1) * K], p), at[j][2],
                      "block-combination", (j,))
        if end:
            # s[delta] meets the final checkpoint head on; no randomness used
            sess.check(engine.scalar_equal(s[delta], at[m][3]),
                       "tail-entry", ())
    return s[:delta + 1], w


def _run_blocked(sess, op, delta, K, rows):
    """Certify u^T A^i v0 for i <= delta with Z and T rows from rows."""
    u = sess.challenge_vector(op.n)
    v0 = sess.challenge_vector(op.n)
    _block_protocol(sess, op, u, v0, delta, K, rows)


# checkpoint: the verifier computes Z and T; dense: prover-supplied,
# spot-checked Z and T lists
CHECKPOINT = engine.Kind(
    engine.T_CHECKPOINT, "checkpoint", ("delta", "K"),
    ((1, engine.WORDS), (1, "delta")),
    lambda sess, op, delta, K: _run_blocked(sess, op, delta, K, direct_rows),
    bound=lambda sess, op, delta, K: (
        "verifier_field_ops", sess.verifier_ledger.field_ops,
        "2K(mu+n) + 2n + ceil(delta/K)(2K+6n)",
        checkpoint_verifier_bound(op.n, op.mu, delta, K)))

DENSE = engine.Kind(
    engine.T_DENSE, "dense", ("delta", "K"),
    ((1, engine.WORDS), (1, "delta")),
    lambda sess, op, delta, K: _run_blocked(sess, op, delta, K, list_rows),
    bound=lambda sess, op, delta, K: (
        "verifier_field_ops", sess.verifier_ledger.field_ops,
        "2mu + 10Kn + ceil(delta/K)(2K+6n)",
        dense_verifier_bound(op.n, op.mu, delta, K)))
