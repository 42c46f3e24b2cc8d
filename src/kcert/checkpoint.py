"""Blocked certificate for a Krylov projection sequence.

The prover commits checkpoint vectors W_j = A^{jK} v0 together with the
claimed sequence s.  The verifier then needs just one row vector, Y = x^T
A^K + sum_i r_i u^T A^i for a random x and a random combination r, and
one test per block j: Y W_j = r . s[jK:(j+1)K] + x W_{j+1}.  Where that
costs it less (block_budget), the m tests are one test of weight m, block
j weighted by rho^j for a rho the verifier alone derives once W and s are
committed (Session.verifier_scalar): with A_1 = sum_{j<m} rho^j W_{j+1},

  Y W_0 + rho (Y A_1) - rho^m (Y W_m)
      = x A_1 + sum_{i<K} r_i sum_{j<m} rho^j s[jK + i],

one combination of the checkpoints (matrix.combine, packed from their
frames) and four dots in place of 2m, with no division by rho.  This is
small-exponent batch verification (Bellare, Garay and Rabin, EUROCRYPT
1998).  A failed folded test runs the tests apart, so a reject names the
first failing block.  The statement (delta, K, depth) picks by its depth
the row function that supplies r with Y:

  0     direct_rows: the verifier builds Y itself by Horner (K operator
        applications);
  1     list_rows: the prover supplies the rows x^T A^i and u^T A^i and
        the verifier spot checks each list V with one random projection
        y: with h = A y, link i, h . V_(i-1) = y . V_i, is the block test
        at K = 0 on lanes x = y and Y = h, so one chain test (_test_chain)
        runs the blocks and the lists, and links(k) is blocks(k) at K = 0;
  >= 2  delegated_rows: x^T A^K comes out of a certified sub-run on A^T,
        and T = sum_i r_i u^T A^i is committed, then audited against a
        second sub-run at a fresh projection vector; both are blocked runs
        one level down.

The strides below K follow the delegation schedule n^{j/k}, k = depth + 1:
balancing the cost of adjacent levels is a tridiagonal system whose exact
rational solution is e_j = j/k, so the schedule costs the same at any k.
Each stride divides the one above and is at most half of it, so however
deep the header says, a delegated run applies A at most K times in all,
as depth 0 does.

Every block is whole: when K does not divide delta, the last one ends at
s[mK - 1], m = ceil(delta / K), up to K - 2 entries past s[delta] that the
chain to W_m reaches anyway; when K does, s[delta] follows, checked on W_m.
"""

import math

from . import engine
from .matrix import combine, dot, dots, vecmat
from .sequence import combination_row, compute_sequence, powers

M_W = 0x03
M_S = 0x04
M_ZLIST = 0x07
M_TLIST = 0x08
M_T = 0x0B

# a header's depth stays below this; strides that at least halve at each
# level below K already hold at most log2 K + 1 levels
MAX_LEVELS = 64


def effective_strides(k, n, delta):
    """Strides of the k-level schedule: each divides the next, all within
    min(n, delta).

    Divisibility keeps every delegated chain landing exactly on its target
    power; levels that cannot grow under the cap are dropped.  Each kept
    stride at least doubles, so this reads O(log min(n, delta)) targets
    whatever k is.
    """
    cap = min(n, delta)
    eff = []
    for j in range(1, k):
        raw = max(1, round(n ** (j / k)))
        if not eff:
            step = max(1, min(raw, cap))
        else:
            step = eff[-1] * max(2, round(raw / eff[-1]))
            if step > cap:
                break
        eff.append(step)
    return eff


def lower_strides(n, delta, K, depth):
    """Strides of the levels below the top one, lowest first, or None when
    the chain cannot hold depth levels.

    Level j takes the j-th stride of effective_strides(depth + 1, n, delta),
    cut to its gcd with the stride above, K at the top; each must stay at
    most half the one above.
    """
    chain = [K]
    for stride in reversed(effective_strides(depth + 1, n, delta)[:depth - 1]):
        chain.append(math.gcd(stride, chain[-1]))
        if 2 * chain[-1] > chain[-2]:
            return None
    return chain[:0:-1] if len(chain) >= depth else None


def choose_K(n, delta, mu, depth):
    """Top stride for a run at depth 0 or 1: the one minimising the verifier
    cost 2K(mu+n) + (delta/K)(2K+6n) at depth 0 and 10Kn + 6n delta/K at
    depth 1.

    These balance the costs of checking links and blocks apart.  With the
    block tests and the list links folded into one test each, as
    blocked_cert runs them where that costs less, the verifier spends
    about K(mu+2n) + (delta/K)(2K+2n+1) + 2K + 10n at depth 0 and 2mu +
    6Kn + 4K + 24n + (delta/K)(2K+2n+1) at depth 1.  Over delta = 2n, 3
    entries a row and n = 64, 512, 1024 and 4096, the best K under
    blocked_verifier_bound saves 1.8-4.2 % of this K's budget at depth 0
    and 3.5-4.0 % at depth 1.  K stays put, since moving it moves every
    blocked transcript.
    """
    if depth == 0:
        k = int(math.sqrt(3 * n * delta / (mu + n)) + 0.5)
        return max(1, min(k, n, delta))
    return max(1, min(int(math.sqrt(0.6 * delta) + 0.5), delta))


def klevel_statement(n, delta, k):
    """(delta, K, depth) of the k-level statement at dimension n: K the top
    stride of the k-level schedule, and row_depth(K, k - 1) levels below
    it, or as many as its strides hold."""
    K = effective_strides(k, n, delta)[-1]
    depth = row_depth(K, k - 1)
    while lower_strides(n, delta, K, depth) is None:
        depth -= 1
    return delta, K, depth


def row_depth(K, depth):
    """Depth of a run at stride K asked for depth: at most 4 is direct rows."""
    return depth if K > 4 else 0


def block_budget(n, K, m):
    """(at_once, field ops) of the m block tests at stride K, blocks(m) in
    the bound.

    Apart, each is two dots, r . s, a sum and the test, within 2K + 4n.
    At once, each block adds rho^j, its checkpoint to A_1 and its entries
    of s to the fold, 2K + 2n + 1, and the test is four dots, r . fold,
    five ops and the subtraction, 2K + 8n.  They are folded only where that
    costs less.  A row list's k links are a chain at K = 0 (_test_chain),
    so links(k) in the bound is blocks(k) at K = 0: min(4kn, k(2n+1) + 8n).
    """
    apart = m * (2 * K + 4 * n)
    folded = m * (2 * K + 2 * n + 1) + 2 * K + 8 * n
    return folded < apart, min(folded, apart)


def blocked_verifier_bound(n, mu, delta, K, depth, lower=None):
    """Verifier field-op budget of blocked_cert at (delta, K, depth); a
    sub-run passes its lower strides.

    blocks(m), m = ceil(delta / K), is block_budget's: min(m(2K+4n),
    m(2K+2n+1) + 2K+8n).  Add the end entry, 2n, which the run spends only
    when K divides delta, and at depth 0 Horner's K steps for Y, at depth 1
    the two list checks, each a vecmat and the chain test at K = 0, so
    links(k) = blocks(k) at K = 0, and Y's combination, and deeper the
    t-combination test, the sum Y = Z + T and the two sub-runs.
    """
    blocks = block_budget(n, K, -(-delta // K))[1]
    if depth == 0:
        return K * (mu + 2 * n) + 2 * n + blocks
    if depth == 1:
        return (2 * mu + 2 * K * n + 2 * n + block_budget(n, 0, K)[1]
                + block_budget(n, 0, K - 1)[1] + blocks)
    lower = lower_strides(n, delta, K, depth) if lower is None else lower
    k = lower[-1]
    # the sub-runs at the depth delegated_rows gives them
    return blocks + 5 * n + 2 * K + sum(
        blocked_verifier_bound(n, mu, sub, k, row_depth(k, depth - 1),
                               lower[:-1]) for sub in (K, K - 1))


BOUND_FORMULAS = ("K(mu+2n) + 2n + blocks(ceil(delta/K))",
                  "2mu + 2Kn + 2n + links(K) + links(K - 1)"
                  " + blocks(ceil(delta/K))",
                  "blocks(ceil(delta/K)) + 5n + 2K + runs(K) + runs(K - 1)")


def _powers(rho, k, p):
    """[rho^0, ..., rho^k], charged k - 1 products."""
    pw = [1, rho]
    for _ in range(k - 1):
        pw.append(pw[-1] * rho % p)
    engine.charge_field_ops(k - 1)
    return pw


def direct_rows(sess, op, u, x, K):
    """(r, Y) with Y = x^T A^K + sum_i r_i u^T A^i built by the verifier
    itself, by Horner from x: y <- y A + r_i u for i = K - 1 down to 0."""
    y = None
    r = sess.challenge_vector(K)
    if sess.verifying:
        # each step takes r_i u into its application's one reduction
        y = x
        for c in reversed(r):
            y = vecmat(y, op, plus=(c, u))
    return r, y


def list_rows(sess, op, u, x, K):
    """(r, Y) from prover-supplied row lists, each spot-checked."""
    p = op.p
    n = op.n
    y = None
    zdata, tdata = [None] * (K + 1), [None] * K
    if sess.proving:
        zdata = powers(op.T, x, range(K + 1))
        tdata = powers(op.T, u, range(K))
    z_full = [x] + [sess.send_vector(M_ZLIST, zi, expect_len=n)
                    for zi in zdata[1:]]
    t_full = [u] + [sess.send_vector(M_TLIST, ti, expect_len=n)
                    for ti in tdata[1:]]
    frames = [engine._payload_words(f)
              for _, f in sess.messages[-(2 * K - 1):]]
    y_z = sess.challenge_vector(n)
    y_t = sess.challenge_vector(n)
    r = sess.challenge_vector(K)
    if sess.verifying:
        # with h = A y, link i of a list, h . V_(i-1) = y . V_i, is the
        # chain test at K = 0 on lanes [y, h]; one rho for both lists,
        # fixed once both are committed
        rho = sess.verifier_scalar()
        _test_chain(sess, p, 0, [y_z, vecmat(y_z, op.T)], None, z_full,
                    None, frames[:K], rho, "z-list", 1)
        _test_chain(sess, p, 0, [y_t, vecmat(y_t, op.T)], None, t_full,
                    None, frames[K:], rho, "t-list", 1)
        # Y = z_K + sum_i r_i t_i: one combination of u = t_0 and the
        # t-list as sent, charged 2nK as the K scaled sums into z_K were
        ts = combine(r, [u] + frames[K:], p, n)
        y = [(a + b) % p for a, b in zip(z_full[K], ts)]
    return r, y


def delegated_rows(sess, op, u, x, K, depth, lower):
    """(r, Y = Z + T) from blocked sub-runs at the stride k below K: Z =
    x^T A^K from one on A^T, and a committed T audited by one at a fresh
    projection."""
    p = op.p
    n = op.n
    k = lower[-1]
    # strides below K at least halve, so row_depth alone sets a sub-run's depth
    sub = row_depth(k, depth - 1)
    _, zw = blocked_cert(sess, op.T, x, x, K, k, sub, lower=lower[:-1])
    r = sess.challenge_vector(K)
    t = combination_row(op, u, r) if sess.proving else None
    t = sess.send_vector(M_T, t, expect_len=n)
    psi = sess.challenge_vector(n)
    gamma, _ = blocked_cert(sess, op, u, psi, K - 1, k, sub, lower=lower[:-1])
    y = None
    if sess.verifying:
        sess.test(dot(r, gamma, p), dot(t, psi, p), "t-combination")
        engine.charge_field_ops(n)
        y = [(a + b) % p for a, b in zip(zw[-1], t)]
    return r, y


def blocked_cert(sess, op, u, v0, delta, K, depth, lower=None):
    """Certified s[:delta + 1], s[i] = u^T A^i v0, and the committed
    checkpoints W of one blocked run at top stride K and depth; a sub-run
    gets the strides below its K as lower.

    Block j < m passes when Y W_j = r . s[jK:(j+1)K] + x W_{j+1}, with Y =
    x^T A^K + sum_i r_i u^T A^i.  x and r are drawn after W and s are
    committed, and the difference of the two sides is
    x^T (A^K W_j - W_{j+1}) + sum_i r_i (u^T A^i W_j - s[jK + i]), a
    polynomial D_j(x, r) of degree 1.  A wrong link W_{j+1} or a wrong
    entry of the block makes it nonzero, so it vanishes at a random
    (x, r) with probability at most 1/|S|: one test per block catches
    either.

    Folded, the m tests are the one test sum_j rho^j D_j(x, r) = 0, a
    polynomial of total degree at most m in (x, r, rho) that is nonzero
    when any D_j is.  rho is uniform on the whole sample set, fixed after
    W and s and independent of x and r, so by Schwartz-Zippel the folded
    test errs with probability at most m/|S|: the weight m it is counted
    with, the error the m tests apart report.  The same holds for the
    list checks at depth 1, whose rho is fixed once both lists are sent.
    """
    p = op.p
    n = op.n
    m = -(-delta // K)  # committed checkpoints W_1 .. W_m
    end = m * K == delta  # s[delta] follows the m blocks
    sent = m * K + end

    s, snaps = (compute_sequence(op, u, v0, delta, snapshot_every=K)
                if sess.proving else (None, [None] * (m + 1)))
    w = [v0] + [sess.send_vector(M_W, wj, expect_len=n) for wj in snaps[1:]]
    s = sess.send_vector(M_S, s and s[:sent], expect_len=sent)
    # W_1 .. W_m and s as sent, and the weight of the folded block test,
    # fixed once they are committed
    frames = [engine._payload_words(f) for _, f in sess.messages[-m - 1:]]
    rho = sess.verifier_scalar() if sess.verifying else None

    x = sess.challenge_vector(n)
    for _ in range(64):
        if x != u:
            break
        x = sess.challenge_vector(n)
    else:
        raise ValueError("could not draw a projection distinct from u")

    if depth < 2:
        r, y = (direct_rows, list_rows)[depth](sess, op, u, x, K)
    else:
        if lower is None:
            lower = lower_strides(n, delta, K, depth)
        r, y = delegated_rows(sess, op, u, x, K, depth, lower)

    if sess.verifying:
        # lane u reads the end entry off W_m
        last = _test_chain(sess, p, K, [x, y] + [u] * end, r, w, s, frames,
                           rho, "checkpoint-block", 0)
        if end:
            # s[delta] meets the final checkpoint head on; no randomness used
            sess.check(engine.scalar_equal(s[delta], last[2]),
                       "tail-entry", ())
    return s[:delta + 1], w


def _test_chain(sess, p, K, lanes, r, w, s, frames, rho, check_id, first):
    """Test j < m of the chain W_0 .. W_m = w, Y W_j = r . s[jK:(j+1)K] +
    x W_{j+1} on lanes [x, Y, ...], as one test of weight m, test j weighted
    by rho^j, where block_budget says that costs less; returns the lanes'
    dots with W_m.  frames hold W_1 .. W_m and then s as sent, and test j
    is named by location first + j.

    With A_1 = sum_{j<m} rho^j W_{j+1}, the weighted left sides sum to
    Y . (W_0 + rho A_1 - rho^m W_m) and the right sides to x . A_1 +
    r . fold, fold[i] = sum_j rho^j s[jK + i]: two combinations packed from
    the frames as sent and four dots, none of them dividing by rho.  At
    K = 0, a row list's links, there is no r, s or fold.  A failed test
    runs the tests apart, so the first failing one is named.
    """
    m = len(w) - 1
    n = len(w[0])
    if not block_budget(n, K, m)[0]:
        return _test_chain_apart(sess, p, K, lanes, r, w, s, check_id, first)
    pw = _powers(rho, m, p)
    a1 = combine(pw[:m], frames[:m], p, n)
    on_w0, on_wm, on_a1 = dots(lanes, [w[0], w[m], a1], p,
                               used=len(lanes) + 2)
    lhs = (on_w0[1] + rho * on_a1[1] - pw[m] * on_wm[1]) % p
    engine.charge_field_ops(4)
    rhs = on_a1[0]
    if K:
        fold = combine(pw[:m], (frames[m][8 * j * K:8 * (j + 1) * K]
                                for j in range(m)), p, K)
        rhs = (rhs + dot(r, fold, p)) % p
        engine.charge_field_ops(1)
    if lhs != rhs:
        _test_chain_apart(sess, p, K, lanes, r, w, s, check_id, first)
    sess.test(lhs, rhs, check_id, weight=m)
    return on_wm


def _test_chain_apart(sess, p, K, lanes, r, w, s, check_id, first):
    """_test_chain's tests one by one; returns the lanes' dots with W_m."""
    m = len(w) - 1
    # every dot below reads a checkpoint, so the lanes share one packed pass
    # over each: 2m chain dots and the end one, and for K > 0 m sums
    at = dots(lanes, w, p, used=2 * m + len(lanes) - 2)
    if K:
        engine.charge_field_ops(m)
    for j in range(m):
        rhs = at[j + 1][0]
        if K:
            rhs = (dot(r, s[j * K:(j + 1) * K], p) + rhs) % p
        sess.test(at[j][1], rhs, check_id, (first + j,))
    return at[m]


def _run_blocked(sess, op, delta, K, depth):
    u = sess.challenge_vector(op.n)
    v0 = sess.challenge_vector(op.n)
    blocked_cert(sess, op, u, v0, delta, K, depth)


def _strides_hold(n, delta, K, depth):
    # a depth no strides hold could cost 2^depth sub-runs
    if lower_strides(n, delta, K, depth) is None:
        return ("parameter depth = %d is more levels than the strides below "
                "K = %d hold" % (depth, K))


BLOCKED = engine.Kind(
    0x01, "blocked", ("delta", "K", "depth"),
    ((1, engine.WORDS), (1, "delta"), (0, MAX_LEVELS - 1)), _run_blocked,
    bound=lambda sess, op, delta, K, depth: (
        "verifier_field_ops", sess.verifier_ledger.field_ops,
        BOUND_FORMULAS[min(depth, 2)],
        blocked_verifier_bound(op.n, op.mu, delta, K, depth)),
    rule=_strides_hold)
