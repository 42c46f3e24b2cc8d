"""Krylov projection sequences and the closed-form cost expressions.

The prover's base task is the sequence s[i] = u^T A^i v0.  The reference
verifier costs of the log-depth certificates live here with it.
"""

from array import array
from itertools import chain, islice

from .matrix import combine, dot, dots, krylov_chain


def compute_sequence(op, u, v0, delta, snapshot_every=0):
    """(s, snaps): s[i] = u^T A^i v0 for 0 <= i <= last, and snaps the
    chain snapshots [v0, A^K v0, ..., A^last v0] for snapshot_every = K,
    last = mK, m = ceil(delta / K); last = delta and snaps [v0] without one.

    The rows R_j = u^T A^j, j < K, are built first when their K - 1 vecmats
    cost at most a quarter of the dots in ledger units, (K - 1) mu <=
    (delta + 1)(2n - 1) / 4; s[bK + j] = R_j . A^{bK} v0 then comes from
    one packed pass of dots over each snapshot instead of a dot per step.
    Costs last matvecs and last + 1 dots, plus the K - 1 vecmats of the
    rows when they are built.
    """
    p = op.p
    K = snapshot_every
    rows = None
    if K and 4 * (K - 1) * op.mu <= (delta + 1) * (2 * op.n - 1):
        rows = krylov_rows(op, u, K - 1)
    last = -(-delta // K) * K if K else delta
    snaps = [list(v0)]
    s = [dot(u, snaps[0], p)] if rows is None else []
    for i, v in enumerate(krylov_chain(op, snaps[0], last), 1):
        if rows is None:
            s.append(dot(u, v, p))
        if K and i % K == 0:
            snaps.append(v)
    if rows is not None:
        blocks = dots(rows, snaps, p, used=last + 1)
        s = [x for block in blocks for x in block][:last + 1]
    return s, snaps


def krylov_rows(op, u, k):
    """[u^T A^i for i <= k] as array('Q') rows, 8 bytes an entry (the
    transcript codec already needs p < 2^64); k vecmats."""
    rows = [array("Q", u)]
    rows += (array("Q", row) for row in krylov_chain(op, u, k, rows=True))
    return rows


def split_sequence(op, u, v, d, rows=None):
    """(s, wh, rows) for e = ceil(d / 2): s[i] = u^T A^i v for i <= d,
    wh = A^e v and rows[i] = R_i = u^T A^i for i <= e.

    s[i] = R_i . v for i <= e and s[e + j] = R_j . wh above, so one chain
    of e matvecs and one of e vecmats give the whole sequence; lanes v and
    wh share one packed pass over each R_j, 1 <= j <= d - e.  A caller
    holding at least e + 1 of the rows passes them and skips the vecmats,
    which krylov_rows otherwise makes.  Costs e vecmats (none when rows are
    passed), e matvecs and d + 1 dots.
    """
    p = op.p
    e = (d + 1) // 2
    if rows is None:
        rows = krylov_rows(op, u, e)
    wh = v
    for wh in krylov_chain(op, v, e):
        pass
    both = dots([v, wh], rows[1:d - e + 1], p)
    s = [dot(rows[0], v, p)] + [lo for lo, _ in both]
    if e > d - e:
        s.append(dot(rows[e], v, p))
    s += [hi for _, hi in both]
    return s, wh, rows


def powers(op, v, stops):
    """[A^i v for i in stops], from one chain of max(stops) matvecs."""
    want = set(stops)
    at = {0: list(v)}
    for i, w in enumerate(krylov_chain(op, at[0], max(want)), 1):
        if i in want:
            at[i] = w
    return [at[i] for i in stops]


def combination_row(op, u, r, rows=None):
    """T = sum_i r[i] u^T A^i over i < len(r), from rows[i] = u^T A^i when
    given, as krylov_rows makes them, through one combine that takes the
    rows one at a time.

    Costs 2n field ops per term, and len(r) - 1 vecmats without rows.
    """
    if rows is None:
        rows = chain([u], krylov_chain(op, u, len(r) - 1, rows=True))
    return combine(r, islice(rows, len(r)), op.p, op.n)


def minimal_depth(d):
    """Smallest t with d <= 2^t (at least 1)."""
    return max(1, (d - 1).bit_length())


def seq_log_verifier_reference(n, mu, d):
    """Reference verifier cost for the recursive sequence certificate, halving powers."""
    return (0.5 * mu + 4 * n) * minimal_depth(d) ** 2


def seq_single_verifier_reference(n, mu, d):
    """Reference verifier cost for the recursive sequence certificate, single-matvec powers."""
    lg = minimal_depth(d)
    return mu * lg + 6 * n * lg ** 2
