"""Multi-level delegation of the blocked sequence certificate.

With stride levels near n^{1/k}, n^{2/k}, ..., the verifier's two row
computations are pushed down a delegation tree: each blocked run hands its
Z row to a certified sub-run on the transposed operator, and audits its
committed T row against a second sub-run at a freshly drawn projection.
Leaves of the tree fall back to prover-supplied lists (or to direct
computation once strides are tiny).

The stride exponents come from balancing the cost of adjacent levels of the
tree, a tridiagonal system whose exact rational solution (level_schedule) is
e_j = j/k; the strides use that closed form, so their cost does not grow
with k.
"""

from fractions import Fraction

from . import engine
from .checkpoint import (C_U, C_V0, _block_protocol, delegated_rows,
                         direct_rows, list_rows)

# each effective stride at least doubles below min(n, delta) < 2^64, so more
# levels than this never delegate further
MAX_LEVELS = 64


def level_schedule(k):
    """Exponents e_1 < ... < e_{k-1} solving 2 e_j = e_{j-1} + e_{j+1}, e_0 = 0, e_k = 1."""
    if k < 2:
        raise ValueError("need at least two levels")
    m = k - 1
    diag = [Fraction(2)] * m
    rhs = [Fraction(0)] * m
    rhs[m - 1] = Fraction(1)
    for i in range(1, m):
        w = Fraction(-1) / diag[i - 1]
        diag[i] += w
        rhs[i] -= w * rhs[i - 1]
    exps = [Fraction(0)] * m
    exps[m - 1] = rhs[m - 1] / diag[m - 1]
    for i in range(m - 2, -1, -1):
        exps[i] = (rhs[i] + exps[i + 1]) / diag[i]
    return exps


def _raw_strides(k, n):
    """n^(e_j) rounded to integers for e_j = j/k, j = 1 .. k-1, lazily."""
    return (max(1, round(n ** (j / k))) for j in range(1, k))


def level_strides(k, n):
    """Raw stride targets n^(j/k) rounded to integers."""
    return list(_raw_strides(k, n))


def effective_strides(k, n, delta):
    """Strides actually used: each divides the next, all within min(n, delta).

    Divisibility keeps every delegated chain landing exactly on its target
    power; levels that cannot grow under the cap are dropped.  Each kept
    stride at least doubles, so this reads O(log min(n, delta)) targets
    whatever k is.
    """
    cap = min(n, delta)
    eff = []
    for raw in _raw_strides(k, n):
        if not eff:
            step = max(1, min(raw, cap))
        else:
            step = eff[-1] * max(2, round(raw / eff[-1]))
            if step > cap:
                break
        eff.append(step)
    return eff


def _scheme(sess, op, u, v0, delta, level, eff):
    stride = eff[level - 1] if level >= 1 else 1
    K = max(1, min(stride, delta))
    if level <= 0 or stride <= 4 or stride > delta:
        rows = direct_rows
    elif level == 1:
        rows = list_rows
    else:
        rows = delegated_rows(lambda s2, op2, u2, v2, d2: _scheme(
            s2, op2, u2, v2, d2, level - 1, eff))
    return _block_protocol(sess, op, u, v0, delta, K, rows)


def run_klevel(sess, op, delta, k):
    """Certify the sequence with up to k - 1 levels of delegated row work."""
    if delta < 1:
        raise ValueError("sequence length parameter must be >= 1")
    if k < 2:
        raise ValueError("need at least two levels")
    eff = effective_strides(k, op.n, delta)

    def body():
        u = sess.challenge_vector(C_U, op.n)
        v0 = sess.challenge_vector(C_V0, op.n)
        _scheme(sess, op, u, v0, delta, len(eff), eff)

    return engine.run_with_outcome(sess, body)


KLEVEL = engine.Kind(engine.T_KLEVEL, "klevel", ("delta", "levels"),
                     (engine.WORDS, MAX_LEVELS), run_klevel)
klevel_header = KLEVEL.header
