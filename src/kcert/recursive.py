"""Multi-level delegation of the blocked sequence certificate.

With stride levels near n^{1/k}, n^{2/k}, ..., the verifier's two row
computations are pushed down a delegation tree: each blocked run hands its
Z row to a certified sub-run on the transposed operator, and audits its
committed T row against a second sub-run at a freshly drawn projection.
Leaves of the tree fall back to prover-supplied lists (or to direct
computation once strides are tiny).

The stride exponents come from balancing the cost of adjacent levels of the
tree, a tridiagonal system whose exact rational solution is e_j = j/k; the
strides use that closed form, so their cost does not grow with k.
"""

from . import engine
from .checkpoint import _block_protocol, delegated_rows, direct_rows, list_rows

# each effective stride at least doubles below min(n, delta) < 2^64, so more
# levels than this never delegate further
MAX_LEVELS = 64


def effective_strides(k, n, delta):
    """Strides actually used: each divides the next, all within min(n, delta).

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


def _run_klevel(sess, op, delta, k):
    """Certify the sequence with up to k - 1 levels of delegated row work."""
    eff = effective_strides(k, op.n, delta)
    u = sess.challenge_vector(op.n)
    v0 = sess.challenge_vector(op.n)
    _scheme(sess, op, u, v0, delta, len(eff), eff)


KLEVEL = engine.Kind(engine.T_KLEVEL, "klevel", ("delta", "levels"),
                     ((1, engine.WORDS), (2, MAX_LEVELS)), _run_klevel)
