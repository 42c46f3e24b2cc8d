"""Shared test helpers: the round trip, a forged message, and the
test-only references.

seeded_roundtrip runs a protocol the way `kcert verify` sees it: a proving
session, possibly tampered, writes transcript bytes, and a verifying
session replays them.  Given a seed, both draw their challenges from it, so
the prover cannot steer them; without one, both derive them by
Fiat-Shamir.  tamper_nth and tamper_first build the tamper hook that
forges one message; GENERATOR_FORGERIES and RESOLVENT_FORGERIES list, for
each check of the generator and of the resolvent certificate, a hook that
only that check can catch, and forge_forked_chain and forge_shifted_row
build one for the blocked certificate's checkpoint-block and
t-combination.
sweep_matrices and plus_identity give the matrix families honest runs
use.

The rest are references that the tests check the library against and that
no protocol uses: cubic-or-worse dense linear algebra for small instances,
among it the list-based charpoly that kcert.oracle runs on packed columns,
an independent minimal-generator solver, the exact delegation schedule and
closed-form cost figures.  Nothing here charges a cost ledger.
"""

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from kcert import engine, resolvent
from kcert.applications import M_GENERATOR, M_HANKEL
from kcert.checkpoint import (M_S, M_T, M_W, blocked_cert, klevel_statement,
                              lower_strides, row_depth)
from kcert.field import DEFAULT_PRIME, f_inv, poly_degree, poly_mul, poly_trim
from kcert.matrix import SparseMatrix, random_sparse
from kcert.oracle import mat_from_sparse
from kcert.sequence import compute_sequence


class Roundtrip(NamedTuple):
    proved: object  # runner(prover)
    verified: object  # runner(verifier)
    prover: engine.Session
    verifier: engine.Session


def seeded_roundtrip(spec, header, runner, seed=None, tamper=None,
                     mutate=None):
    """runner(verify session) after runner(prove session).

    The proving session applies tamper to its payloads; the verifying one
    sees only the bytes it wrote, through parse_transcript, with its
    (tag, payload) list passed through mutate when that is given.
    """
    ps = engine.Session(spec, header, "prove", seed=seed, tamper=tamper)
    proved = runner(ps)
    recorded_header, msgs = engine.parse_transcript(ps.transcript_bytes())
    if mutate is not None:
        msgs = mutate(msgs)
    vs = engine.Session(spec, recorded_header, "verify", recorded=msgs,
                        seed=seed)
    return Roundtrip(proved, runner(vs), ps, vs)


def bump(at):
    """An edit for tamper_nth that raises entry at by one."""
    def edit(vals, p):
        vals[at] = (vals[at] + 1) % p
        return vals
    return edit


def tamper_nth(tag, k, p, edit=bump(0)):
    """A tamper hook that rewrites the vector message with tag that comes
    k-th, counting from 0.

    edit(entries, p) returns the forged entries; by default entry 0 is
    raised by one.  Every other message passes unchanged.
    """
    seen = {"count": 0}

    def hook(idx, t, payload):
        if t != tag:
            return payload
        seen["count"] += 1
        if seen["count"] != k + 1:
            return payload
        return engine.encode_vector(edit(engine.decode_vector(payload, p), p))
    return hook


def tamper_first(tag, p, edit=bump(0)):
    """tamper_nth for the first vector message with tag."""
    return tamper_nth(tag, 0, p, edit)


def forge_generator_multiple(p, root=1):
    """A tamper hook that sends (x - root) f for the first generator f.

    The multiple annihilates every window of the sequence that f does, so
    generator-recurrence passes; its Hankel matrix is singular, so no
    Hankel solution exists, and the honest one gets a zero appended to
    match the degree.
    """
    times = tamper_first(M_GENERATOR, p,
                         lambda f, p: poly_mul(f, [-root % p, 1], p))
    pad = tamper_first(M_HANKEL, p, lambda y, p: y + [0])
    return lambda idx, tag, payload: pad(idx, tag, times(idx, tag, payload))


# (forgery, the one check id that rejects it): a perturbed generator, a
# proper multiple of it, and a wrong Hankel solution
GENERATOR_FORGERIES = (
    ("perturbed generator", lambda p: tamper_first(M_GENERATOR, p),
     "generator-recurrence"),
    ("multiple of the generator", forge_generator_multiple,
     "generator-hankel"),
    ("wrong Hankel solution", lambda p: tamper_first(M_HANKEL, p),
     "generator-hankel"),
)


# (forgery, the one check id that rejects it), each with the honest y: s[3]
# raised by one, which only Horner sees (it moves that side by lambda^3),
# and w = A^L v with its entry 0 raised by one, which moves only the
# identity's right-hand side (by lambda^L e_0).  Either passes at lambda = 0
RESOLVENT_FORGERIES = (
    ("forged sequence entry",
     lambda p: tamper_first(resolvent.M_SEQ, p, bump(3)), "resolvent-horner"),
    ("perturbed end power", lambda p: tamper_first(resolvent.M_END, p),
     "resolvent-identity"),
)


def forge_forked_chain(spec, mat, header, j, seed=None):
    """A tamper hook for the blocked run of header that commits W_j + e_0
    and continues the chain honestly from it.

    u and v0 are drawn before the first message, under either source of
    challenges, so the hook draws them as the prover would.  Each later
    W_b = A^{(b-j)K}(W_j + e_0) and every block of s from block j on is
    read off the forked chain, so block j's test, every later one and
    tail-entry hold; only block j - 1's checkpoint-block test sees the
    fork, and it passes when x_0 = 0.  Messages of sub-runs, which follow
    the top level's W and s, pass unchanged.
    """
    delta, K = header.params[:2]
    draws = engine.Session(spec, header, "prove", seed=seed)
    u = draws.challenge_vector(mat.n)
    v0 = draws.challenge_vector(mat.n)
    s, w = compute_sequence(mat, u, v0, delta, snapshot_every=K)
    m = len(w) - 1
    s_fork, w_fork = compute_sequence(mat, u, bump(0)(list(w[j]), mat.p),
                                      (m - j) * K, snapshot_every=K)
    forged_w = w[:j] + w_fork  # W_b at index b
    forged_s = s[:j * K] + s_fork
    count = {M_W: 0, M_S: 0}

    def hook(idx, tag, payload):
        if tag not in count:
            return payload
        count[tag] += 1
        if tag == M_W and count[tag] <= m:
            new = forged_w[count[tag]]
        elif tag == M_S and count[tag] == 1:
            # s stops at s[mK - 1] unless K divides delta
            new = forged_s[:len(engine.decode_vector(payload, mat.p))]
        else:
            return payload
        return engine.encode_vector(new)
    return hook


def forge_shifted_row(spec, mat, header, seed=None):
    """A tamper hook for the blocked run of header, at depth 2 or more,
    that commits the top level's row T + e, for a nonzero e orthogonal to
    v0 and to every checkpoint W_j; one exists when m + 1 < n.

    Y = Z + T moves by e, which no block test reads, and the end entry
    does not read T, so only t-combination, r . gamma = T . psi, sees the
    forgery: it passes when e . psi = 0, at rate 1/|S| for a uniform psi.
    u and v0 are drawn as forge_forked_chain draws them.  T follows the
    top level's W and s and the first sub-run, whose messages the hook
    counts by proving that sub-run alone; their number does not depend on
    the challenges.
    """
    delta, K, depth = header.params[:3]
    n, p = mat.n, mat.p
    draws = engine.Session(spec, header, "prove", seed=seed)
    u = draws.challenge_vector(n)
    v0 = draws.challenge_vector(n)
    _, w = compute_sequence(mat, u, v0, delta, snapshot_every=K)
    # a vector in the kernel of the matrix whose rows are the W_j, padded
    # to n rows with zero rows
    e = len(w) < n and dense_kernel_vector(w + [[0] * n] * (n - len(w)), p)
    if not e:
        raise ValueError("the checkpoints leave no vector orthogonal to all")
    lower = lower_strides(n, delta, K, depth)
    first = engine.Session(spec, header, "prove")
    blocked_cert(first, mat.T, u, u, K, lower[-1],
                 row_depth(lower[-1], depth - 1), lower=lower[:-1])
    at = len(w) + len(first.messages)  # W_1 .. W_m, s, the first sub-run

    def hook(idx, tag, payload):
        if idx != at:
            return payload
        assert tag == M_T, tag
        t = engine.decode_vector(payload, p)
        return engine.encode_vector([(a + b) % p for a, b in zip(t, e)])
    return hook


# -- polynomials and sequences

def poly_add(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def poly_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_monic(f, p):
    """Scale a nonzero polynomial to leading coefficient 1."""
    inv = f_inv(f[-1], p)
    return [a * inv % p for a in f]


def poly_divmod(f, g, p):
    """Quotient and remainder of f by nonzero g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    ginv = f_inv(g[-1], p)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c = c * ginv % p
        q[i - dg] = c
        for j, b in enumerate(g):
            r[i - dg + j] = (r[i - dg + j] - c * b) % p
    return poly_trim(q), poly_trim(r)


def sequence_annihilated_by(f, s, p):
    """Check sum_i f[i] s[j+i] = 0 for every window of s."""
    e = len(f) - 1
    for j in range(len(s) - e):
        acc = 0
        for i, fi in enumerate(f):
            if fi:
                acc += fi * s[j + i]
        if acc % p != 0:
            return False
    return True


def minpoly_of_sequence_eea(s, p):
    """Minimal generator of a sequence by the truncated extended Euclid run.

    Independent of the iterative solver in kcert.field; used to cross-check
    it.
    """
    d = len(s) // 2
    r0 = [0] * (2 * d) + [1]
    r1 = poly_trim(list(reversed(s[:2 * d])))
    v0, v1 = [], [1]
    while r1 and poly_degree(r1) >= d:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1, p), p)
    if not v1:
        return [1]
    return poly_monic(v1, p)


# -- dense matrices

def dense_solve(a_rows, b, p):
    """The solution x of A x = b for a nonsingular A, by Gauss-Jordan."""
    n = len(a_rows)
    m = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    for c in range(n):
        pr = next(i for i in range(c, n) if m[i][c] % p)
        m[c], m[pr] = m[pr], m[c]
        inv = f_inv(m[c][c], p)
        m[c] = [x * inv % p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


def hankel(s, L):
    """The L x L Hankel matrix (s[i + j])."""
    return [s[i:i + L] for i in range(L)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def naive_sequence(mat, u, v0, delta):
    """[u^T A^i v0 for i <= delta] by dense products."""
    rows = mat_from_sparse(mat)
    p = mat.p
    out = []
    v = list(v0)
    for i in range(delta + 1):
        out.append(sum(a * b for a, b in zip(u, v)) % p)
        if i < delta:
            v = [sum(a * x for a, x in zip(row, v)) % p for row in rows]
    return out


def plus_identity(n, seed, p=DEFAULT_PRIME):
    """random_sparse(n, 3, seed, p) + I, merged by SparseMatrix."""
    base = random_sparse(n, 3, seed, p)
    return SparseMatrix(n, p, base.triplets + tuple((i, i, 1)
                                                    for i in range(n)))


def materialised_shift(lam, mat):
    """lambda I - A as its own SparseMatrix, merged from A's negated
    triplets and the n diagonal lambdas."""
    p = mat.p
    return SparseMatrix(mat.n, p, [(r, c, -v % p) for r, c, v in mat.triplets]
                        + [(i, i, lam) for i in range(mat.n)])


def sweep_matrices(n, seed, p):
    """(name, matrix) pairs an honest sweep runs on: random_sparse, the
    same plus I, a cyclic permutation and the identity."""
    base = random_sparse(n, min(2, n), seed, p)
    diagonal = tuple((i, i, 1) for i in range(n))
    yield "random", base
    yield "plus-identity", SparseMatrix(n, p, base.triplets + diagonal)
    yield "permutation", SparseMatrix(n, p, [(i, (i + 1) % n, 1)
                                             for i in range(n)])
    yield "identity", SparseMatrix(n, p, diagonal)


def reference_hessenberg(a_rows, p):
    """Upper Hessenberg matrix similar to A over GF(p), by elimination.

    Column j is cleared below the subdiagonal with the row operations
    R_k -= f_k R_(j+1); the inverse column operations C_(j+1) += f_k C_k keep
    the result similar to A.
    """
    n = len(a_rows)
    h = [[x % p for x in row] for row in a_rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        top = h[j + 1]
        inv = f_inv(top[j], p)
        fs = [h[k][j] * inv % p for k in range(j + 2, n)]
        for k, f in enumerate(fs, j + 2):
            if f:
                h[k] = [(x - f * y) % p for x, y in zip(h[k], top)]
        for row in h:
            row[j + 1] = (row[j + 1] + sum(map(mul, fs, row[j + 2:]))) % p
    return h


def reference_dense_charpoly(a_rows, p):
    """det(x I - A), from the Hessenberg form in O(n^3); any prime p.

    With P_m the charpoly of the leading m x m block of H,
    P_(m+1) = (x - h[m][m]) P_m
              - sum_i h[m-i][m] h[m][m-1] ... h[m-i+1][m-i] P_(m-i).
    """
    h = reference_hessenberg(a_rows, p)
    polys = [[1]]
    for m in range(len(h)):
        prev = polys[m]
        c = h[m][m]
        cur = [0] + prev
        cur[:m + 1] = [a - c * b for a, b in zip(cur, prev)]
        sub = 1
        for i in range(1, m + 1):
            sub = sub * h[m - i + 1][m - i] % p
            if not sub:
                break
            c = h[m - i][m] * sub % p
            q = polys[m - i]
            cur[:m - i + 1] = [a - c * b for a, b in zip(cur, q)]
        polys.append([x % p for x in cur])
    return polys[-1]


def mat_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def dense_det(a_rows, p):
    """Determinant by Gaussian elimination with row swaps."""
    n = len(a_rows)
    m = [list(row) for row in a_rows]
    det = 1
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c] % p:
                pr = i
                break
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        piv = m[c][c]
        det = det * piv % p
        inv = f_inv(piv, p)
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return det % p


def dense_kernel_vector(a_rows, p):
    """Some nonzero v with A v = 0, or None when A is invertible."""
    n = len(a_rows)
    m = [list(row) for row in a_rows]
    pivots = {}
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, n):
            if m[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f_inv(m[r][c], p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    if r == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    v = [0] * n
    v[free] = 1
    for c, row in pivots.items():
        v[c] = (-m[row][free]) % p
    return v


def dense_minpoly(a_rows, p):
    """Minimal polynomial of A: the first linear dependence among I, A, A^2, ..."""
    n = len(a_rows)
    basis = []
    power = identity(n)
    k = 0
    while True:
        vec = [x for row in power for x in row]
        comb = [0] * (k + 1)
        comb[k] = 1
        for pivot, bvec, bcomb in basis:
            f = vec[pivot]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, bvec)]
                bb = bcomb + [0] * (len(comb) - len(bcomb))
                comb = [(a - f * b) % p for a, b in zip(comb, bb)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return comb
        inv = f_inv(vec[piv], p)
        basis.append((piv, [x * inv % p for x in vec],
                      [x * inv % p for x in comb]))
        power = mat_mul(power, a_rows, p)
        k += 1


def companion_matrix(f, p):
    """Companion matrix of a monic polynomial, as a sparse operator."""
    d = poly_degree(f)
    if d < 1 or f[d] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    triplets = [(i + 1, i, 1) for i in range(d - 1)]
    triplets += [(i, d - 1, -f[i] % p) for i in range(d)]
    return SparseMatrix(d, p, triplets)


# -- the delegation schedule

def level_schedule(k):
    """Exponents e_1 < ... < e_{k-1} solving 2 e_j = e_{j-1} + e_{j+1}, e_0 = 0, e_k = 1.

    The exact rational solution of the tridiagonal balance system; kcert's
    strides use its closed form e_j = j/k.
    """
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


def klevel(mat, delta, k):
    """(delta, K, depth) of the blocked statement `kcert prove --protocol
    klevel:k` makes for mat."""
    return klevel_statement(mat.n, delta, k)


def level_strides(k, n):
    """Raw stride targets n^(j/k) rounded to integers."""
    return [max(1, round(n ** (j / k))) for j in range(1, k)]


# -- closed-form costs

def seq_reference_cost(n, mu):
    """Cost of the unverified baseline: the prover's sequence run at delta = 2n."""
    return 2 * n * mu + 4 * n * n


def power_prover_applications(d, variant):
    """Prover operator applications of the power certificate at d.

    halving: chains of d, d // 2, ... matvecs down to 2, and the one at
    d = 1 that both sides make; single: chains of 2^t, 2^(t-1), ..., 2 for
    t the minimal depth of d.
    """
    if variant == "single":
        return 2 ** (max(1, (d - 1).bit_length()) + 1) - 2
    total = 1
    while d > 1:
        total += d
        d //= 2
    return total


def _level_applications(d, variant):
    """Prover applications of the levels below the rows for a sequence of
    length d: the level with midpoint e = ceil(d / 2^(k+1)) >= 2 sends s
    and costs its chain of e matvecs and its power certificate at e; the
    three-entry base costs one matvec."""
    total = 1
    e = (d + 1) // 2
    while e >= 2:
        total += e + power_prover_applications(e, variant)
        e = (e + 1) // 2
    return total


def sequence_prover_applications(d, variant):
    """Prover operator applications of the sequence certificate of length
    d: ceil(d / 2) vecmats for the rows u^T A^i, built once, then the
    levels, which reuse them."""
    return (d + 1) // 2 + _level_applications(d, variant)


def combination_prover_applications(d, variant):
    """Prover operator applications of the combination certificate at degree
    d: d vecmats for the rows, then the audit sub-run's levels, which reuse
    them; at d <= 1 the verifier checks T directly."""
    if d <= 1:
        return d
    return d + _level_applications(d, variant)


def apart_verifier_bound(n, mu, delta, K, depth, lower=None):
    """Verifier budget of a blocked run with every block test and list link
    run apart, the closed form before they were folded into one test each:
    K(mu+2n) + 2n + ceil(delta/K)(2K+4n) at depth 0, 2mu + 10Kn +
    ceil(delta/K)(2K+4n) at depth 1, and deeper ceil(delta/K)(2K+4n) + 5n +
    2K and the two sub-runs."""
    blocks = -(-delta // K) * (2 * K + 4 * n)
    if depth == 0:
        return K * (mu + 2 * n) + 2 * n + blocks
    if depth == 1:
        return 2 * mu + 10 * K * n + blocks
    lower = lower_strides(n, delta, K, depth) if lower is None else lower
    k = lower[-1]
    return blocks + 5 * n + 2 * K + sum(
        apart_verifier_bound(n, mu, sub, k, row_depth(k, depth - 1),
                             lower[:-1]) for sub in (K, K - 1))


def power_log_verifier_bound(n, mu, d):
    """Verifier budget of the halving power certificate."""
    return (mu + 8 * n) * max(1, (d - 1).bit_length()) + mu
