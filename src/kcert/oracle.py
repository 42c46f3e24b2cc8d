"""Dense reference computations.

Everything here is cubic-or-worse and meant for small instances: the test
suite checks protocol outputs against these.  The only prover that still
uses this module is the charpoly prover, which commits dense_charpoly of
the materialised matrix; det is read off a certified Krylov run of the
operator.  Nothing in this module charges a cost ledger.
"""

from operator import mul

from .field import f_inv, poly_degree, poly_divmod, poly_monic, poly_mul, poly_sub, poly_trim
from .matrix import SparseMatrix


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_from_sparse(mat):
    rows = [[0] * mat.n for _ in range(mat.n)]
    for r, c, v in mat.triplets:
        rows[r][c] = v
    return rows


def mat_mul(a, b, p):
    n = len(a)
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


def _hessenberg(a_rows, p):
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


def dense_charpoly(a_rows, p):
    """det(x I - A), from the Hessenberg form in O(n^3); any prime p.

    With P_m the charpoly of the leading m x m block of H,
    P_(m+1) = (x - h[m][m]) P_m
              - sum_i h[m-i][m] h[m][m-1] ... h[m-i+1][m-i] P_(m-i).
    """
    h = _hessenberg(a_rows, p)
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


def minpoly_of_sequence_eea(s, p):
    """Minimal generator of a sequence by the truncated extended Euclid run.

    Independent of the iterative solver in field; used to cross-check it.
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
