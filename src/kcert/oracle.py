"""The charpoly prover's dense method.

The charpoly prover commits dense_charpoly of the materialised matrix: a
Hessenberg reduction and a recurrence over its leading blocks, O(n^3) field
operations on a dense n x n copy, so it is meant for small instances.
Nothing in this module charges a cost ledger.
"""

from operator import mul

from .field import f_inv


def mat_from_sparse(mat):
    rows = [[0] * mat.n for _ in range(mat.n)]
    for r, c, v in mat.triplets:
        rows[r][c] = v
    return rows


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
