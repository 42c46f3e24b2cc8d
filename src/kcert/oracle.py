"""The charpoly prover's dense method.

The charpoly prover commits dense_charpoly of the materialised matrix: a
Hessenberg reduction and a recurrence over its leading blocks, O(n^3) field
operations on a dense n x n copy, so it is meant for small instances.

Both halves work on Kronecker-packed integers (Dumas-Fousse-Salvy, J. Symb.
Comp. 2011), so one big-integer multiply-add does the work of a whole
column or polynomial and Python takes O(n^2) steps.  In the reduction,
column c is one integer with entry (r, c) in the lane of W bits at bit
r W.  Every lane holds a nonnegative integer congruent to its entry: a row
operation adds (p - t) F instead of subtracting t F.  A column gains less
than p^2 per lane from each of at most n row operations, so its lanes stay
below p + n p^2.  The target of the column operation at step j adds at
most n such columns times a multiplier below p, so it stays below
4 n^2 p^3; it takes no further operation before step j + 1 reads it,
reduced, as the column to clear.  Hence
W = 8 ceil((3 bitlen(p) + 2 bitlen(n) + 2) / 8).  The
recurrence packs each P_m with coefficient i at bit i V; P_(m+1) sums at
most n + 1 terms below p^2 before it is reduced, so V holds 2 bitlen(p) +
bitlen(n) + 2 bits, rounded up to whole bytes as W is, so that lanes are
byte slices.  tests/support.py keeps the list-based method as the reference
the tests compare against.  Nothing in this module charges a cost ledger.
"""

from operator import mul

from .field import f_inv


def mat_from_sparse(mat):
    rows = [[0] * mat.n for _ in range(mat.n)]
    for r, c, v in mat.triplets:
        rows[r][c] = v
    return rows


def _pack(vals, size):
    """The integer with vals[i] in bytes [i size, (i + 1) size)."""
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in vals),
                          "little")


def _unpack(x, count, size, p):
    """The count lanes of size bytes that x packs, reduced mod p."""
    raw = x.to_bytes(count * size, "little")
    unpack = int.from_bytes
    return [unpack(raw[at:at + size], "little") % p
            for at in range(0, count * size, size)]


def _hessenberg_columns(a_rows, p):
    """Columns of an upper Hessenberg matrix similar to A over GF(p).

    Column j is cleared below the subdiagonal with the row operations
    R_k -= f_k R_(j+1); the inverse column operations C_(j+1) += f_k C_k keep
    the result similar to A.  Column j is final once step j has cleared it.
    """
    n = len(a_rows)
    size = -(-(3 * p.bit_length() + 2 * n.bit_length() + 2) // 8)
    width = 8 * size
    mask = (1 << width) - 1
    cols = [_pack([x % p for x in col], size) for col in zip(*a_rows)]
    done = []
    for j in range(n - 2):
        lanes = _unpack(cols[j], n, size, p)
        piv = next((i for i in range(j + 1, n) if lanes[i]), None)
        if piv is not None and piv != j + 1:
            # swap rows piv and j + 1 by moving the difference between the
            # two lanes, then columns piv and j + 1; left of column j both
            # lanes are already zero
            lanes[piv], lanes[j + 1] = lanes[j + 1], lanes[piv]
            lo, hi = (j + 1) * width, piv * width
            shift = (1 << lo) - (1 << hi)
            for c in range(j + 1, n):
                col = cols[c]
                d = (col >> hi & mask) - (col >> lo & mask)
                if d:
                    cols[c] = col + d * shift
            cols[piv], cols[j + 1] = cols[j + 1], cols[piv]
        done.append(lanes[:j + 2] + [0] * (n - j - 2))
        if piv is None:
            continue
        inv = f_inv(lanes[j + 1], p)
        fs = [lanes[k] * inv % p for k in range(j + 2, n)]
        if not any(fs):
            continue
        packed_fs = _pack(fs, size) << ((j + 2) * width)
        lo = (j + 1) * width
        for c in range(j + 1, n):
            t = (cols[c] >> lo & mask) % p
            if t:
                cols[c] += (p - t) * packed_fs
        # the target is the next step's column j, read reduced
        cols[j + 1] += sum(map(mul, fs, cols[j + 2:]))
    return done + [_unpack(col, n, size, p) for col in cols[len(done):]]


def dense_charpoly(a_rows, p):
    """det(x I - A), from the Hessenberg form H in O(n^3); any prime p.

    With P_m the charpoly of the leading m x m block of H,
    P_(m+1) = (x - h[m][m]) P_m
              - sum_i h[m-i][m] h[m][m-1] ... h[m-i+1][m-i] P_(m-i).
    """
    hc = _hessenberg_columns(a_rows, p)  # hc[c][r] = h[r][c]
    n = len(hc)
    size = -(-(2 * p.bit_length() + n.bit_length() + 2) // 8)
    polys = [1]
    for m in range(n):
        col = hc[m]
        coeffs, terms = [p - col[m]], [polys[m]]
        sub = 1
        for i in range(1, m + 1):
            sub = sub * hc[m - i][m - i + 1] % p
            if not sub:
                break
            c = col[m - i] * sub % p
            if c:
                coeffs.append(p - c)
                terms.append(polys[m - i])
        cur = (polys[m] << 8 * size) + sum(map(mul, coeffs, terms))
        polys.append(_pack(_unpack(cur, m + 2, size, p), size))
    return _unpack(polys[n], n + 1, size, p)
