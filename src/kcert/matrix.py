"""Sparse matrices over GF(p) and the linear operators the protocols act on.

A SparseMatrix stores merged coordinate triplets plus a jagged-diagonal
layout of its rows (and, built on the first rapply, of its columns), after
Saad, "Krylov subspace methods on supercomputers" (SISC 1989).  The lines
are sorted by entry count, longest first, and diagonal k holds the k-th
(index, value) pair of every line with more than k entries, so it covers a
prefix of the sorted order.  An application multiplies and gathers one
whole diagonal at a time in C-level map calls, sums each line's products
exactly and reduces every line once, then undoes the sort.  The result is
bit-identical to reducing each line's exact sum of products.

Operators expose n, p, mu (the field-operation cost of one application),
apply (A v), rapply (u^T A) and .T; TransposeOp and DiagScaledOp wrap a base
operator without materialising anything.

matvec, vecmat and dot are the only entry points protocol code uses, and
they charge the active cost ledger: an operator application costs op.mu and
bumps the corresponding counter, a dot of length n costs 2n - 1.
"""

import hashlib
import random
from operator import add, itemgetter, mul

from . import engine


class ParseError(Exception):
    """Matrix file rejected; the message carries the offending line number."""


class _JaggedDiagonals:
    """Jagged-diagonal layout of n lines from (line, index, value) entries.

    diags[k] = (indices, values) of the k-th entry of each of the first
    len(indices) lines in sorted order; the first `full` diagonals cover all
    n lines.  gather maps sorted positions back to line order, or is None
    when the sort left every line in place.
    """

    __slots__ = ("n", "diags", "full", "gather")

    def __init__(self, n, entries):
        idx = [[] for _ in range(n)]
        val = [[] for _ in range(n)]
        for line, i, x in entries:
            idx[line].append(i)
            val[line].append(x)
        order = sorted(range(n), key=lambda r: len(idx[r]), reverse=True)
        lengths = [len(idx[r]) for r in order]
        diags = []
        cover = n
        for k in range(lengths[0]):
            while lengths[cover - 1] <= k:
                cover -= 1
            lines = order[:cover]
            diags.append((tuple(idx[r][k] for r in lines),
                          tuple(val[r][k] for r in lines)))
        self.n = n
        self.diags = diags
        self.full = lengths[-1]
        if order == list(range(n)):
            self.gather = None
        else:
            pos = [0] * n
            for at, r in enumerate(order):
                pos[r] = at
            self.gather = itemgetter(*pos)

    def product(self, v, p):
        """Every line's sum of value * v[index], reduced mod p, in line order."""
        g = v.__getitem__
        diags = self.diags
        full = self.full
        if full:
            idx, vals = diags[0]
            acc = map(mul, vals, map(g, idx))
            for idx, vals in diags[1:full]:
                acc = map(add, acc, map(mul, vals, map(g, idx)))
        else:
            acc = [0] * self.n
        if full < len(diags):
            acc = list(acc)
            for idx, vals in diags[full:]:
                acc[:len(idx)] = map(add, acc, map(mul, vals, map(g, idx)))
        if self.gather is not None:
            acc = self.gather(acc)
        return list(map(p.__rmod__, acc))


class SparseMatrix:
    """Square sparse matrix over GF(p) in merged, sorted triplet form."""

    def __init__(self, n, p, triplets):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n
        self.p = p
        merged = {}
        for r, c, v in triplets:
            if not (0 <= r < n and 0 <= c < n):
                raise ValueError("entry (%d, %d) outside matrix" % (r, c))
            key = (r, c)
            merged[key] = (merged.get(key, 0) + v) % p
        self.triplets = tuple(
            (r, c, v) for (r, c), v in sorted(merged.items()) if v != 0
        )
        self._rows = _JaggedDiagonals(n, self.triplets)
        self._cols = None
        self.nnz = len(self.triplets)
        nonempty = len({r for r, _, _ in self.triplets})
        self.mu = 2 * self.nnz - nonempty

    def apply(self, v):
        """A v, one reduction per row."""
        return self._rows.product(v, self.p)

    def rapply(self, u):
        """u^T A, one reduction per column."""
        if self._cols is None:
            self._cols = _JaggedDiagonals(
                self.n, ((c, r, v) for r, c, v in self.triplets))
        return self._cols.product(u, self.p)

    @property
    def T(self):
        return TransposeOp(self)

    @property
    def digest(self):
        h = hashlib.sha256(b"KMX1")
        h.update(self.n.to_bytes(8, "little"))
        h.update(self.p.to_bytes(8, "little"))
        h.update(self.nnz.to_bytes(8, "little"))
        for r, c, v in self.triplets:
            h.update(r.to_bytes(8, "little"))
            h.update(c.to_bytes(8, "little"))
            h.update(v.to_bytes(8, "little"))
        return h.digest()


class TransposeOp:
    """View of A^T over a base operator; application cost is unchanged."""

    def __init__(self, base):
        self.base = base
        self.n = base.n
        self.p = base.p
        self.mu = base.mu

    def apply(self, v):
        return self.base.rapply(v)

    def rapply(self, u):
        return self.base.apply(u)

    @property
    def T(self):
        return self.base


class DiagScaledOp:
    """diag(d) * A (side "left") or A * diag(d) (side "right"), unmaterialised.

    One application costs mu(A) + n: the base application plus n scalings.
    """

    def __init__(self, d, base, side="left"):
        if side not in ("left", "right"):
            raise ValueError("side must be left or right")
        if len(d) != base.n:
            raise ValueError("diagonal length does not match the operator")
        self.d = list(d)
        self.base = base
        self.side = side
        self.n = base.n
        self.p = base.p
        self.mu = base.mu + base.n

    def _scale(self, w):
        return list(map(self.p.__rmod__, map(mul, self.d, w)))

    def apply(self, v):
        if self.side == "left":
            return self._scale(self.base.apply(v))
        return self.base.apply(self._scale(v))

    def rapply(self, u):
        if self.side == "left":
            return self.base.rapply(self._scale(u))
        return self._scale(self.base.rapply(u))

    @property
    def T(self):
        flip = "right" if self.side == "left" else "left"
        return DiagScaledOp(self.d, self.base.T, flip)


def matvec(op, v):
    """A v, charged to the active ledger as one matvec of op.mu field ops."""
    engine.charge_matvec(op.mu)
    return op.apply(v)


def vecmat(u, op):
    """u^T A, charged as one vector-matrix product of op.mu field ops."""
    engine.charge_vecmat(op.mu)
    return op.rapply(u)


def dot(u, v, p):
    """Inner product, 2n - 1 field ops."""
    if len(u) != len(v):
        raise ValueError("dot of mismatched lengths")
    engine.charge_field_ops(2 * len(u) - 1)
    return sum(map(mul, u, v)) % p


def scaled_accumulate(acc, c, v):
    """acc + c * v elementwise in exact integers, charged as 2n field ops.

    The charge covers the reduction too; the caller reduces the finished sum
    once with reduce_vector.  With c and v reduced, each call adds less than
    p^2 to an entry.
    """
    engine.charge_field_ops(2 * len(v))
    return [a + c * b for a, b in zip(acc, v)]


def reduce_vector(v, p):
    """Canonical residues of an exact sum; already charged by its terms."""
    return list(map(p.__rmod__, v))


def combine(coeffs, values, p):
    """sum coeffs[i] * values[i] over scalars, 2k - 1 field ops."""
    engine.charge_field_ops(2 * len(coeffs) - 1)
    return sum(map(mul, coeffs, values)) % p


def random_sparse(n, nnz_per_row, seed, p):
    """Matrix with exactly nnz_per_row nonzero entries in each row."""
    if nnz_per_row > n:
        raise ValueError("cannot place %d distinct columns in a row of %d"
                         % (nnz_per_row, n))
    rng = random.Random(seed)
    triplets = []
    for r in range(n):
        for c in sorted(rng.sample(range(n), nnz_per_row)):
            triplets.append((r, c, rng.randrange(1, p)))
    return SparseMatrix(n, p, triplets)


_MM_HEADER = "%%matrixmarket matrix coordinate integer general"


def write_matrix(mat, path):
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write("% modulus {}\n".format(mat.p))
        fh.write("{} {} {}\n".format(mat.n, mat.n, mat.nnz))
        for r, c, v in mat.triplets:
            fh.write("{} {} {}\n".format(r + 1, c + 1, v))


def parse_matrix(text):
    lines = text.splitlines()
    if not lines or " ".join(lines[0].split()).lower() != _MM_HEADER:
        raise ParseError("line 1: expected MatrixMarket coordinate integer header")
    p = None
    ln = 1
    while ln < len(lines) and lines[ln].lstrip().startswith("%"):
        parts = lines[ln].lstrip("%").split()
        if len(parts) == 2 and parts[0] == "modulus":
            try:
                p = int(parts[1])
            except ValueError:
                raise ParseError("line %d: bad modulus" % (ln + 1))
        ln += 1
    if p is None:
        raise ParseError("missing '% modulus <p>' comment line")
    if ln >= len(lines):
        raise ParseError("line %d: missing size line" % (ln + 1))
    sizes = lines[ln].split()
    if len(sizes) != 3:
        raise ParseError("line %d: size line needs rows cols nnz" % (ln + 1))
    try:
        rows, cols, nnz = (int(x) for x in sizes)
    except ValueError:
        raise ParseError("line %d: size line needs integers" % (ln + 1))
    if rows != cols:
        raise ParseError("line %d: matrix must be square" % (ln + 1))
    if rows < 1:
        raise ParseError("line %d: dimension must be positive" % (ln + 1))
    ln += 1
    triplets = []
    seen = 0
    while ln < len(lines):
        line = lines[ln].strip()
        ln += 1
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("line %d: entry needs row col value" % ln)
        try:
            r, c, v = (int(x) for x in parts)
        except ValueError:
            raise ParseError("line %d: entry needs integers" % ln)
        if not (1 <= r <= rows and 1 <= c <= rows):
            raise ParseError("line %d: index out of range" % ln)
        if not (0 <= v < p):
            raise ParseError("line %d: value not reduced mod %d" % (ln, p))
        if v == 0:
            raise ParseError("line %d: explicit zero entry" % ln)
        triplets.append((r - 1, c - 1, v))
        seen += 1
    if seen != nnz:
        raise ParseError("entry count %d does not match declared %d" % (seen, nnz))
    return SparseMatrix(rows, p, triplets)


def read_matrix(path):
    with open(path) as fh:
        return parse_matrix(fh.read())
