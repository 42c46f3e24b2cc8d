"""Sparse matrices over GF(p) and the linear operators the protocols act on.

A SparseMatrix stores merged coordinate triplets, sorted by row and then
column.  The first application in each direction is one direct pass over
them that adds each entry's product into its line's exact sum, and an
operator applied once, as the resolvent Verifier applies A, builds nothing
more.  The second application in a direction builds that direction's
jagged-diagonal layout, after Saad, "Krylov subspace methods on
supercomputers" (SISC 1989), and every later one runs on it.  The lines are
sorted by entry count, longest first, and diagonal k holds the values of
the k-th entry of every line with more than k entries, so it covers a
prefix of the sorted order, and an operator.itemgetter built once that
gathers a vector at those entries' indices.  The diagonals that cover every
nonempty line sum lazily in C-level map calls; the shorter ones add into a
prefix of that list, and one gather undoes the sort and gives each empty
line a trailing 0.  Either way each line's exact sum of products is reduced
once, so the two are bit-identical.

Operators expose n, p, mu (the field-operation cost of one application),
apply (A v), rapply (u^T A) and .T.  apply and rapply take plus = (k, w)
to add k w into the same reduction.  TransposeOp is a view that swaps its
base's apply and rapply.  ShiftedOp, lambda I - A, is a black box over A,
after Kaltofen and Saunders, "On Wiedemann's method of solving sparse
linear systems" (AAECC 1991): it holds A's triplets and reads A's layouts,
and an application computes lambda v - A v in A's one pass, with the
lambda v_i taken into the final reduction.  It builds nothing per entry,
and its ledger charge is mu(A) + 2n for every lambda.  DiagScaledOp,
diag(d) A, holds A's triplets and lane too, with d as its scale, taken
into a direct pass's reduction.  Only when it needs a layout does it fold
d into them: row r's values times d[r], reduced once, so an application
is one pass, like the base's.  Its ledger charge is mu(A) + n, the base
application plus n scalings; over a shift it folds d into the lambdas
too, for mu(A) + 3n.

matvec, vecmat, dot, dots and combine are the entry points protocol code
uses, and they charge the active cost ledger: an operator application costs
op.mu and bumps the corresponding counter, a dot of length n costs 2n - 1,
for vectors and for scalar combinations alike, and a combination of k
length-n vectors costs 2nk, as k scaled sums do.

dots serves several dots that share a vector from one big-integer product
pass, after Dumas, Fousse and Salvy, "Simultaneous modular reduction and
Kronecker substitution for small finite fields" (J. Symb. Comp. 2011).  It
packs k lane vectors into one integer per coordinate, lane i at bit i w.
With reduced residues each product is below p^2 < 2^(2 bitlen(p)), so a sum
of n of them stays below 2^w for w = 2 bitlen(p) + bitlen(n): no lane
carries into the next, and the exact sum of products of every lane is read
back as its own w bits.  w is rounded up to whole bytes, so packing and
reading back are byte copies, linear in k.  combine is the transpose: it
packs the n coordinates of each vector into one integer, lanes wide enough
for a sum of k products, so sum_j c_j v_j is k scalar-by-integer products.

A matrix file is KMX1: b"KMX1", then the little-endian 64-bit words n, p,
nnz and the nnz merged, sorted triplets (row, column, value), nothing
else.  Those bytes are the preimage of SparseMatrix.digest, so a file's
sha256 is its matrix's digest.  read_matrix loads the words with one
array('Q').frombytes and refuses a file that is not canonical.  It reads
Matrix Market coordinate text as well, to the same matrix and digest.

SparseMatrix takes triplets that are sorted, name each cell once and hold
reduced nonzero values, as a KMX1 file holds them and random_sparse
makes them, as they are, after one bulk check: min/max range checks over
their column and value slices and one comparison of consecutive cell keys.
Any other order, and repeated cells, go through a merge that sums repeats
mod p.  parse_matrix reads the entry lines of Matrix Market text in bulk:
one C-level split and int conversion over the whole body and a min/max
check of the values.  Only when a bulk check fails, on either format, does
a per-entry scan run, to name the first offending line or entry.
"""

import hashlib
import random
from itertools import chain, repeat
from operator import add, itemgetter, lt, mul, sub

from . import engine


KMX1_MAGIC = b"KMX1"


class ParseError(Exception):
    """Matrix file rejected; the message carries the offending line number."""


def _getter(indices):
    """A function returning the entries of a sequence at indices, as a
    sequence also for one index (itemgetter(i) alone returns the entry)."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


class _JaggedDiagonals:
    """Jagged-diagonal layout of n lines from (line, index, value) entries.

    diags[k] = (get, values) for the k-th entry of each of the first
    len(values) lines in sorted order: get(v) gathers v at their indices.
    The first `full` diagonals cover every nonempty line.  gather maps
    sorted positions back to line order, an empty line to the position just
    past the nonempty ones, or is None when the sort left every line in
    place and none is empty.
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
        nonempty = n - lengths.count(0)
        diags = []
        cover = nonempty
        for k in range(lengths[0]):
            while lengths[cover - 1] <= k:
                cover -= 1
            lines = order[:cover]
            diags.append((_getter([idx[r][k] for r in lines]),
                          tuple(val[r][k] for r in lines)))
        self.n = n
        self.diags = diags
        self.full = lengths[nonempty - 1] if nonempty else 0
        if nonempty == n and order == list(range(n)):
            self.gather = None
        else:
            pos = [nonempty] * n
            for at, r in enumerate(order[:nonempty]):
                pos[r] = at
            self.gather = _getter(pos)

    def sums(self, v):
        """Every line's exact sum of value * v[index], in line order."""
        diags = self.diags
        if not diags:
            return repeat(0, self.n)
        full = self.full
        get, vals = diags[0]
        acc = map(mul, vals, get(v))
        for get, vals in diags[1:full]:
            acc = map(add, acc, map(mul, vals, get(v)))
        gather = self.gather
        if full < len(diags) or gather is not None:
            acc = list(acc)
            for get, vals in diags[full:]:
                acc[:len(vals)] = map(add, acc, map(mul, vals, get(v)))
            if gather is not None:
                acc.append(0)
                acc = gather(acc)
        return acc


def _merge(n, p, triplets):
    """Triplets sorted, each cell once with its values summed mod p, zeros
    dropped; raises ValueError for an index outside the matrix."""
    merged = {}
    for r, c, v in triplets:
        if not (0 <= r < n and 0 <= c < n):
            raise ValueError("entry (%d, %d) outside matrix" % (r, c))
        key = (r, c)
        merged[key] = (merged.get(key, 0) + v) % p
    return tuple((r, c, v) for (r, c), v in sorted(merged.items()) if v != 0)


def _canonical(n, p, rs, cs, vs):
    """True when the triplet columns rs, cs, vs are sorted, name each cell
    once and hold reduced nonzero values."""
    if not rs:
        return True
    # with 0 <= c < n, the keys r n + c increase with (r, c), and every row
    # is in range when the first and last keys are
    keys = list(map(add, map(mul, rs, repeat(n)), cs))
    return (0 <= min(cs) and max(cs) < n and 0 < min(vs) and max(vs) < p
            and 0 <= keys[0] and keys[-1] < n * n
            and all(map(lt, keys, keys[1:])))


class SparseMatrix:
    """Square sparse matrix over GF(p) in merged, sorted triplet form.

    A matrix M with a lane c stands for the shift diag(c) - M (ShiftedOp),
    and one with a scale d for diag(d) times that, or diag(d) M without a
    lane (DiagScaledOp).  An application computes it in M's one pass.
    """

    lane = None
    scale = None

    def __init__(self, n, p, triplets):
        if n < 1:
            raise ValueError("dimension must be positive")
        triplets = tuple(triplets)
        rs, cs, vs = zip(*triplets) if triplets else ((), (), ())
        if not _canonical(n, p, rs, cs, vs):
            triplets = _merge(n, p, triplets)
            rs = map(itemgetter(0), triplets)
        self._hold(n, p, triplets)
        self.mu = 2 * self.nnz - len(set(rs))

    def _hold(self, n, p, triplets, base=None):
        """Hold merged triplets; their layouts are built at the second
        application in each direction, or read from base, a matrix holding
        the same triplets."""
        self.n = n
        self.p = p
        self.triplets = triplets
        self.nnz = len(triplets)
        self._rows = None
        self._cols = None
        self._base = base
        self._applied = [0, 0]
        self._digest = None

    def _row_layout(self):
        if self._rows is None:
            if self._base is not None:
                self._rows = self._base._row_layout()
            else:
                self._fold()
                self._rows = _JaggedDiagonals(self.n, self.triplets)
        return self._rows

    def _col_layout(self):
        if self._cols is None:
            if self._base is not None:
                self._cols = self._base._col_layout()
            else:
                self._fold()
                self._cols = _JaggedDiagonals(
                    self.n, ((c, r, v) for r, c, v in self.triplets))
        return self._cols

    def _fold(self):
        """Take the scale d into the triplets and the lane, row r's values
        and lane entry times d[r], each reduced once, for a layout to hold
        diag(d) M itself."""
        d = self.scale
        if d is not None:
            p = self.p
            self.triplets = tuple([(r, c, x * d[r] % p)
                                   for r, c, x in self.triplets])
            if self.lane is not None:
                self.lane = [x * c % p for x, c in zip(d, self.lane)]
            self.scale = None

    def apply(self, v, plus=None):
        """A v, one reduction per row; with plus = (k, w), A v + k w in the
        same reduction."""
        return self._product(0, v, plus)

    def rapply(self, u, plus=None):
        """u^T A, one reduction per column; plus as for apply."""
        return self._product(1, u, plus)

    def _product(self, way, v, plus):
        """An application over rows (way 0) or columns (way 1): a direct
        pass the first time, then the layout, built at the second.  The
        lane, the scale and plus go into its one reduction."""
        self._applied[way] += 1
        d = None
        if self._applied[way] == 1:
            d = self.scale
            if d is not None and way:
                # u^T diag(d) M = (d (*) u)^T M, kept exact
                v = list(map(mul, d, v))
            acc = self._pass(way, v)
        else:
            # a layout folds the scale, and the lane with it, before both
            # are read below
            acc = (self._col_layout() if way else self._row_layout()).sums(v)
        if self.lane is not None:
            acc = map(sub, map(mul, self.lane, v), acc)
        if d is not None and not way:
            acc = map(mul, d, acc)
        if plus is not None:
            k, w = plus
            acc = map(add, acc, map(k.__mul__, w))
        p = self.p
        return [x % p for x in acc]

    def _pass(self, way, v):
        """Each row's (way 0) or column's (way 1) exact sum of products, in
        one pass over the triplets."""
        acc = [0] * self.n
        if way:
            for r, c, x in self.triplets:
                acc[c] += x * v[r]
        else:
            for r, c, x in self.triplets:
                acc[r] += x * v[c]
        return acc

    @property
    def T(self):
        return TransposeOp(self)

    def kmx1(self):
        """The KMX1 bytes of the matrix: b"KMX1", then the little-endian
        words n, p, nnz and the triplets; write_matrix writes them and
        digest hashes them."""
        return KMX1_MAGIC + engine._word_bytes(chain(
            (self.n, self.p, self.nnz), chain.from_iterable(self.triplets)))

    @property
    def digest(self):
        """sha256 of the KMX1 bytes, read off the file for a matrix read
        from one."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.kmx1()).digest()
        return self._digest


class TransposeOp:
    """View of A^T over a base operator; application cost is unchanged."""

    def __init__(self, base):
        self.base = base
        self.n = base.n
        self.p = base.p
        self.mu = base.mu

    def apply(self, v, plus=None):
        return self.base.rapply(v, plus)

    def rapply(self, u, plus=None):
        return self.base.apply(u, plus)

    @property
    def T(self):
        return self.base


class ShiftedOp(SparseMatrix):
    """lambda I - A for a SparseMatrix A, applied as lambda v - A v.

    It holds A's triplets and reads A's layouts, so it builds nothing per
    entry, and an application is one pass over A's triplets or jagged
    diagonals with lambda v_i taken into the final reduction.  One
    application costs mu(A) + 2n for every lambda: A's application, n
    scalings and n subtractions.  Its triplets and digest are A's: it is an
    operator the protocols apply, never a statement's matrix.
    """

    def __init__(self, lam, base):
        if base.lane is not None or base.scale is not None:
            raise ValueError("the base of a shift must have no lane or scale")
        self._hold(base.n, base.p, base.triplets, base)
        self.lane = [lam] * base.n
        self.mu = base.mu + 2 * base.n


class DiagScaledOp(SparseMatrix):
    """diag(d) * A for a SparseMatrix A: A's triplets and lane with d as
    its scale, taken into the reduction of a direct pass.  A layout folds
    d in first: A's triplets with row r's values times d[r], reduced once,
    and A's lane c, if it has one, as d (*) c.  One application costs
    mu(A) + n, as the base application followed by n scalings would.  Like
    a shift, it is an operator the protocols apply, never a statement's
    matrix: its triplets are A's until the fold."""

    def __init__(self, d, base):
        if len(d) != base.n:
            raise ValueError("diagonal length does not match the operator")
        p = base.p
        self._hold(base.n, p, base.triplets)
        self.lane = base.lane
        self.scale = (d if base.scale is None
                      else [x * y % p for x, y in zip(d, base.scale)])
        self.mu = base.mu + base.n


def matvec(op, v):
    """A v, charged to the active ledger as one matvec of op.mu field ops."""
    engine.charge_matvec(op.mu)
    return op.apply(v)


def vecmat(u, op, plus=None):
    """u^T A, charged as one vector-matrix product of op.mu field ops; with
    plus = (k, w), u^T A + k w in its one reduction, charged 2n more, as
    the scaled sum it replaces."""
    engine.charge_vecmat(op.mu)
    if plus is not None:
        engine.charge_field_ops(2 * op.n)
    return op.rapply(u, plus)


def dot(u, v, p):
    """Inner product of vectors, or sum coeffs[i] * values[i] over scalars;
    2n - 1 field ops."""
    if len(u) != len(v):
        raise ValueError("dot of mismatched lengths")
    engine.charge_field_ops(2 * len(u) - 1)
    return sum(map(mul, u, v)) % p


def dots(lanes, vectors, p, used=None):
    """[[dot(lane, v, p) for lane in lanes] for v in vectors], one product
    pass per vector over the lanes packed once (see the module docstring).

    Every entry must be a reduced residue, and p < 2^64 as for the codec.
    Charged as `used` dots of 2n - 1 field ops, all len(lanes) *
    len(vectors) of them by default; a caller that reads fewer of the
    results names how many it reads.
    """
    n = len(lanes[0])
    if any(len(x) != n for x in chain(lanes, vectors)):
        raise ValueError("dots of mismatched lengths")
    if used is None:
        used = len(lanes) * len(vectors)
    engine.charge_field_ops(used * (2 * n - 1))
    # lane i of coordinate c fills bytes [i size, (i + 1) size) of the c-th
    # span, copied in from the entries' low bytes by strided assignment
    size = -(-(2 * p.bit_length() + n.bit_length()) // 8)
    low = -(-p.bit_length() // 8)
    span = len(lanes) * size
    buf = bytearray(n * span)
    for at, lane in zip(range(0, span, size), lanes):
        words = engine._word_bytes(lane)
        for b in range(low):
            buf[at + b::span] = words[b::8]
    unpack = int.from_bytes
    buf = memoryview(buf)
    packed = [unpack(buf[c:c + span], "little")
              for c in range(0, n * span, span)]
    out = []
    for v in vectors:
        acc = sum(map(mul, packed, v)).to_bytes(span, "little")
        out.append([unpack(acc[at:at + size], "little") % p
                    for at in range(0, span, size)])
    return out


def combine(coeffs, vectors, p, n):
    """sum_j coeffs[j] vectors[j] mod p over length-n vectors: the transpose
    of dots, one scalar-by-big-integer product per vector.

    Each vector is packed into one integer, coordinate c in bytes [c size,
    (c + 1) size); with k = len(coeffs) reduced coefficients and entries,
    each product adds less than p^2 to a lane, so size = ceil((2 bitlen(p)
    + bitlen(k)) / 8) bytes hold the exact sum and no lane carries into the
    next.  vectors may be any iterable, read one vector at a time: lists of
    entries, array('Q') rows or the little-endian words of a vector payload,
    so a caller can stream them in and no buffer holds more than one packed
    vector and the sum.  Charged 2nk field ops, as the k scaled sums it
    replaces.
    """
    k = len(coeffs)
    engine.charge_field_ops(2 * n * k)
    size = -(-(2 * p.bit_length() + k.bit_length()) // 8)
    low = -(-p.bit_length() // 8)
    buf = bytearray(n * size)
    acc = 0
    for c, v in zip(coeffs, vectors, strict=True):
        words = engine._word_bytes(v)
        if len(words) != 8 * n:
            raise ValueError("combination of mismatched lengths")
        # bytes past each lane's low ones stay 0 from one vector to the next
        for b in range(low):
            buf[b::size] = words[b::8]
        acc += c * int.from_bytes(buf, "little")
    out = memoryview(acc.to_bytes(n * size, "little"))
    unpack = int.from_bytes
    return [unpack(out[at:at + size], "little") % p
            for at in range(0, n * size, size)]


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
    return [x % p for x in v]


def random_sparse(n, nnz_per_row, seed, p):
    """Matrix with exactly nnz_per_row nonzero entries in each row."""
    if n < 1:
        raise ValueError("n = %d is below 1" % n)
    if not 0 <= nnz_per_row <= n:
        raise ValueError("nnz_per_row = %d is outside 0..%d, the distinct "
                         "columns of a row" % (nnz_per_row, n))
    rng = random.Random(seed)
    triplets = []
    for r in range(n):
        for c in sorted(rng.sample(range(n), nnz_per_row)):
            triplets.append((r, c, rng.randrange(1, p)))
    return SparseMatrix(n, p, triplets)


_MM_HEADER = "%%matrixmarket matrix coordinate integer general"


def write_matrix(mat, path):
    """Write mat as a KMX1 file, whose sha256 is mat.digest."""
    with open(path, "wb") as fh:
        fh.write(mat.kmx1())


def parse_kmx1(data):
    """The matrix whose KMX1 bytes data is; ParseError for any other bytes.

    The entry count is held to the file's length before anything is read
    past the three header words, and the entries must already be merged
    and sorted, as SparseMatrix.kmx1 writes them, so the file is its
    digest's preimage and is hashed as it is.
    """
    if not data.startswith(KMX1_MAGIC):
        raise ParseError("not a KMX1 file")
    size, odd = divmod(len(data) - len(KMX1_MAGIC), 8)
    if odd or size < 3:
        raise ParseError("KMX1 file of %d bytes: need the magic, then whole "
                         "64-bit words, the 3 header words at least"
                         % len(data))
    words = engine._words(memoryview(data)[len(KMX1_MAGIC):])
    n, p, nnz = words[:3]
    if size != 3 + 3 * nnz:
        raise ParseError("KMX1 header declares %d entries; the file holds "
                         "%d words past the header" % (nnz, size - 3))
    if n < 1:
        raise ParseError("KMX1 dimension must be positive")
    rs, cs, vs = words[3::3], words[4::3], words[5::3]
    if not _canonical(n, p, rs, cs, vs):
        _first_kmx1_fault(n, p, rs, cs, vs)
    mat = SparseMatrix.__new__(SparseMatrix)
    mat._hold(n, p, tuple(zip(rs, cs, vs)))
    mat.mu = 2 * nnz - len(set(rs))
    mat._digest = hashlib.sha256(data).digest()
    return mat


def _first_kmx1_fault(n, p, rs, cs, vs):
    """Raise ParseError for the first entry of a KMX1 file that is not
    canonical."""
    last = -1
    for at, (r, c, v) in enumerate(zip(rs, cs, vs)):
        if not (r < n and c < n):
            raise ParseError("KMX1 entry %d: index out of range" % at)
        if not v:
            raise ParseError("KMX1 entry %d: zero value" % at)
        if v >= p:
            raise ParseError("KMX1 entry %d: value not reduced mod %d"
                             % (at, p))
        if r * n + c <= last:
            raise ParseError("KMX1 entry %d: cell not after the one before "
                             "(unsorted or repeated)" % at)
        last = r * n + c
    raise AssertionError("the bulk entry check refused canonical entries")


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
    # entry lines in bulk; _first_fault names the line a failed check found
    parts = list(map(str.split, lines[ln:]))
    if not set(map(len, parts)) <= {0, 3}:
        _first_fault(lines, ln, rows, p)
    try:
        nums = list(map(int, chain.from_iterable(parts)))
    except ValueError:
        _first_fault(lines, ln, rows, p)
    rs, cs, vs = nums[0::3], nums[1::3], nums[2::3]
    if vs and not (1 <= min(vs) and max(vs) < p):
        _first_fault(lines, ln, rows, p)
    one = repeat(1)
    try:
        mat = SparseMatrix(rows, p, zip(map(sub, rs, one), map(sub, cs, one),
                                        vs))
    except ValueError:
        _first_fault(lines, ln, rows, p)
    if len(vs) != nnz:
        raise ParseError("entry count %d does not match declared %d"
                         % (len(vs), nnz))
    return mat


def _first_fault(lines, ln, n, p):
    """Raise ParseError for the first bad entry line from lines[ln] on."""
    for at, line in enumerate(lines[ln:], ln + 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError("line %d: entry needs row col value" % at)
        try:
            r, c, v = (int(x) for x in parts)
        except ValueError:
            raise ParseError("line %d: entry needs integers" % at)
        if not (1 <= r <= n and 1 <= c <= n):
            raise ParseError("line %d: index out of range" % at)
        if not (0 <= v < p):
            raise ParseError("line %d: value not reduced mod %d" % (at, p))
        if v == 0:
            raise ParseError("line %d: explicit zero entry" % at)
    raise AssertionError("the bulk entry check refused valid lines")


def read_matrix(path):
    """The matrix in a KMX1 file, or in Matrix Market text."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(KMX1_MAGIC):
        return parse_kmx1(data)
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise ParseError("neither a KMX1 file nor Matrix Market text") from None
    return parse_matrix(text)
