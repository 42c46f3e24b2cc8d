import hashlib
import random
from array import array
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from kcert import cli, engine
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import (DiagScaledOp, ParseError, ShiftedOp, SparseMatrix,
                          combine, dot, dots, matvec, parse_kmx1,
                          parse_matrix, random_sparse,
                          read_matrix, reduce_vector, scaled_accumulate,
                          vecmat, write_matrix)
from kcert.oracle import mat_from_sparse

from support import materialised_shift, plus_identity

P = 101


def dense_apply(rows, v, p):
    return [sum(a * x for a, x in zip(row, v)) % p for row in rows]


def test_construction_merges_and_drops():
    m = SparseMatrix(3, P, [(0, 0, 50), (0, 0, 51), (1, 2, 3), (2, 2, 0)])
    # 50 + 51 = 0 mod 101: both the merged cell and the explicit zero vanish
    assert m.triplets == ((1, 2, 3),)
    assert m.nnz == 1
    assert m.mu == 2 * 1 - 1


def test_mu_counts_nonempty_rows():
    m = SparseMatrix(4, P, [(0, 0, 1), (0, 1, 2), (2, 3, 4)])
    assert m.nnz == 3
    assert m.mu == 2 * 3 - 2


def test_validation():
    with pytest.raises(ValueError):
        SparseMatrix(0, P, [])
    with pytest.raises(ValueError):
        SparseMatrix(2, P, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(2, P, [(0, -1, 1)])


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_apply_matches_dense(n, data):
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, P - 1)), max_size=12))
    m = SparseMatrix(n, P, cells)
    v = data.draw(st.lists(st.integers(0, P - 1), min_size=n, max_size=n))
    rows = mat_from_sparse(m)
    assert m.apply(v) == dense_apply(rows, v, P)
    cols = [list(r) for r in zip(*rows)]
    assert m.rapply(v) == dense_apply(cols, v, P)


def per_line(lines, v, p):
    """Reference kernel: each line's exact sum of products, reduced once."""
    return [sum(x * v[i] for i, x in line) % p for line in lines]


@st.composite
def kernel_cases(draw):
    """(n, p, cells, v, u, d): irregular lines, optionally one dense row."""
    n = draw(st.integers(1, 9))
    p = draw(st.sampled_from((2, P, DEFAULT_PRIME)))
    value = st.integers(0, p - 1)
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), value),
                          max_size=3 * n))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        cells += [(r, c, draw(st.integers(1, p - 1))) for c in range(n)]
    vec = st.lists(value, min_size=n, max_size=n)
    return n, p, cells, draw(vec), draw(vec), draw(vec)


# empty columns sort behind the nonempty ones: 0 and 2 behind 1 and 3 here,
# and in EMPTY_LINES_LAST the sort moves nothing, yet columns 2 and 3 and
# row 3 are empty
EMPTY_COLUMNS_BEHIND = (4, P, [(0, 1, 5), (1, 1, 6), (2, 3, 7), (3, 1, 8)],
                        [1, 2, 3, 4], [4, 3, 2, 1], [9, 8, 7, 6])
EMPTY_LINES_LAST = (4, P, [(0, 0, 5), (0, 1, 6), (1, 0, 7), (1, 1, 8),
                           (2, 0, 9)],
                    [1, 2, 3, 4], [4, 3, 2, 1], [9, 8, 7, 6])
# column 2 has three entries and column 0 one: the second and third column
# diagonals have one entry each
ONE_ENTRY_DIAGONALS = (3, DEFAULT_PRIME,
                       [(0, 2, 1), (1, 2, 2), (2, 2, DEFAULT_PRIME - 1),
                        (0, 0, 4)],
                       [5, 6, 7], [DEFAULT_PRIME - 1, 2, 3], [10, 20, 30])
SINGLE_NONZERO = (3, P, [(1, 2, 5)], [1, 2, 3], [4, 5, 6], [7, 8, 9])


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example((1, P, [], [5], [6], [7]))
@example((1, P, [(0, 0, 3)], [5], [6], [7]))
@example((4, P, [], [1, 2, 3, 4], [4, 3, 2, 1], [1, 1, 1, 1]))
@example((5, DEFAULT_PRIME,
          [(2, c, DEFAULT_PRIME - 1 - c) for c in range(5)] + [(4, 0, 9)],
          [DEFAULT_PRIME - 1] * 5, [3, 0, DEFAULT_PRIME - 2, 1, 8],
          [2, 3, 5, 7, 11]))
@example(EMPTY_COLUMNS_BEHIND)
@example(EMPTY_LINES_LAST)
@example(ONE_ENTRY_DIAGONALS)
@example(SINGLE_NONZERO)
def test_kernel_matches_per_line_reference(case):
    n, p, cells, v, u, d = case
    m = SparseMatrix(n, p, cells)
    rows = [[] for _ in range(n)]
    cols = [[] for _ in range(n)]
    for r, c, x in m.triplets:
        rows[r].append((c, x))
        cols[c].append((r, x))
    assert m.mu == 2 * m.nnz - sum(1 for line in rows if line)

    av, ua = per_line(rows, v, p), per_line(cols, u, p)
    assert m.apply(v) == av and m.rapply(u) == ua
    assert m.T.apply(u) == ua and m.T.rapply(v) == av

    def scale(w):
        return [x * y % p for x, y in zip(d, w)]

    left = DiagScaledOp(d, m)
    assert left.apply(v) == scale(av)
    assert left.rapply(u) == per_line(cols, scale(u), p)
    assert left.T.apply(u) == left.rapply(u)


class TwoPassDiagScaledOp:
    """Reference diag(d) A: the base application and n scalings as two
    passes."""

    def __init__(self, d, base):
        self.d, self.base = list(d), base
        self.mu = base.mu + base.n

    def _scale(self, w):
        return [x * y % self.base.p for x, y in zip(self.d, w)]

    def apply(self, v):
        return self._scale(self.base.apply(v))

    def rapply(self, u):
        return self.base.rapply(self._scale(u))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
@example((1, P, [], [5], [6], [7]))
@example((1, DEFAULT_PRIME, [(0, 0, 3)], [DEFAULT_PRIME - 1], [6],
          [DEFAULT_PRIME - 2]))
@example((4, P, [(1, c, 100) for c in range(4)], [1, 2, 3, 4],
          [4, 3, 2, 1], [100, 99, 1, 50]))
@example(EMPTY_COLUMNS_BEHIND)
@example(EMPTY_LINES_LAST)
@example(ONE_ENTRY_DIAGONALS)
@example(SINGLE_NONZERO)
def test_folded_diag_matches_two_pass_reference(case):
    n, p, cells, v, u, d = case
    m = SparseMatrix(n, p, cells)
    sess = engine.Session(FieldSpec(P), engine.Header(0, P, n, ()), "prove")
    # the lazy column layout is built before and after a row application
    for rapply_first in (True, False):
        op = DiagScaledOp(d, m)
        ref = TwoPassDiagScaledOp(d, m)
        assert op.mu == ref.mu == m.mu + n
        if rapply_first:
            assert op.rapply(u) == ref.rapply(u)
        assert op.apply(v) == ref.apply(v)
        assert op.rapply(u) == ref.rapply(u)
        t = op.T
        assert t.T is op and t.mu == op.mu
        assert t.apply(u) == ref.rapply(u)
        assert t.rapply(v) == ref.apply(v)
        before = engine.CostLedger(**vars(sess.prover_ledger))
        with sess.charging():
            matvec(op, v)
            vecmat(u, op)
            matvec(t, u)
        led = sess.prover_ledger
        assert led.matvec_count - before.matvec_count == 2
        assert led.vecmat_count - before.vecmat_count == 1
        assert led.field_ops - before.field_ops == 3 * (m.mu + n)


def test_shifted_op_matches_materialised_shift():
    # over GF(11) every lambda is tried, 0 and each a_ii among them, on
    # rows with and without a diagonal entry, rows holding only their
    # diagonal entry, and empty rows and columns
    p = 11
    mats = [SparseMatrix(6, p, [(0, 0, 3), (0, 1, 2), (1, 2, 4), (2, 2, 3),
                                (3, 3, 5), (4, 0, 1), (4, 4, 5)]),
            SparseMatrix(5, p, [(1, 1, 7), (3, 3, 7)]),
            SparseMatrix(4, p, []),
            SparseMatrix(1, p, [(0, 0, 4)])]
    mats += [plus_identity(6, seed, p) for seed in range(2)]
    mats += [random_sparse(6, 2, seed, p) for seed in range(2)]
    rng = random.Random(3)
    sess = engine.Session(FieldSpec(p), engine.Header(0, p, 1, ()), "prove")
    for mat in mats:
        n = mat.n
        for lam in range(p):
            op = ShiftedOp(lam, mat)
            ref = materialised_shift(lam, mat)
            assert op.mu == mat.mu + 2 * n
            v, u = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
            d = [rng.randrange(1, p) for _ in range(n)]
            assert op.apply(v) == ref.apply(v)
            assert op.rapply(u) == ref.rapply(u)
            assert op.T.apply(u) == ref.rapply(u)
            assert op.T.rapply(v) == ref.apply(v)
            scaled, scaled_ref = DiagScaledOp(d, op), DiagScaledOp(d, ref)
            assert scaled.mu == mat.mu + 3 * n
            assert scaled.apply(v) == scaled_ref.apply(v)
            assert scaled.rapply(u) == scaled_ref.rapply(u)
            assert scaled.T.apply(u) == scaled_ref.rapply(u)
            before = sess.prover_ledger.field_ops
            with sess.charging():
                matvec(op, v)
                vecmat(u, scaled)
            assert sess.prover_ledger.field_ops - before == \
                2 * mat.mu + 5 * n


def test_shifted_op_shares_its_base():
    # the shift holds A's triplets and reads A's layouts, built once, at
    # its second application in each direction
    m = random_sparse(6, 2, 3, P)
    op = ShiftedOp(4, m)
    assert op.triplets is m.triplets
    for _ in range(2):
        op.apply([1] * 6)
        op.rapply([1] * 6)
    assert op._rows is m._rows is not None
    assert op._cols is m._cols is not None
    for base in (op, DiagScaledOp([2] * 6, m)):
        with pytest.raises(ValueError):
            ShiftedOp(4, base)


def test_layouts_are_built_on_second_use():
    # parsing, hashing and an operator applied once in a direction never
    # pay for that direction's layout; the second application builds it
    m = random_sparse(6, 2, 3, P)
    m.digest
    assert m._rows is None and m._cols is None
    m.rapply([1] * 6)
    assert m._rows is None and m._cols is None
    m.rapply([1] * 6)
    assert m._rows is None and m._cols is not None
    m.apply([1] * 6)
    assert m._rows is None
    m.apply([1] * 6)
    assert m._rows is not None


def dense_operator(m, lane, d):
    """Rows of diag(d) (diag(lane) - M), or of diag(d) M without a lane,
    d None for the identity."""
    n, p = m.n, m.p
    rows = mat_from_sparse(m)
    if lane is not None:
        rows = [[((lane[i] if i == j else 0) - x) % p
                 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if d is not None:
        rows = [[d[i] * x % p for x in row] for i, row in enumerate(rows)]
    return rows


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.booleans())
@example(EMPTY_COLUMNS_BEHIND, False)
@example(EMPTY_LINES_LAST, True)
@example(ONE_ENTRY_DIAGONALS, True)
@example(SINGLE_NONZERO, False)
@example((4, P, [], [1, 2, 3, 4], [4, 3, 2, 1], [9, 8, 7, 6]), True)
def test_direct_pass_matches_the_layout(case, unreduced):
    # the first application in a direction is a direct pass, the second
    # runs on the layout it builds; both are bit-identical to the dense
    # reference, with and without a lane, a scale and plus, on reduced and
    # unreduced inputs
    n, p, cells, v, u, d = case
    if unreduced:
        v = [x + p * (i + 1) * p for i, x in enumerate(v)]
        u = [x + p * (i + 2) for i, x in enumerate(u)]
    lam = (d[0] + 1) % p
    plus = (lam, [x * x + p for x in d])
    makers = {
        "plain": (lambda m: m, None, None),
        "shift": (lambda m: ShiftedOp(lam, m), [lam] * n, None),
        "scaled": (lambda m: DiagScaledOp(d, m), None, d),
        "scaled shift": (lambda m: DiagScaledOp(d, ShiftedOp(lam, m)),
                         [lam] * n, d),
    }
    for name, (make, lane, scale) in makers.items():
        rows = dense_operator(SparseMatrix(n, p, cells), lane, scale)
        cols = [list(c) for c in zip(*rows)]
        for k, w in (None, [0] * n), plus:
            want = [[(y + (k or 0) * x) % p for y, x in zip(
                [sum(map(mul, row, v)) for row in rows], w)],
                [(y + (k or 0) * x) % p for y, x in zip(
                    [sum(map(mul, col, u)) for col in cols], w)]]
            op = make(SparseMatrix(n, p, cells))
            pl = None if k is None else (k, w)
            first = [op.apply(v, pl), op.rapply(u, pl)]
            assert op._rows is None and op._cols is None, name
            assert first == want, name
            assert [op.apply(v, pl), op.rapply(u, pl)] == want, name
            assert op._rows is not None and op._cols is not None, name
            t = op.T
            assert [t.rapply(v, pl), t.apply(u, pl)] == want, name


def test_vecmat_plus_is_the_scaled_sum():
    # u^T A + k w in one reduction is what the scaled sum of u^T A and w
    # gives, charged the same: the application and 2n
    m = random_sparse(7, 3, 2, P)
    u, w, k = [3, 1, 4, 1, 5, 9, 2], [2, 7, 1, 8, 2, 8, 1], 66
    sess = engine.Session(FieldSpec(P), engine.Header(0, P, 7, ()), "prove")
    for op in (m, m.T, DiagScaledOp(w, m)):
        with sess.charging():
            want = reduce_vector(scaled_accumulate(vecmat(u, op), k, w), P)
        before = engine.CostLedger(**vars(sess.prover_ledger))
        with sess.charging():
            assert vecmat(u, op, plus=(k, w)) == want
        led = sess.prover_ledger
        assert led.vecmat_count - before.vecmat_count == 1
        assert led.field_ops - before.field_ops == op.mu + 2 * 7


def test_transpose_and_diag_ops():
    m = random_sparse(5, 2, 7, P)
    v = [3, 1, 4, 1, 5]
    t = m.T
    assert t.apply(v) == m.rapply(v)
    assert t.T is m
    assert t.mu == m.mu

    d = [2, 3, 5, 7, 11]
    left = DiagScaledOp(d, m)
    assert left.apply(v) == [di * x % P for di, x in zip(d, m.apply(v))]
    assert left.mu == m.mu + 5


def test_vector_helpers():
    assert dot([1, 2, 3], [4, 5, 6], P) == 32 % P
    # a combination of scalars is the same dot
    assert dot([2, 3], [10, 20], P) == 80 % P
    with pytest.raises(ValueError):
        dot([1, 2], [1], P)
    # exact until reduced: 50 * 100 + 100 stays 5100 until reduce_vector
    assert scaled_accumulate([1, 0, 100], 50, [3, 4, 100]) == [151, 200, 5100]
    assert reduce_vector([151, 200, 5100, -1], P) == [151 % P, 200 % P,
                                                      5100 % P, P - 1]


PRIMES = (2, 3, P, DEFAULT_PRIME)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 40), st.integers(1, 70),
       st.integers(0, 4), st.data())
def test_dots_match_separate_dots(p, k, n, count, data):
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    lanes = [data.draw(entries) for _ in range(k)]
    vectors = [data.draw(entries) for _ in range(count)]
    assert dots(lanes, vectors, p) == [[dot(lane, v, p) for lane in lanes]
                                       for v in vectors]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 64, 127, 128, 1024])
def test_dots_at_the_lane_bound(p, n):
    # every product (p - 1)^2 and n of them per lane: the largest sums a
    # lane must hold, with n at and just below a power of two
    top = [p - 1] * n
    lanes = [top, [1] * n, top, [i % p for i in range(n)], top]
    vectors = [top, [(7 * i) % p for i in range(n)], top]
    assert dots(lanes, vectors, p) == [[dot(lane, v, p) for lane in lanes]
                                       for v in vectors]


def test_dots_charge_and_lengths():
    n = 9
    lanes = [[1] * n, [2] * n, [3] * n]
    vectors = [list(range(n))] * 4
    sess = engine.Session(FieldSpec(P), engine.Header(0, P, n, ()), "prove")
    with sess.charging():
        dots(lanes, vectors, P)
    assert sess.prover_ledger.field_ops == 3 * 4 * (2 * n - 1)
    with sess.charging():
        dots(lanes, vectors, P, used=5)
    assert sess.prover_ledger.field_ops == (12 + 5) * (2 * n - 1)
    with pytest.raises(ValueError):
        dots(lanes, [[1] * (n - 1)], P)
    with pytest.raises(ValueError):
        dots([[1] * n, [1]], vectors, P)


def scaled_sum(coeffs, vectors, p):
    """sum_j coeffs[j] vectors[j] mod p by scaled sums, the loop combine
    replaces."""
    acc = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        acc = scaled_accumulate(acc, c, v)
    return reduce_vector(acc, p)


def as_payload_words(v):
    """v as a vector payload carries it past its length word."""
    return memoryview(engine.encode_vector(v))[8:]


@pytest.mark.parametrize("p", [3, P, DEFAULT_PRIME])
@pytest.mark.parametrize("k", [1, 2, 65])
@pytest.mark.parametrize("n", [1, 2, 64])
def test_combine_matches_scaled_sums(p, k, n):
    # random entries, then every coefficient and entry p - 1, the largest
    # sum a lane must hold; vectors go in as lists, array('Q') rows and
    # payload words, and one at a time from a generator
    rng = random.Random(p * 1000 + k * 10 + n)
    cases = [([rng.randrange(p) for _ in range(k)],
              [[rng.randrange(p) for _ in range(n)] for _ in range(k)]),
             ([p - 1] * k, [[p - 1] * n] * k)]
    for coeffs, vectors in cases:
        want = scaled_sum(coeffs, vectors, p)
        for form in (list, lambda v: array("Q", v), as_payload_words):
            got = combine(coeffs, (form(v) for v in vectors), p, n)
            assert got == want, form


def test_combine_charge_and_lengths():
    n, k = 9, 4
    vectors = [list(range(n))] * k
    sess = engine.Session(FieldSpec(P), engine.Header(0, P, n, ()), "prove")
    with sess.charging():
        combine([1, 2, 3, 4], vectors, P, n)
    # as the k scaled sums it replaces
    assert sess.prover_ledger.field_ops == 2 * n * k
    with pytest.raises(ValueError):
        combine([1, 2], [[1] * n, [1] * (n - 1)], P, n)
    with pytest.raises(ValueError):
        combine([1, 2, 3], vectors[:2], P, n)


def test_random_sparse_shape():
    m = random_sparse(10, 3, 123, P)
    per_row = {}
    for r, c, v in m.triplets:
        per_row.setdefault(r, []).append((c, v))
        assert 1 <= v < P
    assert set(per_row) == set(range(10))
    for cols in per_row.values():
        assert len(cols) == 3
        assert len({c for c, _ in cols}) == 3


def test_file_roundtrip(tmp_path, capsys):
    m = random_sparse(8, 3, 5, P)
    path = tmp_path / "m.kmx"
    write_matrix(m, str(path))
    assert path.read_bytes() == m.kmx1()
    back = read_matrix(str(path))
    assert back.triplets == m.triplets
    assert back.n == m.n and back.p == m.p
    assert back.digest == m.digest == hashlib.sha256(path.read_bytes()).digest()
    # the same file through the command line: gen writes what
    # write_matrix writes, and prove and verify read it
    gen = str(tmp_path / "g.kmx")
    kct = str(tmp_path / "g.kct")
    assert cli.main(["gen", "--n", "8", "--seed", "5", "--modulus", str(P),
                     "--out", gen]) == 0
    assert read_matrix(gen).digest == m.digest
    assert cli.main(["prove", "--matrix", gen, "--protocol", "seq-resolvent",
                     "--out", kct]) == 0
    assert cli.main(["verify", "--matrix", gen, kct]) == 0
    assert "outcome: accept" in capsys.readouterr().out


def test_digest_frozen():
    m = SparseMatrix(3, P, [(0, 0, 5), (1, 2, 7), (2, 1, 100)])
    assert m.digest.hex() == ("4764e46ae4e3644e22d407806f234c9a"
                              "a004a3aefee449043b7ca84ff3ad9793")


def matrix_market(mat):
    """Matrix Market text of mat, one entry line per triplet."""
    lines = ["%%MatrixMarket matrix coordinate integer general",
             "% modulus {}".format(mat.p),
             "{} {} {}".format(mat.n, mat.n, mat.nnz)]
    lines += ["{} {} {}".format(r + 1, c + 1, v) for r, c, v in mat.triplets]
    return "\n".join(lines) + "\n"


BIG_WORD_PRIME = (1 << 64) - 59


@st.composite
def matrix_cases(draw):
    """(n, p, cells) with small and large p and empty rows and columns."""
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from((2, 3, P, DEFAULT_PRIME, BIG_WORD_PRIME)))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(1, p - 1)), max_size=2 * n))
    return n, p, cells


@settings(max_examples=150, deadline=None)
@given(matrix_cases())
@example((1, 3, []))
@example((1, BIG_WORD_PRIME, [(0, 0, BIG_WORD_PRIME - 1)]))
@example((5, P, [(1, 3, 4)]))
@example((4, 2, [(3, 0, 1), (0, 3, 1)]))
def test_digest_over_both_formats(case):
    # the Matrix Market text and the KMX1 bytes of a matrix read back to the
    # same triplets and digest, and the digest is the bytes' sha256
    n, p, cells = case
    m = SparseMatrix(n, p, cells)
    blob = m.kmx1()
    assert blob[:4] == b"KMX1" and len(blob) == 4 + 8 * (3 + 3 * m.nnz)
    text, binary = parse_matrix(matrix_market(m)), parse_kmx1(blob)
    assert text.triplets == binary.triplets == m.triplets
    assert (text.n, text.p, text.mu) == (binary.n, binary.p, binary.mu) == (
        n, p, m.mu)
    assert text.digest == binary.digest == m.digest == \
        hashlib.sha256(blob).digest()


def kmx1_words(words):
    """KMX1 bytes holding words as they are, canonical or not."""
    return b"KMX1" + b"".join(w.to_bytes(8, "little") for w in words)


CANONICAL = [3, P, 3, 0, 0, 5, 1, 2, 7, 2, 1, 100]


@pytest.mark.parametrize("blob, fragment", [
    (kmx1_words(CANONICAL)[:-1], "whole 64-bit words"),
    (kmx1_words(CANONICAL)[:20], "whole 64-bit words"),
    (kmx1_words(CANONICAL) + bytes(8), "declares 3 entries"),
    (kmx1_words(CANONICAL)[:-8], "declares 3 entries"),
    (kmx1_words(CANONICAL[:2] + [(1 << 63) - 1] + CANONICAL[3:]),
     "declares 9223372036854775807 entries"),
    (kmx1_words([0, P, 0]), "dimension must be positive"),
    (kmx1_words(CANONICAL[:6] + [0, 0, 7] + CANONICAL[9:]),
     "entry 1: cell not after"),
    (kmx1_words(CANONICAL[:6] + [0, 0, 5] + CANONICAL[9:]),
     "entry 1: cell not after"),
    (kmx1_words(CANONICAL[:9] + [3, 1, 100]), "entry 2: index out of range"),
    (kmx1_words(CANONICAL[:9] + [2, 3, 100]), "entry 2: index out of range"),
    (kmx1_words(CANONICAL[:5] + [0] + CANONICAL[6:]), "entry 0: zero value"),
    (kmx1_words(CANONICAL[:8] + [P] + CANONICAL[9:]),
     "entry 1: value not reduced mod 101"),
])
def test_kmx1_refuses_a_file_that_is_not_canonical(blob, fragment):
    assert parse_kmx1(kmx1_words(CANONICAL)).triplets == (
        (0, 0, 5), (1, 2, 7), (2, 1, 100))
    with pytest.raises(ParseError) as err:
        parse_kmx1(blob)
    assert fragment in str(err.value)


def test_read_matrix_tells_the_formats_apart(tmp_path):
    m = SparseMatrix(3, P, [(0, 0, 5), (1, 2, 7), (2, 1, 100)])
    kmx, mtx = tmp_path / "m.kmx", tmp_path / "m.mtx"
    kmx.write_bytes(m.kmx1())
    mtx.write_text(matrix_market(m))
    assert read_matrix(str(kmx)).digest == read_matrix(str(mtx)).digest
    # a KMX1 file is refused, not merged, when its entries are out of order
    kmx.write_bytes(kmx1_words([3, P, 2, 1, 2, 7, 0, 0, 5]))
    with pytest.raises(ParseError):
        read_matrix(str(kmx))


GOOD = """%%MatrixMarket matrix coordinate integer general
% modulus 101
2 2 2
1 1 7
2 2 9
"""


def test_parse_good():
    m = parse_matrix(GOOD)
    assert m.triplets == ((0, 0, 7), (1, 1, 9))


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("%%MatrixMarket", "%%Matrix"), "line 1"),
    (lambda t: t.replace("% modulus 101\n", ""), "modulus"),
    (lambda t: t.replace("2 2 2", "2 3 2"), "square"),
    (lambda t: t.replace("2 2 2", "2 2"), "size line"),
    (lambda t: t.replace("1 1 7", "1 1"), "line 4"),
    (lambda t: t.replace("1 1 7", "3 1 7"), "out of range"),
    (lambda t: t.replace("1 1 7", "0 1 7"), "out of range"),
    (lambda t: t.replace("1 1 7", "1 1 101"), "not reduced"),
    (lambda t: t.replace("1 1 7", "1 1 0"), "zero entry"),
    (lambda t: t.replace("2 2 2", "2 2 3"), "count"),
    # two faulty lines: the earlier line's fault is named, whatever its kind
    (lambda t: t.replace("1 1 7", "3 1 7").replace("2 2 9", "2 2"),
     "line 4: index out of range"),
    (lambda t: t.replace("1 1 7", "1 1 x").replace("2 2 9", "2 2 0"),
     "line 4: entry needs integers"),
    (lambda t: t.replace("1 1 7", "1 1 0").replace("2 2 9", "2 2 9 9"),
     "line 4: explicit zero entry"),
    (lambda t: t.replace("1 1 7", "1 1 101").replace("2 2 9", "2 2 z"),
     "line 4: value not reduced mod 101"),
    (lambda t: t.replace("1 1 7", "1 1").replace("2 2 9", "0 2 9"),
     "line 4: entry needs row col value"),
])
def test_parse_errors(mutate, fragment):
    with pytest.raises(ParseError) as err:
        parse_matrix(mutate(GOOD))
    assert fragment in str(err.value)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_matches_constructor(data):
    # any entry order, repeated cells, blank lines, tabs, leading blanks and
    # CRLF parse to the matrix SparseMatrix builds from the same entries
    n = data.draw(st.integers(1, 6))
    p = data.draw(st.sampled_from((2, P, DEFAULT_PRIME)))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(1, p - 1))
    entries = data.draw(st.lists(cell, max_size=12))
    if data.draw(st.booleans()):
        # as write_matrix writes them: sorted, one entry per cell
        entries = sorted({(r, c): (r, c, v) for r, c, v in entries}.values())
    elif entries:
        entries += data.draw(st.lists(st.sampled_from(entries), max_size=4))
        entries = data.draw(st.permutations(entries))
    blank = st.sampled_from(("", " ", "\t", " \t "))
    gap = st.sampled_from((" ", "\t", "  ", " \t"))
    lines = ["%%MatrixMarket matrix coordinate integer general",
             "% modulus {}".format(p), "{} {} {}".format(n, n, len(entries))]
    for r, c, v in entries:
        lines += data.draw(st.lists(blank, max_size=1))
        lines.append("".join((data.draw(blank), str(r + 1), data.draw(gap),
                              str(c + 1), data.draw(gap), str(v),
                              data.draw(blank))))
    lines += data.draw(st.lists(blank, max_size=2))
    eol = data.draw(st.sampled_from(("\n", "\r\n")))
    m = parse_matrix(eol.join(lines) + eol)
    ref = SparseMatrix(n, p, entries)
    assert (m.n, m.p, m.triplets, m.nnz, m.mu) == (
        n, p, ref.triplets, ref.nnz, ref.mu)
    assert m.digest == ref.digest
