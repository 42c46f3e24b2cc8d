import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kcert.field import DEFAULT_PRIME
from kcert.matrix import (DiagScaledOp, ParseError, SparseMatrix, combine,
                          dot, matvec, parse_matrix, random_sparse,
                          read_matrix, reduce_vector, scaled_accumulate,
                          vecmat, write_matrix)
from kcert.oracle import mat_from_sparse

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


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example((1, P, [], [5], [6], [7]))
@example((1, P, [(0, 0, 3)], [5], [6], [7]))
@example((4, P, [], [1, 2, 3, 4], [4, 3, 2, 1], [1, 1, 1, 1]))
@example((5, DEFAULT_PRIME,
          [(2, c, DEFAULT_PRIME - 1 - c) for c in range(5)] + [(4, 0, 9)],
          [DEFAULT_PRIME - 1] * 5, [3, 0, DEFAULT_PRIME - 2, 1, 8],
          [2, 3, 5, 7, 11]))
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

    left = DiagScaledOp(d, m, "left")
    right = DiagScaledOp(d, m, "right")
    assert left.apply(v) == scale(av)
    assert left.rapply(u) == per_line(cols, scale(u), p)
    assert right.apply(v) == per_line(rows, scale(v), p)
    assert right.rapply(u) == scale(ua)
    assert left.T.apply(u) == left.rapply(u)
    assert right.T.rapply(v) == right.apply(v)


def test_transpose_and_diag_ops():
    m = random_sparse(5, 2, 7, P)
    v = [3, 1, 4, 1, 5]
    t = m.T
    assert t.apply(v) == m.rapply(v)
    assert t.T is m
    assert t.mu == m.mu

    d = [2, 3, 5, 7, 11]
    left = DiagScaledOp(d, m, "left")
    assert left.apply(v) == [di * x % P for di, x in zip(d, m.apply(v))]
    assert left.mu == m.mu + 5
    right = DiagScaledOp(d, m, "right")
    assert right.apply(v) == m.apply([di * x % P for di, x in zip(d, v)])
    # transposing swaps the side
    assert left.T.apply(v) == right.__class__(d, m.T, "right").apply(v)


def test_vector_helpers():
    assert dot([1, 2, 3], [4, 5, 6], P) == 32 % P
    with pytest.raises(ValueError):
        dot([1, 2], [1], P)
    # exact until reduced: 50 * 100 + 100 stays 5100 until reduce_vector
    assert scaled_accumulate([1, 0, 100], 50, [3, 4, 100]) == [151, 200, 5100]
    assert reduce_vector([151, 200, 5100, -1], P) == [151 % P, 200 % P,
                                                      5100 % P, P - 1]
    assert combine([2, 3], [10, 20], P) == 80 % P


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


def test_file_roundtrip(tmp_path):
    m = random_sparse(8, 3, 5, P)
    path = tmp_path / "m.mtx"
    write_matrix(m, str(path))
    back = read_matrix(str(path))
    assert back.triplets == m.triplets
    assert back.n == m.n and back.p == m.p
    assert back.digest == m.digest


def test_digest_frozen():
    m = SparseMatrix(3, P, [(0, 0, 5), (1, 2, 7), (2, 1, 100)])
    assert m.digest.hex() == ("4764e46ae4e3644e22d407806f234c9a"
                              "a004a3aefee449043b7ca84ff3ad9793")


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
])
def test_parse_errors(mutate, fragment):
    with pytest.raises(ParseError) as err:
        parse_matrix(mutate(GOOD))
    assert fragment in str(err.value)
