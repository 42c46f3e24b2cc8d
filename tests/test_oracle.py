import random

import pytest
from hypothesis import given, settings, strategies as st

from kcert.field import DEFAULT_PRIME, minpoly_of_sequence, poly_eval
from kcert.matrix import random_sparse
from kcert.oracle import dense_charpoly, mat_from_sparse
from support import (companion_matrix, dense_det, dense_kernel_vector,
                     dense_minpoly, identity, mat_mul, minpoly_of_sequence_eea,
                     poly_divmod, reference_dense_charpoly)

P = 101


def random_dense(n, rng):
    return [[rng.randrange(P) for _ in range(n)] for _ in range(n)]


def test_det_knowns():
    assert dense_det([[3]], P) == 3
    assert dense_det([[1, 2], [3, 4]], P) == (4 - 6) % P
    assert dense_det(identity(5), P) == 1
    assert dense_det([[1, 2], [2, 4]], P) == 0


def test_det_is_multiplicative():
    rng = random.Random(0)
    for _ in range(10):
        a = random_dense(4, rng)
        b = random_dense(4, rng)
        assert dense_det(mat_mul(a, b, P), P) == \
            dense_det(a, P) * dense_det(b, P) % P


def test_charpoly_of_companion_is_the_polynomial():
    f = [5, 0, 3, 1]  # x^3 + 3x^2 + 5
    c = mat_from_sparse(companion_matrix(f, P))
    assert dense_charpoly(c, P) == f
    assert dense_minpoly(c, P) == f


def test_charpoly_matches_det_of_shift():
    # g(lam) = det(lam I - A) at n + 1 points pins g down over the big
    # field; for p <= n that is impossible, so there the big-field result,
    # lifted to the integers and reduced, must equal the GF(p) result
    big = (1 << 61) - 1
    rng = random.Random(5)
    for p, n in ((P, 9), (7, 7), (5, 8), (3, 5), (2, 6), (2, 1)):
        for _ in range(4):
            a = [[rng.randrange(p) if rng.random() < 0.4 else 0
                  for _ in range(n)] for _ in range(n)]
            g_big = dense_charpoly(a, big)
            for lam in rng.sample(range(big), n + 1):
                shift = [[(lam * (i == j) - a[i][j]) % big for j in range(n)]
                         for i in range(n)]
                assert poly_eval(g_big, lam, big) == dense_det(shift, big)
            g = dense_charpoly(a, p)
            assert g == [(c - big if c > big // 2 else c) % p for c in g_big]
            lam = rng.randrange(p)
            shift = [[(lam * (i == j) - a[i][j]) % p for j in range(n)]
                     for i in range(n)]
            assert poly_eval(g, lam, p) == dense_det(shift, p)


SHAPES = ("random", "strictly-upper", "zero", "identity", "permutation")


def shaped_matrix(shape, n, density, seed, p):
    """An n x n matrix of one shape; random and strictly-upper ones keep
    each allowed entry with probability density."""
    rng = random.Random(seed)
    if shape == "permutation":
        # a swap, or a column with no pivot below the diagonal, at most steps
        perm = list(range(n))
        rng.shuffle(perm)
        return [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    if shape == "identity":
        return identity(n)
    if shape == "zero":
        return [[0] * n for _ in range(n)]
    upper = shape == "strictly-upper"
    return [[rng.randrange(p)
             if (j > i or not upper) and rng.random() < density else 0
             for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 7, 101, (1 << 61) - 1, (1 << 62) - 57)),
       n=st.integers(1, 40), shape=st.sampled_from(SHAPES),
       density=st.sampled_from((0.1, 0.4, 1)), seed=st.integers(0, 2 ** 32))
def test_packed_charpoly_matches_the_list_reference(p, n, shape, density,
                                                    seed):
    a = shaped_matrix(shape, n, density, seed, p)
    assert dense_charpoly(a, p) == reference_dense_charpoly(a, p)


def test_packed_charpoly_matches_the_list_reference_on_random_sparse():
    a = mat_from_sparse(random_sparse(129, 3, 5, DEFAULT_PRIME))
    assert (dense_charpoly(a, DEFAULT_PRIME)
            == reference_dense_charpoly(a, DEFAULT_PRIME))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
def test_lanes_hold_the_largest_entries(n):
    # every entry p - 1 is the largest start; a dense random matrix grows
    # its lanes most, since every step has a pivot and row operations pile
    # up in each column until it is cleared
    p = (1 << 62) - 57
    for a in ([[p - 1] * n for _ in range(n)],
              shaped_matrix("random", n, 1, n, p)):
        assert dense_charpoly(a, p) == reference_dense_charpoly(a, p)


def test_charpoly_constant_term_gives_det():
    rng = random.Random(1)
    for n in (2, 3, 5):
        a = random_dense(n, rng)
        g = dense_charpoly(a, P)
        assert len(g) == n + 1 and g[-1] == 1
        det = dense_det(a, P)
        assert g[0] == (det if n % 2 == 0 else -det % P)


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(2)
    for _ in range(8):
        n = rng.randrange(2, 7)
        a = random_dense(n, rng)
        f = dense_minpoly(a, P)
        g = dense_charpoly(a, P)
        assert poly_divmod(g, f, P)[1] == []
        # evaluate f at the matrix
        acc = [[0] * n for _ in range(n)]
        power = identity(n)
        for c in f:
            for i in range(n):
                for j in range(n):
                    acc[i][j] = (acc[i][j] + c * power[i][j]) % P
            power = mat_mul(power, a, P)
        assert all(x == 0 for row in acc for x in row)


def test_minpoly_of_projected_matrix_is_small():
    # diagonal matrix with one repeated value: minpoly degree = #distinct
    a = [[0] * 4 for _ in range(4)]
    for i, d in enumerate((3, 3, 7, 9)):
        a[i][i] = d
    f = dense_minpoly(a, P)
    assert len(f) - 1 == 3


def test_kernel_vector():
    a = [[1, 2], [2, 4]]
    w = dense_kernel_vector(a, P)
    assert w is not None and any(w)
    assert all(sum(r * x for r, x in zip(row, w)) % P == 0 for row in a)
    assert dense_kernel_vector([[1, 0], [0, 1]], P) is None
    # zero matrix: any unit vector works
    w = dense_kernel_vector([[0, 0], [0, 0]], P)
    assert w is not None and any(w)


def test_sequence_minpoly_eea_agrees_with_iterative():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 6)
        mat = random_sparse(n, min(2, n), rng.randrange(10 ** 6), P)
        u = [rng.randrange(P) for _ in range(n)]
        v = [rng.randrange(P) for _ in range(n)]
        s = []
        w = list(v)
        for _ in range(2 * n):
            s.append(sum(a * b for a, b in zip(u, w)) % P)
            w = mat.apply(w)
        assert minpoly_of_sequence_eea(s, P) == minpoly_of_sequence(s, P)[0]


def test_sequence_minpoly_matches_matrix_minpoly_generically():
    # over a big field the projected recurrence is the true minimal
    # polynomial with overwhelming probability
    big = (1 << 61) - 1
    rng = random.Random(4)
    for _ in range(5):
        n = rng.randrange(2, 7)
        mat = random_sparse(n, min(3, n), rng.randrange(10 ** 6), big)
        u = [rng.randrange(big) for _ in range(n)]
        v = [rng.randrange(big) for _ in range(n)]
        s = []
        w = list(v)
        for _ in range(2 * n):
            s.append(sum(a * b for a, b in zip(u, w)) % big)
            w = mat.apply(w)
        assert minpoly_of_sequence(s, big)[0] == \
            dense_minpoly(mat_from_sparse(mat), big)
