import pytest
from hypothesis import given, settings, strategies as st

from kcert.field import (DEFAULT_PRIME, FieldSpec, f_add, f_inv, f_mul, f_neg,
                         f_sub, is_probable_prime, minpoly_of_sequence,
                         poly_add, poly_degree, poly_divmod, poly_eval,
                         poly_gcd, poly_lcm, poly_mul, poly_trim,
                         sequence_annihilated_by)

P = 101
BIG = DEFAULT_PRIME

scalars = st.integers(min_value=0, max_value=P - 1)
polys = st.lists(scalars, min_size=0, max_size=8).map(poly_trim)


def test_primality_knowns():
    assert is_probable_prime(2)
    assert is_probable_prime(101)
    assert is_probable_prime(BIG)
    assert is_probable_prime((1 << 31) - 1)
    for c in (1, 0, 341, 561, 1 << 61, 2047 * 4681):
        assert not is_probable_prime(c)


def test_fieldspec_validation():
    spec = FieldSpec(P)
    assert spec.sample_set_size == P
    assert FieldSpec(P, 50).sample_set_size == 50
    with pytest.raises(ValueError):
        FieldSpec(100)
    with pytest.raises(ValueError):
        FieldSpec(1 << 62)
    with pytest.raises(ValueError):
        FieldSpec(P, P + 1)
    with pytest.raises(ValueError):
        FieldSpec(P, 0 - 1)


@given(a=scalars, b=scalars)
def test_field_ops_match_int_arithmetic(a, b):
    assert f_add(a, b, P) == (a + b) % P
    assert f_sub(a, b, P) == (a - b) % P
    assert f_mul(a, b, P) == (a * b) % P
    assert f_neg(a, P) == (-a) % P
    if a:
        assert a * f_inv(a, P) % P == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        f_inv(0, P)
    with pytest.raises(ZeroDivisionError):
        f_inv(BIG, BIG)


@given(f=polys, g=polys)
def test_divmod_reconstructs(f, g):
    if not g:
        return
    q, r = poly_divmod(f, g, P)
    assert r == [] or poly_degree(r) < poly_degree(g)
    assert poly_trim(poly_add(poly_mul(q, g, P), r, P)) == f


@given(f=polys, g=polys)
def test_gcd_divides_and_lcm_is_multiple(f, g):
    d = poly_gcd(f, g, P)
    if f and g:
        assert poly_divmod(f, d, P)[1] == []
        assert poly_divmod(g, d, P)[1] == []
        assert d[-1] == 1
        m = poly_lcm(f, g, P)
        assert poly_divmod(m, f, P)[1] == []
        assert poly_divmod(m, g, P)[1] == []
        assert poly_degree(m) + poly_degree(d) == poly_degree(f) + poly_degree(g)


@given(f=polys, x=scalars)
def test_eval_matches_naive(f, x):
    want = sum(c * pow(x, i, P) for i, c in enumerate(f)) % P
    assert poly_eval(f, x, P) == want


def test_minpoly_frozen_vectors():
    # constant sequence: x - 1
    assert minpoly_of_sequence([1, 1, 1, 1], P) == [P - 1, 1]
    # Fibonacci mod 101: x^2 - x - 1
    assert minpoly_of_sequence([0, 1, 1, 2, 3, 5, 8, 13], P) == [100, 100, 1]
    # geometric: x - a
    assert minpoly_of_sequence([pow(7, i, P) for i in range(6)], P) == [P - 7, 1]
    # zero sequence: the unit polynomial
    assert minpoly_of_sequence([0, 0, 0, 0], P) == [1]
    assert minpoly_of_sequence([1, 1, 1, 1], BIG) == [BIG - 1, 1]


@given(init=st.lists(scalars, min_size=1, max_size=4),
       coeffs=st.lists(scalars, min_size=1, max_size=4))
@settings(max_examples=60)
def test_minpoly_annihilates_linear_recurrences(init, coeffs):
    order = min(len(init), len(coeffs))
    s = list(init[:order])
    for _ in range(10):
        s.append(sum(c * v for c, v in zip(coeffs[:order], s[-order:])) % P)
    f = minpoly_of_sequence(s, P)
    assert f[-1] == 1
    assert poly_degree(f) <= order
    assert sequence_annihilated_by(f, s, P)


def test_annihilation_predicate():
    assert sequence_annihilated_by([P - 1, 1], [3, 3, 3], P)
    assert not sequence_annihilated_by([P - 1, 1], [3, 4, 5], P)
    assert sequence_annihilated_by([1], [0, 0, 0], P)
    assert not sequence_annihilated_by([1], [0, 1, 0], P)
