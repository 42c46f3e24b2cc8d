import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from kcert import engine
from kcert.field import (DEFAULT_PRIME, FieldSpec, f_inv, hankel_solve,
                         is_probable_prime, minpoly_of_sequence, poly_degree,
                         poly_eval, poly_mul, poly_trim, window_sums)
from kcert.logdepth import SEQUENCE
from support import (dense_solve, hankel, poly_add, poly_divmod,
                     sequence_annihilated_by)

P = 101
BIG = DEFAULT_PRIME
TOP = (1 << 62) - 57  # largest prime FieldSpec accepts

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
    # 0 is a size like any other, not "the whole field"
    with pytest.raises(ValueError):
        FieldSpec(P, 0)


@given(a=scalars)
def test_field_ops_match_int_arithmetic(a):
    if a:
        assert a * f_inv(a, P) % P == 1


@given(p=st.sampled_from((3, 7, P, BIG, TOP)), a=st.integers(1, 1 << 64))
def test_inverse_matches_fermat(p, a):
    if a % p:
        assert f_inv(a, p) == pow(a, p - 2, p)


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


@given(f=polys, x=scalars)
def test_eval_matches_naive(f, x):
    want = sum(c * pow(x, i, P) for i, c in enumerate(f)) % P
    assert poly_eval(f, x, P) == want


def test_minpoly_frozen_vectors():
    # constant sequence: x - 1
    assert minpoly_of_sequence([1, 1, 1, 1], P)[0] == [P - 1, 1]
    # Fibonacci mod 101: x^2 - x - 1
    assert minpoly_of_sequence([0, 1, 1, 2, 3, 5, 8, 13], P)[0] == \
        [100, 100, 1]
    # geometric: x - a
    assert minpoly_of_sequence([pow(7, i, P) for i in range(6)], P)[0] == \
        [P - 7, 1]
    # zero sequence: the unit polynomial
    assert minpoly_of_sequence([0, 0, 0, 0], P) == ([1], [])
    assert minpoly_of_sequence([1, 1, 1, 1], BIG)[0] == [BIG - 1, 1]


@given(init=st.lists(scalars, min_size=1, max_size=4),
       coeffs=st.lists(scalars, min_size=1, max_size=4))
@settings(max_examples=60)
def test_minpoly_annihilates_linear_recurrences(init, coeffs):
    order = min(len(init), len(coeffs))
    s = list(init[:order])
    for _ in range(10):
        s.append(sum(c * v for c, v in zip(coeffs[:order], s[-order:])) % P)
    f = minpoly_of_sequence(s, P)[0]
    assert f[-1] == 1
    assert poly_degree(f) <= order
    assert sequence_annihilated_by(f, s, P)


def test_annihilation_predicate():
    assert sequence_annihilated_by([P - 1, 1], [3, 3, 3], P)
    assert not sequence_annihilated_by([P - 1, 1], [3, 4, 5], P)
    assert sequence_annihilated_by([1], [0, 0, 0], P)
    assert not sequence_annihilated_by([1], [0, 1, 0], P)


# Berlekamp-Massey with a reduction per term, kept as the reference the
# deferred-reduction solver must match in output and in ledger charge.
def reference_minpoly_of_sequence(s: list, p: int) -> list:
    """Monic minimal generating polynomial of a linearly recurrent sequence.

    Berlekamp-Massey over GF(p).  For a sequence of length 2d whose true
    recurrence has order <= d the output is exact.  The all-zero sequence
    yields the polynomial 1 by convention.  Charges the arithmetic performed
    to the active ledger.
    """
    c = [1]  # connection polynomial, c[0] = 1
    b = [1]
    l, m, bb = 0, 1, 1
    ops = 0
    for i, si in enumerate(s):
        # discrepancy d = s[i] + sum_{j=1..l} c[j] s[i-j]
        d = si
        for j in range(1, l + 1):
            if j < len(c) and c[j]:
                d += c[j] * s[i - j]
        ops += 2 * l + 1
        d %= p
        if d == 0:
            m += 1
            continue
        coef = d * f_inv(bb, p) % p
        ops += 2
        if 2 * l <= i:
            prev = list(c)
            if len(c) < len(b) + m:
                c = c + [0] * (len(b) + m - len(c))
            for j, bj in enumerate(b):
                if bj:
                    c[j + m] = (c[j + m] - coef * bj) % p
            ops += 2 * len(b)
            l = i + 1 - l
            b = prev
            bb = d
            m = 1
        else:
            if len(c) < len(b) + m:
                c = c + [0] * (len(b) + m - len(c))
            for j, bj in enumerate(b):
                if bj:
                    c[j + m] = (c[j + m] - coef * bj) % p
            ops += 2 * len(b)
            m += 1
    engine.charge_field_ops(ops)
    # minimal polynomial is the degree-l reversal of the connection polynomial
    f = [0] * (l + 1)
    f[l] = 1
    for j in range(1, l + 1):
        f[l - j] = c[j] if j < len(c) else 0
    return f


def charged(solver, s, p):
    """Run solver(s, p) under a fresh ledger; return (output, field ops)."""
    header = engine.Header(SEQUENCE.tag, p, 1,
                           (0,) + engine.digest_words(b"\x00" * 32))
    sess = engine.Session(FieldSpec(p), header, "prove")
    with sess.charging():
        out = solver(s, p)
    return out, sess.prover_ledger.field_ops


@st.composite
def bm_sequences(draw):
    """(s, p): full-complexity, short-recurrence or all-zero, maybe zero-led."""
    p = draw(st.sampled_from((3, 7, P, BIG)))
    n = draw(st.integers(0, 70))
    elems = st.integers(0, p - 1)
    kind = draw(st.sampled_from(("random", "recurrence", "zero")))
    if kind == "random":
        s = draw(st.lists(elems, min_size=n, max_size=n))
    elif kind == "recurrence":
        order = draw(st.integers(0, n // 2))
        coeffs = draw(st.lists(elems, min_size=order, max_size=order))
        s = draw(st.lists(elems, min_size=order, max_size=order))
        while len(s) < n:
            s.append(sum(map(mul, coeffs, s[len(s) - order:])) % p)
    else:
        s = [0] * n
    lead = draw(st.one_of(st.just(0), st.integers(0, n)))
    return [0] * lead + s[:n - lead], p


def assert_matches_reference(s, p):
    """The solver's generator is the reference's, and so is its charge, but
    for the lb + 1 field ops of reading off the last column a, whose top
    nonzero entry sits at index lb.  Returns the generator."""
    (f, a), ops = charged(minpoly_of_sequence, s, p)
    want, want_ops = charged(reference_minpoly_of_sequence, s, p)
    assert f == want
    assert ops == want_ops + len(poly_trim(a))
    return f


@given(case=bm_sequences())
@settings(max_examples=300)
def test_minpoly_matches_reference_and_charge(case):
    s, p = case
    assert_matches_reference(s, p)


def test_minpoly_matches_reference_at_length_512():
    rng = random.Random(512)
    s = [rng.randrange(BIG) for _ in range(512)]
    f = assert_matches_reference(s, BIG)
    assert poly_degree(f) == 256


# -- the prover's Hankel solve and the verifier's window sums

@given(case=bm_sequences(), beta=st.integers(0, BIG - 1))
@settings(max_examples=200)
def test_hankel_solve_matches_dense_solve(case, beta):
    s, p = case
    f, a = minpoly_of_sequence(s, p)
    L = poly_degree(f)
    if 2 * L > len(s):  # s is too short to determine its generator
        return
    beta %= p
    h = hankel(s, L)
    assert len(a) == L
    if L:
        assert a == dense_solve(h, [0] * (L - 1) + [1], p)
    b = [pow(beta, i, p) for i in range(L)]
    assert hankel_solve(f, a, beta, p) == dense_solve(h, b, p)


def test_last_column_of_fibonacci():
    s = [0, 1, 1, 2, 3, 5, 8, 13]
    assert assert_matches_reference(s, P) == [100, 100, 1]
    # H = [[0, 1], [1, 1]], H a = (0, 1)
    assert minpoly_of_sequence(s, P)[1] == [1, 0]


def krylov(diag, u, v, terms, p):
    """u^T D^i v for a diagonal D."""
    return [sum(x * pow(d, i, p) * y for d, x, y in zip(diag, u, v)) % p
            for i in range(terms)]


# (name, s, n, expected generator): the zero sequence, degree one, a
# generator below the degree bound, and a zero constant term (singular DA)
HANKEL_EDGES = (
    ("zero", [0] * 8, 4, [1]),
    ("degree-one", [3 * pow(7, i, P) % P for i in range(6)], 3, [P - 7, 1]),
    ("deficient", krylov((1, 1, 2, 3), (1,) * 4, (1,) * 4, 8, P), 4,
     poly_mul(poly_mul([P - 1, 1], [P - 2, 1], P), [P - 3, 1], P)),
    ("singular", krylov((0, 1, 2), (1,) * 3, (1,) * 3, 6, P), 3,
     poly_mul(poly_mul([0, 1], [P - 1, 1], P), [P - 2, 1], P)),
)


@pytest.mark.parametrize("name, s, n, want", HANKEL_EDGES,
                         ids=[edge[0] for edge in HANKEL_EDGES])
def test_hankel_solve_edges_hold_for_every_rho(name, s, n, want):
    # the two identities the verifier tests are polynomial identities in
    # rho for honest messages: they hold at every point of GF(101)
    f, a = minpoly_of_sequence(s, P)
    assert f == want
    L = poly_degree(f)
    for beta in (0, 1, 5, P - 1):
        y = hankel_solve(f, a, beta, P)
        assert len(y) == L
        if L:
            b = [pow(beta, i, P) for i in range(L)]
            assert y == dense_solve(hankel(s, L), b, P)
        for rho in range(P):
            c = window_sums(s, rho, 2 * n - L, L + 1, P)
            assert sum(map(mul, f, c)) % P == 0
            if L:
                c = window_sums(s, rho, L, L, P)
                assert sum(map(mul, y, c)) % P == \
                    poly_eval([1] * L, rho * beta % P, P)


@given(s=st.lists(scalars, min_size=1, max_size=12), rho=scalars,
       data=st.data())
def test_window_sums_match_their_definition(s, rho, data):
    width = data.draw(st.integers(1, len(s)))
    count = data.draw(st.integers(1, len(s) - width + 1))
    want = [sum(pow(rho, j, P) * s[i + j] for j in range(width)) % P
            for i in range(count)]
    assert window_sums(s, rho, width, count, P) == want
