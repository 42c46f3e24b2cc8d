from fractions import Fraction

import pytest

from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import random_sparse
from kcert.recursive import KLEVEL, effective_strides
from support import level_schedule, level_strides, seeded_roundtrip

P = 101
BIG = DEFAULT_PRIME


def test_schedule_is_exact():
    for k in range(2, 9):
        exps = level_schedule(k)
        assert exps == [Fraction(j, k) for j in range(1, k)]
        # zero residual in the balance relation, endpoints included
        chain = [Fraction(0)] + exps + [Fraction(1)]
        for j in range(1, k):
            assert 2 * chain[j] - chain[j - 1] - chain[j + 1] == 0
    with pytest.raises(ValueError):
        level_schedule(1)


def test_strides_pinned():
    assert level_strides(2, 64) == [8]
    assert effective_strides(2, 64, 128) == [8]
    assert effective_strides(3, 256, 512) == [6, 42]
    assert effective_strides(4, 1024, 2048) == [6, 30, 180]
    assert effective_strides(2, 4096, 8192) == [64]
    assert effective_strides(3, 4096, 8192) == [16, 256]
    assert effective_strides(4, 4096, 8192) == [8, 64, 512]


def test_divisibility_of_effective_strides():
    for k in (2, 3, 4, 5):
        for n in (64, 100, 256, 700):
            eff = effective_strides(k, n, 2 * n)
            for a, b in zip(eff, eff[1:]):
                assert b % a == 0
            assert all(s <= min(n, 2 * n) for s in eff)


@pytest.mark.parametrize("k,n,expect_h", [
    (2, 64, 2),
    (3, 256, 4),
])
def test_row_computations_halve_per_level(k, n, expect_h):
    # at sizes where every stride divides cleanly, the verifier applies
    # the operator exactly 2^(k-1) times
    mat = random_sparse(n, 3, 11, BIG)
    spec = FieldSpec(BIG)
    delta = 2 * n
    (out_p, _), (out_v, _), _, vs = seeded_roundtrip(
        spec, KLEVEL.header(mat, delta, k), lambda s: KLEVEL.run(s, mat))
    assert out_p.accepted and out_v.accepted
    led = vs.verifier_ledger
    assert led.matvec_count + led.vecmat_count == expect_h


@pytest.mark.parametrize("k,n", [(2, 20), (3, 30), (4, 48), (2, 7), (5, 64)])
def test_small_roundtrips(k, n):
    mat = random_sparse(n, min(3, n), k * 100 + n, P)
    spec = FieldSpec(P)
    (out_p, _), (out_v, _), _, _ = seeded_roundtrip(
        spec, KLEVEL.header(mat, 2 * n, k), lambda s: KLEVEL.run(s, mat))
    assert out_p.accepted and out_v.accepted
