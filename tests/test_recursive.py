from fractions import Fraction

import pytest

from kcert.checkpoint import BLOCKED, effective_strides, lower_strides
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import random_sparse
from support import klevel, level_schedule, level_strides, seeded_roundtrip

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


def test_lower_strides_divide_and_halve_under_any_top():
    # under the schedule's own top stride they are the schedule itself
    for k in (3, 4, 5):
        for n in (64, 100, 256, 700):
            eff = effective_strides(k, n, 2 * n)
            if len(eff) == k - 1:
                assert lower_strides(n, 2 * n, eff[-1], k - 1) == eff[:-1]
    held = []
    for depth in (2, 3):
        for K in range(1, 200):
            chain = lower_strides(700, 1400, K, depth)
            if chain is not None:
                held.append(K)
                full = chain + [K]
                assert all(b % a == 0 and 2 * a <= b
                           for a, b in zip(full, full[1:]))
    assert len(held) > 150
    # depth 0 and 1 have no level below the top; at n = 64 the 4-level
    # schedule is 3, 9, 27, whose 9 shares only 1 with K = 16, so K = 16
    # holds depth 2 but not 3, let alone 63
    assert lower_strides(64, 128, 16, 0) == lower_strides(64, 128, 1, 1) == []
    assert lower_strides(64, 128, 16, 2) == [4]
    assert lower_strides(64, 128, 16, 3) is None
    assert lower_strides(64, 128, 54, 3) == [3, 9]
    assert lower_strides(64, 128, 16, 63) is None


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
        spec, BLOCKED.header(mat, *klevel(mat, delta, k)),
        lambda s: BLOCKED.run(s, mat))
    assert out_p.accepted and out_v.accepted
    led = vs.verifier_ledger
    assert led.matvec_count + led.vecmat_count == expect_h


@pytest.mark.parametrize("k,n", [(2, 20), (3, 30), (4, 48), (2, 7), (5, 64)])
def test_small_roundtrips(k, n):
    mat = random_sparse(n, min(3, n), k * 100 + n, P)
    spec = FieldSpec(P)
    (out_p, _), (out_v, _), _, _ = seeded_roundtrip(
        spec, BLOCKED.header(mat, *klevel(mat, 2 * n, k)),
        lambda s: BLOCKED.run(s, mat))
    assert out_p.accepted and out_v.accepted
