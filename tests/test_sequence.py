import pytest
from hypothesis import given, settings, strategies as st

from kcert import engine
from kcert.checkpoint import (blocked_verifier_bound, choose_K,
                              klevel_statement)
from kcert.field import FieldSpec
from kcert.logdepth import SEQUENCE
from kcert.matrix import DiagScaledOp, TransposeOp, random_sparse
from kcert.sequence import (compute_sequence, krylov_rows, powers,
                            split_sequence)
from support import naive_sequence, seq_reference_cost

P = 101


def charged_session(n):
    header = engine.Header(SEQUENCE.tag, P, n,
                           (0,) + engine.digest_words(b"\x00" * 32))
    return engine.Session(FieldSpec(P), header, "prove")


def test_sequence_matches_naive():
    mat = random_sparse(6, 2, 3, P)
    u = [1, 2, 3, 4, 5, 6]
    v0 = [6, 5, 4, 3, 2, 1]
    s, snaps = compute_sequence(mat, u, v0, 9)
    assert s == naive_sequence(mat, u, v0, 9)
    # no snapshot_every: s stops at delta and the one snapshot is v0
    assert snaps == [v0]


def test_sequence_snapshots():
    mat = random_sparse(5, 2, 8, P)
    u = [1] * 5
    v0 = [2, 0, 1, 0, 3]
    s, snaps = compute_sequence(mat, u, v0, 8, snapshot_every=3)
    assert snaps[0] == v0
    # the chain runs on to A^9 v0, the first multiple of 3 past delta = 8
    assert len(snaps) == 1 + -(-8 // 3)
    w = list(v0)
    for j in range(1, len(snaps)):
        for _ in range(3):
            w = mat.apply(w)
        assert snaps[j] == w


def test_sequence_ledger_is_exact():
    n, delta = 7, 11
    mat = random_sparse(n, 3, 1, P)
    sess = charged_session(n)
    with sess.charging():
        compute_sequence(mat, [1] * n, [1] * n, delta)
    led = sess.prover_ledger
    assert led.matvec_count == delta
    assert led.field_ops == delta * mat.mu + (delta + 1) * (2 * n - 1)


def test_sequence_chain_extension():
    n, delta = 5, 7
    mat = random_sparse(n, 2, 4, P)
    sess = charged_session(n)
    with sess.charging():
        s, snaps = compute_sequence(mat, [1] * n, [1] * n, delta,
                                    snapshot_every=3)
    # s runs with the chain to its last snapshot, A^9 v0
    assert len(s) == 10
    assert len(snaps) == 4
    assert sess.prover_ledger.matvec_count == 9


@pytest.mark.parametrize("K,vecmats", [
    (3, 2),    # rows u^T A^j, j < K, for s: (K - 1) mu = 96 <= 41 * 31 / 4
    (7, 6),    # the last K under the gate: 6 * 48 = 288 <= 317.75
    (8, 0),    # 7 * 48 = 336 > 317.75: one dot per step
    (40, 0),   # K = delta
])
def test_sequence_rows_gate(K, vecmats):
    n, delta = 16, 40
    mat = random_sparse(n, 2, 6, P)
    assert mat.mu == 48
    u = [(3 * i + 1) % P for i in range(n)]
    v0 = [(5 * i + 2) % P for i in range(n)]
    sess = charged_session(n)
    with sess.charging():
        s, snaps = compute_sequence(mat, u, v0, delta, snapshot_every=K)
    m = -(-delta // K)
    assert s == naive_sequence(mat, u, v0, m * K)
    assert snaps == [powers(mat, v0, (j * K,))[0] for j in range(m + 1)]
    led = sess.prover_ledger
    assert (led.vecmat_count, led.matvec_count) == (vecmats, m * K)
    assert led.field_ops == ((vecmats + m * K) * mat.mu
                             + (m * K + 1) * (2 * n - 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sparse", "transpose", "diag"]),
       st.lists(st.integers(0, 7), min_size=1, max_size=5),
       st.integers(0, 1000))
def test_powers_match_repeated_apply(shape, stops, seed):
    # stops may hold 0, repeat, and come in any order
    n = 6
    base = random_sparse(n, 2, seed, P)
    diag = [1 + (seed + i) % (P - 1) for i in range(n)]
    op = {"sparse": base, "transpose": TransposeOp(base),
          "diag": DiagScaledOp(diag, base)}[shape]
    v = [(seed + 7 * i) % P for i in range(n)]
    sess = charged_session(n)
    with sess.charging():
        got = powers(op, v, stops)
    assert sess.prover_ledger.matvec_count == max(stops)
    assert sess.prover_ledger.field_ops == max(stops) * op.mu
    assert len(got) == len(stops)
    for i, w in zip(stops, got):
        ref = list(v)
        for _ in range(i):
            ref = op.apply(ref)
        assert w == ref


def shaped_operator(shape, n, seed):
    base = random_sparse(n, 2, seed, P)
    diag = [1 + (seed + i) % (P - 1) for i in range(n)]
    return {"sparse": base, "transpose": TransposeOp(base),
            "diag": DiagScaledOp(diag, base)}[shape]


@pytest.mark.parametrize("shape", ["sparse", "transpose", "diag"])
@pytest.mark.parametrize("d", [0, 1, 2, 7, 8, 13])
def test_split_sequence_matches_compute_sequence(shape, d):
    n = 7
    op = shaped_operator(shape, n, d)
    u = [(3 * i + 1) % P for i in range(n)]
    v = [(5 * i + 2) % P for i in range(n)]
    e = (d + 1) // 2
    sess = charged_session(n)
    with sess.charging():
        s, wh, rows = split_sequence(op, u, v, d)
    assert s == compute_sequence(op, u, v, d)[0]
    assert list(wh) == powers(op, v, (e,))[0]
    ref = [u]
    for _ in range(e):
        ref.append(op.rapply(ref[-1]))
    assert [list(row) for row in rows] == ref
    led = sess.prover_ledger
    assert (led.vecmat_count, led.matvec_count) == (e, e)
    assert led.field_ops == 2 * e * op.mu + (d + 1) * (2 * n - 1)


def test_split_sequence_reuses_rows():
    # a longer row list, as an audit sub-run receives it: only the matvecs
    # and the dots are charged
    n, d = 6, 9
    mat = random_sparse(n, 3, 2, P)
    u, v = [1] * n, list(range(n))
    rows = krylov_rows(mat, u, 12)
    sess = charged_session(n)
    with sess.charging():
        s, _, got = split_sequence(mat, u, v, d, rows)
    assert got is rows
    assert s == compute_sequence(mat, u, v, d)[0]
    led = sess.prover_ledger
    assert (led.vecmat_count, led.matvec_count) == (0, 5)
    assert led.field_ops == 5 * mat.mu + (d + 1) * (2 * n - 1)


def test_krylov_rows_are_packed_words():
    mat = random_sparse(5, 2, 4, P)
    sess = charged_session(5)
    with sess.charging():
        rows = krylov_rows(mat, [1, 2, 3, 4, 5], 3)
    assert len(rows) == 4 and all(row.typecode == "Q" for row in rows)
    assert list(rows[3]) == mat.T.apply(mat.T.apply(mat.T.apply(
        [1, 2, 3, 4, 5])))
    assert sess.prover_ledger.vecmat_count == 3


def test_reference_cost():
    assert seq_reference_cost(64, 320) == 2 * 64 * 320 + 4 * 64 * 64


def test_choose_K_balances_published_instance():
    assert choose_K(253008, 506046, 1265036, 0) == 503


def test_choose_K_clamps():
    assert choose_K(4, 2, 1000, 0) == 1
    assert choose_K(8, 4, 1, 0) <= 4
    assert choose_K(64, 128, 320, 0) == 8
    # depth 1 balances list rows and does not read n or mu
    assert choose_K(10 ** 6, 20000, 5, 1) == 110
    assert choose_K(64, 1, 320, 1) == 1


def test_klevel_statement_takes_the_top_of_its_schedule():
    # k levels run at the top stride of the k-level schedule, with as many
    # levels below it as its strides hold
    assert klevel_statement(1024, 2048, 4) == (2048, 180, 3)
    assert klevel_statement(64, 128, 3) == (128, 16, 2)


def test_bound_formulas_frozen():
    # n=64, delta=128, K=8, mu=320
    assert blocked_verifier_bound(64, 320, 128, 8, 0) == 6560
    assert blocked_verifier_bound(64, 320, 128, 9, 1) == 7872
    # depth 2 at K = 16 over stride 4, which runs on direct rows: the top
    # level's 8 blocks folded into one test, 1832, its end entry,
    # t-combination and sum Z + T, 352, plus two direct sub-runs of 2976
    # at delta 16 and 15, whose 4 blocks each cost less apart
    assert blocked_verifier_bound(64, 320, 128, 16, 2) == 1832 + 352 + 2 * 2976
