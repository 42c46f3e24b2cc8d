import pytest
from hypothesis import assume, given, settings, strategies as st

from kcert import checkpoint, engine
from kcert.checkpoint import (BLOCKED, M_S, M_TLIST, M_W, M_ZLIST, MAX_LEVELS,
                              blocked_verifier_bound, choose_K,
                              effective_strides, lower_strides, row_depth)
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import random_sparse
from support import (apart_verifier_bound, bump, klevel, naive_sequence,
                     seeded_roundtrip, sweep_matrices, tamper_first,
                     tamper_nth)

P = 101
BIG = DEFAULT_PRIME


def test_reference_instance_costs_are_exact():
    # n=64, delta=2n, 3 entries per row: mu = 2*192 - 64 = 320, K lands on 8
    n, delta = 64, 128
    mat = random_sparse(n, 3, 2024, BIG)
    assert mat.mu == 320
    K = choose_K(n, delta, mat.mu, 0)
    assert K == 8
    spec = FieldSpec(BIG)
    (out_p, _), (out_v, _), ps, vs = seeded_roundtrip(
        spec, BLOCKED.header(mat, delta, K, 0), lambda s: BLOCKED.run(s, mat))
    assert out_p.accepted and out_v.accepted
    # the 16 block tests folded into one of weight 16, and Y by Horner in
    # K vecmats: K(mu+2n) = 3584, the folded test 16(2K+2n+1) + 2K+8n =
    # 2848 and the end entry 2n = 128, which the bound also counts
    assert out_v.num_tests == delta // K == 16
    led = vs.verifier_ledger
    assert led.field_ops == 6560
    assert led.field_ops == blocked_verifier_bound(n, mat.mu, delta, K, 0)
    assert led.matvec_count == 0 and led.vecmat_count == K
    assert ps.prover_ledger.matvec_count == delta
    # the prover reads s off the rows u^T A^j, j < K: K - 1 vecmats of mu
    # on top of delta matvecs and delta + 1 dots, 57343 + 7 * 320
    assert ps.prover_ledger.vecmat_count == K - 1
    assert ps.prover_ledger.field_ops == 59583
    assert vs.comm_field_elements == 1353
    assert vs.rounds == 1


def test_dense_variant_reference_costs():
    n, delta = 64, 128
    mat = random_sparse(n, 3, 2024, BIG)
    K = choose_K(n, delta, mat.mu, 1)
    assert K == 9
    spec = FieldSpec(BIG)
    _, (out_v, _), _, vs = seeded_roundtrip(
        spec, BLOCKED.header(mat, delta, K, 1), lambda s: BLOCKED.run(s, mat))
    assert out_v.accepted
    led = vs.verifier_ledger
    # 129 entries in 15 blocks of 9, the last padded by 6, so no end
    # entry: 2mu + 2Kn = 1792, the folded list tests 9(2n+1) + 8n = 1673
    # and 8(2n+1) + 8n = 1544, and the folded block test 15(2K+2n+1) +
    # 2K+8n = 2735; the bound adds 2n for the end entry
    assert led.field_ops == 7744
    assert led.field_ops <= blocked_verifier_bound(n, mat.mu, delta, K,
                                                   1) == 7872
    # the verifier only ever applies the transpose twice, once per
    # committed power list
    assert led.matvec_count == 0 and led.vecmat_count == 2


# (K, m) -> (verifier field ops, tests) of random_sparse(12, 3, 11, BIG),
# mu = 60, at delta = mK: at each K here the m block tests fold from m = 5
# on, and at depth 1 a list of k links folds from k = 5 on, so at K = 5 the
# z-list (5 links) folds and the t-list (4) does not
EXACT_LEDGERS = {
    0: {(2, 2): (294, 2), (2, 6): (466, 6), (5, 4): (672, 4),
        (5, 6): (760, 6), (8, 3): (885, 3), (8, 7): (1095, 7)},
    1: {(2, 2): (435, 5), (2, 6): (607, 9), (5, 4): (901, 13),
        (5, 6): (989, 15), (8, 3): (1092, 18), (8, 7): (1302, 22)},
}


@pytest.mark.parametrize("depth, K, m", [
    (depth, K, m) for depth in EXACT_LEDGERS for K, m in EXACT_LEDGERS[depth]])
def test_ledgers_on_both_sides_of_the_fold_are_exact(depth, K, m):
    mat = random_sparse(12, 3, 11, BIG)
    assert mat.mu == 60
    _, (out, _), _, vs = seeded_roundtrip(
        FieldSpec(BIG), BLOCKED.header(mat, m * K, K, depth),
        lambda s: BLOCKED.run(s, mat))
    assert out.accepted
    assert (vs.verifier_ledger.field_ops,
            out.num_tests) == EXACT_LEDGERS[depth][K, m]


def blocked_runner(mat, delta, K, depth):
    """The blocked body on mat as BLOCKED.run starts it; the run's value is
    (u, v0, certified s)."""
    def body(sess):
        u = sess.challenge_vector(mat.n)
        v0 = sess.challenge_vector(mat.n)
        s, _ = checkpoint.blocked_cert(sess, mat, u, v0, delta, K, depth)
        return u, v0, s
    return lambda sess: engine.run_with_outcome(sess, lambda: body(sess))


BOTH = ("checkpoint", "dense")
# (spellings, n, delta, K or klevel's k); at n = 36, klevel:3 runs its top
# level at K = min(12, delta) on delegated rows, klevel:2 at K = 6 on
# prover-supplied lists, and klevel:2 at delta = 1 at K = 1 on direct rows
RAGGED = [
    (BOTH, 6, 13, 5),     # last block padded past delta by one entry
    (BOTH, 6, 14, 5),     # whole blocks end at s[delta]
    (BOTH, 6, 12, 5),     # last block padded past delta by two entries
    (BOTH, 6, 10, 5),     # K divides delta: the end entry stands alone
    (BOTH, 6, 7, 9),      # spacing beyond the sequence
    (BOTH, 6, 6, 1),      # every step checkpointed
    (BOTH, 6, 8, 8),      # K = delta: one block plus the end entry
    (BOTH, 6, 1, 1),
    (("klevel",), 36, 23, 3),   # whole blocks end at s[delta]
    (("klevel",), 36, 24, 3),   # the end entry stands alone
    (("klevel",), 36, 30, 3),   # padded by five entries
    (("klevel",), 36, 12, 3),   # K = delta
    (("klevel",), 36, 20, 2),   # list rows, padded by three entries
    (("klevel",), 36, 1, 2),    # K = delta = 1
]


@pytest.mark.parametrize("spellings,n,delta,K", RAGGED, ids=[
    ("klevel-%d-%d" if spellings == ("klevel",) else "%d-%d") % (delta, K)
    for spellings, _, delta, K in RAGGED])
def test_ragged_shapes_roundtrip(spellings, n, delta, K):
    spec = FieldSpec(P)
    for spelling in spellings:
        for family, mat in sweep_matrices(n, delta * 31 + K, P):
            values = (klevel(mat, delta, K) if spelling == "klevel"
                      else (delta, K, BOTH.index(spelling)))
            if values[1] <= delta:
                header = BLOCKED.header(mat, *values)
            else:
                # Kind.header refuses K > delta, as `kcert verify` does; the
                # blocked protocol itself still proves and checks such a
                # spacing, so its body runs under a raw header
                with pytest.raises(ValueError, match="K = %d exceeds its "
                                   "limit delta" % K):
                    BLOCKED.header(mat, *values)
                header = engine.Header(BLOCKED.tag, mat.p, mat.n, values
                                       + engine.digest_words(mat.digest))
            rt = seeded_roundtrip(spec, header, blocked_runner(mat, *values))
            out, (u, v0, s) = rt.verified
            assert rt.proved[0].accepted and out.accepted, (spelling, family)
            assert s == naive_sequence(mat, u, v0, delta), (spelling, family)
            _, got, _, limit = BLOCKED.bound(rt.verifier, mat, *values)
            assert got <= limit, (spelling, family, got, limit)


@pytest.mark.parametrize("mode", ["prove", "verify"])
def test_header_statement_binds_the_run(mode):
    # the run reads delta and K from its header, so a header with K > delta
    # is refused before any message, whichever side runs it
    mat = random_sparse(6, 2, 3, P)
    header = engine.Header(BLOCKED.tag, mat.p, mat.n,
                           (4, 8, 0) + engine.digest_words(mat.digest))
    sess = engine.Session(FieldSpec(P), header, mode, recorded=[])
    with pytest.raises(engine.MalformedTranscript,
                       match="K = 8 exceeds its limit delta = 4"):
        BLOCKED.run(sess, mat)
    assert sess.messages == [] and sess.comm_field_elements == 0


@pytest.mark.parametrize("mode, error", [
    ("prove", ValueError), ("verify", engine.MalformedTranscript)])
def test_depth_the_strides_cannot_hold_is_refused_before_any_draw(mode,
                                                                  error):
    # at n = 64 the 4-level schedule's 9 shares only 1 with K = 16, so the
    # blocked rule refuses depth 3 with the statement: a prover's caller
    # gets a ValueError from Kind.header, and a replay of a header written
    # by hand is a malformed transcript
    mat = random_sparse(64, 3, 7, DEFAULT_PRIME)
    message = "depth = 3 is more levels than the strides below K = 16 hold"
    if mode == "prove":
        with pytest.raises(error, match=message):
            BLOCKED.header(mat, 128, 16, 3)
        return
    header = engine.Header(BLOCKED.tag, mat.p, mat.n,
                           (128, 16, 3) + engine.digest_words(mat.digest))
    # enough frames that the replay's length limits hold delta = 128
    recorded = [(M_W, engine.encode_vector([1] * mat.n))] * 3
    sess = engine.Session(FieldSpec(mat.p), header, mode, recorded=recorded)
    with pytest.raises(error, match=message):
        BLOCKED.run(sess, mat)
    assert sess.messages == [] and sess.comm_field_elements == 0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), delta=st.integers(1, 600),
       K=st.integers(1, 600), depth=st.integers(0, MAX_LEVELS - 1))
def test_header_accepts_exactly_what_the_strides_hold(n, delta, K, depth):
    K = min(K, delta)  # the limits refuse a larger K
    mat = random_sparse(n, 1, 0, P)
    if lower_strides(n, delta, K, depth) is None:
        with pytest.raises(ValueError, match="depth = %d is more levels "
                           "than the strides below K = %d hold" % (depth, K)):
            BLOCKED.header(mat, delta, K, depth)
    else:
        header = BLOCKED.header(mat, delta, K, depth)
        assert BLOCKED.values(header, mat) == (delta, K, depth)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 12), delta=st.integers(1, 30), K=st.integers(1, 10),
       depth=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_generic_instances_stay_near_the_bound(n, delta, K, depth, seed):
    K = min(K, delta)  # Kind.header refuses a larger K
    spec = FieldSpec(P)
    for family, mat in sweep_matrices(n, seed, P):
        if lower_strides(n, delta, K, depth) is None:
            # more levels than the strides below K hold: the statement
            # itself is refused
            with pytest.raises(ValueError,
                               match="depth = %d is more levels" % depth):
                BLOCKED.header(mat, delta, K, depth)
            continue
        _, (out_v, _), _, vs = seeded_roundtrip(
            spec, BLOCKED.header(mat, delta, K, depth),
            lambda s: BLOCKED.run(s, mat))
        assert out_v.accepted
        bound = blocked_verifier_bound(n, mat.mu, delta, K, depth)
        assert vs.verifier_ledger.field_ops <= bound, family


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 40), delta=st.integers(1, 80), K=st.integers(1, 20),
       depth=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_ledger_never_exceeds_the_tests_apart(n, delta, K, depth, seed):
    # folding a run's block tests, or a list's links, into one test is
    # chosen only where it costs less, so no statement costs the verifier
    # more than the closed form of the tests run apart
    K = min(K, delta)
    assume(lower_strides(n, delta, K, depth) is not None)
    mat = random_sparse(n, 3, seed, P)
    _, (out, _), _, vs = seeded_roundtrip(
        FieldSpec(P), BLOCKED.header(mat, delta, K, depth),
        lambda s: BLOCKED.run(s, mat), seed)
    assert out.accepted
    got = vs.verifier_ledger.field_ops
    bound = blocked_verifier_bound(n, mat.mu, delta, K, depth)
    assert got <= bound <= apart_verifier_bound(n, mat.mu, delta, K, depth)


def block_tests(delta, K, depth, lower):
    """Tests of an honest blocked run: one per block, plus the two list
    checks at depth 1, and deeper the t-combination test and the two
    sub-runs' tests."""
    m = -(-delta // K)
    if depth == 0:
        return m
    if depth == 1:
        return m + K + (K - 1)
    k = lower[-1]
    return m + 1 + sum(block_tests(sub, k, row_depth(k, depth - 1),
                                   lower[:-1]) for sub in (K, K - 1))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 30), depth=st.integers(0, 2),
       stride=st.integers(1, 8), blocks=st.integers(1, 5),
       pad=st.integers(0, 7), seed=st.integers(0, 10 ** 6))
def test_one_test_per_block_within_the_bound(n, depth, stride, blocks, pad,
                                             seed):
    # depth 0 and 1 at K = stride; depth 2 at K a multiple of at least
    # twice the schedule's first stride, which the strides then hold.
    # delta is a multiple of K when pad is 0 or K divides it, else padded
    if depth == 2:
        K = effective_strides(3, n, n)[0] * max(2, stride)
    else:
        K = stride
    delta = max(K, blocks * K - pad % K)
    lower = lower_strides(n, delta, K, depth)
    assert lower is not None
    mat = random_sparse(n, 3, seed, P)
    _, (out, _), _, vs = seeded_roundtrip(
        FieldSpec(P), BLOCKED.header(mat, delta, K, depth),
        lambda s: BLOCKED.run(s, mat), seed)
    assert out.accepted
    led = vs.verifier_ledger
    assert led.field_ops <= blocked_verifier_bound(n, mat.mu, delta, K,
                                                   depth)
    assert out.num_tests == block_tests(delta, K, depth, lower)
    assert led.matvec_count == 0
    if depth == 0:
        # Horner builds Y in exactly K steps
        assert led.vecmat_count == K
    elif depth == 2:
        assert led.vecmat_count <= K


@pytest.mark.parametrize("tag,caught_by", [
    (M_W, {"checkpoint-block"}),
    (M_S, {"checkpoint-block", "tail-entry"}),
])
def test_live_tamper_is_rejected(tag, caught_by):
    mat = random_sparse(8, 2, 77, P)
    spec = FieldSpec(P)
    rejected = 0
    for seed in range(40):
        out, _ = seeded_roundtrip(spec, BLOCKED.header(mat, 16, 4, 0),
                                  lambda s: BLOCKED.run(s, mat), seed,
                                  tamper_first(tag, P)).verified
        if not out.accepted:
            rejected += 1
            assert out.check_id in caught_by, out
    # a single corrupted coordinate survives a fresh challenge only with
    # probability about 1/p
    assert rejected >= 38


# (spelling, header parameters, n, the top-level K); klevel:3 at n = 125
# runs its top level at K = 25 on delegated rows and the level below on
# prover-supplied lists.  Every delta in BLOCKED is a multiple of K, so s
# ends in the entry s[delta], which only tail-entry reads; every delta in
# PADDED is 7K - 3, so the last of its 7 blocks runs two entries past
# s[delta]
BLOCKED_RUNS = [("checkpoint", (30, 5, 0), 12, 5),
                ("dense", (30, 5, 1), 12, 5),
                ("klevel", (250, 25, 2), 125, 25)]
PADDED = [("checkpoint", (32, 5, 0), 12, 5), ("dense", (32, 5, 1), 12, 5),
          ("klevel", (172, 25, 2), 125, 25)]
# (name, tag, which message with it, entry(K), check id, location, the
# instances it runs on)
FORGERIES = [
    ("W_3", M_W, 2, lambda K: 1, "checkpoint-block", (2,), BLOCKED_RUNS),
    ("s-block-2", M_S, 0, lambda K: 2 * K + 1, "checkpoint-block", (2,),
     BLOCKED_RUNS),
    ("z-list-2", M_ZLIST, 1, lambda K: 0, "z-list", (2,), BLOCKED_RUNS),
    ("s-last", M_S, 0, lambda K: -1, "tail-entry", (), BLOCKED_RUNS),
    ("s-padded", M_S, 0, lambda K: -1, "checkpoint-block", (6,), PADDED),
]


@pytest.mark.parametrize("params,n,K,tag,nth,entry,check,location", [
    pytest.param(*blocked[1:], *forgery[1:-1], id="%s-%s" % (blocked[0],
                                                            forgery[0]))
    for forgery in FORGERIES for blocked in forgery[-1]
    # the checkpoint verifier computes Z itself
    if not (blocked[0] == "checkpoint" and forgery[1] == M_ZLIST)])
def test_forgery_rejects_at_its_first_failing_check(params, n, K, tag, nth,
                                                    entry, check, location):
    # W_3 also breaks block 3, and z-list entry 2 list check 3;
    # the verifier reads its dots in one packed pass per vector up front
    # but runs the checks in order, so the first failing one reports
    mat = random_sparse(n, 3, 11, BIG)
    out, _ = seeded_roundtrip(
        FieldSpec(BIG), BLOCKED.header(mat, *params),
        lambda s: BLOCKED.run(s, mat),
        tamper=tamper_nth(tag, nth, BIG, bump(entry(K)))).verified
    assert (out.accepted, out.check_id, out.location) == (False, check,
                                                          location)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 24), depth=st.integers(0, 2),
       stride=st.integers(1, 8), blocks=st.integers(1, 10),
       pad=st.integers(0, 7), target=st.sampled_from(["W", "s", "z", "t"]),
       at=st.integers(0, 10 ** 6), seed=st.integers(0, 10 ** 6))
def test_one_tampered_message_is_named_as_by_the_tests_apart(
        n, depth, stride, blocks, pad, target, at, seed):
    # an honest run accepts, and one entry raised in a top-level W_j, in s
    # or in a depth-1 list vector is named by the first check the tests
    # run apart would fail: a folded test that fails runs them apart.
    # Over GF(2^61 - 1) every such check fails but with negligible
    # probability.  Statements as in test_one_test_per_block_within_the_
    # bound, with up to 10 blocks, where folding sets in
    if depth == 2:
        K = effective_strides(3, n, n)[0] * max(2, stride)
    else:
        K = stride
    delta = max(K, blocks * K - pad % K)
    m = -(-delta // K)
    sent = m * K + (m * K == delta)
    if target == "W":
        j = 1 + at % m
        hook = tamper_nth(M_W, j - 1, BIG)
        want = ("checkpoint-block", (j - 1,))
    elif target == "s":
        i = at % sent
        hook = tamper_first(M_S, BIG, bump(i))
        want = (("checkpoint-block", (i // K,)) if i < m * K
                else ("tail-entry", ()))
    else:
        # z_1 .. z_K and t_1 .. t_{K-1}, sent at depth 1
        links = K if target == "z" else K - 1
        assume(depth == 1 and links)
        i = 1 + at % links
        hook = tamper_nth(M_ZLIST if target == "z" else M_TLIST, i - 1, BIG)
        want = (target + "-list", (i,))
    mat = random_sparse(n, 3, seed, BIG)
    header = BLOCKED.header(mat, delta, K, depth)

    def runner(sess):
        return BLOCKED.run(sess, mat)[0]

    assert seeded_roundtrip(FieldSpec(BIG), header, runner,
                            seed).verified.accepted
    out = seeded_roundtrip(FieldSpec(BIG), header, runner, seed,
                           hook).verified
    assert (out.accepted, out.check_id, out.location) == (False, *want)
