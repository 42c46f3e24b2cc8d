import pytest
from hypothesis import given, settings, strategies as st

from kcert import checkpoint, engine
from kcert.checkpoint import CHECKPOINT, DENSE, M_S, M_W, M_ZLIST
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import random_sparse
from kcert.recursive import KLEVEL
from kcert.sequence import (checkpoint_verifier_bound, choose_K,
                            choose_K_dense, dense_verifier_bound)
from support import bump, seeded_roundtrip, tamper_first, tamper_nth

P = 101
BIG = DEFAULT_PRIME


def test_reference_instance_costs_are_exact():
    # n=64, delta=2n, 3 entries per row: mu = 2*192 - 64 = 320, K lands on 8
    n, delta = 64, 128
    mat = random_sparse(n, 3, 2024, BIG)
    assert mat.mu == 320
    K = choose_K(n, delta, mat.mu)
    assert K == 8
    spec = FieldSpec(BIG)
    (out_p, _), (out_v, _), ps, vs = seeded_roundtrip(
        spec, CHECKPOINT.header(mat, delta, K),
        lambda s: CHECKPOINT.run(s, mat))
    assert out_p.accepted and out_v.accepted
    assert out_v.num_tests == 32
    led = vs.verifier_ledger
    assert led.field_ops == 12320
    assert led.field_ops <= checkpoint_verifier_bound(n, mat.mu, delta, K) == 12544
    assert led.matvec_count == 0 and led.vecmat_count == 2 * K - 1
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
    K = choose_K_dense(delta)
    assert K == 9
    spec = FieldSpec(BIG)
    _, (out_v, _), _, vs = seeded_roundtrip(
        spec, DENSE.header(mat, delta, K), lambda s: DENSE.run(s, mat))
    assert out_v.accepted
    led = vs.verifier_ledger
    assert led.field_ops == 12051
    assert led.field_ops <= dense_verifier_bound(n, mat.mu, delta, K) == 12430
    # the verifier only ever applies the transpose twice, once per
    # committed power list
    assert led.matvec_count == 0 and led.vecmat_count == 2


@pytest.mark.parametrize("delta,K", [
    (13, 5),   # ragged tail of length 4
    (10, 5),   # tail of length 1: deterministic final entry
    (7, 9),    # spacing beyond the sequence
    (6, 1),    # every step checkpointed
    (8, 8),    # one full block plus the tail entry
    (1, 1),
])
def test_ragged_shapes_roundtrip(delta, K):
    mat = random_sparse(6, 2, delta * 31 + K, P)
    spec = FieldSpec(P)
    for kind, rows in ((CHECKPOINT, checkpoint.direct_rows),
                       (DENSE, checkpoint.list_rows)):
        if K <= delta:
            rt = seeded_roundtrip(spec, kind.header(mat, delta, K),
                                  lambda s: kind.run(s, mat))
        else:
            # Kind.header refuses K > delta, as `kcert verify` does; the
            # blocked protocol itself still proves and checks such a
            # spacing, so its body runs under a raw header
            with pytest.raises(ValueError,
                               match="K = %d exceeds its limit delta" % K):
                kind.header(mat, delta, K)
            header = engine.Header(kind.tag, mat.p, mat.n, (delta, K)
                                   + engine.digest_words(mat.digest))
            rt = seeded_roundtrip(
                spec, header, lambda s: engine.run_with_outcome(
                    s, lambda: checkpoint._run_blocked(s, mat, delta, K, rows)))
        assert rt.proved[0].accepted and rt.verified[0].accepted


@pytest.mark.parametrize("mode", ["prove", "verify"])
def test_header_statement_binds_the_run(mode):
    # the run reads delta and K from its header, so a header with K > delta
    # is refused before any message, whichever side runs it
    mat = random_sparse(6, 2, 3, P)
    header = engine.Header(CHECKPOINT.tag, mat.p, mat.n,
                           (4, 8) + engine.digest_words(mat.digest))
    sess = engine.Session(FieldSpec(P), header, mode, recorded=[])
    with pytest.raises(engine.MalformedTranscript,
                       match="K = 8 exceeds its limit delta = 4"):
        CHECKPOINT.run(sess, mat)
    assert sess.messages == [] and sess.comm_field_elements == 0


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 12), delta=st.integers(1, 30), K=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6))
def test_generic_instances_stay_near_the_bound(n, delta, K, seed):
    K = min(K, delta)  # Kind.header refuses a larger K
    mat = random_sparse(n, min(2, n), seed, P)
    spec = FieldSpec(P)
    _, (out_v, _), _, vs = seeded_roundtrip(
        spec, CHECKPOINT.header(mat, delta, K),
        lambda s: CHECKPOINT.run(s, mat))
    assert out_v.accepted
    # generic instances may pay a few extra comparisons for the tail entry
    bound = checkpoint_verifier_bound(n, mat.mu, delta, K)
    assert vs.verifier_ledger.field_ops <= bound + 2 * n


@pytest.mark.parametrize("tag,caught_by", [
    (M_W, {"checkpoint-link", "block-combination", "tail-combination"}),
    (M_S, {"block-combination", "tail-combination", "tail-entry"}),
])
def test_live_tamper_is_rejected(tag, caught_by):
    mat = random_sparse(8, 2, 77, P)
    spec = FieldSpec(P)
    rejected = 0
    for seed in range(40):
        out, _ = seeded_roundtrip(spec, CHECKPOINT.header(mat, 16, 4),
                                  lambda s: CHECKPOINT.run(s, mat), seed,
                                  tamper_first(tag, P)).verified
        if not out.accepted:
            rejected += 1
            assert out.check_id in caught_by, out
    # a single corrupted coordinate survives a fresh challenge only with
    # probability about 1/p
    assert rejected >= 38


# (kind, header parameters, n, the top-level K); klevel at three levels
# and n = 125 runs its top level at K = 25 on delegated rows and the level
# below on prover-supplied lists
BLOCKED = [(CHECKPOINT, (30, 5), 12, 5), (DENSE, (30, 5), 12, 5),
           (KLEVEL, (250, 3), 125, 25)]
# (name, tag, which message with it, entry(K), check id, location); every
# delta here leaves a tail of one entry, s[delta], which only tail-entry
# reads
FORGERIES = [
    ("W_3", M_W, 2, lambda K: 1, "checkpoint-link", (3,)),
    ("s-block-2", M_S, 0, lambda K: 2 * K + 1, "block-combination", (2,)),
    ("z-list-2", M_ZLIST, 1, lambda K: 0, "z-list", (2,)),
    ("s-last", M_S, 0, lambda K: -1, "tail-entry", ()),
]


@pytest.mark.parametrize("kind,params,n,K,tag,nth,entry,check,location", [
    pytest.param(*blocked, *forgery[1:], id="%s-%s" % (blocked[0].name,
                                                      forgery[0]))
    for blocked in BLOCKED for forgery in FORGERIES
    # the checkpoint verifier computes Z itself
    if not (blocked[0] is CHECKPOINT and forgery[1] == M_ZLIST)])
def test_forgery_rejects_at_its_first_failing_check(kind, params, n, K, tag,
                                                    nth, entry, check,
                                                    location):
    # W_3 also breaks link 4 and block 3, and z-list entry 2 list check 3;
    # the verifier reads its dots in one packed pass per vector up front
    # but runs the checks in order, so the first failing one reports
    mat = random_sparse(n, 3, 11, BIG)
    out, _ = seeded_roundtrip(
        FieldSpec(BIG), kind.header(mat, *params), lambda s: kind.run(s, mat),
        tamper=tamper_nth(tag, nth, BIG, bump(entry(K)))).verified
    assert (out.accepted, out.check_id, out.location) == (False, check,
                                                          location)
