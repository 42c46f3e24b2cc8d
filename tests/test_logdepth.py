import pytest

from kcert import engine
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.logdepth import (COMBINATION, M_SEQ, M_TCOMB, M_Z, M_ZH, M_ZP,
                            M_ZT, POWER, SEQUENCE, minimal_depth,
                            run_sequence_cert)
from kcert.matrix import random_sparse
from kcert.sequence import (seq_log_verifier_reference,
                            seq_single_verifier_reference)
from support import (bump, combination_prover_applications, naive_sequence,
                     power_log_verifier_bound, power_prover_applications,
                     seeded_roundtrip, sequence_prover_applications,
                     sweep_matrices, tamper_first)

P = 101
BIG = DEFAULT_PRIME


def test_minimal_depth():
    assert minimal_depth(1) == 1
    assert minimal_depth(2) == 1
    assert minimal_depth(3) == 2
    assert minimal_depth(4) == 2
    assert minimal_depth(5) == 3
    assert minimal_depth(64) == 6


# the single-variant power levels that send z = A^d v
Z_LEVELS = {2: 0, 3: 1, 5: 2, 8: 0, 13: 3, 16: 0, 21: 4, 32: 0}


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 16, 21, 32])
def test_single_application_invariant(d):
    n = 16
    mat = random_sparse(n, 3, d, BIG)
    spec = FieldSpec(BIG)
    t = minimal_depth(d)
    (out_p, _), (out_v, _), ps, vs = seeded_roundtrip(
        spec, POWER.header(mat, d, "single"), lambda s: POWER.run(s, mat))
    assert out_p.accepted and out_v.accepted
    led = vs.verifier_ledger
    assert led.matvec_count + led.vecmat_count == 1
    assert ps.prover_ledger.matvec_count == 2 ** (t + 1) - 2
    # v, then per level zt, zp and w, and z at the levels where d is not
    # 2^t or 2^(t-1): never for a power of two, never at the t = 1 base
    sent = sum(tag == M_Z for tag, _ in ps.messages)
    assert sent == Z_LEVELS[d]
    assert vs.comm_field_elements == 3 * n * t + n + n * sent


@pytest.mark.parametrize("d", [1, 2, 3, 7, 13, 16, 40])
def test_log_power_costs(d):
    n = 16
    mat = random_sparse(n, 3, 100 + d, BIG)
    spec = FieldSpec(BIG)
    (out_p, _), (out_v, _), _, vs = seeded_roundtrip(
        spec, POWER.header(mat, d, "log"), lambda s: POWER.run(s, mat))
    assert out_p.accepted and out_v.accepted
    led = vs.verifier_ledger
    logd = max(1, (d - 1).bit_length()) if d > 1 else 1
    assert led.matvec_count + led.vecmat_count <= logd + 1
    assert led.field_ops <= power_log_verifier_bound(n, mat.mu, d)
    assert vs.comm_field_elements - 3 * n <= 3 * n * logd


def test_log_power_round_count():
    mat = random_sparse(8, 2, 5, P)
    spec = FieldSpec(P)
    _, (out_v, _), _, vs = seeded_roundtrip(
        spec, POWER.header(mat, 13, "log"), lambda s: POWER.run(s, mat))
    assert out_v.accepted
    # 13 -> 6 -> 3 -> 1: three levels send (z, zh); d = 1 sends nothing
    assert vs.rounds == 3


@pytest.mark.parametrize("variant", ["log", "single"])
@pytest.mark.parametrize("d", [1, 2, 3, 9, 16, 27])
def test_sequence_roundtrip_and_values(variant, d):
    n = 8
    mat = random_sparse(n, 2, 3 * d + 1, P)
    spec = FieldSpec(P)
    (out_p, _), (out_v, _), _, _ = seeded_roundtrip(
        spec, SEQUENCE.header(mat, d, variant),
        lambda s: SEQUENCE.run(s, mat))
    assert out_p.accepted and out_v.accepted


@pytest.mark.parametrize("variant", ["log", "single"])
@pytest.mark.parametrize("n", [3, 5])
def test_sequence_sweep_certifies_within_its_bound(n, variant):
    # every length up to 4n + 2, and two far past n, where reading s costs
    # the verifier more than its power certificates do
    spec = FieldSpec(P)

    def runner(mat, d):
        def body(sess):
            u = sess.challenge_vector(n)
            v = sess.challenge_vector(n)
            return u, v, run_sequence_cert(sess, mat, u, v, d, variant)
        return lambda sess: engine.run_with_outcome(sess, lambda: body(sess))

    for family, mat in sweep_matrices(n, 7 * n, P):
        for d in list(range(1, 4 * n + 3)) + [16 * n + 1, 64 * n]:
            rt = seeded_roundtrip(spec, SEQUENCE.header(mat, d, variant),
                                  runner(mat, d))
            out, (u, v, s) = rt.verified
            assert rt.proved[0].accepted and out.accepted, (family, d)
            assert s[:d + 1] == naive_sequence(mat, u, v, d), (family, d)
            _, got, _, limit = SEQUENCE.bound(rt.verifier, mat, d, variant)
            assert got <= limit, (family, d, got, limit)


def test_sequence_verifier_stays_within_twice_reference():
    n, d = 64, 128
    mat = random_sparse(n, 3, 17, BIG)
    spec = FieldSpec(BIG)
    for variant, ref in (
            ("log", seq_log_verifier_reference(n, mat.mu, d)),
            ("single", seq_single_verifier_reference(n, mat.mu, d))):
        _, (out_v, _), _, vs = seeded_roundtrip(
            spec, SEQUENCE.header(mat, d, variant),
            lambda s: SEQUENCE.run(s, mat))
        assert out_v.accepted
        assert vs.verifier_ledger.field_ops <= 2 * ref


@pytest.mark.parametrize("variant", ["log", "single"])
@pytest.mark.parametrize("d", [0, 1, 2, 5, 12])
def test_combination_roundtrip(variant, d):
    mat = random_sparse(6, 2, d + 50, P)
    spec = FieldSpec(P)
    (out_p, _), (out_v, _), _, _ = seeded_roundtrip(
        spec, COMBINATION.header(mat, d, variant),
        lambda s: COMBINATION.run(s, mat))
    assert out_p.accepted and out_v.accepted


def test_tampered_half_power_is_rejected():
    mat = random_sparse(8, 2, 4, P)
    spec = FieldSpec(P)
    rejected = 0
    for seed in range(40):
        out, _ = seeded_roundtrip(
            spec, POWER.header(mat, 16, "log"), lambda s: POWER.run(s, mat),
            seed, tamper_first(M_ZH, P)).verified
        if not out.accepted:
            rejected += 1
            assert out.check_id in ("power-half-link", "power-link"), out
    assert rejected >= 38


@pytest.mark.parametrize("tag", [M_ZT, M_ZP, M_Z], ids=["zt", "zp", "z"])
def test_tampered_single_power_frame_is_rejected(tag):
    # d = 5 sends z at every level but the base, so each of the three
    # frames can be forged; the hook forges the top level's
    mat = random_sparse(8, 2, 4, P)
    spec = FieldSpec(P)
    rejected = 0
    for seed in range(40):
        out, _ = seeded_roundtrip(
            spec, POWER.header(mat, 5, "single"),
            lambda s: POWER.run(s, mat), seed,
            tamper_first(tag, P)).verified
        if not out.accepted:
            rejected += 1
            assert out.check_id in ("power-step", "power-target",
                                    "power-square"), out
    assert rejected >= 38


def test_tampered_combination_row_is_rejected():
    mat = random_sparse(8, 2, 4, P)
    spec = FieldSpec(P)
    rejected = 0
    for seed in range(40):
        out, _ = seeded_roundtrip(
            spec, COMBINATION.header(mat, 8, "single"),
            lambda s: COMBINATION.run(s, mat), seed,
            tamper_first(M_TCOMB, P)).verified
        if not out.accepted:
            rejected += 1
            assert out.check_id in ("combination-delegated",
                                    "combination-direct"), out
    assert rejected >= 38


@pytest.mark.parametrize("variant", ["log", "single"])
@pytest.mark.parametrize("d", [12, 13, 16])
def test_forged_last_sequence_entry_rejects_at_high_combination(variant, d):
    # s[d] lies above the midpoint e = ceil(d / 2): only the combination over
    # s[e:] reads it.  The forged frame is hashed before any later challenge,
    # so this is a Fiat-Shamir forgery that replays cleanly
    mat = random_sparse(10, 3, d, BIG)
    out, _ = seeded_roundtrip(
        FieldSpec(BIG), SEQUENCE.header(mat, d, variant),
        lambda s: SEQUENCE.run(s, mat),
        tamper=tamper_first(M_SEQ, BIG, bump(-1))).verified
    assert (out.accepted, out.check_id, out.location) == (
        False, "seq-high-combination", ())


@pytest.mark.parametrize("variant", ["log", "single"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 32])
def test_power_prover_applications_closed_form(variant, d):
    mat = random_sparse(12, 3, d, BIG)
    sess = engine.Session(FieldSpec(BIG), POWER.header(mat, d, variant),
                          "prove")
    out, _ = POWER.run(sess, mat)
    assert out.accepted
    assert (sess.prover_ledger.applications
            == power_prover_applications(d, variant))


@pytest.mark.parametrize("variant", ["log", "single"])
@pytest.mark.parametrize("n", [32, 64])
def test_sequence_and_combination_prover_applications(variant, n):
    # the rows u^T A^i are built once per certificate and every level below
    # reuses them: a level costs its midpoint chain and its power
    # certificate, never a second row chain or a full-length sequence run
    mat = random_sparse(n, 3, n, BIG)
    for kind, d, closed_form in (
            (SEQUENCE, 2 * n, sequence_prover_applications),
            (SEQUENCE, n + 3, sequence_prover_applications),
            (COMBINATION, n - 1, combination_prover_applications)):
        sess = engine.Session(FieldSpec(BIG), kind.header(mat, d, variant),
                              "prove")
        out, _ = kind.run(sess, mat)
        assert out.accepted
        assert (sess.prover_ledger.applications
                == closed_form(d, variant)), (kind.name, d)
