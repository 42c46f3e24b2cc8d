import ast
import pathlib
import random
from fractions import Fraction

import pytest

from kcert import (applications as apps, cli, engine, logdepth, matrix,
                   resolvent)
from kcert.field import DEFAULT_PRIME, FieldSpec, poly_mul
from kcert.matrix import (DiagScaledOp, SparseMatrix, random_sparse,
                         write_matrix)
from kcert.oracle import dense_charpoly, mat_from_sparse
from support import (GENERATOR_FORGERIES, dense_det, dense_minpoly,
                     plus_identity, poly_divmod, seeded_roundtrip,
                     tamper_first)

P = 101
BIG = DEFAULT_PRIME


def singular_matrix(n, seed, p=BIG):
    base = random_sparse(n, 3, seed, p)
    trips = [(r, c, v) for (r, c, v) in base.triplets if r != 1]
    trips += [(1, c, v) for (r, c, v) in base.triplets if r == 0]
    return SparseMatrix(n, p, trips)


def test_minpoly_matches_oracle():
    rng = random.Random(29)
    for _ in range(3):
        n = rng.randrange(2, 12)
        mat = random_sparse(n, min(3, n), rng.randrange(10 ** 6), BIG)
        spec = FieldSpec(BIG)
        (out_p, f_p), (out_v, f_v), _, _ = seeded_roundtrip(
            spec, apps.MINPOLY.header(mat, 1),
            lambda s: apps.MINPOLY.run(s, mat))
        assert out_p.accepted and out_v.accepted
        assert f_p == f_v == dense_minpoly(mat_from_sparse(mat), BIG)


def test_minpoly_multiple_projections():
    mat = random_sparse(9, 3, 5, BIG)
    spec = FieldSpec(BIG)
    _, (out_v, f_v), _, _ = seeded_roundtrip(
        spec, apps.MINPOLY.header(mat, 3),
        lambda s: apps.MINPOLY.run(s, mat))
    assert out_v.accepted
    assert f_v == dense_minpoly(mat_from_sparse(mat), BIG)


def test_minpoly_generator_mismatch_rejects():
    # a generator frame rewritten after the fact: the verifier's challenges
    # hash the new bytes, and the coefficient change breaks the recurrence
    mat = random_sparse(6, 3, 8, BIG)
    spec = FieldSpec(BIG)

    def corrupt(msgs):
        out = list(msgs)
        idx = next(i for i, (t, _) in enumerate(out) if t == apps.M_GENERATOR)
        vals = engine.decode_vector(out[idx][1], BIG)
        vals[0] = (vals[0] + 1) % BIG
        out[idx] = (apps.M_GENERATOR, engine.encode_vector(vals))
        return out

    _, (out_v, f_v), _, _ = seeded_roundtrip(
        spec, apps.MINPOLY.header(mat, 1),
        lambda s: apps.MINPOLY.run(s, mat), mutate=corrupt)
    assert not out_v.accepted and out_v.check_id == "generator-recurrence"
    assert f_v is None


def roots(*rs):
    """(x - r_1) ... (x - r_k) over BIG."""
    f = [1]
    for r in rs:
        f = poly_mul(f, [-r % BIG, 1], BIG)
    return f


def test_minpoly_projections_filter_to_the_lcm(monkeypatch):
    # diag(1, 1, 2, 2, 3, 3, 5, 7): the first projection sees coordinates
    # 0..3, eigenvalues 1 and 2; the second sees 2..7, eigenvalues 2, 3,
    # 5, 7.  Filtered by (x-1)(x-2), the second sequence has the generator
    # (x-3)(x-5)(x-7), and the product is the lcm
    diag = (1, 1, 2, 2, 3, 3, 5, 7)
    n = len(diag)
    mat = SparseMatrix(n, BIG, [(i, i, d) for i, d in enumerate(diag)])
    masks = ([1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1, 1, 1])
    real = apps.sequence_cert
    calls = {}

    def lookup(*args):
        certify, krylov, budget = real(*args)

        def masked(sess, op, u, v0, *rest):
            # the k-th projection of either session uses masks[k]
            k = calls[id(sess)] = calls.get(id(sess), -1) + 1
            u, v0 = ([x * m for x, m in zip(w, masks[k])] for w in (u, v0))
            return certify(sess, op, u, v0, *rest)
        return masked, krylov, budget

    monkeypatch.setattr(apps, "sequence_cert", lookup)
    rt = seeded_roundtrip(FieldSpec(BIG), apps.MINPOLY.header(
        mat, 2), lambda s: apps.MINPOLY.run(s, mat))
    out_v, f_v = rt.verified
    assert out_v.accepted
    gens = [engine.decode_vector(pl, BIG) for t, pl in rt.prover.messages
            if t == apps.M_GENERATOR]
    assert gens == [roots(1, 2), roots(3, 5, 7)]
    want = dense_minpoly(mat_from_sparse(mat), BIG)
    # lcm((x-1)(x-2), (x-2)(x-3)(x-5)(x-7))
    assert f_v == rt.proved[1] == want == roots(1, 2, 3, 5, 7)


def test_minpoly_warns_on_small_sample_set():
    mat = random_sparse(8, 2, 1, P)
    spec = FieldSpec(P)  # 101 < 100 * 64
    sess = engine.Session(spec, apps.MINPOLY.header(mat, 1), "prove")
    with pytest.warns(UserWarning, match="sample set"):
        apps.MINPOLY.run(sess, mat)


def test_det_matches_oracle():
    rng = random.Random(42)
    spec = FieldSpec(BIG)
    for _ in range(6):
        n = rng.randrange(2, 14)
        mat = random_sparse(n, min(3, n), rng.randrange(10 ** 6), BIG)
        (out_p, d_p), (out_v, d_v), _, _ = seeded_roundtrip(
            spec, apps.DET.header(mat, "single"),
            lambda s: apps.DET.run(s, mat))
        assert out_p.accepted and out_v.accepted
        assert d_p == d_v == dense_det(mat_from_sparse(mat), BIG)


def test_det_singular_uses_witness():
    mat = singular_matrix(7, 33)
    spec = FieldSpec(BIG)
    (out_p, d_p), (out_v, d_v), _, _ = seeded_roundtrip(
        spec, apps.DET.header(mat, "single"),
        lambda s: apps.DET.run(s, mat))
    assert out_v.accepted and d_p == d_v == 0
    # the witness path is deterministic: no probabilistic tests happen
    assert out_v.num_tests == 0
    assert out_v.soundness_error_bound == (0, 1)


def claim_families(p):
    """(name, matrix) pairs: nonsingular, rank-deficient and special shapes."""
    yield "zero", SparseMatrix(4, p, [])
    yield "identity", SparseMatrix(5, p, [(i, i, 1) for i in range(5)])
    yield "shift", SparseMatrix(6, p, [(i + 1, i, 1) for i in range(5)])
    yield "one", SparseMatrix(1, p, [(0, 0, 7)])
    yield "one-zero", SparseMatrix(1, p, [])
    for seed in range(3):
        yield "plus-identity", plus_identity(9, seed, p)
        yield "singular", singular_matrix(8, seed, p)


VARIANTS = ("single", "log", "resolvent")


@pytest.mark.parametrize("p", [BIG, P], ids=["p61", "p101"])
def test_det_roundtrip_matches_dense_det(p):
    found = 0
    for variant in VARIANTS:
        for name, mat in claim_families(p):
            seen = {}

            def keep(msgs):
                seen["msgs"] = msgs
                return msgs

            (out_p, d_p), (out_v, d_v), _, _ = seeded_roundtrip(
                FieldSpec(p), apps.DET.header(mat, variant),
                lambda s: apps.DET.run(s, mat), mutate=keep)
            assert out_p.accepted and out_v.accepted, (variant, name)
            assert d_p == d_v == dense_det(mat_from_sparse(mat), p), name
            for w in [engine.decode_vector(payload, p)
                      for t, payload in seen["msgs"] if t == apps.M_WITNESS]:
                assert d_v == 0 and any(w) and not any(mat.apply(w)), name
                found += 1
    assert found  # the singular families take the witness path


@pytest.mark.parametrize("variant, applications", [
    ("single", 175), ("log", 132), ("resolvent", 46)])
def test_det_prover_runs_krylov_once(variant, applications):
    # the certified run is the prover's only Krylov run: a second, private
    # run of 2n - 1 applications would add 39 here (n = 20).  Under
    # resolvent (K = 3) the run is a chain of L = 42 matvecs and K - 1 = 2
    # vecmats for the rows u^T (DA)^j, and y takes K - 1 = 2 matvecs more.
    # Under single and log the run is split_sequence: the rows u^T (DA)^i,
    # i <= 20, take 20 vecmats and the midpoint chain 20 matvecs; the levels
    # below reuse the rows and add their chains at e = 10, 5, 3, 2 and the
    # base, 21 matvecs; the power certificates at e = 20, 10, 5, 3, 2 add
    # 114 (single) or 71 (log).  Rebuilding every level's 2e matvecs and e
    # vecmats cost 61 more: 236 and 193.
    mat = plus_identity(20, 17)
    sess = engine.Session(FieldSpec(BIG), apps.DET.header(mat, variant),
                          "prove")
    out, d = apps.DET.run(sess, mat)
    assert out.accepted and d == dense_det(mat_from_sparse(mat), BIG)
    assert sess.prover_ledger.applications == applications


def test_det_zero_and_identity():
    spec = FieldSpec(BIG)
    zero = SparseMatrix(4, BIG, [])
    (_, d_p), (out_v, d_v), _, _ = seeded_roundtrip(
        spec, apps.DET.header(zero, "single"),
        lambda s: apps.DET.run(s, zero))
    assert out_v.accepted and d_v == 0
    ident = SparseMatrix(5, BIG, [(i, i, 1) for i in range(5)])
    _, (out_v, d_v), _, _ = seeded_roundtrip(
        spec, apps.DET.header(ident, "single"),
        lambda s: apps.DET.run(s, ident))
    assert out_v.accepted and d_v == 1


def test_forged_kernel_witness_rejected():
    # the verifier derives D, u, v from the header alone, so a transcript
    # that claims singularity with a nonzero w outside the kernel replays
    n = 6
    mat = plus_identity(n, 12)
    spec = FieldSpec(BIG)

    def forge(msgs):
        w = [1] + [0] * (n - 1)
        assert any(mat.apply(w))
        return [(apps.M_MODE, engine.encode_mode(1)),
                (apps.M_WITNESS, engine.encode_vector(w))]

    (out_p, d_p), (out_v, d_v), _, _ = seeded_roundtrip(
        spec, apps.DET.header(mat, "single"),
        lambda s: apps.DET.run(s, mat), mutate=forge)
    assert out_p.accepted and d_p == dense_det(mat_from_sparse(mat), BIG) != 0
    assert not out_v.accepted and out_v.check_id == "kernel-witness"
    assert d_v is None


@pytest.mark.parametrize("variant, tag", [
    ("single", logdepth.M_SEQ), ("log", logdepth.M_SEQ),
    ("resolvent", resolvent.M_SEQ)], ids=VARIANTS)
def test_det_sequence_tamper_rejected(variant, tag):
    mat = plus_identity(6, 12)
    spec = FieldSpec(BIG)

    def bump(vals, p):
        vals[3] = (vals[3] + 1) % p
        return vals

    for seed in range(5):
        out, d = seeded_roundtrip(
            spec, apps.DET.header(mat, variant),
            lambda s: apps.DET.run(s, mat), seed,
            tamper_first(tag, BIG, bump)).verified
        assert not out.accepted and d is None


def test_kernel_witness_tamper_rejected():
    mat = singular_matrix(6, 5)
    spec = FieldSpec(BIG)

    out, _ = seeded_roundtrip(
        spec, apps.DET.header(mat, "single"),
        lambda s: apps.DET.run(s, mat), 0,
        tamper_first(apps.M_WITNESS, BIG)).verified
    assert not out.accepted and out.check_id == "kernel-witness"


def test_unknown_mode_byte_is_malformed():
    mat = random_sparse(5, 2, 3, BIG)
    spec = FieldSpec(BIG)
    with pytest.raises(engine.MalformedTranscript):
        seeded_roundtrip(
            spec, apps.DET.header(mat, "single"),
            lambda s: apps.DET.run(s, mat), 0,
            lambda i, t, pl: b"\x07" if t == apps.M_MODE else pl)


def test_charpoly_matches_oracle():
    rng = random.Random(9)
    spec = FieldSpec(BIG)
    for _ in range(3):
        n = rng.randrange(2, 10)
        mat = random_sparse(n, min(3, n), rng.randrange(10 ** 6), BIG)
        (out_p, g_p), (out_v, g_v), _, _ = seeded_roundtrip(
            spec, apps.CHARPOLY.header(mat),
            lambda s: apps.CHARPOLY.run(s, mat))
        assert out_p.accepted and out_v.accepted
        assert g_p == g_v == dense_charpoly(mat_from_sparse(mat), BIG)


def test_charpoly_of_singular_matrix():
    mat = singular_matrix(6, 77)
    spec = FieldSpec(BIG)
    _, (out_v, g_v), _, _ = seeded_roundtrip(
        spec, apps.CHARPOLY.header(mat),
        lambda s: apps.CHARPOLY.run(s, mat))
    assert out_v.accepted
    assert g_v == dense_charpoly(mat_from_sparse(mat), BIG)
    assert g_v[0] == 0  # zero determinant shows up as a zero constant term


def test_charpoly_bound_holds():
    # the bound_check `verify` prints, which the charpoly-n64 benchmark
    # workload requires to end in ": ok"
    for n in (5, 16, 40, 64):
        mat = random_sparse(n, 3, 7, BIG)
        rt = seeded_roundtrip(FieldSpec(BIG),
                              apps.CHARPOLY.header(mat),
                              lambda s: apps.CHARPOLY.run(s, mat))
        assert rt.verified[0].accepted, n
        label, got, _, limit = apps.CHARPOLY.bound(rt.verifier, mat)
        assert label == "verifier_field_ops" and got <= limit, (n, got,
                                                                limit)


@pytest.mark.parametrize("kind, values", [
    (apps.CHARPOLY, ()), (logdepth.SEQUENCE, (24, "resolvent"))],
    ids=["charpoly", "seq-resolvent"])
def test_verifier_applying_once_builds_no_layout(monkeypatch, kind, values):
    # the charpoly Verifier applies D (lambda I - A) once per attempt and
    # the resolvent Verifier applies A once: a direct pass each, and no
    # layout is built, of A or of any operator over it
    mat = random_sparse(12, 3, 5, BIG)
    spec = FieldSpec(BIG)
    header = kind.header(mat, *values)
    ps = engine.Session(spec, header, "prove")
    assert kind.run(ps, mat)[0].accepted
    built = []
    init = matrix._JaggedDiagonals.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(matrix._JaggedDiagonals, "__init__", counted)
    fresh = matrix.parse_kmx1(mat.kmx1())
    vs = engine.Session(spec, header, "verify", recorded=ps.messages)
    assert kind.run(vs, fresh)[0].accepted
    assert fresh._rows is None and fresh._cols is None
    assert built == []


def test_charpoly_verifier_builds_no_matrix(monkeypatch):
    # lambda I - A is applied through A's layouts, never merged into a new
    # SparseMatrix; DiagScaledOp and ShiftedOp have their own __init__
    mat = random_sparse(12, 3, 5, BIG)
    spec = FieldSpec(BIG)
    header = apps.CHARPOLY.header(mat)
    ps = engine.Session(spec, header, "prove")
    assert apps.CHARPOLY.run(ps, mat)[0].accepted
    built = []
    init = SparseMatrix.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SparseMatrix, "__init__", counted)
    vs = engine.Session(spec, header, "verify", recorded=ps.messages)
    assert apps.CHARPOLY.run(vs, mat)[0].accepted
    assert built == []


def test_charpoly_shape_tamper_rejected():
    mat = random_sparse(6, 2, 2, BIG)
    spec = FieldSpec(BIG)

    def shorten(vals, p):
        return vals[:-1]

    out, _ = seeded_roundtrip(
        spec, apps.CHARPOLY.header(mat),
        lambda s: apps.CHARPOLY.run(s, mat), 1,
        tamper_first(apps.M_CHARPOLY, BIG, shorten)).verified
    assert not out.accepted and out.check_id == "charpoly-shape"


def test_charpoly_eval_tamper_rejected():
    mat = random_sparse(6, 2, 2, BIG)
    spec = FieldSpec(BIG)

    for seed in range(3):
        out, _ = seeded_roundtrip(
            spec, apps.CHARPOLY.header(mat),
            lambda s: apps.CHARPOLY.run(s, mat), seed,
            tamper_first(apps.M_CHARPOLY, BIG)).verified
        assert not out.accepted and out.check_id == "charpoly-eval"


def test_charpoly_weighted_soundness_accounting():
    n = 7
    mat = random_sparse(n, 2, 21, BIG)
    spec = FieldSpec(BIG)
    _, (out_v, _), _, _ = seeded_roundtrip(
        spec, apps.CHARPOLY.header(mat),
        lambda s: apps.CHARPOLY.run(s, mat))
    assert out_v.accepted
    # the evaluation check alone contributes weight n
    assert out_v.num_tests >= n


def test_minpoly_of_diagonal_with_repeated_eigenvalue():
    # diag(1,1,2): the repeated eigenvalue collapses to (x-1)(x-2)
    mat = SparseMatrix(3, P, [(0, 0, 1), (1, 1, 1), (2, 2, 2)])
    _, (out_v, f), _, _ = seeded_roundtrip(
        FieldSpec(P), apps.MINPOLY.header(mat, 1),
        lambda s: apps.MINPOLY.run(s, mat))
    assert out_v.accepted
    assert f == [2, P - 3, 1]


def test_charpoly_of_zero_matrix():
    mat = SparseMatrix(3, P, [])
    _, (out_v, g), _, _ = seeded_roundtrip(
        FieldSpec(P), apps.CHARPOLY.header(mat),
        lambda s: apps.CHARPOLY.run(s, mat))
    assert out_v.accepted
    assert g == [0, 0, 0, 1]


def test_charpoly_of_small_diagonal():
    mat = SparseMatrix(2, P, [(0, 0, 1), (1, 1, 2)])
    _, (out_v, g), _, _ = seeded_roundtrip(
        FieldSpec(P), apps.CHARPOLY.header(mat),
        lambda s: apps.CHARPOLY.run(s, mat))
    assert out_v.accepted
    assert g == [2, P - 3, 1]


def test_minpoly_divides_oracle_and_usually_equals_it():
    # the certified polynomial always divides the true minimal polynomial;
    # over a large field a single projection recovers it almost surely
    rng = random.Random(424242)
    spec = FieldSpec(BIG)
    trials = 500
    equal = 0
    for _ in range(trials):
        n = rng.randrange(2, 11)
        mat = random_sparse(n, min(3, n), rng.randrange(10 ** 9), BIG)
        sess = engine.Session(spec, apps.MINPOLY.header(mat, 1),
                              "prove")
        out, f = apps.MINPOLY.run(sess, mat)
        assert out.accepted
        oracle = dense_minpoly(mat_from_sparse(mat), BIG)
        _, rem = poly_divmod(oracle, f, BIG)
        assert not any(rem)
        equal += f == oracle
    assert equal >= trials - trials // 100


def test_charpoly_flipped_coefficient_acceptance_rate():
    # a commitment with one altered coefficient survives only when the
    # evaluation point happens to hide the change
    mat = random_sparse(8, 3, 77, P)
    spec = FieldSpec(P)
    trials = 300
    accepted = 0

    def bump(vals, p):
        vals[2] = (vals[2] + 1) % p
        return vals

    for seed in range(trials):
        out, _ = seeded_roundtrip(
            spec, apps.CHARPOLY.header(mat),
            lambda s: apps.CHARPOLY.run(s, mat), seed,
            tamper_first(apps.M_CHARPOLY, P, bump)).verified
        accepted += out.accepted
    rate = accepted / trials
    q = mat.n / P
    assert rate <= q + 3 * (q * (1 - q) / trials) ** 0.5


# -- the generator certificate

def forgery_case():
    """diag(1, 1, 2, 3, 4, 5) over 2^61 - 1 and its single-projection
    minpoly runner: the generator has degree 5 < n, so a multiple of it
    still fits the degree bound."""
    mat = SparseMatrix(6, BIG, [(i, i, max(1, i)) for i in range(6)])
    return (mat, apps.MINPOLY.header(mat, 1),
            lambda s: apps.MINPOLY.run(s, mat))


@pytest.mark.parametrize("label, hook, check_id", GENERATOR_FORGERIES,
                         ids=[entry[2] + "-" + entry[0].split()[0]
                              for entry in GENERATOR_FORGERIES])
def test_generator_forgery_rejected_under_fiat_shamir(
        tmp_path, capsys, monkeypatch, label, hook, check_id):
    # the forged bytes are hashed before the next challenge, so this is a
    # non-interactive forgery; `kcert verify` names the one check it fails
    monkeypatch.setenv("KCERT_SAMPLE_SET", "101")
    mat, header, runner = forgery_case()
    sess = engine.Session(FieldSpec(BIG, 101), header, "prove",
                          tamper=hook(BIG))
    runner(sess)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "forged.kct"
    write_matrix(mat, mtx)
    kct.write_bytes(sess.transcript_bytes())
    capsys.readouterr()
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    out = capsys.readouterr().out
    assert rc == 1, (label, out)
    assert "check: %s" % check_id in out.splitlines()


@pytest.mark.parametrize("label, hook, check_id", GENERATOR_FORGERIES,
                         ids=[entry[2] + "-" + entry[0].split()[0]
                              for entry in GENERATOR_FORGERIES])
def test_generator_forgery_cheat_rate(label, hook, check_id):
    # over seeded challenges from a sample set of 101 the forgery survives
    # at most as often as its check's weight allows: each check weighs at
    # most 2(n - 1), and the whole run reports more
    mat, header, runner = forgery_case()
    spec = FieldSpec(BIG, 101)
    honest = seeded_roundtrip(spec, header, runner, 0).verified[0]
    trials = 300
    accepted = 0
    for seed in range(trials):
        out, _ = seeded_roundtrip(spec, header, runner, seed,
                                  hook(BIG)).verified
        if out.accepted:
            accepted += 1
        else:
            assert out.check_id == check_id, (label, seed, out)
    q = 2 * (mat.n - 1) / 101
    assert q <= Fraction(*honest.soundness_error_bound)
    assert accepted / trials <= q + 3 * (q * (1 - q) / trials) ** 0.5, \
        (label, accepted)


@pytest.mark.parametrize("edit, check_id", [
    (lambda f, p: f[:-1] + [2], "generator-shape"),
    (lambda f, p: [], "generator-shape"),
    (lambda f, p: [0] * 6 + f, "generator-shape"),
])
def test_generator_shape_checked_before_any_loop(edit, check_id):
    # not monic, empty, or above the degree bound n = 6: rejected as soon
    # as the generator arrives, before a challenge or a window sum
    mat, header, runner = forgery_case()

    def reshape(msgs):
        idx = next(i for i, (t, _) in enumerate(msgs)
                   if t == apps.M_GENERATOR)
        f = engine.decode_vector(msgs[idx][1], BIG)
        return msgs[:idx] + [(apps.M_GENERATOR,
                              engine.encode_vector(edit(f, BIG)))]

    out, _ = seeded_roundtrip(FieldSpec(BIG), header, runner, 3,
                              mutate=reshape).verified
    assert not out.accepted and out.check_id == check_id


def test_det_verifier_share_falls_with_n():
    # the generator is checked in O(n), so the verifier's share of the
    # prover's field ops falls as n doubles (with Berlekamp-Massey on the
    # verifier it stayed near 6 %)
    shares = []
    for n in (64, 128, 256):
        mat = plus_identity(n, 7)
        rt = seeded_roundtrip(FieldSpec(BIG), apps.DET.header(mat, "single"),
                              lambda s: apps.DET.run(s, mat))
        assert rt.verified[0].accepted
        shares.append(rt.verifier.verifier_ledger.field_ops
                      / rt.prover.prover_ledger.field_ops)
    assert shares[0] > shares[1] > shares[2], shares
    assert shares[2] < shares[0] / 2, shares


@pytest.mark.parametrize("variant", VARIANTS)
def test_det_bound_holds(variant):
    spec = FieldSpec(BIG)
    families = [(name, mat) for name, mat in claim_families(BIG)]
    families += [("plus-identity-%d" % n, plus_identity(n, n))
                 for n in (3, 5, 16, 40)]
    for name, mat in families:
        rt = seeded_roundtrip(spec, apps.DET.header(mat, variant),
                              lambda s: apps.DET.run(s, mat))
        assert rt.verified[0].accepted, name
        label, got, _, limit = apps.DET.bound(rt.verifier, mat, variant)
        assert label == "verifier_field_ops" and got <= limit, (name, got,
                                                                limit)


@pytest.mark.parametrize("variant", VARIANTS)
def test_det_budget_is_the_named_kinds_bound(variant):
    # per attempt, det's budget less its generator round is the limit the
    # sequence kind reports for the same variant, at dimension n and
    # application cost mu + n
    for n in (5, 16, 40):
        mat = plus_identity(n, n)
        rt = seeded_roundtrip(FieldSpec(BIG), apps.DET.header(mat, variant),
                              lambda s: apps.DET.run(s, mat))
        assert rt.verified[0].accepted
        attempts = sum(tag == apps.M_MODE for tag, _ in rt.verifier.messages)
        per_attempt, rest = divmod(
            apps.DET.bound(rt.verifier, mat, variant)[3] - n - 2, attempts)
        assert rest == 0
        da = DiagScaledOp([1] * n, mat)
        assert da.mu == mat.mu + n
        assert (per_attempt - apps._generator_verifier_bound(n)
                == logdepth.SEQUENCE.bound(rt.verifier, da, 2 * n,
                                           variant)[3]), n


def _names(module):
    """(node, the name its top-level function or assignment binds, or None)
    over module's AST."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    for top in tree.body:
        name = None
        if isinstance(top, ast.FunctionDef):
            name = top.name
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0],
                                                        ast.Name):
            name = top.targets[0].id
        for node in ast.walk(top):
            yield node, name


def test_only_the_sequence_lookup_names_a_variant():
    # applications.py names no variant and reaches the sequence
    # certificates through logdepth alone: sequence_cert, DEFAULT_VARIANT,
    # and SEQUENCE, whose choice DET takes.  In logdepth.py the vocabulary
    # (VARIANTS, DEFAULT_VARIANT) spells the resolvent variant, and besides
    # it only sequence_cert names that variant or its module, so a second
    # dispatch on the variant fails here
    imports = set()
    for node, _ in _names(apps):
        assert not (isinstance(node, ast.Constant)
                    and node.value in logdepth.VARIANTS), node.value
        if isinstance(node, (ast.Name, ast.Attribute)):
            assert "VARIANTS" not in ast.unparse(node), node.lineno
        if isinstance(node, ast.ImportFrom):
            imports |= {(node.module, a.name) for a in node.names}
    # "from . import engine" has no module
    assert {(m, a) for m, a in imports if m in (None, "logdepth")} == {
        (None, "engine"), ("logdepth", "DEFAULT_VARIANT"),
        ("logdepth", "SEQUENCE"), ("logdepth", "sequence_cert")}
    assert not {m for m, _ in imports} & {"checkpoint", "resolvent"}
    outside = [
        (node.lineno, ast.unparse(node)) for node, top in _names(logdepth)
        if top not in ("sequence_cert", "VARIANTS", "DEFAULT_VARIANT")
        and (isinstance(node, ast.Constant) and node.value == "resolvent"
             or isinstance(node, ast.Name) and node.id == "resolvent")]
    assert outside == []


# det is the one application whose header names its sequence certificate
@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33])
@pytest.mark.parametrize("kind", [apps.DET], ids=["det"])
def test_default_variant_costs_no_more_than_log_depth(kind, n):
    # transcript bytes and Verifier field ops of the variant `prove` uses
    # without --variant, against both log-depth certificates
    mat = plus_identity(n, 7)

    def cost(variant):
        rt = seeded_roundtrip(FieldSpec(BIG), kind.header(mat, variant),
                              lambda s: kind.run(s, mat))
        assert rt.verified[0].accepted, variant
        return (len(rt.prover.transcript_bytes()),
                rt.verifier.verifier_ledger.field_ops)

    default = cost(logdepth.DEFAULT_VARIANT)
    for variant in ("single", "log"):
        other = cost(variant)
        assert default[0] <= other[0] and default[1] <= other[1], (variant,
                                                                   default,
                                                                   other)


def test_det_verifier_runs_no_berlekamp_massey(monkeypatch):
    mat = plus_identity(12, 4)
    spec = FieldSpec(BIG)
    ps = engine.Session(spec, apps.DET.header(mat, "single"), "prove")
    out_p, d_p = apps.DET.run(ps, mat)

    def refuse(*a, **kw):
        raise AssertionError("the verifier ran Berlekamp-Massey")

    monkeypatch.setattr(apps, "minpoly_of_sequence", refuse)
    header, msgs = engine.parse_transcript(ps.transcript_bytes())
    vs = engine.Session(spec, header, "verify", recorded=msgs)
    out_v, d_v = apps.DET.run(vs, mat)
    assert out_v.accepted and d_v == d_p == dense_det(mat_from_sparse(mat),
                                                     BIG)
