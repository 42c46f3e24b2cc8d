"""The check ids a verifier can reject with, read from the source.

A reject names the check that failed.  This walk over src/kcert collects
every id a reject can carry: the literal ids passed to Session.test,
Session.check and RejectError, and the check_id of the blocked chain test
(_test_chain, and its one-by-one fallback), which runs the block tests and,
at K = 0, the row lists' links.  The set is pinned, so adding or deleting a
check shows up here.

The forgery catalogue starts with the resolvent certificate's two checks:
each forgery in support.RESOLVENT_FORGERIES passes every other check, so
`kcert verify` rejects it with exactly its own id, and over seeded
challenges at p = 101 it survives at chance rate.  The blocked
certificate's checkpoint-block has the same: support.forge_forked_chain
commits a wrong checkpoint and continues the chain honestly from it.  So
has its t-combination: support.forge_shifted_row commits a row T moved by
a vector orthogonal to every checkpoint, which no block test sees.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

from kcert import applications as apps, cli, engine, logdepth
from kcert.checkpoint import BLOCKED
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import random_sparse, write_matrix
from support import (RESOLVENT_FORGERIES, forge_forked_chain,
                     forge_shifted_row, plus_identity, seeded_roundtrip)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kcert"

# call name: (position, keyword) of its id argument
ID_ARGUMENT = {
    "test": (2, "check_id"),
    "check": (1, "check_id"),
    "RejectError": (0, "check_id"),
    "_test_chain": (9, "check_id"),
    "_test_chain_apart": (7, "check_id"),
}

CHECK_IDS = {
    # _test_chain
    "checkpoint-block", "z-list", "t-list",
    # Session.test
    "t-combination",
    "power-half-link", "power-link", "power-step", "power-target",
    "power-square", "seq-first-half", "seq-low-combination",
    "seq-high-combination", "combination-direct", "combination-delegated",
    "generator-recurrence", "generator-hankel", "charpoly-eval",
    "resolvent-horner",
    # Session.check
    "tail-entry", "generator-shape", "kernel-witness", "charpoly-shape",
    "resolvent-identity",
    # RejectError
    "degree-deficient",
}


def _id_arguments():
    """(module, id argument node) for every call that names a check id."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name not in ID_ARGUMENT:
                continue
            at, key = ID_ARGUMENT[name]
            for arg in node.args[at:at + 1] + [
                    k.value for k in node.keywords if k.arg == key]:
                yield path.name, arg


def test_check_ids_are_pinned():
    literal = set()
    handed_on = set()
    for module, arg in _id_arguments():
        if isinstance(arg, ast.Constant):
            literal.add(arg.value)
        else:
            handed_on.add((module, ast.unparse(arg)))
    assert literal == CHECK_IDS
    # every other id argument passes a caller's id on unchanged:
    # Session.test to Session.check to RejectError, and _test_chain to its
    # fallback and both to Session.test
    assert handed_on == {("engine.py", "check_id"),
                         ("checkpoint.py", "check_id")}


# (kind, header values) that run the resolvent certificate: the standalone
# sequence kind, and det, which runs it by default
RESOLVENT_STATEMENTS = ((logdepth.SEQUENCE, (24, "resolvent")),
                        (apps.DET, ("resolvent",)))
FORGERY_IDS = [entry[2] for entry in RESOLVENT_FORGERIES]


@pytest.mark.parametrize("kind, values", RESOLVENT_STATEMENTS,
                         ids=["sequence", "det"])
@pytest.mark.parametrize("label, hook, check_id", RESOLVENT_FORGERIES,
                         ids=FORGERY_IDS)
def test_resolvent_forgery_names_its_check(tmp_path, capsys, kind, values,
                                           label, hook, check_id):
    # Fiat-Shamir: the forged bytes are hashed before lambda is drawn, and
    # the prover's honest y follows that lambda
    mat = plus_identity(12, 5, DEFAULT_PRIME)
    sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values),
                          "prove", tamper=hook(mat.p))
    kind.run(sess, mat)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "forged.kct"
    write_matrix(mat, mtx)
    kct.write_bytes(sess.transcript_bytes())
    capsys.readouterr()
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1, (label, out)
    assert "check: %s" % check_id in out, (label, out)


@pytest.mark.parametrize("label, hook, check_id", RESOLVENT_FORGERIES,
                         ids=FORGERY_IDS)
def test_resolvent_forgery_cheat_rate(label, hook, check_id):
    # over GF(101), seeded: each forgery passes only at lambda = 0, so at
    # rate 1/101, well within the reported (L + 2n - 1)/101; every other
    # seed is rejected by the forgery's own check
    p = 101
    spec = FieldSpec(p)
    trials = 300
    mat = random_sparse(6, 3, 11, p)
    header = logdepth.SEQUENCE.header(mat, 12, "resolvent")

    def runner(sess):
        return logdepth.SEQUENCE.run(sess, mat)[0]

    honest = seeded_roundtrip(spec, header, runner, 0).verified
    assert honest.accepted
    accepted = 0
    for seed in range(trials):
        out = seeded_roundtrip(spec, header, runner, seed, hook(p)).verified
        if out.accepted:
            accepted += 1
        else:
            assert out.check_id == check_id, (label, seed, out)
    q = 1 / p
    assert q <= Fraction(*honest.soundness_error_bound)
    assert accepted / trials <= q + 3 * (q * (1 - q) / trials) ** 0.5, \
        (label, accepted)


def test_forged_sequence_entry_in_det_survives_at_chance_rate():
    # det at n = 12 over GF(101): the forged s[3] survives Horner only at
    # lambda = 0, and the generator round sees the forged s as well
    p = 101
    spec = FieldSpec(p)
    trials = 300
    mat = plus_identity(12, 4, p)
    header = apps.DET.header(mat, "resolvent")
    hook = RESOLVENT_FORGERIES[0][1]
    accepted = sum(
        seeded_roundtrip(spec, header, lambda s: apps.DET.run(s, mat)[0],
                         seed, hook(p)).verified.accepted
        for seed in range(trials))
    q = 1 / p
    assert accepted / trials <= q + 3 * (q * (1 - q) / trials) ** 0.5, \
        accepted


# (n, header values) of a blocked run at each row depth; every delta is a
# multiple of K, so s ends in s[delta], which tail-entry reads
FORKED_RUNS = ((12, (30, 5, 0)), (12, (30, 5, 1)), (125, (250, 25, 2)))


@pytest.mark.parametrize("n, values", FORKED_RUNS,
                         ids=["depth-%d" % v[2] for _, v in FORKED_RUNS])
def test_forked_chain_names_checkpoint_block(tmp_path, capsys, n, values):
    # Fiat-Shamir: W_3 + e_0 and the chain forked from it are hashed before
    # x and r are drawn; blocks 3 on and the end entry follow the fork, so
    # only block 2's test, which links to W_3, sees it
    mat = random_sparse(n, 3, 11, DEFAULT_PRIME)
    spec = FieldSpec(mat.p)
    header = BLOCKED.header(mat, *values)
    sess = engine.Session(spec, header, "prove",
                          tamper=forge_forked_chain(spec, mat, header, 3))
    BLOCKED.run(sess, mat)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "forged.kct"
    write_matrix(mat, mtx)
    kct.write_bytes(sess.transcript_bytes())
    capsys.readouterr()
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1, out
    assert out[-2:] == ["check: checkpoint-block", "location: 2"], out


def test_forked_chain_cheat_rate():
    # over GF(101), seeded: the fork W_2 + e_0 moves block 1's test by
    # -x_0 alone, so it passes at rate 1/101, within the reported 4/101
    p = 101
    spec = FieldSpec(p)
    trials = 300
    mat = random_sparse(6, 3, 11, p)
    header = BLOCKED.header(mat, 12, 3, 0)

    def runner(sess):
        return BLOCKED.run(sess, mat)[0]

    honest = seeded_roundtrip(spec, header, runner, 0).verified
    assert honest.accepted and honest.soundness_error_bound == (4, 101)
    accepted = 0
    for seed in range(trials):
        hook = forge_forked_chain(spec, mat, header, 2, seed)
        out = seeded_roundtrip(spec, header, runner, seed, hook).verified
        if out.accepted:
            accepted += 1
        else:
            assert (out.check_id, out.location) == ("checkpoint-block",
                                                    (1,)), (seed, out)
    q = 1 / p
    assert q <= Fraction(*honest.soundness_error_bound)
    assert accepted / trials <= q + 3 * (q * (1 - q) / trials) ** 0.5, \
        accepted


def test_shifted_row_names_t_combination(tmp_path, capsys):
    # Fiat-Shamir at depth 2: T + e is hashed before psi is drawn, and
    # e . W_j = 0 for every checkpoint, so the folded block test and the
    # end entry hold and only t-combination sees it
    mat = random_sparse(125, 3, 11, DEFAULT_PRIME)
    spec = FieldSpec(mat.p)
    header = BLOCKED.header(mat, 250, 25, 2)
    sess = engine.Session(spec, header, "prove",
                          tamper=forge_shifted_row(spec, mat, header))
    BLOCKED.run(sess, mat)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "forged.kct"
    write_matrix(mat, mtx)
    kct.write_bytes(sess.transcript_bytes())
    capsys.readouterr()
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1, out
    assert out[-2:] == ["check: t-combination", "location: "], out


def test_shifted_row_cheat_rate():
    # over GF(101), seeded, at depth 2 with stride 3 below K = 9: T + e
    # passes only when e . psi = 0, at rate 1/101, within the reported
    # bound; every other seed is rejected by t-combination
    p = 101
    spec = FieldSpec(p)
    trials = 300
    mat = random_sparse(27, 3, 11, p)
    header = BLOCKED.header(mat, 54, 9, 2)

    def runner(sess):
        return BLOCKED.run(sess, mat)[0]

    honest = seeded_roundtrip(spec, header, runner, 0).verified
    assert honest.accepted
    accepted = 0
    for seed in range(trials):
        hook = forge_shifted_row(spec, mat, header, seed)
        out = seeded_roundtrip(spec, header, runner, seed, hook).verified
        if out.accepted:
            accepted += 1
        else:
            assert (out.check_id, out.location) == ("t-combination", ()), \
                (seed, out)
    q = 1 / p
    assert q <= Fraction(*honest.soundness_error_bound)
    assert accepted / trials <= q + 3 * (q * (1 - q) / trials) ** 0.5, \
        accepted
