"""Byte-exact transcripts, one or more per transcript kind.

Each case proves a statement about a seeded matrix through Fiat-Shamir, the
way `kcert prove` does, and pins the sha256 of the transcript bytes.  A
change that only speeds the prover up must leave every pin in place: the
bytes are the whole of what the verifier sees.  det, minpoly and charpoly
run under all four sequence variants; det also takes the kernel-witness
path on a singular matrix.
"""

import hashlib

import pytest

from kcert import (applications as apps, checkpoint, cli, engine, logdepth,
                   recursive)
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix, random_sparse

VARIANTS = ("checkpoint", "dense", "log", "single")


def plain(n):
    return random_sparse(n, 3, 23, DEFAULT_PRIME)


def singular(n):
    # column 0 emptied: e_0 spans the kernel
    trips = [t for t in plain(n).triplets if t[1] != 0]
    return SparseMatrix(n, DEFAULT_PRIME, trips)


# (id, matrix, kind, header values)
CASES = [
    ("checkpoint", plain(10), checkpoint.CHECKPOINT, (16, 4)),
    ("dense", plain(10), checkpoint.DENSE, (15, 4)),
    ("klevel", plain(27), recursive.KLEVEL, (54, 3)),
    # the last block runs past s[delta]: by 1, 2 and 2 entries (klevel:3
    # at n = 27 runs its top level at K = 9)
    ("checkpoint-padded", plain(10), checkpoint.CHECKPOINT, (18, 4)),
    ("dense-padded", plain(10), checkpoint.DENSE, (17, 4)),
    ("klevel-padded", plain(27), recursive.KLEVEL, (60, 3)),
    ("power-log", plain(10), logdepth.POWER, (13, "log")),
    ("power-single", plain(10), logdepth.POWER, (5, "single")),
    ("sequence-log-16", plain(10), logdepth.SEQUENCE, (16, "log")),
    ("sequence-log-13", plain(10), logdepth.SEQUENCE, (13, "log")),
    ("sequence-single-12", plain(10), logdepth.SEQUENCE, (12, "single")),
    ("sequence-single-21", plain(12), logdepth.SEQUENCE, (21, "single")),
    ("combination-single-8", plain(10), logdepth.COMBINATION, (8, "single")),
    ("combination-log-7", plain(10), logdepth.COMBINATION, (7, "log")),
]
CASES += [("minpoly-" + v, plain(10), apps.MINPOLY, (v, 2)) for v in VARIANTS]
CASES += [("det-" + v, plain(10), apps.DET, (v,)) for v in VARIANTS]
CASES += [("det-singular-" + v, singular(10), apps.DET, (v,))
          for v in VARIANTS]
CASES += [("charpoly-" + v, plain(8), apps.CHARPOLY, (v,)) for v in VARIANTS]

PINS = {
    'checkpoint':
        'a322eb30f3d83b5f65498d17a84f173f9f2c3e026965cdc8acba5ce6bfc44f0c',
    'dense':
        'b1467c8d620496ff02d6c8d674c41fcbc77f017fc8d08e29d47b279563e5bcc2',
    'klevel':
        'a269bbb414404b1c297a75d5af1ecfd6084e92fd2a583da22799bc92840c89ce',
    'checkpoint-padded':
        '7cb378a16359f0d096f3765e8de07c31ffb8731f431c07f4333c0a61dae862a4',
    'dense-padded':
        'db727799ec402b605d5c3541fa8ca90c04847c41fffa5055094ba2e86ddf29bd',
    'klevel-padded':
        '98be6909bd9dfffe818bc0978468726bd0cbd279f509bca43f1178034cbb8512',
    'power-log':
        '3b647985763efd185d99653fb33a3f8718cbaf2b9bf518a4cdfa1039a310e01f',
    'power-single':
        'ab5ea6cc874f71fcc2ed3d49375d552e2c50bbbede10e36a3c99b8e1521c572e',
    'sequence-log-16':
        'd34c790f7aa400b9f599cd4b785cea06627ac1e55c9b8c0fc9e774ee5669c9fd',
    'sequence-log-13':
        '7a90c0604dda9c13f25fac39729b091d0042d96076f9dc7a73aab0ae3209882f',
    'sequence-single-12':
        'b27a8718b14109207cee6676ec90707d9f333c3773286c499d8cb24d9a8017a7',
    'sequence-single-21':
        'a2ab10fea5e9211a90e77d51976ef98c375f5707759297b93dfccc79d83b1a1b',
    'combination-single-8':
        'c3e58d70ed1ec915d234f614f9949b82b2724ff54fdf023dda9631fd3d6d18c3',
    'combination-log-7':
        '55f60d1906c7531e4fd4cee452fbb222d5bca1590e9db680ca1d5edfd7a7029e',
    'minpoly-checkpoint':
        'da24929c59ba65c3eafb5517f32f40c93d3a82a49975461f54a07c4953bfca82',
    'minpoly-dense':
        'a37f3a8f06c071095d69338f81989ebc6a5997c87030ce8449f69a88ca1b4361',
    'minpoly-log':
        '1a6279470e7fef2fa6de9ce93284b5062e067f4628206447ac3f5237de7c8ab4',
    'minpoly-single':
        '62361bb434bb8da55927eff48425cec8d255abccc282b63c31eb3a3db27eb6e0',
    'det-checkpoint':
        '00c16641bfc597bc8ba46ab46efd2a31a4e238e0f74f2bcd96087b266018f4f5',
    'det-dense':
        '9f42201caeb85ff006149de65b8771361ddb060bd4159feb444dd9b79d5e562b',
    'det-log':
        '732c5608f7a06d7bef2caf86b98ea9e4ca04fcf0bfffedfe4ddff76e91e1e220',
    'det-single':
        '1f207ec5cfdcb6e00e467a5c49b05dcb1d8de863fc4a8db5317fadbabaaff02b',
    'det-singular-checkpoint':
        '269ab4ef17de20e3bf25480f00c505a6442372f593df8fadaa1848d4a5d2a1da',
    'det-singular-dense':
        'fdd30df07a105159354576d44f943342d600c98df0e0f0012b6f8e22bab59a70',
    'det-singular-log':
        '8023dee3e190f5e92eef6d4e6ace97343887d7bc5bd814742132502b9e16fcd6',
    'det-singular-single':
        'b293df788171f5a4fd52066ee236cc2886d8ad184ff8a7f4064c1cc6d1e2f9c4',
    'charpoly-checkpoint':
        'a6d3ddce10df9345b436126519dfaf1e053c12a579969f5744cac7bd45d33946',
    'charpoly-dense':
        '253e7c840edf4a022d3e7784688ef826f5e0b0035a5d993fb459351b8328666d',
    'charpoly-log':
        '49ed0c07458ae9747bf669d56487cd2f1e8bec9eab12ea534917a9d0bdc18b34',
    'charpoly-single':
        'e57e1eab955cffd214add18a922f5d8412223cb818034ea20dec96c9fd8bed8d',
}


@pytest.mark.parametrize("name, mat, kind, values", CASES,
                         ids=[case[0] for case in CASES])
def test_transcript_is_pinned(name, mat, kind, values):
    sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values), "prove")
    out, _ = kind.run(sess, mat)
    assert out.accepted
    digest = hashlib.sha256(sess.transcript_bytes()).hexdigest()
    assert digest == PINS[name]


def test_every_kind_is_pinned():
    assert {kind for _, _, kind, _ in CASES} == set(cli.KINDS.values())
