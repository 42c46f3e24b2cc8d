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

from kcert import applications as apps, checkpoint, cli, engine, logdepth
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix, random_sparse

VARIANTS = ("checkpoint", "dense", "log", "single")


def plain(n):
    return random_sparse(n, 3, 23, DEFAULT_PRIME)


def singular(n):
    # column 0 emptied: e_0 spans the kernel
    trips = [t for t in plain(n).triplets if t[1] != 0]
    return SparseMatrix(n, DEFAULT_PRIME, trips)


# (id, matrix, kind, header values); the blocked ids name the spelling of
# `kcert prove --protocol` that makes each statement (klevel:3 at n = 27
# runs its top level at K = 9 over stride 3)
CASES = [
    ("checkpoint", plain(10), checkpoint.BLOCKED, (16, 4, 0)),
    ("dense", plain(10), checkpoint.BLOCKED, (15, 4, 1)),
    ("klevel", plain(27), checkpoint.BLOCKED, (54, 9, 2)),
    # the last block runs past s[delta]: by 1, 2 and 2 entries
    ("checkpoint-padded", plain(10), checkpoint.BLOCKED, (18, 4, 0)),
    ("dense-padded", plain(10), checkpoint.BLOCKED, (17, 4, 1)),
    ("klevel-padded", plain(27), checkpoint.BLOCKED, (60, 9, 2)),
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
        'fa7b25f33b4624c9ad39d7b3c3ba0b33e5b0ee371d196415054ba7ab36c5e488',
    'dense':
        'f081ef784f6559a8a9e71daab6451fb1674812d61a2d1181cdfa23b8cb486e0b',
    'klevel':
        'e35ceee8e08c7974c48ed59a2af25c9857a475aea88b6101097dc42d50ad0d84',
    'checkpoint-padded':
        '5aac9aa11ea74e6fb8bc1cdbfdee5a7a2fa5aad0bf459e3573f92b00dbe180b8',
    'dense-padded':
        'b3bfe7ef3bab5f05aa46473938bc7f1eae2cf38ee25046ac394814e4907b80d2',
    'klevel-padded':
        'e96658106bc868cc875b6feb21033cc025d545322952662b63761091eb5b6d84',
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
