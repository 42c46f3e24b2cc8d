"""Byte-exact transcripts, one or more per transcript kind.

Each case proves a statement about a seeded matrix through Fiat-Shamir, the
way `kcert prove` does, and pins the sha256 of the transcript bytes.  A
change that only speeds the prover up must leave every pin in place: the
bytes are the whole of what the verifier sees.  det runs under each
variant of the sequence kind, and also takes the kernel-witness path on a
singular matrix; minpoly and charpoly run the resolvent, which their
headers do not name.
"""

import hashlib

import pytest

from kcert import applications as apps, checkpoint, cli, engine, logdepth
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix, random_sparse

VARIANTS = logdepth.SEQUENCE.limits[1]


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
CASES += [("minpoly-resolvent", plain(10), apps.MINPOLY, (2,))]
CASES += [("det-" + v, plain(10), apps.DET, (v,)) for v in VARIANTS]
CASES += [("det-singular-" + v, singular(10), apps.DET, (v,))
          for v in VARIANTS]
CASES += [("charpoly-resolvent", plain(8), apps.CHARPOLY, ())]

PINS = {
    'checkpoint':
        'daee4f30e5ba5887c64303d6c6ac0dc93e1ceac24ec3cb064fe6ab53b31d273e',
    'dense':
        '39788fb0fd33f4116695086363b7b16b6982ae4e28e14dcc1276d79d6eeae84f',
    'klevel':
        '2cb9860959a537336b860bd2878a607d5ed1a1775ca7af80784d95204c8dfb59',
    'checkpoint-padded':
        '8fbeeeb8b7a2a87edc63d50380f15a0b989f695c8e5ba10f734a0042e7d7edc5',
    'dense-padded':
        '5ecf6aab36563670a505b196a486e54cb170d26b6038fbaae23dbc2d0b35b7ba',
    'klevel-padded':
        '11d3de0f592fc97daf40d2cabd12023045ee3c03bf633726f5e67fe116454070',
    'power-log':
        '6a6ccd26e2d77924c78dda8238709e3047a04f3c397484ab7b183d2336bb2b81',
    'power-single':
        'bca72774992b42ca71912bb886dae435a9fdc781753811fd40cf09f0ce25bd12',
    'sequence-log-16':
        '956f27bf9501bf2af379245ebc2ffe225f9cb179fe4d6c6973cf39c65c20b385',
    'sequence-log-13':
        'a43e91ad1781c3fc015f44cb67beaf73ebb00d5a99aad8d7a15d96cbf71d432c',
    'sequence-single-12':
        'f5a5406c2654073a514c1c16d5a2d79dbe97da78edfcf4a70eb217dc293a47c6',
    'sequence-single-21':
        'cfc09b2c6b7b1c318075063d103a55c377190b79af3b35e5a8b0c114255f08fa',
    'combination-single-8':
        'dde09809ec2d6090e65045e24b68445fb7418949c1a8a772f7821c8f7caa666c',
    'combination-log-7':
        'd7c5b71b4567576245328d11f3f36b7e942e5883f82d78da9e57ae227452d7fd',
    'minpoly-resolvent':
        '35a7feaaf2991347d2f7394b05df3b34622b719d8a74392ba21e6c61618a7487',
    'det-log':
        '09735e5c98e422d313b17dbae8515c98eec60143e7310c46ec5811c4f4aeb2c9',
    'det-single':
        'f4ef35186817a4837c9c4a1b7b18b795c5c17cdbd40565d42ef15ca15ebeb81f',
    'det-resolvent':
        '147bb86fd63413175e2b98e9467279c5279836a74a5df29174e2af9896f15698',
    'det-singular-log':
        'c4327783f1c1eea03175e4b10d886b758156e041b069feaf135e6ce3968342b1',
    'det-singular-single':
        'e9dbffa4b70a2045b9a7e7b14e678ade73ae40356a3aba09ba2b37aac24c8ec8',
    'det-singular-resolvent':
        '2cd8eb6c9d17355f4fa20c77cbbe1273daf09b734b9df40acfd00b2f608ebdc3',
    'charpoly-resolvent':
        '10d7addeb598b98cfcada46074a7cbd46be78df69d745e76971815e05a4d49bd',
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
