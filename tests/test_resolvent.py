"""The resolvent sequence certificate, at every length up to 4n."""

import math

import pytest

from kcert import engine, logdepth, resolvent
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix
from kcert.sequence import compute_sequence
from support import seeded_roundtrip, sweep_matrices

BIG = DEFAULT_PRIME
N = 8
MATRICES = list(sweep_matrices(N, 3, BIG)) + [
    ("zero", SparseMatrix(N, BIG, []))]


@pytest.mark.parametrize("name, mat", MATRICES,
                         ids=[name for name, _ in MATRICES])
def test_resolvent_certifies_every_length(name, mat):
    # for d in 1..4n: the certified s is compute_sequence's, the Verifier
    # applies the operator once and stays within the sequence kind's bound,
    # and the Prover's chain and y take at most d + 2 sqrt(d) + 2 matvecs
    u = [3 * i + 1 for i in range(N)]
    v = [BIG - 5 * i - 2 for i in range(N)]
    for d in range(1, 4 * N + 1):
        K = resolvent.choose_K(N, mat.mu, d)
        L = resolvent.committed_length(d, K)

        def run(sess):
            return engine.run_with_outcome(
                sess, lambda: resolvent.resolvent_cert(sess, mat, u, v, d, K))

        rt = seeded_roundtrip(FieldSpec(BIG),
                              logdepth.SEQUENCE.header(mat, d, "resolvent"),
                              run)
        (out_p, s_p), (out_v, s_v) = rt.proved, rt.verified
        assert out_p.accepted and out_v.accepted, (name, d)
        assert s_p == s_v == compute_sequence(mat, u, v, d)[0], (name, d)
        assert out_v.num_tests == L + 2 * N - 1
        led = rt.verifier.verifier_ledger
        assert (led.matvec_count, led.vecmat_count) == (1, 0), (name, d)
        label, got, _, limit = logdepth.SEQUENCE.bound(rt.verifier, mat, d,
                                                       "resolvent")
        assert label == "verifier_field_ops" and got <= limit, (name, d)
        matvecs = rt.prover.prover_ledger.matvec_count
        assert matvecs == L + K - 1 <= d + 2 * math.sqrt(d) + 2, (name, d)

