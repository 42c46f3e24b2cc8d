import ast
import hashlib
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from kcert import engine, logdepth
from kcert.field import DEFAULT_PRIME, FieldSpec
from support import seeded_roundtrip

P = 101
TOP = (1 << 62) - 57  # largest prime FieldSpec accepts
T_A, T_C, T_D = 0x70, 0x72, 0x73


def make_header(n=3, params=(5,), p=P):
    return engine.Header(logdepth.SEQUENCE.tag, p, n,
                         tuple(params) + engine.digest_words(b"\x00" * 32))


def tiny_body(sess):
    """Commit a vector, answer a challenge with its scaled sum."""
    v = sess.send_vector(T_A, [1, 2, 3], expect_len=3)
    c = sess.challenge_scalar()
    (s,) = sess.send_vector(T_C, [sum(v) * c % P], expect_len=1)
    if sess.verifying:
        sess.test(s, sum(v) * c % P, "tiny")


def run_tiny(sess):
    outcome, _ = engine.run_with_outcome(sess, lambda: tiny_body(sess))
    return outcome


def tiny_roundtrip(**hooks):
    return seeded_roundtrip(FieldSpec(P), make_header(), run_tiny, **hooks)


def test_header_roundtrip():
    h = make_header(params=(7, 9))
    enc = h.encode()
    h2, off = engine.Header.decode(enc + b"xyz")
    assert h2 == h
    assert off == len(enc)


def test_header_rejects_garbage():
    with pytest.raises(engine.MalformedTranscript):
        engine.Header.decode(b"NOPE" + b"\x00" * 40)
    with pytest.raises(engine.MalformedTranscript):
        engine.Header.decode(make_header().encode()[:10])
    # the sample set must lie in 2..p
    for m in (1, P + 1):
        blob = make_header().encode()[:-8] + m.to_bytes(8, "little")
        with pytest.raises(engine.MalformedTranscript, match="sample set"):
            engine.Header.decode(blob)


def test_honest_roundtrip_accepts():
    proved, out, _, _ = tiny_roundtrip()
    assert proved.accepted
    assert out.accepted
    assert out.num_tests == 1
    assert out.soundness_error_bound == (1, P)


def test_fs_transcripts_are_deterministic():
    spec = FieldSpec(P)
    blobs = []
    for _ in range(2):
        s = engine.Session(spec, make_header(), "prove")
        engine.run_with_outcome(s, lambda: tiny_body(s))
        blobs.append(s.transcript_bytes())
    assert blobs[0] == blobs[1]


def test_corrupting_committed_value_breaks_challenge_replay():
    # the verifier derives its challenge from the corrupted commitment, so
    # the recorded response answers a different challenge
    def mutate(msgs):
        out = list(msgs)
        t, payload = out[0]
        vals = engine.decode_vector(payload, P)
        vals[0] = (vals[0] + 1) % P
        out[0] = (t, engine.encode_vector(vals))
        return out

    proved, out, _, _ = tiny_roundtrip(mutate=mutate)
    assert proved.accepted
    assert not out.accepted
    assert out.check_id == "tiny"


def test_corrupting_final_response_rejects():
    def mutate(msgs):
        out = list(msgs)
        t, payload = out[-1]
        (v,) = engine.decode_vector(payload, P)
        out[-1] = (t, engine.encode_vector([(v + 1) % P]))
        return out

    proved, out, _, _ = tiny_roundtrip(mutate=mutate)
    assert proved.accepted
    assert not out.accepted
    assert out.check_id == "tiny"


def test_trailing_message_is_malformed():
    def mutate(msgs):
        return list(msgs) + [(T_D, engine.encode_vector([1]))]

    with pytest.raises(engine.MalformedTranscript):
        tiny_roundtrip(mutate=mutate)


def test_missing_message_is_malformed():
    def mutate(msgs):
        return list(msgs)[:-1]

    with pytest.raises(engine.MalformedTranscript):
        tiny_roundtrip(mutate=mutate)


def test_wrong_vector_length_is_malformed():
    def mutate(msgs):
        out = list(msgs)
        t, _ = out[0]
        out[0] = (t, engine.encode_vector([1, 2, 3, 4]))
        return out

    with pytest.raises(engine.MalformedTranscript):
        tiny_roundtrip(mutate=mutate)


def test_unreduced_scalar_is_malformed():
    # the response, a one-entry vector, carries p + 1
    def mutate(msgs):
        out = list(msgs)
        t, _ = out[-1]
        out[-1] = (t, engine.encode_vector([P + 1]))
        return out

    with pytest.raises(engine.MalformedTranscript):
        tiny_roundtrip(mutate=mutate)


def test_tampered_prover_transcript_is_rejected():
    hits = []

    def tamper(idx, tag, payload):
        if tag == T_C:
            hits.append(idx)
            (v,) = engine.decode_vector(payload, P)
            return engine.encode_vector([(v + 1) % P])
        return payload

    out = tiny_roundtrip(seed=0, tamper=tamper).verified
    assert hits == [1] and not out.accepted and out.check_id == "tiny"


def test_live_mode_is_refused():
    with pytest.raises(ValueError, match="unknown session mode"):
        engine.Session(FieldSpec(P), make_header(), "live", seed=0)


def test_seeded_prove_and_verify_draw_the_same_challenges():
    # one randrange per element, rejecting zeros for a nonzero challenge
    def body(sess, drawn):
        v = sess.send_vector(T_A, [1, 2, 3], expect_len=3)
        drawn.append(sess.challenge_vector(4))
        sess.send_vector(T_C, [sum(v) % P])
        drawn.append(sess.challenge_vector(1, nonzero=True)[0])

    rng = random.Random(5)
    expect = [[rng.randrange(3) for _ in range(4)], 0]
    while expect[1] == 0:
        expect[1] = rng.randrange(3)
    spec = FieldSpec(P, 3)
    proved, replayed = [], []
    ps = engine.Session(spec, make_header(), "prove", seed=5)
    assert engine.run_with_outcome(ps, lambda: body(ps, proved))[0].accepted
    header, msgs = engine.parse_transcript(ps.transcript_bytes())
    vs = engine.Session(spec, header, "verify", recorded=msgs, seed=5)
    assert engine.run_with_outcome(vs, lambda: body(vs, replayed))[0].accepted
    assert proved == replayed == expect
    # the seed replaces Fiat-Shamir: an unseeded run draws other challenges
    fs = engine.Session(spec, make_header(), "prove")
    fs_drawn = []
    engine.run_with_outcome(fs, lambda: body(fs, fs_drawn))
    assert fs_drawn != proved


def test_seeds_differ():
    spec = FieldSpec(P)
    drawn = []
    for seed in (1, 2):
        sess = engine.Session(spec, make_header(), "prove", seed=seed)
        run_tiny(sess)
        drawn.append(sess.transcript_bytes())
    assert drawn[0] != drawn[1]


def test_rounds_and_comm_accounting():
    def body(sess):
        sess.send_vector(T_A, [1, 2, 3])
        sess.challenge_scalar()
        sess.send_vector(T_C, [4])
        sess.send_vector(T_D, [5])

    spec = FieldSpec(P)
    sess = engine.Session(spec, make_header(), "prove")
    engine.run_with_outcome(sess, lambda: body(sess))
    # two maximal prover-to-verifier groups
    assert sess.rounds == 2
    # 3 committed + 1 challenge + two 1-entry responses
    assert sess.comm_field_elements == 6


def test_nonzero_challenge_vector():
    # with a sample set of size 2 half the words map to 0, so 1000 elements
    # need more than the first squeeze of the stream
    spec = FieldSpec(P, 2)

    def body(sess):
        v = sess.challenge_vector(1000, nonzero=True)
        assert v == [1] * 1000

    ps = engine.Session(spec, make_header(n=1000), "prove")
    assert engine.run_with_outcome(ps, lambda: body(ps))[0].accepted
    header, msgs = engine.parse_transcript(ps.transcript_bytes())
    vs = engine.Session(spec, header, "verify", recorded=msgs)
    assert engine.run_with_outcome(vs, lambda: body(vs))[0].accepted


def test_finish_requires_full_consumption():
    spec = FieldSpec(P)
    ps = engine.Session(spec, make_header(), "prove")
    engine.run_with_outcome(ps, lambda: tiny_body(ps))
    header, msgs = engine.parse_transcript(ps.transcript_bytes())
    vs = engine.Session(spec, header, "verify", recorded=msgs)

    def body():
        vs.send_vector(T_A, None, expect_len=3)
        # stop early: the challenge and response are never consumed

    with pytest.raises(engine.MalformedTranscript):
        engine.run_with_outcome(vs, body)


def test_soundness_bound_is_capped():
    spec = FieldSpec(P, 2)

    def body(sess):
        sess.test(0, 0, "none", weight=10)

    sess = engine.Session(spec, make_header(), "prove")
    out, _ = engine.run_with_outcome(sess, lambda: body(sess))
    assert out.soundness_error_bound == (1, 1)


def test_run_with_outcome_passes_the_value_only_on_accept():
    spec = FieldSpec(P)
    sess = engine.Session(spec, make_header(), "prove")
    out, value = engine.run_with_outcome(sess, lambda: 42)
    assert out.accepted and value == 42
    sess = engine.Session(spec, make_header(), "verify", recorded=[])

    def body():
        sess.test(1, 2, "mismatch")
        return 42

    out, value = engine.run_with_outcome(sess, body)
    assert (out.accepted, out.check_id, value) == (False, "mismatch", None)


def test_session_test_counts_weights_and_charges_one_op():
    sess = engine.Session(FieldSpec(P), make_header(), "verify", recorded=[])
    with sess.charging():
        sess.test(3, 3, "a")
        sess.test(5, 5, "b", (1,), weight=4)
    assert sess.num_tests == 5
    # one subtraction per test, charged to the active ledger only
    assert sess.verifier_ledger.field_ops == 2
    assert sess.prover_ledger.field_ops == 0
    assert sess.finish().soundness_error_bound == (5, P)


@pytest.mark.parametrize("mode", ["prove", "verify"])
def test_session_test_rejects_only_when_verifying(mode):
    sess = engine.Session(FieldSpec(P), make_header(), mode, recorded=[])
    if sess.verifying:
        with pytest.raises(engine.RejectError) as exc:
            sess.test(1, 2, "mismatch", (7,))
        assert (exc.value.check_id, exc.value.location) == ("mismatch", (7,))
    else:
        sess.test(1, 2, "mismatch", (7,))
    assert sess.num_tests == 1


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([P, DEFAULT_PRIME]))
def test_vector_codec_roundtrip(data, p):
    v = data.draw(st.lists(st.integers(0, p - 1), max_size=64))
    payload = engine.encode_vector(v)
    # the wire format is little-endian words whatever the host byte order
    assert payload == b"".join(x.to_bytes(8, "little") for x in [len(v)] + v)
    assert engine.decode_vector(payload, p) == v


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([P, DEFAULT_PRIME]))
def test_unreduced_vector_entry_is_malformed(data, p):
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=64))
    i = data.draw(st.integers(0, len(v) - 1))
    v[i] = data.draw(st.integers(p, (1 << 64) - 1))
    with pytest.raises(engine.MalformedTranscript):
        engine.decode_vector(engine.encode_vector(v), p)


def reference_challenge(sess, counter, count, nonzero):
    """The sampler's specification, one word at a time: the words of
    SHAKE-256(SHA-256(header || counter)), little-endian, each masked to
    bitlen(m - 1) bits and kept when it lies in {0..m-1}, or {1..m-1}."""
    m = sess.header.m
    seed = hashlib.sha256(sess.header.encode()
                          + counter.to_bytes(8, "little")).digest()
    mask = (1 << (m - 1).bit_length()) - 1
    low = 1 if nonzero else 0
    out, stream, i = [], b"", 0
    while len(out) < count:
        if 8 * i == len(stream):
            stream = hashlib.shake_256(seed).digest(2 * len(stream) + 64)
        x = int.from_bytes(stream[8 * i:8 * i + 8], "little") & mask
        i += 1
        if low <= x < m:
            out.append(x)
    return out


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(st.integers(2, TOP),
                   # 2^k + 1 keeps barely half the masked words, so the
                   # word-by-word filter runs; 2^k keeps them all
                   st.integers(1, 61).map(lambda k: (1 << k) + 1),
                   st.integers(1, 61).map(lambda k: 1 << k)),
       count=st.integers(1, 300), nonzero=st.booleans())
def test_challenge_matches_word_at_a_time_reference(m, count, nonzero):
    sess = engine.Session(FieldSpec(TOP, m), make_header(p=TOP), "prove")
    for counter in range(2):
        got = sess.challenge_vector(count, nonzero=nonzero)
        assert got == reference_challenge(sess, counter, count, nonzero)


@pytest.mark.parametrize("m", [3, (1 << 16) + 1])
@pytest.mark.parametrize("nonzero", [False, True], ids=["any", "nonzero"])
def test_long_challenge_takes_at_most_two_squeezes(monkeypatch, m, nonzero):
    # about half the masked words survive at these m; hashlib's SHAKE
    # derives the whole prefix again on every squeeze
    squeezes = []
    shake = hashlib.shake_256

    class Counting:
        def __init__(self, data):
            self._xof = shake(data)
            squeezes.append(0)

        def digest(self, length):
            squeezes[-1] += 1
            return self._xof.digest(length)

    monkeypatch.setattr(hashlib, "shake_256", Counting)
    sess = engine.Session(FieldSpec(TOP, m), make_header(n=4096, p=TOP),
                          "prove")
    for _ in range(8):
        assert len(sess.challenge_vector(4096, nonzero=nonzero)) == 4096
    assert len(squeezes) == 8 and max(squeezes) <= 2, squeezes


@pytest.mark.parametrize("p, vector, scalar", [
    (P, [69, 34, 29, 56], 21),
    (DEFAULT_PRIME,
     [1665781926116497693, 1894627069238819360, 1183625391606629857,
      968022370893797632], 2285542285186210131),
], ids=["p101", "p61"])
def test_challenge_derivation_known_answer(p, vector, scalar):
    # freezes the KCT6 derivation: SHAKE-256 of SHA-256(header || counter),
    # where the header ends in the sample-set size and no challenge is
    # hashed, read as words masked to bitlen(m - 1) bits
    sess = engine.Session(FieldSpec(p), make_header(n=4, p=p), "prove")
    assert sess.challenge_vector(4) == vector
    assert sess.challenge_scalar() == scalar


@pytest.mark.parametrize("seed", [None, 5], ids=["fiat-shamir", "seeded"])
def test_verifier_scalar_draws_nothing(seed):
    # the verifier's own scalar is the first masked word of SHAKE-256 of
    # SHA-256(domain || SHA-256(transcript so far)), under either source of
    # challenges; taking it moves no challenge, count or round
    def body(sess, scalars):
        sess.send_vector(T_A, [1, 2, 3])
        scalars.append(sess.verifier_scalar())
        scalars.append(sess.verifier_scalar())
        drawn = sess.challenge_vector(3)
        sess.send_vector(T_C, [4])
        scalars.append(sess.verifier_scalar())
        return drawn + [sess.challenge_scalar()]

    spec = FieldSpec(TOP)
    plain = engine.Session(spec, make_header(p=TOP), "prove", seed=seed)
    plain_drawn = body(plain, [])
    sess = engine.Session(spec, make_header(p=TOP), "prove", seed=seed)
    scalars = []
    drawn = body(sess, scalars)
    assert drawn == plain_drawn
    assert (sess.comm_field_elements, sess.rounds) == (
        plain.comm_field_elements, plain.rounds) == (8, 2)
    prefix = sess.transcript_bytes()
    first = prefix[:len(prefix) - len(sess.messages[-1][1]) - 9]
    words = []
    for data in (first, prefix):
        key = hashlib.sha256(b"kcert verifier scalar"
                             + hashlib.sha256(data).digest()).digest()
        mask = (1 << (TOP - 1).bit_length()) - 1
        stream = hashlib.shake_256(key).digest(64)
        words.append(next(x for x in (
            int.from_bytes(stream[i:i + 8], "little") & mask
            for i in range(0, 64, 8)) if x < TOP))
    assert scalars == [words[0], words[0], words[1]]


@pytest.mark.parametrize("m, nonzero", [
    (P, False), (2, False), (3, False), (3, True), (P, True), (257, False),
    (257, True),
], ids=["m101", "m2", "m3", "m3-nonzero", "m101-nonzero", "m257",
        "m257-nonzero"])
def test_challenge_draws_are_roughly_uniform(m, nonzero):
    scipy_stats = pytest.importorskip("scipy.stats")
    sess = engine.Session(FieldSpec(TOP, m), make_header(p=TOP), "prove")
    support = range(1 if nonzero else 0, m)
    counts = dict.fromkeys(support, 0)
    for x in sess.challenge_vector(200 * len(support), nonzero=nonzero):
        counts[x] += 1
    chi2 = sum((c - 200) ** 2 / 200 for c in counts.values())
    # reject only a wildly skewed distribution
    assert chi2 < scipy_stats.chi2.ppf(0.9999, len(support) - 1)


def test_engine_holds_no_statement_vocabulary():
    # a kind's tag and choice words live in its Kind record: engine binds
    # no tag or variant name and spells no variant, and no module compares
    # a parameter name with "variant"
    src = pathlib.Path(engine.__file__).parent
    tree = ast.parse((src / "engine.py").read_text())
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {name for name in bound
                if name.startswith(("T_", "VARIANT"))
                or name == "DEFAULT_VARIANT"}
    assert not {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)} & set(logdepth.VARIANTS)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                assert not any(
                    isinstance(c, ast.Constant) and c.value == "variant"
                    for x in [node.left] + node.comparators
                    for c in ast.walk(x)), (path.name, node.lineno)
