"""The table-driven verify and bench paths, one transcript kind at a time.

Transcripts are made with the library, so the two kinds `kcert prove`
cannot emit (power, combination) go through `kcert verify` too.
GOLDEN_REPORTS and GOLDEN_BENCH hold the full output of the command line; a
change to either means the report or the CSV changed.
"""

import contextlib
import io
import os
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import kcert
from kcert import applications as apps, cli, engine, logdepth
from kcert.checkpoint import BLOCKED, choose_K
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix, random_sparse, write_matrix

# (id, n, kind, header values), the blocked ids named for their `kcert
# prove --protocol` spelling; at n = 125 klevel:3 has strides 5 and 25, so
# one level delegates to lists
CASES = (
    ("checkpoint", 10, BLOCKED, (16, 4, 0)),
    ("dense", 10, BLOCKED, (15, 4, 1)),
    ("klevel", 125, BLOCKED, (250, 25, 2)),
    ("power-log", 10, logdepth.POWER, (13, "log")),
    ("power-single", 10, logdepth.POWER, (5, "single")),
    ("sequence-log", 10, logdepth.SEQUENCE, (16, "log")),
    ("sequence-single", 10, logdepth.SEQUENCE, (12, "single")),
    ("sequence-resolvent", 10, logdepth.SEQUENCE, (12, "resolvent")),
    ("combination", 10, logdepth.COMBINATION, (8, "single")),
    ("minpoly", 10, apps.MINPOLY, (2,)),
    ("det", 10, apps.DET, ("resolvent",)),
    ("charpoly", 10, apps.CHARPOLY, ()),
)

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

BENCH_PROTOCOLS = ("checkpoint", "dense", "klevel:3", "seq-log", "seq-single",
                   "seq-resolvent", "minpoly", "det", "charpoly")

GOLDEN_REPORTS = {
    'checkpoint': (
        'protocol: blocked\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'delta: 16\n'
        'K: 4\n'
        'depth: 0\n'
        'outcome: accept\n'
        'tests: 4\n'
        'soundness_error: 4/2305843009213693951\n'
        'verifier_field_ops: 488\n'
        'verifier_matvecs: 0\n'
        'verifier_vecmats: 4\n'
        'comm_field_elements: 91\n'
        'rounds: 1\n'
        'bound_check: verifier_field_ops 488 <= K(mu+2n) + 2n + blocks(ceil(delta/K)) = 492: ok\n'
    ),
    'dense': (
        'protocol: blocked\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'delta: 15\n'
        'K: 4\n'
        'depth: 1\n'
        'outcome: accept\n'
        'tests: 11\n'
        'soundness_error: 11/2305843009213693951\n'
        'verifier_field_ops: 641\n'
        'verifier_matvecs: 0\n'
        'verifier_vecmats: 2\n'
        'comm_field_elements: 180\n'
        'rounds: 2\n'
        'bound_check: verifier_field_ops 641 <= 2mu + 2Kn + 2n + links(K) + links(K - 1) + blocks(ceil(delta/K)) = 672: ok\n'
    ),
    'klevel': (
        'protocol: blocked\n'
        'n: 125\n'
        'modulus: 2305843009213693951\n'
        'delta: 250\n'
        'K: 25\n'
        'depth: 2\n'
        'outcome: accept\n'
        'tests: 39\n'
        'soundness_error: 39/2305843009213693951\n'
        'verifier_field_ops: 23116\n'
        'verifier_matvecs: 0\n'
        'verifier_vecmats: 4\n'
        'comm_field_elements: 6462\n'
        'rounds: 6\n'
        'bound_check: verifier_field_ops 23116 <= blocks(ceil(delta/K)) + 5n + 2K + runs(K) + runs(K - 1) = 23375: ok\n'
    ),
    'power-log': (
        'protocol: power\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'power: 13\n'
        'variant: log\n'
        'outcome: accept\n'
        'tests: 6\n'
        'soundness_error: 6/2305843009213693951\n'
        'verifier_field_ops: 384\n'
        'verifier_matvecs: 3\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 100\n'
        'rounds: 3\n'
        'bound_check: verifier_operator_applications 3 <= ceil(log2 d) + 1 = 5: ok\n'
    ),
    'power-single': (
        'protocol: power\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'power: 5\n'
        'variant: single\n'
        'outcome: accept\n'
        'tests: 8\n'
        'soundness_error: 8/2305843009213693951\n'
        'verifier_field_ops: 362\n'
        'verifier_matvecs: 1\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 120\n'
        'rounds: 3\n'
        'bound_check: verifier_operator_applications 1 <= 1 = 1: ok\n'
    ),
    'sequence-log': (
        'protocol: sequence\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'length: 16\n'
        'variant: log\n'
        'outcome: accept\n'
        'tests: 24\n'
        'soundness_error: 24/2305843009213693951\n'
        'verifier_field_ops: 1165\n'
        'verifier_matvecs: 5\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 368\n'
        'rounds: 12\n'
        'bound_check: verifier_field_ops 1165 <= 2 (0.5mu + 4n) ceil(log2 d)^2 + 6d + 2mu + 6n = 2336: ok\n'
    ),
    'sequence-single': (
        'protocol: sequence\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'length: 12\n'
        'variant: single\n'
        'outcome: accept\n'
        'tests: 26\n'
        'soundness_error: 26/2305843009213693951\n'
        'verifier_field_ops: 1225\n'
        'verifier_matvecs: 5\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 379\n'
        'rounds: 12\n'
        'bound_check: verifier_field_ops 1225 <= 2 (mu ceil(log2 d) + 6n ceil(log2 d)^2) + 6d + 2mu + 6n = 2552: ok\n'
    ),
    'sequence-resolvent': (
        'protocol: sequence\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'length: 12\n'
        'variant: resolvent\n'
        'outcome: accept\n'
        'tests: 33\n'
        'soundness_error: 33/2305843009213693951\n'
        'verifier_field_ops: 144\n'
        'verifier_matvecs: 1\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 55\n'
        'rounds: 2\n'
        'bound_check: verifier_field_ops 144 <= mu + 6n + 2L + 2 log2(2L) = 146: ok\n'
    ),
    'combination': (
        'protocol: combination\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'degree: 8\n'
        'variant: single\n'
        'outcome: accept\n'
        'tests: 15\n'
        'soundness_error: 15/2305843009213693951\n'
        'verifier_field_ops: 768\n'
        'verifier_matvecs: 4\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 231\n'
        'rounds: 8\n'
    ),
    'minpoly': (
        'protocol: minpoly\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'projections: 2\n'
        'outcome: accept\n'
        'tests: 68\n'
        'soundness_error: 68/2305843009213693951\n'
        'verifier_field_ops: 351\n'
        'verifier_matvecs: 1\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 86\n'
        'rounds: 3\n'
        'minimal_polynomial: 548539753054089317,1359375698785937107,1313249145315448314,834718443327678060,1503956918676369683,1848878067148747611,2270307478619061623,1864180210099607950,603029113792118109,236686451834978202,1\n'
    ),
    'det': (
        'protocol: det\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'variant: resolvent\n'
        'outcome: accept\n'
        'tests: 68\n'
        'soundness_error: 68/2305843009213693951\n'
        'verifier_field_ops: 373\n'
        'verifier_matvecs: 1\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 96\n'
        'rounds: 3\n'
        'determinant: 548539753054089317\n'
        'bound_check: verifier_field_ops 373 <= attempts (sequence(DA, 2n) + 18n + 4 log2(2n)) + n + 2 = 386: ok\n'
    ),
    'charpoly': (
        'protocol: charpoly\n'
        'n: 10\n'
        'modulus: 2305843009213693951\n'
        'outcome: accept\n'
        'tests: 78\n'
        'soundness_error: 78/2305843009213693951\n'
        'verifier_field_ops: 414\n'
        'verifier_matvecs: 1\n'
        'verifier_vecmats: 0\n'
        'comm_field_elements: 108\n'
        'rounds: 4\n'
        'characteristic_polynomial: 548539753054089317,1359375698785937107,1313249145315448314,834718443327678060,1503956918676369683,1848878067148747611,2270307478619061623,1864180210099607950,603029113792118109,236686451834978202,1\n'
        'bound_check: verifier_field_ops 414 <= det(lambda I - A) + 2n + 1 = 427: ok\n'
    ),
}

GOLDEN_BENCH = {
    'checkpoint': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'blocked,8,verifier,376,3,93,392\n'
        'blocked,10,verifier,485,3,124,505\n'
    ),
    'dense': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'blocked,8,verifier,491,2,149,512\n'
        'blocked,10,verifier,630,2,194,655\n'
    ),
    'klevel:3': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'blocked,8,verifier,396,4,77,400\n'
        'blocked,10,verifier,533,4,105,533\n'
    ),
    'seq-log': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'sequence,8,verifier,947,5,304,1888\n'
        'sequence,10,verifier,1581,9,458,3530\n'
    ),
    'seq-single': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'sequence,8,verifier,947,5,304,2080\n'
        'sequence,10,verifier,1860,6,598,3780\n'
    ),
    'seq-resolvent': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'sequence,8,verifier,132,1,51,134\n'
        'sequence,10,verifier,162,1,63,164\n'
    ),
    'minpoly': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'minpoly,8,verifier,281,1,70,\n'
        'minpoly,10,verifier,351,1,86,\n'
    ),
    'det': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'det,8,verifier,1146,5,331,2206\n'
        'det,10,verifier,50,1,40,4012\n'
    ),
    'charpoly': (
        'protocol,n,role,field_ops,matvecs,comm,predicted_bound\n'
        'charpoly,8,verifier,332,1,88,349\n'
        'charpoly,10,verifier,414,1,108,427\n'
    ),
}


def write_case(tmp_path, n, kind, values):
    mat = random_sparse(n, 3, 23, DEFAULT_PRIME)
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    write_matrix(mat, mtx)
    sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values), "prove")
    kind.run(sess, mat)
    with open(kct, "wb") as fh:
        fh.write(sess.transcript_bytes())
    return mtx, kct


def verify_report(tmp_path, capsys, n, kind, values):
    mtx, kct = write_case(tmp_path, n, kind, values)
    rc = cli.main(["verify", "--matrix", mtx, kct])
    return rc, capsys.readouterr()


def bench_csv(tmp_path, protocol):
    out = tmp_path / "b.csv"
    # --variant only where the protocol reads it
    variant = ["--variant", "log"] * (protocol == "det")
    assert cli.main(["bench", "--protocol", protocol, "--sweep", "8,10",
                     "--seed", "5", *variant, "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name, n, kind, values", CASES,
                         ids=[case[0] for case in CASES])
def test_verify_report_is_golden(tmp_path, capsys, name, n, kind, values):
    rc, out = verify_report(tmp_path, capsys, n, kind, values)
    assert rc == 0, out.err
    assert out.out == GOLDEN_REPORTS[name]


@pytest.mark.parametrize("name, n, kind, values", CASES,
                         ids=[case[0] for case in CASES])
def test_each_session_charges_only_its_own_ledger(name, n, kind, values):
    mat = random_sparse(n, 3, 23, DEFAULT_PRIME)
    spec = FieldSpec(mat.p)
    ps = engine.Session(spec, kind.header(mat, *values), "prove")
    kind.run(ps, mat)
    recorded_header, msgs = engine.parse_transcript(ps.transcript_bytes())
    vs = engine.Session(spec, recorded_header, "verify", recorded=msgs)
    kind.run(vs, mat)
    assert ps.verifier_ledger == vs.prover_ledger == engine.CostLedger()
    assert ps.prover_ledger.field_ops > 0 and vs.verifier_ledger.field_ops > 0


@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("name, case_n, kind, values", CASES,
                         ids=[case[0] for case in CASES])
def test_no_prover_frame_repeats_an_earlier_one(name, case_n, kind, values,
                                                 n):
    # a message the verifier already holds costs bytes and proves nothing
    mat = random_sparse(n, 3, 23, DEFAULT_PRIME)
    sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values), "prove")
    kind.run(sess, mat)
    seen = {}
    for idx, (tag, payload) in enumerate(sess.messages):
        assert payload not in seen, (idx, tag, seen.get(payload))
        seen[payload] = (idx, tag)


@pytest.mark.parametrize("protocol", BENCH_PROTOCOLS)
def test_bench_csv_is_golden(tmp_path, protocol):
    assert bench_csv(tmp_path, protocol) == GOLDEN_BENCH[protocol]


@pytest.mark.parametrize("name, lines", [
    ("power-log", ["protocol: power", "power: 13", "variant: log",
                   "bound_check: verifier_operator_applications 3 <= "
                   "ceil(log2 d) + 1 = 5: ok"]),
    ("power-single", ["protocol: power", "power: 5", "variant: single",
                      "bound_check: verifier_operator_applications 1 <= "
                      "1 = 1: ok"]),
    ("combination", ["protocol: combination", "degree: 8",
                     "variant: single"]),
])
def test_verify_kinds_prove_cannot_emit(tmp_path, capsys, name, lines):
    _, n, kind, values = next(case for case in CASES if case[0] == name)
    rc, out = verify_report(tmp_path, capsys, n, kind, values)
    assert rc == 0, out.err
    report = out.out.splitlines()
    assert "outcome: accept" in report
    for line in lines:
        assert line in report
    # combination has no closed-form bound to check
    has_bound = any(line.startswith("bound_check:") for line in report)
    assert has_bound == (name != "combination")


def verify_header(tmp_path, capsys, tag, params):
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(mat, mtx)
    header = engine.Header(tag, mat.p, mat.n,
                           params + engine.digest_words(mat.digest))
    kct.write_bytes(header.encode())
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    return rc, capsys.readouterr().err


def test_unknown_protocol_tag_exits_two(tmp_path, capsys):
    # 0x05 was the single-variant power kind's own tag
    for tag in (0x7F, 0x05):
        rc, err = verify_header(tmp_path, capsys, tag, (16, 4))
        assert rc == 2
        assert "unknown protocol tag 0x%02x" % tag in err


@pytest.mark.parametrize("tag, params", [
    (BLOCKED.tag, (16,)),
    (BLOCKED.tag, (16, 4, 1, 2)),
    (apps.DET.tag, ()),
    (logdepth.POWER.tag, (5, 3, 2)),
])
def test_wrong_parameter_count_exits_two(tmp_path, capsys, tag, params):
    rc, err = verify_header(tmp_path, capsys, tag, params)
    assert rc == 2
    assert "parameters, expected" in err


def test_kind_header_and_values_roundtrip():
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    for kind, values in ((BLOCKED, (16, 4, 0)),
                         (logdepth.SEQUENCE, (12, "log")),
                         (apps.MINPOLY, (2,)),
                         (apps.DET, ("resolvent",))):
        header = kind.header(mat, *values)
        assert header.tag == kind.tag
        assert kind.values(header) == values
    assert (BLOCKED.header(mat, delta=16, K=4, depth=0)
            == BLOCKED.header(mat, 16, 4, depth=0)
            == BLOCKED.header(mat, 16, 4, 0))
    with pytest.raises(TypeError):
        BLOCKED.header(mat, 16, 4)
    with pytest.raises(TypeError):
        BLOCKED.header(mat, 16, 4, 0, levels=3)


def outside_limits(kind, base, words):
    """(index, end, value just outside it, message part) for each end of
    each of kind's limits, the other values taken from base.

    words is the transcript's size in 64-bit words; None stands for no
    transcript yet, where a WORDS end is the 64-bit word.  Outside a
    choice lie the variants the kind does not run and a name that is no
    variant.
    """
    for i, (k, limit) in enumerate(zip(kind.params, kind.limits)):
        if isinstance(limit, dict):
            others = [v for v in logdepth.VARIANTS if v not in limit]
            for v in others + ["nope"]:
                yield i, next(iter(limit)), v, "%s = %s is not one of %s" % (
                    k, v, ", ".join(limit))
            continue
        low, high = limit
        cap = {None: engine.WORD_MAX,
               engine.WORDS: engine.WORD_MAX if words is None else words}
        cap.update(zip(kind.params[:i], base[:i]))
        cap = cap.get(high, high)
        yield i, low, low - 1, "%s = %d is below its limit %d" % (
            k, low - 1, low)
        yield i, cap, cap + 1, "%s = %d exceeds its limit %s" % (
            k, cap + 1, "%s = %d" % (high, cap) if isinstance(high, str)
            else cap)


def header_words(kind, values):
    """The parameter words of a header stating values, choices by their
    words and other values as they are."""
    return tuple(limit[v] if isinstance(limit, dict) else v
                 for v, limit in zip(values, kind.limits))


def hand_header(kind, mat, words):
    """A header written by hand: kind's tag, mat's statement, and words."""
    return engine.Header(kind.tag, mat.p, mat.n,
                         words + engine.digest_words(mat.digest))


def rule_refuses(kind, mat, values):
    """Why kind's rule refuses values on mat, or None; Kind.header must
    refuse them with that reason, whatever their limits allow."""
    reason = kind.rule and kind.rule(mat.n, *values)
    if reason:
        with pytest.raises(ValueError, match=re.escape(reason)):
            kind.header(mat, *values)
    return reason


def with_value(base, i, v):
    return base[:i] + (v,) + base[i + 1:]


# a statement inside every limit for each kind, blocked once per spelling
# and power once per variant as in CASES, its lengths within the nine to
# eleven words of a header alone; K = 1 stays inside when delta moves to
# either end.  The limits are held one at a time; a statement of depth
# above 1 at K = 1 is inside every limit, and the blocked rule refuses it
# for more levels than its strides hold
VALID = {"checkpoint": (BLOCKED, (8, 1, 0)),
         "dense": (BLOCKED, (8, 1, 1)),
         "klevel": (BLOCKED, (8, 1, 2)),
         "power-log": (logdepth.POWER, (13, "log")),
         "power-single": (logdepth.POWER, (5, "single")),
         "sequence": (logdepth.SEQUENCE, (8, "log")),
         "combination": (logdepth.COMBINATION, (8, "single")),
         "minpoly": (apps.MINPOLY, (2,)),
         "det": (apps.DET, ("resolvent",)),
         "charpoly": (apps.CHARPOLY, ())}


def test_valid_covers_every_kind():
    assert ({kind for kind, _ in VALID.values()}
            == set(cli.KINDS.values()))


@pytest.mark.parametrize("kind, base", VALID.values(), ids=list(VALID))
def test_kind_header_refuses_each_end_of_each_limit(kind, base):
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    for i, end, v, part in outside_limits(kind, base, None):
        inside = with_value(base, i, end)
        if not rule_refuses(kind, mat, inside):
            kind.header(mat, *inside)
        with pytest.raises(ValueError, match=re.escape(part)):
            kind.header(mat, *with_value(base, i, v))


@pytest.mark.parametrize("kind, base", VALID.values(), ids=list(VALID))
def test_verify_refuses_each_end_of_each_limit(tmp_path, capsys, kind, base):
    # a hand-written header alone, so its word count is known in advance;
    # a value a header word cannot hold has no such header
    words = (len(engine.MAGIC) + 1 + 8 * (4 + len(base) + 4)) // 8
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    seen = 0
    for i, end, v, part in outside_limits(kind, base, words):
        inside = with_value(base, i, end)
        raw = header_words(kind, inside)
        header = hand_header(kind, mat, raw)
        assert len(header.encode()) // 8 == words
        reason = rule_refuses(kind, mat, inside)
        if reason:
            # refused with the statement, before any draw
            sess = engine.Session(FieldSpec(mat.p), header, "verify",
                                  recorded=[])
            with pytest.raises(engine.MalformedTranscript,
                               match=re.escape(reason)):
                kind.run(sess, mat)
            assert sess.comm_field_elements == 0
        else:
            assert header == kind.header(mat, *inside)
            kind.values(header, mat, words)
        if isinstance(kind.limits[i], dict):
            # a name the kind does not run has no word of its own
            v = logdepth.VARIANTS.get(v, 9)
            part = "unknown %s code %d" % (kind.params[i], v)
        elif not 0 <= v <= engine.WORD_MAX:
            continue
        raw = with_value(raw, i, v)
        bad = hand_header(kind, mat, raw)
        with pytest.raises(engine.MalformedTranscript, match=re.escape(part)):
            kind.values(bad, mat, words)
        # the library run takes words from the transcript it replays
        sess = engine.Session(FieldSpec(mat.p), bad, "verify", recorded=[])
        with pytest.raises(engine.MalformedTranscript, match=re.escape(part)):
            kind.run(sess, mat)
        start = time.perf_counter()
        rc, err = verify_header(tmp_path, capsys, kind.tag, raw)
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and err.startswith("error:"), (kind.name, v, err)
        assert part in err and "Traceback" not in err, (kind.name, v, err)
        seen += 1
    assert seen >= len(kind.params)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(cli.KINDS.values())), data=st.data())
def test_header_alone_is_malformed_for_any_statement(kind, data):
    # whatever in-limit values the header holds, replaying it with no frame
    # ends in MalformedTranscript at once, never in another exception; only
    # a statement whose honest transcript is the header alone accepts.  A
    # statement the kind's rule refuses has no header but a hand-written one
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    words = (len(engine.MAGIC) + 1 + 8 * (4 + len(kind.params) + 4)) // 8
    known = {None: engine.WORD_MAX, engine.WORDS: words}
    values = []
    for k, limit in zip(kind.params, kind.limits):
        if isinstance(limit, dict):
            values.append(data.draw(st.sampled_from(list(limit)), label=k))
            continue
        low, high = limit
        values.append(data.draw(st.integers(low, known.get(high, high)),
                                label=k))
        known[k] = values[-1]
    spec = FieldSpec(mat.p)
    header = (hand_header(kind, mat, header_words(kind, values))
              if rule_refuses(kind, mat, values)
              else kind.header(mat, *values))
    header, msgs = engine.parse_transcript(header.encode())
    sess = engine.Session(spec, header, "verify", recorded=msgs)
    start = time.perf_counter()
    try:
        outcome, _ = kind.run(sess, mat)
    except engine.MalformedTranscript:
        outcome = None
    assert time.perf_counter() - start < 1.0
    if outcome is not None:
        prover = engine.Session(spec, header, "prove")
        assert kind.run(prover, mat)[0].accepted and prover.messages == []
        assert outcome.accepted


def test_verifying_run_binds_the_matrix():
    # a header names its matrix by modulus, dimension and digest; a
    # verifying run on any other matrix is refused before any draw, even
    # one whose certificate would hold for the matrix it runs on
    a = random_sparse(16, 3, 2, DEFAULT_PRIME)
    b = SparseMatrix(16, a.p, [(i, i, i + 1) for i in range(16)])
    spec = FieldSpec(a.p)
    header = apps.DET.header(a, "single")
    prover = engine.Session(spec, header, "prove")
    assert apps.DET.run(prover, b)[0].accepted
    header2, msgs = engine.parse_transcript(prover.transcript_bytes())
    others = ((b, "digest mismatch"),
              (SparseMatrix(16, 10007, a.triplets), "modulus"),
              (random_sparse(15, 3, 2, a.p), "dimension"))
    for op, part in others:
        verifier = engine.Session(spec, header2, "verify", recorded=msgs)
        with pytest.raises(engine.MalformedTranscript, match=part):
            apps.DET.run(verifier, op)
        assert verifier.comm_field_elements == 0 and verifier._cursor == 0
    # the matrix it names verifies, proved on the right matrix
    prover = engine.Session(spec, header, "prove")
    assert apps.DET.run(prover, a)[0].accepted
    header2, msgs = engine.parse_transcript(prover.transcript_bytes())
    verifier = engine.Session(spec, header2, "verify", recorded=msgs)
    assert apps.DET.run(verifier, a)[0].accepted


@pytest.mark.parametrize("n", [16, 33, 64])
def test_dense_bound_is_ok_at_three_sizes(tmp_path, capsys, n):
    delta = 2 * n
    mu = random_sparse(n, 3, 23, DEFAULT_PRIME).mu
    rc, out = verify_report(tmp_path, capsys, n, BLOCKED,
                            (delta, choose_K(n, delta, mu, 1), 1))
    assert rc == 0, out.err
    (line,) = [x for x in out.out.splitlines() if x.startswith("bound_check")]
    assert line.startswith("bound_check: verifier_field_ops ")
    assert line.endswith(": ok")


def test_every_kind_is_exported_under_its_name():
    for kind in cli.KINDS.values():
        name = kind.name.upper().replace("-", "_")
        assert getattr(kcert, name) is kind and name in kcert.__all__


def test_readme_library_example_runs():
    with open(README) as fh:
        (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "6560\n"


def _limit_text(limit):
    """A parameter's range as README's table of kinds spells it."""
    if isinstance(limit, dict):
        return " or ".join(limit)
    low, high = limit
    return "%d..%s" % (low, "" if high is None else high)


def test_readme_kind_table_matches_the_kinds():
    with open(README) as fh:
        rows = re.findall(r"^\| `0x([0-9a-f]{2})` \| `([a-z-]+)` +\| (.*?) +\|",
                          fh.read(), re.M)
    want = [("%02x" % kind.tag, kind.name,
             ", ".join("`%s` %s" % (k, _limit_text(limit))
                       for k, limit in zip(kind.params, kind.limits))
             or "none")
            for kind in cli.KINDS.values()]
    assert rows == want
