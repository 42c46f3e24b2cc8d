import hashlib
import os
import struct
import subprocess
import sys
import time

import pytest

from kcert import applications as apps, checkpoint, cli, engine, logdepth
from kcert.field import DEFAULT_PRIME, FieldSpec
from kcert.matrix import SparseMatrix, random_sparse, read_matrix, write_matrix
from kcert.oracle import mat_from_sparse
from support import dense_det

CLI = [sys.executable, "-m", "kcert.cli"]


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=full_env)


def frames(header, msgs):
    """Transcript bytes of a header and (tag, payload) prover messages."""
    out = bytearray(header.encode())
    for t, payload in msgs:
        out.append(t)
        out += len(payload).to_bytes(8, "little")
        out += payload
    return bytes(out)


def test_gen_prove_verify_roundtrip(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "m.kct")
    assert run("gen", "--n", "32", "--seed", "3", "--out", mtx).returncode == 0
    r = run("prove", "--matrix", mtx, "--protocol", "checkpoint", "--out", kct)
    assert r.returncode == 0, r.stderr
    v1 = run("verify", "--matrix", mtx, kct)
    assert v1.returncode == 0, v1.stderr
    assert "outcome: accept" in v1.stdout
    assert "bound_check:" in v1.stdout and ": ok" in v1.stdout
    v2 = run("verify", "--matrix", mtx, kct)
    assert v2.stdout == v1.stdout and v2.returncode == 0


def test_all_prove_protocols(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    assert run("gen", "--n", "10", "--seed", "8", "--out", mtx).returncode == 0
    for proto in ("checkpoint", "dense", "klevel:2", "seq-log", "seq-single",
                  "minpoly", "det", "charpoly"):
        r = run("prove", "--matrix", mtx, "--protocol", proto, "--out", kct)
        assert r.returncode == 0, (proto, r.stderr)
        v = run("verify", "--matrix", mtx, kct)
        assert v.returncode == 0, (proto, v.stdout, v.stderr)
        assert "outcome: accept" in v.stdout


def test_reject_exits_one(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    assert run("gen", "--n", "8", "--seed", "1", "--out", mtx).returncode == 0
    mat = read_matrix(mtx)
    spec = FieldSpec(mat.p)
    sess = engine.Session(spec, apps.MINPOLY.header(mat, 1), "prove")
    apps.MINPOLY.run(sess, mat)
    header, msgs = engine.parse_transcript(sess.transcript_bytes())
    # the last frame is the Hankel solution of the generator certificate
    t, payload = msgs[-1]
    assert t == apps.M_HANKEL
    vals = engine.decode_vector(payload, mat.p)
    vals[0] = (vals[0] + 1) % mat.p
    msgs[-1] = (t, engine.encode_vector(vals))
    bad = str(tmp_path / "bad.kct")
    with open(bad, "wb") as fh:
        fh.write(frames(header, msgs))
    v = run("verify", "--matrix", mtx, bad)
    assert v.returncode == 1
    assert "outcome: reject" in v.stdout
    assert "check: generator-hankel" in v.stdout


def test_malformed_exits_two(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    other = str(tmp_path / "other.mtx")
    kct = str(tmp_path / "t.kct")
    assert run("gen", "--n", "8", "--seed", "1", "--out", mtx).returncode == 0
    assert run("gen", "--n", "8", "--seed", "2", "--out", other).returncode == 0
    assert run("prove", "--matrix", mtx, "--out", kct).returncode == 0

    # transcript bound to a different matrix
    v = run("verify", "--matrix", other, kct)
    assert v.returncode == 2 and "digest" in v.stderr

    # truncated transcript
    blob = open(kct, "rb").read()
    trunc = str(tmp_path / "trunc.kct")
    with open(trunc, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    assert run("verify", "--matrix", mtx, trunc).returncode == 2

    # unreadable matrix
    junk = str(tmp_path / "junk.mtx")
    with open(junk, "w") as fh:
        fh.write("not a matrix\n")
    assert run("verify", "--matrix", junk, kct).returncode == 2

    # missing file
    assert run("verify", "--matrix", mtx,
               str(tmp_path / "nope.kct")).returncode == 2


def test_sample_set_env_changes_challenges(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    assert run("gen", "--n", "8", "--seed", "4", "--out", mtx).returncode == 0
    env = {"KCERT_SAMPLE_SET": "4096"}
    assert run("prove", "--matrix", mtx, "--protocol", "checkpoint",
               "--out", kct, env=env).returncode == 0
    v = run("verify", "--matrix", mtx, kct, env=env)
    assert v.returncode == 0
    err = next(line.split(": ")[1] for line in v.stdout.splitlines()
               if line.startswith("soundness_error:"))
    from fractions import Fraction
    assert 4096 % Fraction(err).denominator == 0
    # the header names the smaller set, which the full-field verifier refuses
    v = run("verify", "--matrix", mtx, kct)
    assert v.returncode == 2
    assert ("transcript sample set size 4096 does not match the verifier's "
            "sample set size %d" % DEFAULT_PRIME) in v.stderr


def test_bench_csv(tmp_path):
    mtx_out = str(tmp_path / "b.csv")
    r = run("bench", "--protocol", "checkpoint", "--sweep", "16,24",
            "--seed", "2", "--out", mtx_out)
    assert r.returncode == 0, r.stderr
    lines = open(mtx_out).read().strip().splitlines()
    assert lines[0] == "protocol,n,role,field_ops,matvecs,comm,predicted_bound"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "blocked" and cells[2] == "verifier"
        assert int(cells[3]) <= int(cells[6])


def test_unknown_protocol_exits_two(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    assert run("gen", "--n", "6", "--seed", "0", "--out", mtx).returncode == 0
    r = run("prove", "--matrix", mtx, "--protocol", "wat",
            "--out", str(tmp_path / "t.kct"))
    assert r.returncode == 2


def test_gen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.mtx")
    b = str(tmp_path / "b.mtx")
    assert run("gen", "--n", "20", "--seed", "11", "--out", a).returncode == 0
    assert run("gen", "--n", "20", "--seed", "11", "--out", b).returncode == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_overfull_rows_exits_two(tmp_path):
    r = run("gen", "--n", "4", "--nnz-per-row", "5",
            "--out", str(tmp_path / "m.mtx"))
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_gen_negative_nnz_per_row_names_it(tmp_path, capsys):
    out = tmp_path / "m.mtx"
    assert cli.main(["gen", "--n", "4", "--nnz-per-row", "-1",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: nnz_per_row = -1 is outside 0..4, the distinct columns of a "
        "row\n")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("gen", "--n", "-3", "--nnz-per-row", "0"), "n = -3 is below 1"),
    (("gen", "--n", "0"), "n = 0 is below 1"),
    (("bench", "--protocol", "charpoly", "--sweep", "-4"),
     "--sweep entry -4 is below 1"),
    (("bench", "--sweep", "8,0"), "--sweep entry 0 is below 1"),
    (("bench", "--sweep", "abc"), "--sweep entry 'abc' is not an integer"),
], ids=["gen-negative-n", "gen-zero-n", "sweep-negative", "sweep-zero",
        "sweep-abc"])
def test_size_errors_name_the_size(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("modulus, reason", [
    (1, "modulus out of range (need 2 < p < 2^62)"),
    (2, "modulus out of range (need 2 < p < 2^62)"),
    (4, "modulus 4 is not prime"),
    (3825123056546413051, "modulus 3825123056546413051 is not prime"),
])
def test_gen_refuses_a_modulus_prove_refuses(tmp_path, capsys, modulus,
                                             reason):
    # refused again on a second call, when the primality verdict is memoised
    mtx = tmp_path / "m.mtx"
    for _ in range(2):
        assert cli.main(["gen", "--n", "8", "--modulus", str(modulus),
                         "--out", str(mtx)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % reason
        assert not mtx.exists()


def test_det_of_diagonal_matrix(tmp_path):
    mtx = str(tmp_path / "d.mtx")
    kct = str(tmp_path / "d.kct")
    with open(mtx, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n"
                 "% modulus 101\n"
                 "3 3 3\n"
                 "1 1 2\n"
                 "2 2 3\n"
                 "3 3 5\n")
    r = run("prove", "--matrix", mtx, "--protocol", "det", "--out", kct)
    assert r.returncode == 0, r.stderr
    assert "determinant: 30" in r.stdout
    v = run("verify", "--matrix", mtx, kct)
    assert v.returncode == 0, v.stdout
    assert "determinant: 30" in v.stdout


def test_det_prover_that_cannot_complete_exits_one(tmp_path):
    # over GF(3) every nonzero diagonal D has at most two distinct entries,
    # so D I never has a minimal polynomial of degree 4
    mtx = str(tmp_path / "i3.mtx")
    with open(mtx, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n"
                 "% modulus 3\n"
                 "4 4 4\n"
                 "1 1 1\n"
                 "2 2 1\n"
                 "3 3 1\n"
                 "4 4 1\n")
    r = run("prove", "--matrix", mtx, "--protocol", "det",
            "--out", str(tmp_path / "i3.kct"))
    assert r.returncode == 1
    assert "prover could not complete" in r.stdout
    assert "Traceback" not in r.stderr


def test_small_sample_set_warning_is_one_line(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    write_matrix(random_sparse(8, 3, 4, DEFAULT_PRIME), mtx)
    r = run("prove", "--matrix", mtx, "--protocol", "minpoly",
            "--out", str(tmp_path / "t.kct"), env={"KCERT_SAMPLE_SET": "101"})
    assert r.returncode == 0, r.stderr
    assert r.stderr == ("warning: sample set size 101 is small for n = 8; "
                        "the certified polynomial may be a proper divisor\n")


def test_prove_without_variant_delegates_to_resolvent(tmp_path, capsys):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    write_matrix(random_sparse(12, 3, 4, DEFAULT_PRIME), mtx)
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "det",
                     "--out", kct]) == 0
    assert cli.main(["verify", "--matrix", mtx, kct]) == 0
    assert "variant: resolvent\n" in capsys.readouterr().out
    # bench takes the same default
    out = tmp_path / "b.csv"
    rows = []
    for extra in ([], ["--variant", "resolvent"]):
        assert cli.main(["bench", "--protocol", "det", "--sweep", "8",
                         *extra, "--out", str(out)]) == 0
        rows.append(out.read_text())
    assert rows[0] == rows[1]


def test_singular_det_prove_is_deterministic(tmp_path):
    mat = random_sparse(20, 3, 17, DEFAULT_PRIME)
    assert dense_det(mat_from_sparse(mat), mat.p) == 0
    mtx = str(tmp_path / "s.mtx")
    write_matrix(mat, mtx)
    blobs = []
    for name in ("a.kct", "b.kct"):
        kct = tmp_path / name
        assert cli.main(["prove", "--matrix", mtx, "--protocol", "det",
                         "--out", str(kct)]) == 0
        blobs.append(kct.read_bytes())
    assert blobs[0] == blobs[1]
    assert cli.main(["verify", "--matrix", mtx, str(tmp_path / "a.kct")]) == 0


def test_soundness_error_renders_as_a_fraction(tmp_path, capsys,
                                               monkeypatch):
    # a whole number alone, else in lowest terms: 0 tests (a kernel
    # witness), a bound capped at 1, and 6 tests in 4096
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    singular = random_sparse(20, 3, 17, DEFAULT_PRIME)
    for mat, protocol, size, err in (
            (singular, "det", None, "0"),
            (random_sparse(8, 3, 4, DEFAULT_PRIME), "checkpoint", "2", "1"),
            (random_sparse(8, 3, 4, DEFAULT_PRIME), "checkpoint", "4096",
             "3/2048")):
        if size is None:
            monkeypatch.delenv("KCERT_SAMPLE_SET", raising=False)
        else:
            monkeypatch.setenv("KCERT_SAMPLE_SET", size)
        write_matrix(mat, mtx)
        assert cli.main(["prove", "--matrix", mtx, "--protocol", protocol,
                         "--out", kct]) == 0
        assert cli.main(["verify", "--matrix", mtx, kct]) == 0
        assert "\nsoundness_error: %s\n" % err in capsys.readouterr().out


def test_import_loads_no_dataclasses_or_fractions():
    # a fresh interpreter's `import kcert.cli` pulls in none of these and
    # builds no argument parser; the set-up time of every command pays for
    # what it does at import, and only a split Krylov chain loads mmap
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    code = ("import sys; bare = set(sys.modules); sys.path.insert(0, %r); "
            "import kcert.cli; "
            "print(kcert.cli.build_parser.cache_info().currsize); "
            "print(' '.join(sorted(set(sys.modules) - bare)))" % src)
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    parsers, names = out.split("\n", 1)
    assert parsers == "0"
    loaded = set(names.split())
    assert "kcert.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions",
                              "decimal", "mmap", "multiprocessing"}), \
        sorted(loaded)


def test_bench_empty_sweep(tmp_path):
    out = str(tmp_path / "empty.csv")
    r = run("bench", "--sweep", "", "--out", out)
    assert r.returncode == 0, r.stderr
    lines = open(out).read().splitlines()
    assert lines == ["protocol,n,role,field_ops,matvecs,comm,predicted_bound"]


def test_unknown_variant_code_exits_two(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    bad = str(tmp_path / "bad.kct")
    assert run("gen", "--n", "8", "--seed", "5", "--out", mtx).returncode == 0
    # header: magic(4) tag(1) p(8) n(8) count(8), then 8-byte params; the
    # variant code is param 0 for det and param 1 for seq-single.  Codes 0
    # and 1 named the blocked certificate at depth 0 and 1 while the
    # applications also ran it; a det header carrying either is refused
    for proto, offset, codes in (("det", 29, (0, 1, 9)),
                                 ("seq-single", 37, (9,))):
        assert run("prove", "--matrix", mtx, "--protocol", proto,
                   "--out", kct).returncode == 0
        blob = bytearray(open(kct, "rb").read())
        for code in codes:
            blob[offset] = code
            with open(bad, "wb") as fh:
                fh.write(bytes(blob))
            v = run("verify", "--matrix", mtx, bad)
            assert v.returncode == 2, (proto, code, v.stderr)
            assert "unknown variant code %d" % code in v.stderr


# header and frame fuzz: every `kcert prove --protocol` spelling at n = 16,
# det under each variant, the two library-only kinds, and a singular det
# (random_sparse(64, 3, 7)) that takes the kernel-witness path; each case is
# (id, n, prove arguments or (kind, header values))
FUZZ_CASES = [(proto, 16, ("--protocol", proto)) for proto in (
    "checkpoint", "dense", "klevel", "klevel:3", "seq-log", "seq-single",
    "seq-resolvent", "minpoly", "charpoly")]
FUZZ_CASES += [("det-" + v, 16, ("--protocol", "det", "--variant", v))
               for v in apps.DET.limits[0]]
FUZZ_CASES += [("power-log", 16, (logdepth.POWER, (13, "log"))),
               ("power-single", 16, (logdepth.POWER, (5, "single"))),
               ("combination", 16, (logdepth.COMBINATION, (8, "single"))),
               ("det-singular", 64, ("--protocol", "det"))]

# (case, offset, values): the rewrites known to verify to another statement
# (ROADMAP 6(a)).  A singular det's kernel witness never reads the variant
# word, header parameter 0, so log or single in place of resolvent accepts
WITNESS_VARIANT = ("det-singular", 29, (2, 3))

_BIG = (1 << 63, (1 << 64) - 1)


def fuzz_case(tmp_path, capsys, name, n, how):
    """(matrix path, honest transcript bytes, honest verify report)."""
    mat = random_sparse(n, 3, 7, DEFAULT_PRIME)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(mat, mtx)
    if isinstance(how[0], str):
        assert cli.main(["prove", "--matrix", mtx, *how,
                         "--out", str(kct)]) == 0
    else:
        kind, values = how
        sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values),
                              "prove")
        assert kind.run(sess, mat)[0].accepted
        kct.write_bytes(sess.transcript_bytes())
    capsys.readouterr()
    assert cli.main(["verify", "--matrix", mtx, str(kct)]) == 0
    return mtx, kct.read_bytes(), capsys.readouterr().out


def word_rewrites(blob):
    """(offset, size, value) rewrites of the parameter-count word, every
    header parameter word, each frame's tag and length, and each vector
    payload's count word; no value is the honest one."""
    def near(w, *more):
        return sorted(v for v in {0, w - 1, w + 1, *more, *_BIG} - {w}
                      if 0 <= v <= engine.WORD_MAX)

    count = int.from_bytes(blob[21:29], "little")
    out = [(21, 8, v) for v in near(count)]
    for off in range(29, 29 + 8 * count, 8):
        w = int.from_bytes(blob[off:off + 8], "little")
        out += [(off, 8, v) for v in near(w, 1, 2, 3, 4, 2 * w)]
    heads = []
    off = 29 + 8 * count + 8
    while off < len(blob):
        heads.append((off, blob[off], int.from_bytes(blob[off + 1:off + 9],
                                                     "little")))
        off += 9 + heads[-1][2]
    tags = {tag for _, tag, _ in heads}
    for off, tag, length in heads:
        out += [(off, 1, t)
                for t in sorted((tags | {0, 0xFF, tag ^ 1}) - {tag})]
        out += [(off + 1, 8, v) for v in near(length, length + 8)]
        if length >= 8:  # a vector: its count word leads the payload
            c = int.from_bytes(blob[off + 9:off + 17], "little")
            out += [(off + 9, 8, v) for v in near(c)]
    return out


def verify_rewrite(tmp_path, capsys, mtx, blob, off, size, value):
    bad = tmp_path / "bad.kct"
    bad.write_bytes(blob[:off] + value.to_bytes(size, "little")
                    + blob[off + size:])
    rc = cli.main(["verify", "--matrix", mtx, str(bad)])
    return rc, capsys.readouterr()


def test_header_and_frame_fuzz_never_accepts_another_statement(tmp_path,
                                                               capsys):
    # each rewrite exits 0, 1 or 2, never 3 or with a traceback; exit 1
    # comes with a reject report, and an accept reports the honest
    # statement and value, word for word
    runs = 0
    for name, n, how in FUZZ_CASES:
        mtx, blob, honest = fuzz_case(tmp_path, capsys, name, n, how)
        for off, size, value in word_rewrites(blob):
            if (name, off) == WITNESS_VARIANT[:2] \
                    and value in WITNESS_VARIANT[2]:
                continue
            rc, out = verify_rewrite(tmp_path, capsys, mtx, blob, off, size,
                                     value)
            where = (name, off, value, rc, out.err)
            assert rc in (0, 1, 2), where
            assert "Traceback" not in out.out + out.err, where
            if rc == 0:
                assert out.out == honest, where
            elif rc == 1:
                assert "outcome: reject" in out.out.splitlines(), where
            else:
                assert out.err.startswith("error:"), where
            runs += 1
    assert runs > 2000


def test_matrix_file_fuzz_exits_two(tmp_path, capsys):
    # every truncation of a KMX1 file, bits 0 and 7 of each byte flipped,
    # and each header word rewritten, near 2^63 among the values: verify
    # exits 2 with one error line, never 3.  The file is refused, or its
    # statement is not the transcript's, and nothing sized by a header
    # word is allocated before the file's length and the transcript's
    # header hold that word
    mtx, kct, bad = (str(tmp_path / name)
                     for name in ("m.kmx", "t.kct", "bad.kmx"))
    write_matrix(random_sparse(4, 2, 3, DEFAULT_PRIME), mtx)
    assert cli.main(["prove", "--matrix", mtx, "--out", kct]) == 0
    capsys.readouterr()
    blob = open(mtx, "rb").read()
    variants = [blob[:size] for size in range(len(blob))]
    variants += [blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1:]
                 for at in range(len(blob)) for bit in (1, 128)]
    variants += [blob[:at] + word.to_bytes(8, "little") + blob[at + 8:]
                 for at in (4, 12, 20)
                 for word in (0, 1, 3, 5, 1 << 62, (1 << 63) - 1, 1 << 63,
                              (1 << 64) - 1)]
    for data in variants:
        with open(bad, "wb") as fh:
            fh.write(data)
        rc = cli.main(["verify", "--matrix", bad, kct])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") \
            and err.count("\n") == 1, (data, rc, err)
    assert len(variants) > 600


@pytest.mark.xfail(strict=True, reason="ROADMAP 6(a): a singular det "
                   "transcript does not bind its header's variant word")
def test_singular_det_binds_its_variant_word(tmp_path, capsys):
    name, off, values = WITNESS_VARIANT
    _, n, how = next(case for case in FUZZ_CASES if case[0] == name)
    mtx, blob, honest = fuzz_case(tmp_path, capsys, name, n, how)
    assert "variant: resolvent" in honest.splitlines()
    for value in values:
        rc, out = verify_rewrite(tmp_path, capsys, mtx, blob, off, 8, value)
        assert rc != 0 or out.out == honest, (value, out.out)


def test_kct1_transcript_exits_two(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    assert run("gen", "--n", "8", "--seed", "6", "--out", mtx).returncode == 0
    assert run("prove", "--matrix", mtx, "--out", kct).returncode == 0
    blob = open(kct, "rb").read()
    assert blob[:4] == b"KCT6"
    old = str(tmp_path / "old.kct")
    for magic in (b"KCT1", b"KCT2", b"KCT3", b"KCT4", b"KCT5"):
        with open(old, "wb") as fh:
            fh.write(magic + blob[4:])
        v = run("verify", "--matrix", mtx, old)
        assert v.returncode == 2 and "magic" in v.stderr, magic


@pytest.mark.parametrize("magic", [b"KCT3", b"KCT4", b"KCT5", b"KCT6"])
def test_kct3_power_layout_exits_two(tmp_path, capsys, magic):
    # KCT3 sent A^d v at every power-single level, between A^(2^t) v and
    # A^(2^(t-1)) v, even where it repeated the first; its transcripts are
    # malformed under any magic, never accepted
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(mat, mtx)
    header = logdepth.POWER.header(mat, 8, "single")
    sess = engine.Session(FieldSpec(mat.p), header, "prove")
    assert logdepth.POWER.run(sess, mat)[0].accepted
    old = []
    for tag, payload in sess.messages:
        if tag == logdepth.M_ZP:
            old.append((logdepth.M_Z, old[-1][1]))
        old.append((tag, payload))
    assert (len(sess.messages), len(old)) == (6, 9)  # t = 3 levels
    kct.write_bytes(magic + frames(header, old)[4:])
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    out = capsys.readouterr()
    assert rc == 2 and "outcome: accept" not in out.out
    assert ("magic" if magic != engine.MAGIC else "unexpected message") \
        in out.err


# the header alone bounds every draw and loop: each of these is malformed
# before any work its parameter sets, through `kcert verify` and through the
# library alike; the transcript holds a few words at most
@pytest.mark.parametrize("tag, params, msgs", [
    (logdepth.POWER.tag, (1 << 63, 2), 0),  # (power d, variant)
    (logdepth.POWER.tag, ((1 << 64) - 1, 2), 0),
    (logdepth.POWER.tag, (1 << 63, 3), 0),
    (logdepth.POWER.tag, ((1 << 64) - 1, 3), 0),
    # (delta, K, depth): 63 levels would be 2^62 sub-runs, and even 5 need
    # a K of 16 or more under halving strides
    (checkpoint.BLOCKED.tag, (16, 16, 63), 2),
    (checkpoint.BLOCKED.tag, (16, 4, 5), 2),
    (checkpoint.BLOCKED.tag, (1 << 40, 4, 0), 0),
    (checkpoint.BLOCKED.tag, (4, 1 << 40, 0), 0),
    (checkpoint.BLOCKED.tag, (4, 1 << 40, 1), 2),
    (logdepth.SEQUENCE.tag, (1 << 40, 3), 0),  # (length, variant)
    (logdepth.SEQUENCE.tag, (1 << 40, 3), 3),
    (logdepth.COMBINATION.tag, (1 << 40, 3), 0),  # (degree, variant)
    (logdepth.COMBINATION.tag, (1 << 40, 2), 1),
    # the retired dense and klevel tags, and the blocked kind's header from
    # before it carried its depth
    (0x02, (4, 1 << 40), 2),
    (0x03, (16, 10 ** 6), 0),
    (checkpoint.BLOCKED.tag, (16, 4), 2),
    # minpoly's and charpoly's headers from before they dropped their
    # variant word: (variant, projections) and (variant,)
    (apps.MINPOLY.tag, (4, 1), 3),
    (apps.CHARPOLY.tag, (4,), 3),
], ids=["power-log-2^63", "power-log-2^64-1", "power-single-2^63",
        "power-single-2^64-1", "klevel-depth", "klevel-depth-small-K",
        "checkpoint-delta", "checkpoint-K", "dense-K", "sequence-length",
        "sequence-length-msgs", "combination-degree",
        "combination-degree-msgs", "old-dense-tag", "old-klevel-tag",
        "old-checkpoint-header", "old-minpoly-header",
        "old-charpoly-header"])
def test_huge_header_depth_is_malformed_at_once(tmp_path, capsys, tag, params,
                                                msgs):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    mat = random_sparse(8, 3, 2, DEFAULT_PRIME)
    write_matrix(mat, mtx)
    header = engine.Header(tag, mat.p, mat.n,
                           params + engine.digest_words(mat.digest))
    recorded = [(0x30, engine.encode_vector([1] * mat.n))] * msgs
    with open(kct, "wb") as fh:
        fh.write(frames(header, recorded))
    start = time.perf_counter()
    rc = cli.main(["verify", "--matrix", mtx, kct])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if tag not in cli.KINDS:
        assert "unknown protocol tag" in err
        return
    # no size argument: the run takes it from the frames it replays
    sess = engine.Session(FieldSpec(mat.p), header, "verify",
                          recorded=recorded)
    start = time.perf_counter()
    with pytest.raises(engine.MalformedTranscript):
        cli.KINDS[tag].run(sess, mat)
    assert time.perf_counter() - start < 1.0
    # a blocked statement is held to its strides before any draw
    assert tag != checkpoint.BLOCKED.tag or sess.comm_field_elements == 0


def test_prove_refuses_block_longer_than_sequence(tmp_path, capsys):
    # verify would refuse K > delta, so prove does not write the transcript
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(random_sparse(8, 3, 2, DEFAULT_PRIME), mtx)
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "checkpoint",
                     "--delta", "4", "--K", "5", "--out", str(kct)]) == 2
    assert "parameter K = 5 exceeds its limit delta = 4" in (
        capsys.readouterr().err)
    assert not kct.exists()


@pytest.mark.parametrize("args, part", [
    (("--protocol", "checkpoint", "--K", "-3"), "K = -3 is below its limit 1"),
    (("--protocol", "checkpoint", "--K", "0"), "K = 0 is below its limit 1"),
    (("--protocol", "minpoly", "--projections", "-1"),
     "projections = -1 is below its limit 1"),
    (("--protocol", "klevel:-1"),
     "klevel:k needs an integer k from 2 to 64, not '-1'"),
    (("--protocol", "klevel:0"),
     "klevel:k needs an integer k from 2 to 64, not '0'"),
    (("--protocol", "klevel:abc"),
     "klevel:k needs an integer k from 2 to 64, not 'abc'"),
    (("--protocol", "klevel:65"),
     "klevel:k needs an integer k from 2 to 64, not '65'"),
    # refused as it is read, before any schedule is tried
    (("--protocol", "klevel:1000000000000"),
     "klevel:k needs an integer k from 2 to 64, not '1000000000000'"),
    (("--protocol", "checkpoint", "--delta", "-2"), "--delta -2 is below 1"),
    (("--protocol", "checkpoint", "--delta", "0"), "--delta 0 is below 1"),
], ids=["K", "K-zero", "projections", "klevel", "klevel-zero", "klevel-abc",
        "klevel-65", "klevel-huge", "delta", "delta-zero"])
def test_prove_refuses_negative_parameters(tmp_path, capsys, args, part):
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(random_sparse(8, 3, 2, DEFAULT_PRIME), mtx)
    assert cli.main(["prove", "--matrix", mtx, *args,
                     "--out", str(kct)]) == 2
    err = capsys.readouterr().err
    # one line naming the parameter, never "internal error" (exit 3)
    assert err.startswith("error:") and part in err and err.count("\n") == 1
    assert not kct.exists()


# a value each option would accept from a protocol that reads it
VALID = {"--K": "4", "--delta": "4", "--variant": "log", "--projections": "2"}


@pytest.mark.parametrize("option, protocol", [
    ("--K", "seq-log"), ("--K", "seq-single"), ("--K", "minpoly"),
    ("--K", "det"), ("--K", "charpoly"), ("--delta", "minpoly"),
    ("--delta", "det"), ("--delta", "charpoly"), ("--K", "klevel:3"),
    ("--variant", "checkpoint"), ("--variant", "dense"),
    ("--variant", "klevel:3"), ("--variant", "seq-log"),
    ("--variant", "seq-single"), ("--variant", "minpoly"),
    ("--variant", "charpoly"), ("--projections", "checkpoint"),
    ("--projections", "seq-single"), ("--projections", "det"),
    ("--projections", "charpoly")])
def test_prove_refuses_an_option_its_protocol_does_not_read(
        tmp_path, capsys, option, protocol):
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(random_sparse(8, 3, 2, DEFAULT_PRIME), mtx)
    error = ("error: %s does not apply to --protocol %s\n"
             % (option, protocol.partition(":")[0]))
    # --variant is refused whichever variant it names, and bench, which
    # takes no other statement option, refuses it likewise
    values = (list(apps.DET.limits[0]) if option == "--variant"
              else [VALID[option]])
    for value in values:
        assert cli.main(["prove", "--matrix", mtx, "--protocol", protocol,
                         option, value, "--out", str(kct)]) == 2
        assert capsys.readouterr().err == error
        assert not kct.exists()
        if option == "--variant":
            assert cli.main(["bench", "--protocol", protocol, "--sweep", "6",
                             option, value, "--out", str(kct)]) == 2
            assert capsys.readouterr().err == error
            assert not kct.exists()


@pytest.mark.parametrize("k, K", [(3, 16), (4, 27), (5, 24)])
def test_klevel_bound_holds_at_depth_k_minus_one(tmp_path, capsys, k, K):
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    write_matrix(random_sparse(64, 3, 2024, DEFAULT_PRIME), mtx)
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "klevel:%d" % k,
                     "--out", kct]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--matrix", mtx, kct]) == 0
    report = capsys.readouterr().out.splitlines()
    assert "K: %d" % K in report and "depth: %d" % (k - 1) in report
    (line,) = [x for x in report if x.startswith("bound_check:")]
    assert line.startswith("bound_check: verifier_field_ops ")
    assert line.endswith(": ok")


@pytest.mark.parametrize("size", ["0", "1", "-5", "abc"])
def test_prove_refuses_sample_set_below_two(tmp_path, capsys, monkeypatch,
                                            size):
    # 0 is a size like any other, not "unset": an unset variable means the
    # whole field.  prove and verify name the variable and its value
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(random_sparse(8, 3, 2, DEFAULT_PRIME), mtx)
    monkeypatch.delenv("KCERT_SAMPLE_SET", raising=False)
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "checkpoint",
                     "--out", str(kct)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("KCERT_SAMPLE_SET", size)
    reason = ("invalid literal for int() with base 10: 'abc'"
              if size == "abc" else "sample set size must lie in [2, p]")
    out = tmp_path / "u.kct"
    for argv in (["prove", "--matrix", mtx, "--protocol", "checkpoint",
                  "--out", str(out)], ["verify", "--matrix", mtx, str(kct)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: KCERT_SAMPLE_SET=%s: %s\n" % (size, reason)
    assert not out.exists()


def test_prove_spells_klevel_levels_one_way(tmp_path, capsys):
    # klevel:3 at n = 27 delegates over strides 3 and 9
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(random_sparse(27, 3, 2, DEFAULT_PRIME), mtx)
    with pytest.raises(SystemExit) as exc:
        cli.main(["prove", "--matrix", mtx, "--protocol", "klevel",
                  "--levels", "3", "--out", str(kct)])
    assert exc.value.code == 2
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "klevel:3",
                     "--out", str(kct)]) == 0
    assert cli.main(["verify", "--matrix", mtx, str(kct)]) == 0
    out = capsys.readouterr().out
    assert "K: 9\ndepth: 2\n" in out and "levels" not in out


def test_main_reuses_its_parser(tmp_path, capsys):
    # the same calls in one process give the same output, exit codes and
    # usage errors whether the parser is built once or anew for every call
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    write_matrix(random_sparse(27, 3, 2, DEFAULT_PRIME), mtx)
    calls = [
        ["prove", "--matrix", mtx, "--protocol", "klevel", "--levels", "3",
         "--out", kct],
        ["prove", "--matrix", mtx, "--protocol", "klevel:3", "--out", kct],
        ["prove", "--matrix", mtx, "--protocol", "charpoly", "--variant",
         "log", "--out", kct],
        ["bench", "--protocol", "det", "--sweep", "6"],
        ["gen", "--n", "8", "--seed", "4", "--out", str(tmp_path / "g.kmx")],
        ["verify", "--matrix", mtx, kct],
    ]
    builds = cli.build_parser.cache_info

    def session(fresh):
        cli.build_parser.cache_clear()
        results = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = ("exit", e.code)
            results.append((rc, *capsys.readouterr()))
        return results

    once = session(fresh=False)
    assert builds().misses == 1 and builds().hits == len(calls) - 1
    assert session(fresh=True) == once
    assert builds().misses == 1 and builds().hits == 0
    assert [r[0] for r in once] == [("exit", 2), 0, 2, 0, 0, 0]
    usage = once[0][2]
    assert usage.startswith("usage: kcert [-h]")
    assert "unrecognized arguments: --levels 3" in usage
    assert once[2][2] == ("error: --variant does not apply to --protocol "
                          "charpoly\n")
    assert "outcome: accept" in once[5][1]


@pytest.mark.parametrize("exc, rc", [(ZeroDivisionError("boom"), 3),
                                     (KeyboardInterrupt(), None)])
def test_internal_error_exits_three(tmp_path, capsys, monkeypatch, exc, rc):
    # an exception outside the input errors is a fault of kcert itself: one
    # stderr line and exit 3, no traceback; an interrupt is not caught
    mtx = str(tmp_path / "m.mtx")
    kct = str(tmp_path / "t.kct")
    write_matrix(random_sparse(8, 3, 2, DEFAULT_PRIME), mtx)
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "checkpoint",
                     "--out", kct]) == 0
    capsys.readouterr()

    def runner(sess, op, *values):
        raise exc

    kind = cli.KINDS[checkpoint.BLOCKED.tag]
    monkeypatch.setitem(cli.KINDS, kind.tag, kind._replace(runner=runner))
    if rc is None:
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify", "--matrix", mtx, kct])
        return
    assert cli.main(["verify", "--matrix", mtx, kct]) == rc
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: boom\n"


def forged_verify(tmp_path, capsys, mat, kind, values, tamper):
    """Exit code and stdout of `kcert verify` on a prove-mode forgery."""
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "forged.kct"
    write_matrix(mat, mtx)
    sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values),
                          "prove", tamper=tamper)
    kind.run(sess, mat)
    kct.write_bytes(sess.transcript_bytes())
    capsys.readouterr()
    rc = cli.main(["verify", "--matrix", mtx, str(kct)])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("n, values", [
    (12, (32, 5, 0)), (12, (32, 5, 1)), (27, (60, 9, 2))],
    ids=["checkpoint", "dense", "klevel"])
def test_s_cut_back_to_delta_is_malformed(tmp_path, capsys, n, values):
    # each delta leaves the last block partly past s[delta]; the top-level
    # s frame cut back to s[delta] has the wrong length
    mat = random_sparse(n, 3, 5, DEFAULT_PRIME)
    delta = values[0]
    kind = checkpoint.BLOCKED
    sess = engine.Session(FieldSpec(mat.p), kind.header(mat, *values), "prove")
    kind.run(sess, mat)
    header, msgs = engine.parse_transcript(sess.transcript_bytes())
    at = [tag for tag, _ in msgs].index(checkpoint.M_S)
    s = engine.decode_vector(msgs[at][1], mat.p)
    assert len(s) > delta + 1
    msgs[at] = (checkpoint.M_S, engine.encode_vector(s[:delta + 1]))
    vs = engine.Session(FieldSpec(mat.p), header, "verify", recorded=msgs)
    with pytest.raises(engine.MalformedTranscript, match="wrong length"):
        kind.run(vs, mat)
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "cut.kct"
    write_matrix(mat, mtx)
    kct.write_bytes(header.encode() + b"".join(
        struct.pack("<BQ", tag, len(payload)) + payload
        for tag, payload in msgs))
    capsys.readouterr()
    assert cli.main(["verify", "--matrix", mtx, str(kct)]) == 2
    assert capsys.readouterr().err == "error: vector message has wrong length\n"


def test_fiat_shamir_forged_kernel_witness_rejects(tmp_path, capsys):
    # the forger claims singularity of a nonsingular matrix; the honest
    # prover has no witness to send, so the hook supplies one outside the
    # kernel, and the challenges that follow hash the forged bytes
    n = 12
    base = random_sparse(n, 3, 12, DEFAULT_PRIME)
    mat = SparseMatrix(n, base.p, base.triplets + tuple(
        (i, i, 1) for i in range(n)))
    assert dense_det(mat_from_sparse(mat), mat.p) != 0
    w = [1] + [0] * (n - 1)
    assert any(mat.apply(w))
    seen = []

    def forge(idx, tag, payload):
        seen.append((tag, payload))
        if tag == apps.M_MODE:
            return engine.encode_mode(1)
        if tag == apps.M_WITNESS:
            return engine.encode_vector(w)
        return payload

    rc, out = forged_verify(tmp_path, capsys, mat, apps.DET, ("single",),
                            forge)
    assert seen == [(apps.M_MODE, engine.encode_mode(0)),
                    (apps.M_WITNESS, None)]
    assert rc == 1
    assert "outcome: reject" in out and "check: kernel-witness" in out


def test_fiat_shamir_forged_sequence_entry_rejects(tmp_path, capsys):
    mat = random_sparse(16, 3, 5, DEFAULT_PRIME)
    state = {"done": False}

    def forge(idx, tag, payload):
        if tag == logdepth.M_SEQ and not state["done"]:
            state["done"] = True
            vals = engine.decode_vector(payload, mat.p)
            vals[3] = (vals[3] + 1) % mat.p
            return engine.encode_vector(vals)
        return payload

    rc, out = forged_verify(tmp_path, capsys, mat, logdepth.SEQUENCE,
                            (32, "single"), forge)
    assert state["done"]
    assert rc == 1
    assert "outcome: reject" in out
    assert "check: seq-low-combination" in out

# SHA-256 of transcripts written by `kcert prove` on seeded matrices.  The
# operator kernel and the codec may change how results are computed, never
# the bytes: a different digest means a different transcript.
# random_sparse(20, 3, 17) is singular: det-singular pins the kernel-witness
# path, whose bytes also hold the witness the prover found.
TRANSCRIPT_PINS = (
    ("checkpoint", 40, False, ("--protocol", "checkpoint"),
     "a113b4ba125e55b806a3d9ff21b20297a1dc6a8b8e6c1f8d49ae3b1be8e49739"),
    ("seq-single", 24, False, ("--protocol", "seq-single"),
     "37875c2137b439c6f6936ae6f6fb765a870736a10bb5bfb0f00187aef159f300"),
    ("seq-resolvent", 24, False, ("--protocol", "seq-resolvent"),
     "3574dadbdfd316d0f168f92ca5e3ca5f9c17b51794ac261263b9ebfbf888d8bd"),
    ("det", 20, True, ("--protocol", "det"),
     "03203293021c208134f3699e340af809218582f2099cbf228b11641190a4f131"),
    ("det-single", 20, True, ("--protocol", "det", "--variant", "single"),
     "5dfdcc05e9a098ef04e1236316884d78aeec1e55dbb3c3718339a661a3f74826"),
    ("det-singular", 20, False, ("--protocol", "det"),
     "fff85561de0cd59b236f6fc6291c83bd6ac83b3c6f7eb3479c5fa14d11c36e78"),
    ("charpoly", 12, False, ("--protocol", "charpoly"),
     "03560c08412f363f556471ae30fa44eceff23de28f7adbb6cb79bc98f65654cc"),
)


@pytest.mark.parametrize("name, n, plus_identity, args, sha", TRANSCRIPT_PINS,
                         ids=[pin[0] for pin in TRANSCRIPT_PINS])
def test_transcript_bytes_are_pinned(tmp_path, name, n, plus_identity, args,
                                     sha):
    mat = random_sparse(n, 3, 17, DEFAULT_PRIME)
    if plus_identity:
        mat = SparseMatrix(n, mat.p, mat.triplets + tuple(
            (i, i, 1) for i in range(n)))
    mtx = str(tmp_path / "m.mtx")
    kct = tmp_path / "t.kct"
    write_matrix(mat, mtx)
    assert cli.main(["prove", "--matrix", mtx, *args, "--out", str(kct)]) == 0
    assert hashlib.sha256(kct.read_bytes()).hexdigest() == sha


def write_identity_gf3(path):
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n"
                 "% modulus 3\n"
                 "4 4 4\n"
                 "1 1 1\n"
                 "2 2 1\n"
                 "3 3 1\n"
                 "4 4 1\n")


def test_failed_prove_writes_no_transcript(tmp_path, capsys):
    # the det prover cannot complete on I over GF(3), as above
    mtx = str(tmp_path / "i3.mtx")
    write_identity_gf3(mtx)
    kct = tmp_path / "i3.kct"
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "det",
                     "--out", str(kct)]) == 1
    assert not kct.exists()
    assert "transcript:" not in capsys.readouterr().out
    # an existing file at the out path is left as it was
    kct.write_bytes(b"keep")
    assert cli.main(["prove", "--matrix", mtx, "--protocol", "det",
                     "--out", str(kct)]) == 1
    assert kct.read_bytes() == b"keep"


def test_prove_has_no_seed_option(tmp_path):
    mtx = str(tmp_path / "m.mtx")
    write_matrix(random_sparse(6, 3, 0, DEFAULT_PRIME), mtx)
    with pytest.raises(SystemExit) as exc:
        cli.main(["prove", "--matrix", mtx, "--seed", "1",
                  "--out", str(tmp_path / "t.kct")])
    assert exc.value.code == 2


def test_bench_refuses_variant_for_a_sequence_protocol(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert cli.main(["bench", "--protocol", "checkpoint", "--sweep", "6",
                     "--variant", "log", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --variant does not apply to --protocol checkpoint\n")
    assert not out.exists()


def test_bench_unknown_variant_exits_two():
    r = run("bench", "--protocol", "det", "--variant", "nope", "--sweep", "6")
    assert r.returncode == 2
    assert "invalid choice: 'nope'" in r.stderr
    assert "Traceback" not in r.stderr
