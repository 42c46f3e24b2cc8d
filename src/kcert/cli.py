"""Command line front end.

Four subcommands:

  gen      write a random sparse matrix in Matrix Market form
  prove    run the prover over a matrix and write a transcript
  verify   replay a transcript against its matrix and print a report
  bench    sweep matrix sizes and emit verifier cost rows as CSV

verify exits 0 on accept, 1 on reject, and 2 when the input cannot be
interpreted at all (bad file, wrong matrix, mangled transcript).  The
report is plain ``key: value`` lines and is deterministic for a given
matrix and transcript.

The environment variable KCERT_SAMPLE_SET overrides the challenge sample
set size on both sides; leave it unset to draw from the whole field.
"""

import argparse
import os
import sys

from . import applications, checkpoint, engine, logdepth, recursive
from .field import DEFAULT_PRIME, FieldSpec
from .logdepth import VARIANT_NAMES
from .matrix import ParseError, random_sparse, read_matrix, write_matrix
from .sequence import (checkpoint_verifier_bound, choose_K, choose_K_dense,
                       seq_log_verifier_reference, seq_single_verifier_reference)


def _make_spec(p):
    raw = os.environ.get("KCERT_SAMPLE_SET")
    return FieldSpec(p, int(raw)) if raw else FieldSpec(p)


def _emit(lines):
    for key, val in lines:
        print("%s: %s" % (key, val))


def _ops_total(led):
    return led.matvec_count + led.vecmat_count


def _bound_line(label, got, formula, bound):
    state = "ok" if got <= bound else "exceeded"
    return ("bound_check",
            "%s %d <= %s = %d: %s" % (label, got, formula, bound, state))


def _variant(vcode):
    if vcode not in VARIANT_NAMES:
        raise engine.MalformedTranscript("unknown variant code %d" % vcode)
    return VARIANT_NAMES[vcode]


class _Plan:
    """Everything the prove and verify paths share for one transcript kind."""

    def __init__(self, name, runner, params, bounds=None, value_key=None):
        self.name = name
        self.runner = runner
        self.params = params
        self.bounds = bounds or (lambda sess: [])
        self.value_key = value_key


def _protocol_plan(header, mat):
    tag = header.tag
    par = header.params[:-4]
    n, mu = mat.n, mat.mu

    if tag == engine.T_CHECKPOINT:
        delta, K = par
        return _Plan(
            "checkpoint",
            lambda sess: checkpoint.run_checkpoint(sess, mat, delta, K),
            [("delta", delta), ("K", K)],
            lambda sess: [_bound_line(
                "verifier_field_ops", sess.verifier_ledger.field_ops,
                "2K(mu+n) + ceil(delta/K)(2K+6n)",
                checkpoint_verifier_bound(n, mu, delta, K))])

    if tag == engine.T_DENSE:
        delta, K = par
        return _Plan(
            "dense",
            lambda sess: checkpoint.run_dense(sess, mat, delta, K),
            [("delta", delta), ("K", K)])

    if tag == engine.T_KLEVEL:
        delta, k = par
        return _Plan(
            "klevel",
            lambda sess: recursive.run_klevel(sess, mat, delta, k),
            [("delta", delta), ("levels", k)])

    if tag == engine.T_POWER_LOG:
        (d,) = par
        logd = max(1, (d - 1).bit_length()) if d > 1 else 1
        return _Plan(
            "power-log",
            lambda sess: logdepth.run_power_log(sess, mat, d),
            [("power", d)],
            lambda sess: [_bound_line(
                "verifier_operator_applications",
                _ops_total(sess.verifier_ledger),
                "ceil(log2 d) + 1", logd + 1)])

    if tag == engine.T_POWER_SINGLE:
        d, t = par
        return _Plan(
            "power-single",
            lambda sess: logdepth.run_power_single(sess, mat, d, t),
            [("power", d), ("depth", t)],
            lambda sess: [_bound_line(
                "verifier_operator_applications",
                _ops_total(sess.verifier_ledger), "1", 1)])

    if tag in (engine.T_SEQUENCE, engine.T_COMBINATION):
        d, vcode = par
        variant = _variant(vcode)
        if tag == engine.T_COMBINATION:
            return _Plan(
                "combination",
                lambda sess: logdepth.run_combination(sess, mat, d, variant),
                [("degree", d), ("variant", variant)])
        ref = (seq_log_verifier_reference if variant == "log"
               else seq_single_verifier_reference)(n, mu, d)
        formula = ("2 (0.5mu + 4n) log2(d)^2" if variant == "log"
                   else "2 (mu log2(d) + 6n log2(d)^2)")
        return _Plan(
            "sequence",
            lambda sess: logdepth.run_sequence(sess, mat, d, variant),
            [("length", d), ("variant", variant)],
            lambda sess: [_bound_line(
                "verifier_field_ops", sess.verifier_ledger.field_ops,
                formula, int(2 * ref))])

    if tag == engine.T_MINPOLY:
        vcode, projections = par
        variant = _variant(vcode)
        box = {}

        def runner(sess):
            out, val = applications.run_minpoly(sess, mat, variant, projections)
            box["value"] = val
            return out
        plan = _Plan("minpoly", runner,
                     [("variant", variant), ("projections", projections)],
                     value_key="minimal_polynomial")
        plan.box = box
        return plan

    if tag == engine.T_DET:
        (vcode,) = par
        variant = _variant(vcode)
        box = {}

        def runner(sess):
            out, val = applications.run_det(sess, mat, variant)
            box["value"] = val
            return out
        plan = _Plan("det", runner, [("variant", variant)],
                     value_key="determinant")
        plan.box = box
        return plan

    if tag == engine.T_CHARPOLY:
        (vcode,) = par
        variant = _variant(vcode)
        box = {}

        def runner(sess):
            out, val = applications.run_charpoly(sess, mat, variant)
            box["value"] = val
            return out
        plan = _Plan("charpoly", runner, [("variant", variant)],
                     value_key="characteristic_polynomial")
        plan.box = box
        return plan

    raise engine.MalformedTranscript("unknown protocol tag 0x%02x" % tag)


def _prove_header(mat, args):
    proto = args.protocol
    levels = args.levels
    if proto.startswith("klevel:"):
        levels = int(proto.split(":", 1)[1])
        proto = "klevel"
    delta = args.delta if args.delta else 2 * mat.n

    if proto == "checkpoint":
        K = args.K if args.K else choose_K(mat.n, delta, mat.mu)
        return checkpoint.checkpoint_header(mat, delta, K)
    if proto == "dense":
        K = args.K if args.K else choose_K_dense(delta)
        return checkpoint.dense_header(mat, delta, K)
    if proto == "klevel":
        return recursive.klevel_header(mat, delta, levels if levels else 2)
    if proto == "seq-log":
        return logdepth.sequence_header(mat, delta, "log")
    if proto == "seq-single":
        return logdepth.sequence_header(mat, delta, "single")
    if proto == "minpoly":
        return applications.minpoly_header(mat, args.variant, args.projections)
    if proto == "det":
        return applications.det_header(mat, args.variant)
    if proto == "charpoly":
        return applications.charpoly_header(mat, args.variant)
    raise ParseError("unknown protocol %r" % (proto,))


def _check_header(header, mat):
    if header.p != mat.p:
        raise engine.MalformedTranscript(
            "transcript modulus %d does not match matrix modulus %d"
            % (header.p, mat.p))
    if header.n != mat.n:
        raise engine.MalformedTranscript(
            "transcript dimension %d does not match matrix dimension %d"
            % (header.n, mat.n))
    if header.params[-4:] != engine.digest_words(mat.digest):
        raise engine.MalformedTranscript(
            "transcript was made for a different matrix (digest mismatch)")


def cmd_gen(args):
    mat = random_sparse(args.n, args.nnz_per_row, args.seed, args.modulus)
    write_matrix(mat, args.out)
    print("wrote %s: n=%d nnz=%d modulus=%d" % (args.out, mat.n, mat.nnz, mat.p))
    return 0


def cmd_prove(args):
    mat = read_matrix(args.matrix)
    spec = _make_spec(mat.p)
    header = _prove_header(mat, args)
    plan = _protocol_plan(header, mat)
    sess = engine.Session(spec, header, "prove")
    outcome = plan.runner(sess)
    blob = sess.transcript_bytes()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print("protocol: %s" % plan.name)
    print("transcript: %s (%d bytes)" % (args.out, len(blob)))
    if not outcome.accepted:
        print("prover could not complete: %s at %r"
              % (outcome.check_id, outcome.location))
        return 1
    if plan.value_key is not None:
        val = plan.box.get("value")
        rendered = (",".join(str(c) for c in val)
                    if isinstance(val, list) else str(val))
        print("%s: %s" % (plan.value_key, rendered))
    return 0


def cmd_verify(args):
    mat = read_matrix(args.matrix)
    with open(args.transcript, "rb") as fh:
        blob = fh.read()
    header, msgs = engine.parse_transcript(blob)
    _check_header(header, mat)
    plan = _protocol_plan(header, mat)
    spec = _make_spec(mat.p)
    sess = engine.Session(spec, header, "verify", recorded=msgs)
    outcome = plan.runner(sess)

    lines = [("protocol", plan.name), ("n", mat.n), ("modulus", mat.p)]
    lines += plan.params
    if not outcome.accepted:
        lines += [("outcome", "reject"),
                  ("check", outcome.check_id),
                  ("location", ",".join(str(x) for x in outcome.location))]
        _emit(lines)
        return 1
    led = sess.verifier_ledger
    lines += [
        ("outcome", "accept"),
        ("tests", outcome.num_tests),
        ("soundness_error", outcome.soundness_error_bound),
        ("verifier_field_ops", led.field_ops),
        ("verifier_matvecs", led.matvec_count),
        ("verifier_vecmats", led.vecmat_count),
        ("comm_field_elements", sess.comm_field_elements),
        ("rounds", sess.rounds),
    ]
    if plan.value_key is not None:
        val = plan.box.get("value")
        rendered = (",".join(str(c) for c in val)
                    if isinstance(val, list) else str(val))
        lines.append((plan.value_key, rendered))
    lines += plan.bounds(sess)
    _emit(lines)
    return 0


def cmd_bench(args):
    sizes = [int(tok) for tok in args.sweep.split(",") if tok]
    rows = []
    for idx, n in enumerate(sizes):
        mat = random_sparse(n, args.nnz_per_row, args.seed + idx, args.modulus)
        ns = argparse.Namespace(protocol=args.protocol, delta=0, K=0,
                                levels=0, variant=args.variant,
                                projections=1)
        header = _prove_header(mat, ns)
        plan = _protocol_plan(header, mat)
        spec = _make_spec(mat.p)
        ps = engine.Session(spec, header, "prove")
        plan.runner(ps)
        h2, msgs = engine.parse_transcript(ps.transcript_bytes())
        vs = engine.Session(spec, h2, "verify", recorded=msgs)
        outcome = plan.runner(vs)
        if not outcome.accepted:
            raise engine.MalformedTranscript(
                "bench roundtrip rejected at %s" % outcome.check_id)
        led = vs.verifier_ledger
        bound = ""
        blines = plan.bounds(vs)
        if blines:
            bound = blines[0][1].rsplit("= ", 1)[1].split(":")[0].strip()
        rows.append((plan.name, n, "verifier", led.field_ops,
                     _ops_total(led), vs.comm_field_elements, bound))
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("protocol,n,role,field_ops,matvecs,comm,predicted_bound\n")
        for row in rows:
            out.write(",".join(str(x) for x in row) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kcert",
        description="interactive certificates for sparse matrix sequences")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random sparse matrix")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--nnz-per-row", type=int, default=3)
    g.add_argument("--modulus", type=int, default=DEFAULT_PRIME)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    pr = sub.add_parser("prove", help="produce a transcript")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--protocol", default="seq-single",
                    help="checkpoint | dense | klevel[:k] | seq-log | "
                         "seq-single | minpoly | det | charpoly")
    pr.add_argument("--delta", type=int, default=0,
                    help="sequence length (default 2n)")
    pr.add_argument("--K", type=int, default=0,
                    help="checkpoint spacing (default: balanced choice)")
    pr.add_argument("--levels", type=int, default=0,
                    help="recursion levels for klevel")
    pr.add_argument("--variant", default="single",
                    choices=("checkpoint", "dense", "log", "single"),
                    help="sequence sub-protocol for minpoly/det/charpoly")
    pr.add_argument("--seed", type=int, default=0,
                    help="accepted for interface stability; transcripts "
                         "are deterministic, so this has no effect")
    pr.add_argument("--projections", type=int, default=1,
                    help="independent projections for minpoly")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_prove)

    vf = sub.add_parser("verify", help="check a transcript")
    vf.add_argument("--matrix", required=True)
    vf.add_argument("transcript")
    vf.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="sweep sizes, print verifier costs")
    b.add_argument("--protocol", default="checkpoint")
    b.add_argument("--sweep", required=True, help="comma separated sizes")
    b.add_argument("--nnz-per-row", type=int, default=3)
    b.add_argument("--modulus", type=int, default=DEFAULT_PRIME)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--variant", default="single")
    b.add_argument("--out", default="")
    b.set_defaults(func=cmd_bench)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, engine.MalformedTranscript, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
