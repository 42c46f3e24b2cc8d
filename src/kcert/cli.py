"""Command line front end.

Four subcommands:

  gen      write a random sparse matrix as a KMX1 file
  prove    run the prover over a matrix and write a transcript
  verify   replay a transcript against its matrix and print a report
  bench    sweep matrix sizes and emit verifier cost rows as CSV

verify exits 0 on accept, 1 on reject, and 2 when the input cannot be
interpreted at all (bad file, wrong matrix, mangled transcript).  Any other
exception is an internal error: every subcommand then prints one
``internal error: <Type>: <message>`` line to stderr, with no traceback,
and exits 3.  A warning, such as minpoly's about a small sample set, is one
``warning: <message>`` line on stderr.  The report is plain ``key: value``
lines and is deterministic for a given matrix and transcript.

The environment variable KCERT_SAMPLE_SET sets the challenge sample set
size; leave it unset to draw from the whole field.  `prove` writes it into
the transcript header, and `verify` refuses (exit 2) a header whose sample
set differs from its own.
"""

import argparse
import os
import sys
import warnings

from . import applications, engine, logdepth
from .checkpoint import BLOCKED, MAX_LEVELS, choose_K, klevel_statement
from .field import DEFAULT_PRIME, FieldSpec
from .matrix import ParseError, random_sparse, read_matrix, write_matrix


def _make_spec(p):
    raw = os.environ.get("KCERT_SAMPLE_SET")
    if not raw:
        return FieldSpec(p)
    try:
        return FieldSpec(p, int(raw))
    except ValueError as e:
        raise ValueError("KCERT_SAMPLE_SET=%s: %s" % (raw, e)) from None


def _emit(lines):
    for key, val in lines:
        print("%s: %s" % (key, val))


def _render(val):
    return ",".join(str(c) for c in val) if isinstance(val, list) else str(val)


KINDS = {kind.tag: kind for kind in (
    BLOCKED, logdepth.POWER, logdepth.SEQUENCE, logdepth.COMBINATION,
    applications.MINPOLY, applications.DET, applications.CHARPOLY)}


# --protocol name -> (kind, the options it reads, header values from
# (matrix, delta, args)); delta is --delta or 2n.  An unset option is None,
# so that a given 0 is refused, not read as "use the default"; so is a given
# option the protocol does not read.  klevel alone is klevel:2.
PROTOCOLS = {
    "checkpoint": (BLOCKED, "delta K", lambda m, d, a: (
        d, choose_K(m.n, d, m.mu, 0) if a.K is None else a.K, 0)),
    "dense": (BLOCKED, "delta K", lambda m, d, a: (
        d, choose_K(m.n, d, m.mu, 1) if a.K is None else a.K, 1)),
    "klevel": (BLOCKED, "delta",
               lambda m, d, a: klevel_statement(m.n, d, a.levels)),
    "seq-log": (logdepth.SEQUENCE, "delta", lambda m, d, a: (d, "log")),
    "seq-single": (logdepth.SEQUENCE, "delta", lambda m, d, a: (d, "single")),
    "seq-resolvent": (logdepth.SEQUENCE, "delta",
                      lambda m, d, a: (d, "resolvent")),
    "minpoly": (applications.MINPOLY, "projections", lambda m, d, a: (
        1 if a.projections is None else a.projections,)),
    "det": (applications.DET, "variant",
            lambda m, d, a: (a.variant or logdepth.DEFAULT_VARIANT,)),
    "charpoly": (applications.CHARPOLY, "", lambda m, d, a: ()),
}


def _statement(mat, args):
    """(kind, header values) that `prove` and `bench` build from args."""
    if args.protocol.startswith("klevel:"):
        args.protocol, k = args.protocol.split(":", 1)
        if not k.isdecimal() or not 2 <= int(k) <= MAX_LEVELS:
            raise ValueError("--protocol klevel:k needs an integer k from 2 "
                             "to %d, not %r" % (MAX_LEVELS, k))
        args.levels = int(k)
    if args.protocol not in PROTOCOLS:
        raise ParseError("unknown protocol %r" % (args.protocol,))
    kind, reads, values = PROTOCOLS[args.protocol]
    for option in ("delta", "K", "variant", "projections"):
        if getattr(args, option) is not None and option not in reads.split():
            raise ValueError("--%s does not apply to --protocol %s"
                             % (option, args.protocol))
    # checked here: choose_K would take the square root before Kind.header
    if args.delta is not None and args.delta < 1:
        raise ValueError("--delta %d is below 1" % args.delta)
    delta = 2 * mat.n if args.delta is None else args.delta
    return kind, values(mat, delta, args)


def cmd_gen(args):
    FieldSpec(args.modulus)  # refuse a modulus `prove` would refuse
    mat = random_sparse(args.n, args.nnz_per_row, args.seed, args.modulus)
    write_matrix(mat, args.out)
    print("wrote %s: n=%d nnz=%d modulus=%d" % (args.out, mat.n, mat.nnz, mat.p))
    return 0


def cmd_prove(args):
    mat = read_matrix(args.matrix)
    kind, values = _statement(mat, args)
    header = kind.header(mat, *values)
    sess = engine.Session(_make_spec(mat.p), header, "prove")
    outcome, value = kind.run(sess, mat)
    print("protocol: %s" % kind.name)
    if not outcome.accepted:
        print("prover could not complete: %s at %r"
              % (outcome.check_id, outcome.location))
        return 1
    blob = sess.transcript_bytes()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print("transcript: %s (%d bytes)" % (args.out, len(blob)))
    if kind.value_key is not None:
        print("%s: %s" % (kind.value_key, _render(value)))
    return 0


def cmd_verify(args):
    mat = read_matrix(args.matrix)
    with open(args.transcript, "rb") as fh:
        blob = fh.read()
    header, msgs = engine.parse_transcript(blob)
    kind = KINDS.get(header.tag)
    if kind is None:
        raise engine.MalformedTranscript(
            "unknown protocol tag 0x%02x" % header.tag)
    sess = engine.Session(_make_spec(mat.p), header, "verify", recorded=msgs)
    outcome, value = kind.run(sess, mat)

    values = kind.values(header)
    lines = [("protocol", kind.name), ("n", mat.n), ("modulus", mat.p)]
    lines += zip(kind.params, values)
    if not outcome.accepted:
        lines += [("outcome", "reject"),
                  ("check", outcome.check_id),
                  ("location", ",".join(str(x) for x in outcome.location))]
        _emit(lines)
        return 1
    led = sess.verifier_ledger
    num, den = outcome.soundness_error_bound
    lines += [
        ("outcome", "accept"),
        ("tests", outcome.num_tests),
        ("soundness_error", "%d/%d" % (num, den) if den > 1 else num),
        ("verifier_field_ops", led.field_ops),
        ("verifier_matvecs", led.matvec_count),
        ("verifier_vecmats", led.vecmat_count),
        ("comm_field_elements", sess.comm_field_elements),
        ("rounds", sess.rounds),
    ]
    if kind.value_key is not None:
        lines.append((kind.value_key, _render(value)))
    if kind.bound is not None:
        label, got, formula, limit = kind.bound(sess, mat, *values)
        state = "ok" if got <= limit else "exceeded"
        lines.append(("bound_check", "%s %d <= %s = %d: %s"
                      % (label, got, formula, limit, state)))
    _emit(lines)
    return 0


def cmd_bench(args):
    sizes = []
    for tok in filter(None, args.sweep.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise ValueError("--sweep entry %r is not an integer"
                             % tok) from None
        if sizes[-1] < 1:
            raise ValueError("--sweep entry %d is below 1" % sizes[-1])
    rows = []
    for idx, n in enumerate(sizes):
        mat = random_sparse(n, args.nnz_per_row, args.seed + idx, args.modulus)
        kind, values = _statement(mat, args)
        spec = _make_spec(mat.p)
        ps = engine.Session(spec, kind.header(mat, *values), "prove")
        kind.run(ps, mat)
        header, msgs = engine.parse_transcript(ps.transcript_bytes())
        vs = engine.Session(spec, header, "verify", recorded=msgs)
        outcome, _ = kind.run(vs, mat)
        if not outcome.accepted:
            raise engine.MalformedTranscript(
                "bench roundtrip rejected at %s" % outcome.check_id)
        led = vs.verifier_ledger
        bound = kind.bound(vs, mat, *values)[3] if kind.bound else ""
        rows.append((kind.name, n, "verifier", led.field_ops,
                     led.applications, vs.comm_field_elements, bound))
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("protocol,n,role,field_ops,matvecs,comm,predicted_bound\n")
        for row in rows:
            out.write(",".join(str(x) for x in row) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def _add_variant(parser):
    parser.add_argument("--variant",
                        choices=list(applications.DET.limits[0]),
                        help="sequence sub-protocol for det (default %s)"
                             % logdepth.DEFAULT_VARIANT)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kcert",
        description="interactive certificates for sparse matrix sequences")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a random sparse matrix as a KMX1 "
                                   "file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--nnz-per-row", type=int, default=3)
    g.add_argument("--modulus", type=int, default=DEFAULT_PRIME)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    pr = sub.add_parser("prove", help="produce a transcript")
    pr.add_argument("--matrix", required=True,
                    help="KMX1 file, as gen writes, or Matrix Market text")
    pr.add_argument("--protocol", default="seq-single",
                    help="checkpoint | dense | klevel[:k] | seq-log | "
                         "seq-single | seq-resolvent | minpoly | det | "
                         "charpoly")
    pr.add_argument("--delta", type=int, default=None,
                    help="sequence length (default 2n)")
    pr.add_argument("--K", type=int, default=None,
                    help="checkpoint and dense block size (default: balanced)")
    _add_variant(pr)
    pr.add_argument("--projections", type=int,
                    help="independent projections for minpoly (default 1)")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_prove, levels=2)

    vf = sub.add_parser("verify", help="check a transcript")
    vf.add_argument("--matrix", required=True,
                    help="KMX1 file, as gen writes, or Matrix Market text")
    vf.add_argument("transcript")
    vf.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="sweep sizes, print verifier costs")
    b.add_argument("--protocol", default="checkpoint")
    b.add_argument("--sweep", required=True, help="comma separated sizes")
    b.add_argument("--nnz-per-row", type=int, default=3)
    b.add_argument("--modulus", type=int, default=DEFAULT_PRIME)
    b.add_argument("--seed", type=int, default=0)
    _add_variant(b)
    b.add_argument("--out", default="")
    # bench proves at the defaults of prove's statement options
    b.set_defaults(func=cmd_bench, delta=None, K=None, levels=2,
                   projections=None)

    return ap


def _show_warning(message, *rest):
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ParseError, engine.MalformedTranscript, OSError,
                ValueError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 2
        except Exception as e:
            print("internal error: %s: %s" % (type(e).__name__, e),
                  file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
