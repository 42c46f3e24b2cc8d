"""kcert benchmark: drift-calibrated prove/verify time per certificate workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, one process each

Each workload runs in its own single-threaded process and drives kcert only
through ``kcert.cli.main(["prove" | "verify", ...])`` with stdout captured.
Timings are reference seconds (see refkernel.py).  Every call's output is
checked; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json
with --trace 0, its per_layer metrics with --trace 1.  A traced run also
writes its span tree to .perfbench/<workload>-seed<N>/spans.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import inputs
from refkernel import RefClock
from tracer import LAYER_NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUPS = 15
VERIFY_SHARE = 0.45     # of --seconds in an untraced run; prove gets the rest
MIN_PROVES = 3
MIN_VERIFIES = 20
# The tail is the value with TAIL_BEYOND samples above it, so it rests on
# those few samples however many are taken.  On a shared 2-vCPU Xeon VM,
# 5-10 % of short calls in some runs hit a hiccup: over six runs of
# charpoly-n64 the spread of the tail was 29 % at p95 (200 calls) and 6 % at
# p75 (40 calls).  Capping the calls keeps the tail near p75; the time left
# goes to proving.
MAX_VERIFIES = 40
TRACE_MIN_VERIFIES = 10
TAIL_BEYOND = 10        # samples above the reported tail value
EXACT_REPORT_KEYS = ("tests", "verifier_field_ops", "verifier_matvecs",
                     "verifier_vecmats", "comm_field_elements", "rounds")


class BenchError(Exception):
    """The benchmark cannot run here at all (no sources, bad arguments)."""


def load_json(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def load_kcert():
    if not os.path.isfile(os.path.join(SRC, "kcert", "__init__.py")):
        raise BenchError("kcert sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    import kcert.cli
    if not os.path.abspath(kcert.cli.__file__).startswith(SRC + os.sep):
        raise BenchError("imported kcert from %s, not from the checkout"
                         % kcert.cli.__file__)
    return kcert.cli


def code_fingerprint():
    h = hashlib.sha256()
    base = os.path.join(SRC, "kcert")
    for dirpath, dirnames, files in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def parse_report(text):
    fields, bounds = {}, []
    for line in text.splitlines():
        key, sep, val = line.partition(": ")
        if not sep:
            continue
        if key == "bound_check":
            bounds.append(val)
        else:
            fields[key] = val
    return fields, bounds


median = statistics.median


def exact(xs):
    """Median of exact counts, kept an integer; 0 when every call failed."""
    return statistics.median_low(xs) if xs else 0


def tail(xs):
    """Value with TAIL_BEYOND samples above it, its percentile, sample count."""
    s = sorted(xs)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def loop(fn, budget, at_least, at_most=None):
    out = []
    start = perf_counter()
    while len(out) < at_least or (perf_counter() - start < budget
                                  and (at_most is None or len(out) < at_most)):
        out.append(fn())
    return out


class Run:
    """One workload at one seed: inputs, checked calls, samples."""

    def __init__(self, cli, workload, seed, pinned):
        self.main = cli.main
        self.pinned = pinned
        self.w = inputs.WORKLOADS[workload]
        self.seed = seed
        self.dir = os.path.join(WORK, "%s-seed%d" % (workload, seed))
        os.makedirs(self.dir, exist_ok=True)
        self.matrix = os.path.join(self.dir, "a.mtx")
        self.transcript = os.path.join(self.dir, "a.kct")
        self.expected = inputs.Expected(self.w, seed)
        self.clock = RefClock(pinned["pinned_pass_s"])
        self.attempted = self.failed = 0
        self.problems = []
        self.proved = None    # (transcript sha256, bytes, value) of the first prove
        self.report = None    # stdout of the first verify
        self.field_ops = []

    # -- set-up

    def _child(self, *args):
        cmd = [sys.executable, "-I", os.path.join(HERE, "setup_child.py")]
        res = subprocess.run(cmd + list(args), capture_output=True, text=True,
                             timeout=120)
        if res.returncode != 0:
            raise BenchError("set-up failed: %s" % res.stderr.strip()[-400:])
        return float(res.stdout.strip().splitlines()[-1])

    def setup(self):
        """Set up SETUPS times; return (walls, median set-up in reference seconds).

        Each set-up is paired with a reference child run right before it.
        """
        walls, ratios = [], []
        for _ in range(SETUPS):
            ref = self._child("reference")
            walls.append(self._child(ROOT, self.w.name, str(self.seed), self.matrix))
            ratios.append(walls[-1] / ref)
        return walls, median(ratios) * self.pinned["pinned_setup_ref_s"]

    # -- checked calls

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def _fail(self, what):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def _prove_argv(self):
        return (["prove", "--matrix", self.matrix] + list(self.w.prove_args)
                + ["--out", self.transcript])

    def _verify_argv(self):
        return ["verify", "--matrix", self.matrix, self.transcript]

    def check_prove(self, res):
        self.attempted += 1
        rc, out, err = res
        if rc != 0:
            return self._fail("prove exit %r: %s" % (rc, err.strip()[-300:]))
        try:
            with open(self.transcript, "rb") as fh:
                blob = fh.read()
        except OSError as e:
            return self._fail("prove wrote no transcript: %s" % e)
        fields, _ = parse_report(out)
        got = (hashlib.sha256(blob).hexdigest(), len(blob),
               fields.get(self.w.value_key) if self.w.value_key else None)
        if self.proved is None:
            if not self.expected.check(got[2]):
                return self._fail("prove certified a wrong value: %r" % (got[2],))
            self.proved = got
        elif got != self.proved:
            return self._fail("prove output differs between repeats")

    def check_verify(self, res):
        self.attempted += 1
        rc, out, err = res
        if rc != 0:
            return self._fail("verify exit %r: %s %s" % (rc, out.strip()[-200:],
                                                         err.strip()[-200:]))
        fields, bounds = parse_report(out)
        if fields.get("outcome") != "accept":
            return self._fail("verify outcome %r" % fields.get("outcome"))
        bad = [b for b in bounds if not b.endswith(": ok")]
        if bad:
            return self._fail("bound_check %s" % bad[0])
        if self.w.value_key:
            val = fields.get(self.w.value_key)
            if self.proved is None or val != self.proved[2]:
                return self._fail("prove and verify disagree on the value")
            if not self.expected.check(val):
                return self._fail("verify certified a wrong value")
        if self.report is None:
            self.report = out
        elif out != self.report:
            return self._fail("verify report differs between repeats")
        try:
            self.field_ops.append(int(fields["verifier_field_ops"]))
        except (KeyError, ValueError):
            return self._fail("verify report has no verifier_field_ops")

    def prove(self, tracer=None):
        return self._op("prove", self._prove_argv(), self.check_prove, tracer)

    def verify(self, tracer=None):
        return self._op("verify", self._verify_argv(), self.check_verify, tracer)

    def _op(self, phase, argv, check, tracer):
        if tracer is None:
            res, wall, ref = self.clock.sample(lambda: self._cli(argv))
            summary = None
        else:
            (res, summary), wall, ref = self.clock.sample(
                lambda: tracer.run_op(phase, lambda: self._cli(argv)))
        check(res)
        return wall, ref, summary

    # -- determinism record

    def record(self, extra):
        """Compare this run's exact counts with earlier runs of the same code."""
        rec = dict(extra)
        if self.proved is not None:
            rec["transcript_sha256"], rec["transcript_bytes"] = self.proved[:2]
        if self.report is not None:
            fields, _ = parse_report(self.report)
            rec.update((k, fields[k]) for k in EXACT_REPORT_KEYS if k in fields)
        path = os.path.join(WORK, "records", "%s-seed%d.json" % (self.w.name, self.seed))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        code = code_fingerprint()
        try:
            with open(path) as fh:
                book = json.load(fh)
        except (OSError, ValueError):
            book = {}
        old = book.get(code, {})
        diff = sorted(k for k in rec if k in old and old[k] != rec[k])
        if diff:
            self.attempted += 1
            self._fail("exact counts differ from an earlier run of this code: %s"
                       % ", ".join(diff))
        book[code] = dict(old, **rec)
        with open(path, "w") as fh:
            json.dump(book, fh, indent=1, sort_keys=True)
        return rec


def ref_of(samples):
    return [ref for _, ref, _ in samples]


def wall_of(samples):
    return [wall for wall, _, _ in samples]


def measure(run, seconds):
    """Untraced run: the end-to-end metrics."""
    setup_walls, setup_s = run.setup()
    start = perf_counter()
    proves = [run.prove()]
    verifies = loop(run.verify, VERIFY_SHARE * seconds, MIN_VERIFIES, MAX_VERIFIES)
    proves += loop(run.prove, seconds - (perf_counter() - start), MIN_PROVES - 1)
    vt, pct, nver = tail(ref_of(verifies))
    rec = run.record({})
    m = {
        "setup_s": setup_s,
        "prove_s": median(ref_of(proves)),
        "verify_s": median(ref_of(verifies)),
        "verify_tail_s": vt,
        "transcript_bytes": rec.get("transcript_bytes", 0),
        "verifier_field_ops": exact(run.field_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": run.failed / run.attempted,
    }
    notes = {
        "setup_s": "median of %d set-ups; wall %r s" % (len(setup_walls), median(setup_walls)),
        "prove_s": "median of %d calls; wall %r s" % (len(proves), median(wall_of(proves))),
        "verify_s": "median of %d calls; wall %r s" % (len(verifies), median(wall_of(verifies))),
        "verify_tail_s": "p%.1f of %d calls, %d beyond" % (pct, nver, TAIL_BEYOND),
        "error_rate": "%d failed / %d attempted" % (run.failed, run.attempted),
    }
    return m, notes, rec


def measure_traced(run, seconds):
    """Traced run: per-layer metrics, next to an untraced baseline."""
    quarter = seconds / 4.0
    setup_walls, _ = run.setup()
    u_prove = loop(run.prove, quarter, 1)
    u_verify = loop(run.verify, quarter, TRACE_MIN_VERIFIES)
    tr = Tracer()
    tr.install()
    try:
        t_prove = loop(lambda: run.prove(tr), quarter, 1)
        t_verify = loop(lambda: run.verify(tr), quarter, TRACE_MIN_VERIFIES)
    finally:
        tr.uninstall()
    tr.dump(os.path.join(run.dir, "spans.json"),
            {"workload": run.w.name, "seed": run.seed})

    m = {}
    for phase, traced, plain in (("prove", t_prove, u_prove),
                                 ("verify", t_verify, u_verify)):
        sums = [s for _, _, s in traced]
        for layer in LAYER_NAMES:
            key = "%s.%s." % (phase, layer)
            m[key + "calls"] = exact([s["calls"][layer] for s in sums])
            # probes land in whichever span is open, in proportion to its
            # length, so shares are unbiased; self_s is share x reference call
            m[key + "self_s"] = median([s["self"][layer] / s["wall"] * ref
                                        for _, ref, s in traced])
            m[key + "share"] = median([s["self"][layer] / s["wall"] for s in sums])
        m[phase + ".engine.codec.bytes"] = exact([s["counts"]["codec_bytes"] for s in sums])
        m[phase + ".engine.challenge.elements"] = exact(
            [s["counts"]["challenge_elements"] for s in sums])
        m[phase + ".uncharged_applications"] = exact(
            [s["calls"]["matrix.apply"] - s["counts"]["prover_applications"]
             - s["counts"]["verifier_applications"] for s in sums])
        base = median(ref_of(plain))
        m[phase + ".trace.overhead_share"] = (median(ref_of(traced)) - base) / base
    psums = [s["counts"] for _, _, s in t_prove]
    vsums = [s["counts"] for _, _, s in t_verify]
    m["prove.ledger.prover_field_ops"] = exact([c["prover_field_ops"] for c in psums])
    m["verify.ledger.verifier_field_ops"] = exact([c["verifier_field_ops"] for c in vsums])
    m["verify.ledger.operator_applications"] = exact(
        [c["verifier_applications"] for c in vsums])
    m["comm_field_elements"] = exact([c["comm_field_elements"] for c in vsums])
    m["applications.det_attempts"] = exact([c["det_attempts"] for c in vsums])
    m["wall.setup_s"] = median(setup_walls)
    m["wall.prove_s"] = median(wall_of(u_prove))
    m["wall.verify_s"] = median(wall_of(u_verify))
    m["wall.verify_tail_s"] = tail(wall_of(u_verify))[0]
    m["wall.ref_kernel_s"] = median(run.clock.pass_times)
    m["error_rate"] = run.failed / run.attempted

    rec = run.record({k: m[k] for k in (
        "prove.ledger.prover_field_ops", "verify.ledger.verifier_field_ops",
        "verify.ledger.operator_applications", "comm_field_elements",
        "prove.matrix.apply.calls", "verify.matrix.apply.calls")})
    notes = {"error_rate": "%d failed / %d attempted" % (run.failed, run.attempted)}
    if tr.missing:
        notes["missing_targets"] = ", ".join(tr.missing)
    return m, notes, rec


def run_one(args, spec):
    bench = load_json("BENCHMARK.json")
    defs = bench["per_layer" if args.trace else "end_to_end"]
    cli = load_kcert()
    run = Run(cli, args.workload, args.seed, spec["reference_kernel"])
    computed, notes, rec = (measure_traced if args.trace else measure)(run, args.seconds)
    metrics = {}
    for d in defs:
        val = computed[d["name"]]
        metrics[d["name"]] = {"value": val, "unit": d["unit"]}
        note = notes.get(d["name"])
        print("%s: %r %s%s" % (d["name"], val, d["unit"],
                               " (%s)" % note if note else ""))
    if "error_rate" not in metrics:
        print("error_rate: %r ratio (%s)" % (computed["error_rate"], notes["error_rate"]))
    for key in sorted(rec):
        print("record %s: %s" % (key, rec[key]))
    if "missing_targets" in notes:
        print("missing_targets: %s" % notes["missing_targets"])
    for prob in run.problems:
        print("failure: %s" % prob)
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def run_all(args, names):
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        lines = res.stdout.splitlines()
        print("== %s" % name)
        for line in lines[:-1]:
            print("  " + line)
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            raise BenchError("workload %s exited %d" % (name, res.returncode))
        one = json.loads(lines[-1])
        total["correct"] = total["correct"] and one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for key, val in one["metrics"].items():
            total["metrics"]["%s.%s" % (name, key)] = val
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_json(os.path.join(HERE, "spec.json"))
        names = [w["name"] for w in load_json("BENCHMARK.json")["workloads"]]
        if args.workload == "all":
            result = run_all(args, names)
        elif args.workload in names:
            result = run_one(args, spec)
        else:
            raise BenchError("unknown workload %r; choose from %s or all"
                             % (args.workload, ", ".join(names)))
    except (BenchError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
