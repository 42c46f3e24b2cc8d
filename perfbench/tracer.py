"""Span recording around kcert's public functions, installed from outside.

The tracer replaces each function in LAYERS at every place it is bound: the
class attribute for methods, and every ``kcert.*`` module global that refers
to the same function object for plain functions, so calls through a
``from .matrix import dot`` binding are caught as well.  Each call becomes a
span ``[id, parent, trace, layer, name, start, end]``; a call made while the
innermost open span already belongs to the same layer (``DiagScaledOp.apply``
calling ``SparseMatrix.apply``, ``poly_lcm`` calling ``f_inv``) is folded into
that span, so ``calls`` counts entries into a layer.  Every operation (one
``kcert prove`` or ``kcert verify``) opens a root span of layer ``protocol``
and gets its own trace id; the root's self time is what no listed layer
covers.  A target that a later kcert no longer has is skipped and listed in
``missing``.
"""

import json
import sys
from collections import Counter
from time import perf_counter

ROOT_LAYER = "protocol"

LAYERS = (
    ("matrix.apply", "kcert.matrix",
     ("SparseMatrix.apply", "SparseMatrix.rapply", "TransposeOp.apply",
      "TransposeOp.rapply", "DiagScaledOp.apply", "DiagScaledOp.rapply")),
    ("matrix.vector", "kcert.matrix", ("dot", "scaled_accumulate", "combine")),
    ("matrix.parse", "kcert.matrix", ("read_matrix", "SparseMatrix.digest")),
    ("engine.codec", "kcert.engine",
     ("encode_vector", "decode_vector", "encode_scalar", "decode_scalar",
      "encode_mode", "decode_mode")),
    ("engine.challenge", "kcert.engine",
     ("Session.challenge_vector", "Session.challenge_scalar")),
    ("engine.send", "kcert.engine",
     ("Session.send_vector", "Session.send_scalar", "Session.send_mode")),
    ("engine.transcript", "kcert.engine",
     ("parse_transcript", "Session.transcript_bytes")),
    ("field.bm", "kcert.field", ("minpoly_of_sequence",)),
    ("field.poly", "kcert.field", ("poly_lcm", "poly_eval", "f_inv")),
    ("oracle.dense", "kcert.oracle",
     ("mat_from_sparse", "dense_det", "dense_kernel_vector", "dense_charpoly")),
    ("sequence.compute", "kcert.sequence", ("compute_sequence",)),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS) + (ROOT_LAYER,)


def _counter(name):
    """(count key, fn(args, kwargs, result)) for targets that carry a count."""
    if name.startswith("encode_"):
        return "codec_bytes", lambda a, kw, out: len(out)
    if name.startswith("decode_"):
        return "codec_bytes", lambda a, kw, out: len(a[0])
    if name == "Session.challenge_vector":
        return "challenge_elements", lambda a, kw, out: len(out)
    if name == "Session.challenge_scalar":
        return "challenge_elements", lambda a, kw, out: 1
    return None


def _ledger_totals(sessions):
    """Sum the role ledgers of every Session one operation created."""
    tot = Counter()
    for s in sessions:
        for role in ("prover", "verifier"):
            led = getattr(s, role + "_ledger", None)
            tot[role + "_field_ops"] += getattr(led, "field_ops", 0)
            tot[role + "_applications"] += (getattr(led, "matvec_count", 0)
                                           + getattr(led, "vecmat_count", 0))
        tot["comm_field_elements"] += getattr(s, "comm_field_elements", 0)
    return tot


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._trace = -1
        self._counts = Counter()
        self._sessions = []
        self._undo = []
        self._origin = perf_counter()

    # -- installation

    def install(self):
        kmods = [m for k, m in sorted(sys.modules.items())
                 if m is not None and (k == "kcert" or k.startswith("kcert."))]
        for layer, modname, targets in LAYERS:
            mod = sys.modules.get(modname)
            for target in targets:
                if not self._install_one(kmods, mod, layer, target):
                    self.missing.append("%s.%s" % (modname, target))
        self._install_hooks()

    def _install_one(self, kmods, mod, layer, target):
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None:
            return False
        orig = vars(owner).get(attr)
        if orig is None:
            return False
        if owner_name:
            if isinstance(orig, property):
                new = property(self._wrap(layer, target, orig.fget))
            elif callable(orig):
                new = self._wrap(layer, target, orig)
            else:
                return False
            self._set(owner, attr, new)
            return True
        new = self._wrap(layer, target, orig)
        for m in kmods:
            for name, val in list(vars(m).items()):
                if val is orig:
                    self._set(m, name, new)
        return True

    def _install_hooks(self):
        engine = sys.modules.get("kcert.engine")
        session = getattr(engine, "Session", None)
        init = vars(session).get("__init__") if session else None
        if init is not None:
            sessions = self._sessions

            def recording_init(s, *a, **kw):
                init(s, *a, **kw)
                sessions.append(s)
            self._set(session, "__init__", recording_init)
        else:
            self.missing.append("kcert.engine.Session.__init__")
        apps = sys.modules.get("kcert.applications")
        cls = getattr(apps, "DiagScaledOp", None)
        if cls is not None:
            counts = self._counts

            def counted(*a, **kw):
                counts["det_attempts"] += 1
                return cls(*a, **kw)
            self._set(apps, "DiagScaledOp", counted)
        else:
            self.missing.append("kcert.applications.DiagScaledOp")

    def _set(self, owner, name, new):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _wrap(self, layer, name, fn):
        spans, stack, counts = self.spans, self._stack, self._counts
        counter = _counter(name)

        def traced(*a, **kw):
            if stack and stack[-1][3] == layer:
                return fn(*a, **kw)
            rec = [len(spans), stack[-1][0] if stack else -1, self._trace,
                   layer, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*a, **kw)
            finally:
                rec[6] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](a, kw, out)
            return out
        return traced

    # -- operations

    def run_op(self, phase, fn):
        """Run one operation under a root span; return (result, summary)."""
        self._trace += 1
        self._counts.clear()
        self._sessions.clear()
        first = len(self.spans)
        root = [first, -1, self._trace, ROOT_LAYER, phase, perf_counter(), 0.0]
        self.spans.append(root)
        self._stack.append(root)
        try:
            out = fn()
        finally:
            root[6] = perf_counter()
            self._stack.pop()
        return out, self._summary(first)

    def _summary(self, first):
        spans = self.spans[first:]
        child = Counter()
        for rec in spans[1:]:
            child[rec[1]] += rec[6] - rec[5]
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        calls = dict.fromkeys(LAYER_NAMES, 0)
        for rec in spans:
            self_s[rec[3]] += rec[6] - rec[5] - child[rec[0]]
            calls[rec[3]] += 1
        counts = Counter(self._counts)
        counts.update(_ledger_totals(self._sessions))
        return {"wall": spans[0][6] - spans[0][5], "self": self_s,
                "calls": calls, "counts": counts}

    def dump(self, path, meta):
        keys = ("id", "parent", "trace", "layer", "name", "start", "end")
        o = self._origin
        doc = dict(meta, time_origin="tracer creation", missing=self.missing,
                   spans=[dict(zip(keys, r[:5] + [r[5] - o, r[6] - o]))
                          for r in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh)
