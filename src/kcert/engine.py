"""Transcript, challenge and cost machinery shared by every protocol.

A Session drives one protocol run in one of three modes:

  prove    the prover runs alone; challenges are derived by hashing the
           transcript so far (Fiat-Shamir), prover messages are recorded,
           and no checks are evaluated.
  verify   a recorded transcript is replayed: prover messages are read back,
           challenge messages are re-derived from the hash and compared
           against the recording, and every check is evaluated.
  live     prover and verifier run together with challenges from a seeded
           RNG; an optional tamper hook may rewrite prover payloads in
           flight, which is how the soundness experiments inject errors.

Transcripts are KCT2: the magic b"KCT2", a header (protocol tag, p, n,
parameter words), then framed messages (direction byte, tag byte, 8-byte
payload length, payload).  Integers are little-endian 64-bit words; a vector
payload is its length followed by its entries.  Transcripts of the earlier
KCT1 format derive their challenges differently and are rejected as
malformed.

Each Fiat-Shamir challenge, vector or scalar, is derived from one XOF stream:
SHAKE-256 of SHA-256(transcript so far || draw counter), where the transcript
so far is the header and the framed messages, and the counter is an 8-byte
word that advances once per challenge.  The stream is read as 64-bit words;
a word x is accepted when x < floor(2^64 / m) * m and maps to x mod m, so
each element is uniform on the sample set {0..m-1}, and a nonzero challenge
also skips words that map to 0.  The challenge is the first `count` surviving
words of the stream, however many bytes are squeezed to find them.  Live mode
keeps drawing from its seeded RNG, one randrange per element.

Costs are tracked per role in a CostLedger.  Conventions: a dot product of
length n costs 2n-1 field operations, a scalar equality between two computed
values costs 1 (the subtraction), and elementwise vector comparisons are
free.  Communication counts field elements crossing in either direction;
rounds count maximal groups of consecutive prover messages.
"""

import hashlib
import random
import sys
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

MAGIC = b"KCT2"

P2V = 0x00  # prover to verifier
V2P = 0x01  # verifier to prover

PROVER = "prover"
VERIFIER = "verifier"

# protocol identifiers carried in the transcript header
T_CHECKPOINT = 0x01
T_DENSE = 0x02
T_KLEVEL = 0x03
T_POWER_LOG = 0x04
T_POWER_SINGLE = 0x05
T_SEQUENCE = 0x06
T_COMBINATION = 0x07
T_MINPOLY = 0x10
T_DET = 0x11
T_CHARPOLY = 0x12

# how a header parameter named "variant" carries its sequence sub-protocol
VARIANT_CODES = {"checkpoint": 0, "dense": 1, "log": 2, "single": 3}
VARIANT_NAMES = {code: name for name, code in VARIANT_CODES.items()}


class MalformedTranscript(Exception):
    """Transcript bytes that cannot be interpreted or that fail replay."""


class RejectError(Exception):
    """Fail-fast signal for a failed check; mapped to Reject at the driver."""

    def __init__(self, check_id, location=()):
        super().__init__("%s at %r" % (check_id, tuple(location)))
        self.check_id = check_id
        self.location = tuple(location)


@dataclass
class CostLedger:
    field_ops: int = 0
    matvec_count: int = 0
    vecmat_count: int = 0

    @property
    def applications(self):
        return self.matvec_count + self.vecmat_count


@dataclass
class Accept:
    num_tests: int
    soundness_error_bound: Fraction
    accepted: bool = True


@dataclass
class Reject:
    check_id: str
    location: tuple
    accepted: bool = False


_active = threading.local()


def charge_field_ops(k):
    """Add k field operations to whoever is currently charged for work."""
    led = getattr(_active, "ledger", None)
    if led is not None:
        led.field_ops += k


def charge_matvec(ops):
    led = getattr(_active, "ledger", None)
    if led is not None:
        led.matvec_count += 1
        led.field_ops += ops


def charge_vecmat(ops):
    led = getattr(_active, "ledger", None)
    if led is not None:
        led.vecmat_count += 1
        led.field_ops += ops


def scalar_equal(a, b):
    """Equality of two computed scalars, costed as one subtraction."""
    charge_field_ops(1)
    return a == b


def vectors_equal(u, v):
    """Elementwise comparison; comparisons against received data are free."""
    return list(u) == list(v)


def digest_words(digest):
    """A 32-byte digest as four little-endian words for header params."""
    return tuple(int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8))


@dataclass(frozen=True)
class Header:
    """Public protocol statement: identifier, field, dimension, parameters."""

    tag: int
    p: int
    n: int
    params: tuple

    def encode(self):
        out = bytearray(MAGIC)
        out.append(self.tag)
        out += self.p.to_bytes(8, "little")
        out += self.n.to_bytes(8, "little")
        out += len(self.params).to_bytes(8, "little")
        for w in self.params:
            out += int(w).to_bytes(8, "little")
        return bytes(out)

    @staticmethod
    def decode(data):
        if len(data) < 29 or data[:4] != MAGIC:
            raise MalformedTranscript("bad transcript magic")
        tag = data[4]
        p = int.from_bytes(data[5:13], "little")
        n = int.from_bytes(data[13:21], "little")
        count = int.from_bytes(data[21:29], "little")
        off = 29
        if count > (len(data) - off) // 8:
            raise MalformedTranscript("truncated header")
        params = tuple(
            int.from_bytes(data[off + 8 * i:off + 8 * i + 8], "little")
            for i in range(count)
        )
        return Header(tag, p, n, params), off + 8 * count


class Kind(NamedTuple):
    """One transcript kind: its header layout and the runner behind it.

    params names the header parameters in header order; the names are also
    the keys of the verify report.  runner(sess, op, *values) returns
    (outcome, value) when value_key names the certified value, else the bare
    outcome.  bound(sess, op, *values), if set, returns (label, got,
    formula, limit) for the report's bound check.
    """

    tag: int
    name: str
    params: tuple
    runner: object
    value_key: str = None
    bound: object = None

    def header(self, mat, *values, **named):
        """The statement for mat; values go by position or by parameter name."""
        values += tuple(named.pop(k) for k in self.params[len(values):]
                        if k in named)
        if named or len(values) != len(self.params):
            raise TypeError("%s header takes (%s)"
                            % (self.name, ", ".join(self.params)))
        words = tuple(VARIANT_CODES[v] if k == "variant" else v
                      for k, v in zip(self.params, values))
        return Header(self.tag, mat.p, mat.n,
                      words + digest_words(mat.digest))

    def values(self, header):
        """The parameter values a header carries, variants by name."""
        words = header.params[:-4]
        if len(words) != len(self.params):
            raise MalformedTranscript(
                "%s header has %d parameters, expected %d"
                % (self.name, len(words), len(self.params)))
        for k, w in zip(self.params, words):
            if k == "variant" and w not in VARIANT_NAMES:
                raise MalformedTranscript("unknown variant code %d" % w)
        return tuple(VARIANT_NAMES[w] if k == "variant" else w
                     for k, w in zip(self.params, words))

    def run(self, sess, op, values):
        """(outcome, certified value or None) of one run on op."""
        out = self.runner(sess, op, *values)
        return out if self.value_key else (out, None)


def parse_transcript(data):
    """Split raw bytes into a header and a message list; no value decoding."""
    header, off = Header.decode(data)
    messages = []
    while off < len(data):
        if off + 10 > len(data):
            raise MalformedTranscript("truncated message frame")
        direction = data[off]
        tag = data[off + 1]
        length = int.from_bytes(data[off + 2:off + 10], "little")
        off += 10
        if direction not in (P2V, V2P):
            raise MalformedTranscript("bad direction byte")
        if length > len(data) - off:
            raise MalformedTranscript("truncated message payload")
        messages.append((direction, tag, bytes(data[off:off + length])))
        off += length
    return header, messages


_BIG_ENDIAN = sys.byteorder != "little"


def _words(data):
    """Little-endian 64-bit words of a bytes-like object, as array('Q')."""
    a = array("Q")
    a.frombytes(data)
    if _BIG_ENDIAN:
        a.byteswap()
    return a


def encode_vector(v):
    a = array("Q", v)
    if _BIG_ENDIAN:
        a.byteswap()
    return len(a).to_bytes(8, "little") + a.tobytes()


def decode_vector(payload, p):
    if len(payload) < 8:
        raise MalformedTranscript("short vector payload")
    count = int.from_bytes(payload[:8], "little")
    if len(payload) != 8 + 8 * count:
        raise MalformedTranscript("vector payload length mismatch")
    a = _words(memoryview(payload)[8:])
    if a and max(a) >= p:
        raise MalformedTranscript("vector entry not reduced mod p")
    return a.tolist()


def encode_scalar(x):
    return int(x).to_bytes(8, "little")


def decode_scalar(payload, p):
    if len(payload) != 8:
        raise MalformedTranscript("scalar payload must be 8 bytes")
    x = int.from_bytes(payload, "little")
    if x >= p:
        raise MalformedTranscript("scalar not reduced mod p")
    return x


def encode_mode(b):
    return bytes([b])


def decode_mode(payload):
    if len(payload) != 1:
        raise MalformedTranscript("mode payload must be 1 byte")
    return payload[0]


class Session:
    """One protocol run: message log, challenge state, costs, test count."""

    def __init__(self, spec, header, mode, *, recorded=None, seed=None,
                 tamper=None):
        if mode not in ("prove", "verify", "live"):
            raise ValueError("unknown session mode %r" % (mode,))
        self.spec = spec
        self.header = header
        self.mode = mode
        self.prover_ledger = CostLedger()
        self.verifier_ledger = CostLedger()
        self.comm_field_elements = 0
        self.rounds = 0
        self.num_tests = 0
        self.messages = []
        self._hash = hashlib.sha256(header.encode())
        self._draw_counter = 0
        self._recorded = recorded if recorded is not None else []
        self._cursor = 0
        self._rng = random.Random(seed) if mode == "live" else None
        self._tamper = tamper
        self._last_dir = None

    @property
    def proving(self):
        return self.mode in ("prove", "live")

    @property
    def verifying(self):
        return self.mode in ("verify", "live")

    @contextmanager
    def charging(self, role):
        prev = getattr(_active, "ledger", None)
        _active.ledger = (self.prover_ledger if role == PROVER
                          else self.verifier_ledger)
        try:
            yield
        finally:
            _active.ledger = prev

    # -- message plumbing

    def _append(self, direction, tag, payload, comm):
        if direction == P2V and self._last_dir != P2V:
            self.rounds += 1
        self._last_dir = direction
        self.messages.append((direction, tag, payload))
        self._hash.update(bytes((direction, tag))
                          + len(payload).to_bytes(8, "little") + payload)
        self.comm_field_elements += comm

    def _next_recorded(self, direction, tag):
        if self._cursor >= len(self._recorded):
            raise MalformedTranscript("transcript ended early")
        d, t, payload = self._recorded[self._cursor]
        self._cursor += 1
        if d != direction or t != tag:
            raise MalformedTranscript("unexpected message kind")
        return payload

    def _prover_payload(self, tag, encoder, builder):
        # builder is invoked only when this session actually proves
        if self.mode == "verify":
            return self._next_recorded(P2V, tag)
        payload = encoder(builder())
        if self.mode == "live" and self._tamper is not None:
            payload = self._tamper(len(self.messages), tag, payload)
        return payload

    def send_vector(self, tag, builder=None, expect_len=None):
        payload = self._prover_payload(tag, encode_vector, builder)
        v = decode_vector(payload, self.spec.p)
        if expect_len is not None and len(v) != expect_len:
            raise MalformedTranscript("vector message has wrong length")
        self._append(P2V, tag, payload, len(v))
        return v

    def send_scalar(self, tag, builder=None):
        payload = self._prover_payload(tag, encode_scalar, builder)
        x = decode_scalar(payload, self.spec.p)
        self._append(P2V, tag, payload, 1)
        return x

    def send_mode(self, tag, builder=None):
        payload = self._prover_payload(tag, encode_mode, builder)
        b = decode_mode(payload)
        self._append(P2V, tag, payload, 0)
        return b

    # -- challenges

    def _draw(self, m, count, nonzero):
        """The next challenge: count elements of {0..m-1}, or of {1..m-1}."""
        if self.mode == "live":
            rng = self._rng
            out = []
            for _ in range(count):
                x = rng.randrange(m)
                while nonzero and x == 0:
                    x = rng.randrange(m)
                out.append(x)
            return out
        h = self._hash.copy()
        h.update(self._draw_counter.to_bytes(8, "little"))
        self._draw_counter += 1
        xof = hashlib.shake_256(h.digest())
        lim = (1 << 64) // m * m
        out = []
        used = 0
        while len(out) < count:
            # slack for rejected words; too little only costs another squeeze
            need = count - len(out)
            total = used + need + need // 8 + 4
            words = _words(xof.digest(8 * total)[8 * used:])
            used = total
            if nonzero:
                out += [r for x in words if x < lim and (r := x % m)]
            else:
                out += [x % m for x in words if x < lim]
        del out[count:]
        return out

    def _challenge(self, tag, count, nonzero, encoder, size):
        m = self.spec.sample_set_size
        if nonzero and m < 2:
            raise ValueError("nonzero challenge needs a sample set of size >= 2")
        rec = None
        if self.mode == "verify":
            # the recording bounds the work: never draw more than it holds
            rec = self._next_recorded(V2P, tag)
            if len(rec) != size:
                raise MalformedTranscript("challenge payload has wrong length")
        values = self._draw(m, count, nonzero)
        payload = encoder(values)
        if rec is not None and rec != payload:
            raise MalformedTranscript("challenge replay mismatch")
        self._append(V2P, tag, payload, count)
        return values

    def challenge_vector(self, tag, count, *, nonzero=False):
        return self._challenge(tag, count, nonzero, encode_vector,
                               8 + 8 * count)

    def challenge_scalar(self, tag, *, nonzero=False):
        (x,) = self._challenge(tag, 1, nonzero,
                               lambda v: encode_scalar(v[0]), 8)
        return x

    # -- verdict bookkeeping

    def note_test(self, weight=1):
        self.num_tests += weight

    def check(self, ok, check_id, location=()):
        if self.verifying and not ok:
            raise RejectError(check_id, location)

    def finish(self):
        if self.mode == "verify" and self._cursor != len(self._recorded):
            raise MalformedTranscript("trailing transcript data")
        bound = Fraction(self.num_tests, self.spec.sample_set_size)
        if bound > 1:
            bound = Fraction(1)
        return Accept(num_tests=self.num_tests, soundness_error_bound=bound)

    def transcript_bytes(self):
        out = bytearray(self.header.encode())
        for direction, tag, payload in self.messages:
            out.append(direction)
            out.append(tag)
            out += len(payload).to_bytes(8, "little")
            out += payload
        return bytes(out)


def run_with_outcome(sess, body):
    """Run a protocol body, mapping a failed check to a Reject outcome."""
    try:
        body()
    except RejectError as e:
        return Reject(check_id=e.check_id, location=e.location)
    return sess.finish()
