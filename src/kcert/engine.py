"""Transcript, challenge and cost machinery shared by every protocol.

A Session plays one party of one protocol run, in one of two modes:

  prove    the prover runs alone: it computes its messages, records them,
           and evaluates no checks.
  verify   a recorded transcript is replayed: prover messages are read back,
           every challenge is drawn again, and every check is evaluated.

Protocol code is written once for both modes.  A prover message goes by
value: send_vector(tag, value) records value when the session proves, reads
the message back when it verifies, and returns the message either way.  A
verifying session ignores value, so a proving block leaves it None there.
A randomized identity is tested with test(lhs, rhs, check_id): it counts
towards the soundness bound, costs the one subtraction and rejects on a
mismatch.  check(ok, check_id) is for deterministic checks that no challenge
is needed for, such as a base case recomputed in full or a committed value
compared to the verifier's own.

Challenges come from one of two sources.  By default they are Fiat-Shamir
challenges, derived from the header and the prover's messages so far, so a
verifier replays them from the transcript alone.  A session given a seed
draws them from random.Random(seed) instead, one randrange per element; a
proving and a verifying session with the same seed draw the same
challenges, which is how the soundness experiments give a prover challenges
it cannot steer.

A proving session takes an optional tamper hook that may rewrite each
prover payload before it is recorded, which is how the soundness
experiments inject errors; without a seed the forged bytes are hashed before
the next challenge, so the transcript is a consistent Fiat-Shamir forgery.

Transcripts are KCT6: the magic b"KCT6", a header (protocol tag, p, n,
parameter words, sample-set size m), then the prover's messages as frames
(tag byte, 8-byte payload length, payload).  Challenges are never written:
both sides derive them, and no frame carries a value the verifier already
holds or never reads.  A kind's Kind record names its tag and how its
statement maps to parameter words.  Integers are little-endian 64-bit
words; a vector payload is its length followed by its entries.
Transcripts of the earlier KCT1 to KCT5 formats are rejected as malformed,
and so are headers of the retired tags 0x02 and 0x03 or of tag 0x01
without its depth, from before one blocked kind.

Each Fiat-Shamir challenge, vector or scalar, is derived from one XOF stream:
SHAKE-256 of SHA-256(header || prover frames so far || draw counter), where
the counter is an 8-byte word that advances once per challenge.  The stream
is read as little-endian 64-bit words, each masked to its low b bits, where
b = bitlen(m - 1); a masked word x is kept when x < m, and when x > 0 for a
nonzero challenge (the simple discard method of NIST SP 800-90A Rev. 1,
App. A.5.1), so each element is uniform on the sample set {0..m-1}, or on
{1..m-1}.  At least half the masked words survive, whatever m is.  The
challenge is the first `count` surviving words of the stream, however many
bytes are squeezed to find them.  Every challenge count is n, 1, or a header
parameter (plus one) that Kind.run bounds by the transcript's size, so a
crafted header cannot make the verifier draw without bound.

The verifier alone also takes scalars the prover is never sent, such as the
weight rho that folds a blocked run's block tests into one test
(Session.verifier_scalar).  Each is the first surviving word, read as
above, of SHAKE-256 of SHA-256(b"kcert verifier scalar" || SHA-256(header ||
prover frames so far)), in seeded sessions too.  It advances no draw
counter, so it moves no challenge and no transcript depends on it; a
transcript prefix fixes it, so a replay takes the same one.  Since it comes
after the messages it weighs, the prover commits to them before it is
fixed.

Costs go to the session's own ledger: prover_ledger when it proves,
verifier_ledger when it verifies.  Conventions: a dot product of length n
costs 2n-1 field operations, a scalar equality between two computed values
costs 1 (the subtraction), and elementwise vector comparisons are free.
Communication counts field elements crossing in either direction,
challenges included; rounds count maximal groups of consecutive prover
messages, so a challenge ends a round.
"""

import hashlib
import math
import random
import struct
import sys
import threading
from array import array
from collections import namedtuple
from contextlib import contextmanager
from typing import NamedTuple

MAGIC = b"KCT6"

# a message frame's head: tag byte, then the payload length
_FRAME_HEAD = struct.Struct("<BQ")


class MalformedTranscript(Exception):
    """Transcript bytes that cannot be interpreted or that fail replay."""


class RejectError(Exception):
    """Fail-fast signal for a failed check; mapped to Reject at the driver."""

    def __init__(self, check_id, location=()):
        super().__init__("%s at %r" % (check_id, tuple(location)))
        self.check_id = check_id
        self.location = tuple(location)


class CostLedger:
    """Field operations and operator applications charged to one party."""

    def __init__(self, field_ops=0, matvec_count=0, vecmat_count=0):
        self.field_ops = field_ops
        self.matvec_count = matvec_count
        self.vecmat_count = vecmat_count

    def __eq__(self, other):
        return isinstance(other, CostLedger) and vars(self) == vars(other)

    def __repr__(self):
        return "CostLedger(%s)" % ", ".join(
            "%s=%d" % item for item in vars(self).items())

    @property
    def applications(self):
        return self.matvec_count + self.vecmat_count


class Accept(NamedTuple):
    """An accepted run: its tests and the soundness error bound they give,
    the exact fraction num/den as the pair (num, den) in lowest terms."""

    num_tests: int
    soundness_error_bound: tuple
    accepted = True


class Reject(NamedTuple):
    """A rejected run: the failed check and where it failed."""

    check_id: str
    location: tuple
    accepted = False


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


def digest_words(digest):
    """A 32-byte digest as four little-endian words for header params."""
    return tuple(_words(digest))


class Header(namedtuple("Header", "tag p n params m")):
    """Public protocol statement: identifier, field, dimension, parameters,
    and the size m of the sample set {0..m-1} challenges are drawn from;
    m = 0, the default, means all of GF(p)."""

    __slots__ = ()

    def __new__(cls, tag, p, n, params, m=0):
        return super().__new__(cls, tag, p, n, params, m or p)

    def encode(self):
        return MAGIC + bytes([self.tag]) + _word_bytes(
            (self.p, self.n, len(self.params), *map(int, self.params), self.m))

    @staticmethod
    def decode(data):
        if len(data) < 37 or data[:4] != MAGIC:
            raise MalformedTranscript("bad transcript magic")
        tag = data[4]
        p, n, count = _words(data[5:29])
        off = 29
        if count > (len(data) - off - 8) // 8:
            raise MalformedTranscript("truncated header")
        params = tuple(_words(data[off:off + 8 * count]))
        off += 8 * count
        (m,) = _words(data[off:off + 8])
        if not 2 <= m <= p:
            raise MalformedTranscript(
                "sample set size %d outside 2..%d" % (m, p))
        return Header(tag, p, n, params, m), off + 8


# a range end that names the transcript's size in 64-bit words
WORDS = "words"

# the largest value a header word holds
WORD_MAX = (1 << 64) - 1


class Kind(NamedTuple):
    """One transcript kind: its statement's layout and the runner behind it.

    tag is the protocol identifier its headers carry.  params names the
    header parameters in header order; the names are also the keys of the
    verify report.  limits gives each parameter what a statement may hold:
    a choice the dict from each name the kind runs to its header word, any
    other value a range (low, high).  high is an int, the name of an
    earlier parameter, WORDS, or None for no bound beyond the 64-bit word.
    A length or degree is at most WORDS because the certified sequence
    itself crosses the wire.  rule(n, *values), if set, holds the whole
    statement at dimension n once its values are within their limits: it
    returns None, or why the statement is refused.  values is the one place
    a header is held to all this, and to the matrix it names.
    runner(sess, op, *values) is the protocol body: it returns the certified
    value that value_key names, or None for a sequence kind.  bound(sess,
    op, *values), if set, returns (label, got, formula, limit) for the
    report's bound check.
    """

    tag: int
    name: str
    params: tuple
    limits: tuple
    runner: object
    value_key: str = None
    bound: object = None
    rule: object = None

    def __hash__(self):
        # a choice limit is a dict, so a kind hashes as the tag it is named by
        return hash(self.tag)

    def header(self, mat, *values, **named):
        """The statement for mat; values go by position or by parameter name.

        Raises ValueError for a value outside its limits or a statement its
        rule refuses, since `verify` would refuse the transcript; a WORDS
        end waits for the transcript and holds the value to a 64-bit word
        until then.
        """
        values += tuple(named.pop(k) for k in self.params[len(values):]
                        if k in named)
        if named or len(values) != len(self.params):
            raise TypeError("%s header takes (%s)"
                            % (self.name, ", ".join(self.params)))
        self._hold(mat.n, values, WORD_MAX, ValueError)
        words = tuple(limit[v] if isinstance(limit, dict) else v
                      for v, limit in zip(values, self.limits))
        return Header(self.tag, mat.p, mat.n,
                      words + digest_words(mat.digest))

    def values(self, header, op=None, words=None):
        """The parameter values a header carries, choices by name.

        Raises MalformedTranscript unless the header names op's modulus,
        dimension and digest, when op is given, each value lies within its
        limits and the rule holds; a WORDS end applies when words, the
        transcript's size in 64-bit words, is given.
        """
        if op is not None:
            if header.p != op.p:
                raise MalformedTranscript(
                    "transcript modulus %d does not match matrix modulus %d"
                    % (header.p, op.p))
            if header.n != op.n:
                raise MalformedTranscript(
                    "transcript dimension %d does not match matrix "
                    "dimension %d" % (header.n, op.n))
            if header.params[-4:] != digest_words(op.digest):
                raise MalformedTranscript("transcript was made for a "
                                          "different matrix (digest mismatch)")
        raw = header.params[:-4]
        if len(raw) != len(self.params):
            raise MalformedTranscript(
                "%s header has %d parameters, expected %d"
                % (self.name, len(raw), len(self.params)))
        values = []
        for k, w, limit in zip(self.params, raw, self.limits):
            if isinstance(limit, dict):
                names = [name for name, code in limit.items() if code == w]
                if not names:
                    raise MalformedTranscript("unknown %s code %d" % (k, w))
                w = names[0]
            values.append(w)
        values = tuple(values)
        self._hold(header.n, values, words, MalformedTranscript)
        return values

    def _hold(self, n, values, words, error):
        known = {WORDS: words, None: WORD_MAX}
        for k, v, limit in zip(self.params, values, self.limits):
            if isinstance(limit, dict):
                if v not in limit:
                    raise error("%s header parameter %s = %s is not one of %s"
                                % (self.name, k, v, ", ".join(limit)))
                continue
            low, high = limit
            cap = known.get(high, high)
            if v < low:
                raise error("%s header parameter %s = %d is below its limit %d"
                            % (self.name, k, v, low))
            if cap is not None and v > cap:
                raise error(
                    "%s header parameter %s = %d exceeds its limit %s"
                    % (self.name, k, v, "%s = %d" % (high, cap)
                       if isinstance(high, str) else cap))
            known[k] = v
        reason = self.rule and self.rule(n, *values)
        if reason:
            raise error("%s header %s" % (self.name, reason))

    def run(self, sess, op):
        """(outcome, certified value or None) of one run of sess.header's
        statement on op.

        Before the body runs, Kind.values holds the values to their limits
        and the statement to its rule and, when the session verifies, the
        header to op and the WORDS ends to the size of the transcript it
        replays; a proving session's header came from Kind.header.
        """
        values = (self.values(sess.header, op, sess.recorded_words())
                  if sess.verifying else self.values(sess.header))
        return run_with_outcome(sess, lambda: self.runner(sess, op, *values))


def parse_transcript(data):
    """Split raw bytes into a header and a list of (tag, payload) prover
    messages; no value decoding."""
    header, off = Header.decode(data)
    messages = []
    while off < len(data):
        if off + _FRAME_HEAD.size > len(data):
            raise MalformedTranscript("truncated message frame")
        tag, length = _FRAME_HEAD.unpack_from(data, off)
        off += _FRAME_HEAD.size
        if length > len(data) - off:
            raise MalformedTranscript("truncated message payload")
        messages.append((tag, bytes(data[off:off + length])))
        off += length
    return header, messages


_BIG_ENDIAN = sys.byteorder != "little"

# the prefix of Session.verifier_scalar's key; a transcript, which every
# other key hashes, starts with MAGIC instead
_VERIFIER_DOMAIN = b"kcert verifier scalar"

# _LOW_BITS[k] maps a byte to its low k bits, for bytes.translate
_LOW_BITS = [bytes(range(1 << k)) * (256 >> k) for k in range(8)]


def _words(data):
    """Little-endian 64-bit words of a bytes-like object, as array('Q'): the
    one decoder of the codec, the KMX1 reader and the challenge streams."""
    a = array("Q")
    a.frombytes(data)
    if _BIG_ENDIAN:
        a.byteswap()
    return a


def _word_bytes(v):
    """The little-endian 64-bit words of v as bytes, _words' one inverse.

    A bytes-like v is taken to hold them already, as a vector payload does
    past its count word (_payload_words); anything else is an iterable of
    integers below 2^64, or an array('Q') of them.
    """
    if isinstance(v, (bytes, bytearray, memoryview)):
        return bytes(v)
    if _BIG_ENDIAN or not isinstance(v, array) or v.typecode != "Q":
        v = array("Q", v)
        if _BIG_ENDIAN:
            v.byteswap()
    return v.tobytes()


def _sample(key, m, count, nonzero):
    """count elements of {0..m-1}, or of {1..m-1}, read from the SHAKE-256
    stream of key by masked discard (see the module docstring)."""
    xof = hashlib.shake_256(key)
    bits = (m - 1).bit_length()
    full, part = divmod(bits, 8)
    low = 1 if nonzero else 0
    # a masked word is uniform on 2^bits values, of which m - low survive
    rate = (m - low) / (1 << bits)
    out = []
    used = 0
    while len(out) < count:
        # the expected words for need survivors, four standard deviations
        # and a few words more; too few only costs another squeeze
        need = count - len(out)
        total = used + int(
            (need + 4 * math.sqrt(need * (1 - rate))) / rate) + 4
        stream = bytearray(xof.digest(8 * total)[8 * used:])
        used = total
        # byte j of each little-endian word is column j of the stream;
        # full < 8, since m <= p < 2^62
        stream[full::8] = stream[full::8].translate(_LOW_BITS[part])
        for j in range(full + 1, 8):
            stream[j::8] = bytes(len(stream) // 8)
        words = _words(stream).tolist()
        if max(words) < m and (not nonzero or min(words) > 0):
            out += words
        else:
            out += [x for x in words if low <= x < m]
    del out[count:]
    return out


def encode_vector(v):
    words = _word_bytes(v)
    return _word_bytes((len(words) // 8,)) + words


def _payload_words(payload):
    """The entries of a vector payload as sent: the bytes past its count
    word, which matrix.combine packs without decoding."""
    return memoryview(payload)[8:]


def decode_vector(payload, p):
    if len(payload) < 8:
        raise MalformedTranscript("short vector payload")
    (count,) = _words(payload[:8])
    if len(payload) != 8 + 8 * count:
        raise MalformedTranscript("vector payload length mismatch")
    v = _words(_payload_words(payload)).tolist()
    if v and max(v) >= p:
        raise MalformedTranscript("vector entry not reduced mod p")
    return v


def encode_mode(b):
    return bytes([b])


def decode_mode(payload):
    if len(payload) != 1:
        raise MalformedTranscript("mode payload must be 1 byte")
    return payload[0]


class Session:
    """One party's side of one protocol run: message log, challenge state,
    costs, test count.

    Prover messages go by value (send_vector, send_mode; the value is None
    when the prover has none, and a verifying session ignores it).  test is
    the randomized check: it adds weight to num_tests, which the soundness
    bound counts.  check is the deterministic one and counts nothing.
    Protocol code guards each party's work with proving or verifying;
    run_with_outcome charges the whole run to the session's own ledger.
    """

    def __init__(self, spec, header, mode, *, recorded=None, seed=None,
                 tamper=None):
        """A run of header's statement; challenges come from spec's sample set.

        mode is "prove" or "verify".  A proving session writes that sample
        set into its header; a verifying session refuses a header that names
        another one.  With a seed, challenges are drawn from
        random.Random(seed) instead of Fiat-Shamir.  tamper(index, tag,
        payload), if set, returns the payload a proving session records in
        place of the honest one (None when the honest prover has nothing to
        send).
        """
        if mode not in ("prove", "verify"):
            raise ValueError("unknown session mode %r" % (mode,))
        m = spec.sample_set_size
        if header.m != m:
            if mode == "verify":
                raise MalformedTranscript(
                    "transcript sample set size %d does not match the "
                    "verifier's sample set size %d" % (header.m, m))
            header = header._replace(m=m)
        self.spec = spec
        self.header = header
        self.proving = mode == "prove"
        self.verifying = mode == "verify"
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
        self._rng = random.Random(seed) if seed is not None else None
        self._tamper = tamper
        self._in_round = False

    @contextmanager
    def charging(self):
        """Charge work done inside to this session's ledger."""
        prev = getattr(_active, "ledger", None)
        _active.ledger = (self.verifier_ledger if self.verifying
                          else self.prover_ledger)
        try:
            yield
        finally:
            _active.ledger = prev

    # -- message plumbing

    def _append(self, tag, payload, comm):
        if not self._in_round:
            self.rounds += 1
            self._in_round = True
        self.messages.append((tag, payload))
        self._hash.update(_FRAME_HEAD.pack(tag, len(payload)))
        self._hash.update(payload)
        self.comm_field_elements += comm

    def _next_recorded(self, tag):
        if self._cursor >= len(self._recorded):
            raise MalformedTranscript("transcript ended early")
        t, payload = self._recorded[self._cursor]
        self._cursor += 1
        if t != tag:
            raise MalformedTranscript("unexpected message kind")
        return payload

    def _prover_payload(self, tag, encoder, value):
        # value, the honest message, is ignored when this session verifies
        if self.verifying:
            return self._next_recorded(tag)
        payload = None if value is None else encoder(value)
        if self._tamper is not None:
            payload = self._tamper(len(self.messages), tag, payload)
        if payload is None:
            raise ValueError("the prover has no message 0x%02x to send" % tag)
        return payload

    def send_vector(self, tag, value=None, expect_len=None):
        payload = self._prover_payload(tag, encode_vector, value)
        v = decode_vector(payload, self.spec.p)
        if expect_len is not None and len(v) != expect_len:
            raise MalformedTranscript("vector message has wrong length")
        self._append(tag, payload, len(v))
        return v

    def send_mode(self, tag, value=None):
        payload = self._prover_payload(tag, encode_mode, value)
        b = decode_mode(payload)
        self._append(tag, payload, 0)
        return b

    # -- challenges

    def _draw(self, m, count, nonzero):
        """The next challenge: count elements of {0..m-1}, or of {1..m-1}."""
        rng = self._rng
        if rng is not None:
            out = []
            for _ in range(count):
                x = rng.randrange(m)
                while nonzero and x == 0:
                    x = rng.randrange(m)
                out.append(x)
            return out
        h = self._hash.copy()
        h.update(_word_bytes((self._draw_counter,)))
        self._draw_counter += 1
        return _sample(h.digest(), m, count, nonzero)

    def _challenge(self, count, nonzero):
        values = self._draw(self.header.m, count, nonzero)
        self._in_round = False
        self.comm_field_elements += count
        return values

    def challenge_vector(self, count, *, nonzero=False):
        return self._challenge(count, nonzero)

    def challenge_scalar(self):
        (x,) = self._challenge(1, False)
        return x

    def verifier_scalar(self):
        """A scalar uniform on the sample set that only the verifier uses,
        derived from the transcript so far under its own domain.

        It draws nothing: no draw counter advances, no challenge moves and
        nothing is communicated, with or without a seed, so no transcript
        depends on it.  The same transcript prefix gives the same scalar.
        """
        key = hashlib.sha256(_VERIFIER_DOMAIN)
        key.update(self._hash.digest())
        (x,) = _sample(key.digest(), self.header.m, 1, False)
        return x

    # -- verdict bookkeeping

    def test(self, lhs, rhs, check_id, location=(), weight=1):
        """Randomized check lhs == rhs, counted as weight tests.

        Charges the one subtraction; rejects only in a verifying session.
        """
        self.num_tests += weight
        self.check(scalar_equal(lhs, rhs), check_id, location)

    def check(self, ok, check_id, location=()):
        if self.verifying and not ok:
            raise RejectError(check_id, location)

    def finish(self):
        if self.verifying and self._cursor != len(self._recorded):
            raise MalformedTranscript("trailing transcript data")
        # num_tests / m, capped at 1
        m = self.spec.sample_set_size
        num = min(self.num_tests, m)
        g = math.gcd(num, m)
        return Accept(self.num_tests, (num // g, m // g))

    def recorded_words(self):
        """The replayed transcript's size in 64-bit words: its header and
        every recorded frame."""
        return (len(self.header.encode()) + sum(
            _FRAME_HEAD.size + len(payload)
            for _, payload in self._recorded)) // 8

    def transcript_bytes(self):
        out = bytearray(self.header.encode())
        for tag, payload in self.messages:
            out += _FRAME_HEAD.pack(tag, len(payload))
            out += payload
        return bytes(out)


def run_with_outcome(sess, body):
    """(outcome, body's value) of a protocol body charged to sess's ledger;
    a failed check maps to a Reject outcome and the value None."""
    try:
        with sess.charging():
            value = body()
    except RejectError as e:
        return Reject(check_id=e.check_id, location=e.location), None
    return sess.finish(), value
