"""Reference kernel and the drift-calibrated clock built on it.

Host speed on a shared machine drifts by tens of percent within seconds, so a
raw wall time says as much about the neighbours as about kcert.  Every call
is therefore reported in reference seconds:

    ref_s = (wall_s - probe_s) * PINNED_PASS_S / (mean kernel pass time)

where the kernel passes are probes taken every PROBE_INTERVAL_S *during* the
call, from a SIGALRM handler, topped up right after it to MIN_PROBES, and
probe_s is the time those in-call probes took.  A kernel pass is a 1024-term
big-int dot product mod 2^61 - 1, the packing of 1024 ints into 8-byte words
and back, and a sha256 of the packed bytes: the same mix of work the kcert
prover and verifier do.  The kernel lives only in the benchmark, so no change
to kcert can speed it up.

Snapshots taken only before and after a call track it poorly once the call
runs for seconds: on a 3.3 s prove (2-vCPU Xeon VM, Python 3.11), five
processes of three calls each gave a run-to-run spread of 9 % with 0.85 s
snapshots on each side against 3 % with in-call probes (raw wall time: 18 %).
"""

import hashlib
import random
import signal
import statistics
from operator import mul
from time import perf_counter

P = (1 << 61) - 1
TERMS = 1024
PROBE_INTERVAL_S = 0.025
MIN_PROBES = 16

_rng = random.Random(0x6B63)
_A = [_rng.randrange(P) for _ in range(TERMS)]
_B = [_rng.randrange(P) for _ in range(TERMS)]


def kernel_pass():
    acc = sum(map(mul, _A, _B)) % P
    buf = b"".join([x.to_bytes(8, "little") for x in _A])
    back = [int.from_bytes(buf[i:i + 8], "little") for i in range(0, len(buf), 8)]
    digest = hashlib.sha256(buf).digest()
    return acc ^ back[-1] ^ digest[0]


class RefClock:
    """Times calls in wall and reference seconds; one instance per run."""

    def __init__(self, pinned_pass_s):
        self.pinned = pinned_pass_s
        self.pass_times = []

    def _probe(self, *_):
        t = perf_counter()
        kernel_pass()
        self.pass_times.append(perf_counter() - t)

    def sample(self, fn):
        """Run fn(); return (result, wall_s, ref_s), both without probe time."""
        first = len(self.pass_times)
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.pass_times[first:])
        while len(self.pass_times) - first < MIN_PROBES:
            self._probe()
        per_pass = statistics.fmean(self.pass_times[first:])
        return out, wall, wall * self.pinned / per_pass
