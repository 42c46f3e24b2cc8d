"""Workload definitions, seeded input generation and independent answers.

Inputs depend only on the workload and the seed, never on kcert: the
triplets below are the ones kcert's ``random_sparse(n, 3, seed, p)`` draws
at the time the benchmark was defined, regenerated here so that a later
change to kcert's generator cannot change what is measured.  Expected
determinants and characteristic-polynomial values come from the benchmark's
own Gaussian elimination mod p, not from ``kcert.oracle``.
"""

import random
from dataclasses import dataclass

P = (1 << 61) - 1
NNZ_PER_ROW = 3
CHARPOLY_POINTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    plus_identity: bool
    prove_args: tuple
    value_key: str | None = None  # report line carrying the certified value


WORKLOADS = {w.name: w for w in (
    Workload("checkpoint-n1024", 1024, False, ("--protocol", "checkpoint")),
    Workload("seq-single-n512", 512, False, ("--protocol", "seq-single")),
    Workload("det-nonsingular-n256", 256, True,
             ("--protocol", "det", "--variant", "single"), "determinant"),
    Workload("charpoly-n64", 64, False, ("--protocol", "charpoly"),
             "characteristic_polynomial"),
)}


def triplets(w, seed):
    """(row, col, value) entries; duplicates are summed by SparseMatrix."""
    rng = random.Random(seed)
    out = []
    for r in range(w.n):
        for c in sorted(rng.sample(range(w.n), NNZ_PER_ROW)):
            out.append((r, c, rng.randrange(1, P)))
    if w.plus_identity:
        out += [(i, i, 1) for i in range(w.n)]
    return out


def dense(n, trips):
    rows = [[0] * n for _ in range(n)]
    for r, c, v in trips:
        rows[r][c] = (rows[r][c] + v) % P
    return rows


def det_mod_p(rows):
    """Determinant by Gaussian elimination over GF(P); rows are consumed."""
    n = len(rows)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        piv = rows[c]
        det = det * piv[c] % P
        inv = pow(piv[c], P - 2, P)
        tail = piv[c + 1:]
        for i in range(c + 1, n):
            row = rows[i]
            if row[c]:
                f = row[c] * inv % P
                row[c + 1:] = [(x - f * y) % P for x, y in zip(row[c + 1:], tail)]
    return det % P


def charpoly_points(n, trips, seed):
    """[(lam, det(lam I - A))] at points drawn independently of kcert."""
    rng = random.Random("charpoly-points-%d" % seed)
    out = []
    for _ in range(CHARPOLY_POINTS):
        lam = rng.randrange(P)
        shifted = dense(n, [(r, c, -v % P) for r, c, v in trips])
        for i in range(n):
            shifted[i][i] = (shifted[i][i] + lam) % P
        out.append((lam, det_mod_p(shifted)))
    return out


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc


class Expected:
    """Checks a certified value against independently computed answers."""

    def __init__(self, w, seed):
        trips = triplets(w, seed)
        self.w = w
        self.det = self.points = None
        if w.value_key == "determinant":
            self.det = det_mod_p(dense(w.n, trips))
            if self.det == 0:
                raise ValueError("%s seed %d drew a singular matrix" % (w.name, seed))
        elif w.value_key == "characteristic_polynomial":
            self.points = charpoly_points(w.n, trips, seed)

    def check(self, rendered):
        """True when the report's value line is the right answer."""
        if self.w.value_key is None:
            return True
        if rendered is None:
            return False
        try:
            if self.det is not None:
                return int(rendered) == self.det
            coeffs = [int(tok) for tok in rendered.split(",")]
        except ValueError:
            return False
        return (len(coeffs) == self.w.n + 1 and coeffs[-1] == 1
                and all(poly_eval(coeffs, lam) == d for lam, d in self.points))
