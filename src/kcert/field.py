"""Arithmetic in GF(p) for a word-sized prime p, plus dense polynomial helpers.

Scalars are plain Python ints kept in canonical form 0 <= a < p.  Products go
through a double-width intermediate and a single reduction; Python ints handle
the 122-bit case (p close to 2^61) natively.  Polynomials are coefficient
lists, index i = coefficient of x^i, with no trailing zeros (the zero
polynomial is the empty list).

Berlekamp-Massey (minpoly_of_sequence) defers its reductions: the connection
polynomial accumulates exact integers, each below len(s) * p^2 + p, and is
reduced only when it is copied at a length change and once at the end.  The
ledger charge is the same as for reducing every term.
"""

from dataclasses import dataclass
from operator import mul

from . import engine

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24, far past 2^62.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime 2^61 - 1


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases, deterministic for n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def f_inv(a: int, p: int) -> int:
    """Inverse modulo the prime p, by the extended Euclid inside pow(a, -1, p)."""
    if a % p == 0:
        raise ZeroDivisionError("cannot invert zero in GF(p)")
    return pow(a, -1, p)


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p) together with the challenge sample set {0..sample_set_size-1}."""

    p: int
    sample_set_size: int = 0  # 0 means "all of GF(p)", fixed up below

    def __post_init__(self):
        if not (2 < self.p < (1 << 62)):
            raise ValueError("modulus out of range (need 2 < p < 2^62)")
        if not is_probable_prime(self.p):
            raise ValueError("modulus %d is not prime" % self.p)
        if self.sample_set_size == 0:
            object.__setattr__(self, "sample_set_size", self.p)
        if not (1 <= self.sample_set_size <= self.p):
            raise ValueError("sample set size must lie in [1, p]")


# ---------------------------------------------------------------------------
# dense polynomials

def poly_trim(f: list) -> list:
    """Drop trailing zero coefficients in place convention (returns a new list)."""
    d = len(f)
    while d > 0 and f[d - 1] == 0:
        d -= 1
    return f[:d]


def poly_degree(f: list) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(f) - 1


def poly_eval(f: list, x: int, p: int) -> int:
    """Horner evaluation; charges 2*deg field ops to the active ledger."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    if len(f) > 1:
        engine.charge_field_ops(2 * (len(f) - 1))
    return acc


def poly_add(f: list, g: list, p: int) -> list:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def poly_sub(f: list, g: list, p: int) -> list:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_mul(f: list, g: list, p: int) -> list:
    """Schoolbook product; desk-scale degrees only."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_scale(f: list, c: int, p: int) -> list:
    return poly_trim([a * c % p for a in f])


def poly_monic(f: list, p: int) -> list:
    """Scale a nonzero polynomial to leading coefficient 1."""
    if not f:
        raise ValueError("zero polynomial has no monic form")
    lead = f[-1]
    if lead == 1:
        return list(f)
    return poly_scale(f, f_inv(lead, p), p)


def poly_divmod(f: list, g: list, p: int) -> tuple:
    """Quotient and remainder of f by nonzero g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    ginv = f_inv(g[-1], p)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c = c * ginv % p
        q[i - dg] = c
        for j, b in enumerate(g):
            r[i - dg + j] = (r[i - dg + j] - c * b) % p
    return poly_trim(q), poly_trim(r)


def poly_gcd(f: list, g: list, p: int) -> list:
    """Monic gcd by Euclid (gcd(0, 0) = 0)."""
    a, b = list(f), list(g)
    while b:
        _, a, b = 0, b, poly_divmod(a, b, p)[1]
    return poly_monic(a, p) if a else []


def poly_lcm(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    d = poly_gcd(f, g, p)
    q, _ = poly_divmod(poly_mul(f, g, p), d, p)
    return poly_monic(q, p)


def minpoly_of_sequence(s: list, p: int) -> list:
    """Monic minimal generating polynomial of a linearly recurrent sequence.

    Berlekamp-Massey over GF(p).  For a sequence of length 2d whose true
    recurrence has order <= d the output is exact.  The all-zero sequence
    yields the polynomial 1 by convention.  Charges the arithmetic performed
    to the active ledger.

    The connection polynomial c holds exact integers: its reduction is
    deferred to the moment it is copied into b at a length change, and to
    the end.  b and the update coefficient stay reduced, so every entry of c
    stays below len(s) * p^2 + p.  The ledger charge still counts one
    reduction per term.
    """
    n = len(s)
    rs = s[::-1]
    c = [1]  # connection polynomial, c[0] = 1
    b = [1]
    l, m, binv = 0, 1, 1
    ops = 0
    for i in range(n):
        # discrepancy d = s[i] + sum_{j=1..l} c[j] s[i-j]
        d = sum(map(mul, c, rs[n - 1 - i:n - i + l])) % p
        ops += 2 * l + 1
        if d == 0:
            m += 1
            continue
        # c -= (d / d') x^m b, d' the discrepancy at the last length change,
        # written as an addition so that c stays nonnegative
        coef = -d * binv % p
        ops += 2 + 2 * len(b)
        top = len(b) + m
        prev = [x % p for x in c] if 2 * l <= i else None
        if len(c) < top:
            c += [0] * (top - len(c))
        c[m:top] = [x + coef * y for x, y in zip(c[m:top], b)]
        if prev is None:
            m += 1
        else:
            l = i + 1 - l
            b = prev
            binv = f_inv(d, p)
            m = 1
    engine.charge_field_ops(ops)
    # minimal polynomial is the degree-l reversal of the connection polynomial
    f = [x % p for x in reversed(c[:l + 1])]
    return [0] * (l + 1 - len(f)) + f


def sequence_annihilated_by(f: list, s: list, p: int) -> bool:
    """Check sum_i f[i] s[j+i] = 0 for every window of s; used by verifiers and tests."""
    e = len(f) - 1
    for j in range(len(s) - e):
        acc = 0
        for i, fi in enumerate(f):
            if fi:
                acc += fi * s[j + i]
        if acc % p != 0:
            return False
    return True
