"""Arithmetic in GF(p) for a word-sized prime p, plus dense polynomial helpers.

Scalars are plain Python ints kept in canonical form 0 <= a < p.  Products go
through a double-width intermediate and a single reduction; Python ints handle
the 122-bit case (p close to 2^61) natively.  Polynomials are coefficient
lists, index i = coefficient of x^i, with no trailing zeros (the zero
polynomial is the empty list).

Berlekamp-Massey (minpoly_of_sequence) is the prover's way to the generator
of a sequence, and the tests' reference for it; no verifier runs it.  It
defers its reductions: the connection polynomial accumulates exact integers,
each below len(s) * p^2 + p, and is reduced only when it is copied at a
length change and once at the end.  The ledger charge is the same as for
reducing every term.

For the generator certificate Berlekamp-Massey also hands the prover the
last column of the inverse Hankel matrix, read off its auxiliary polynomial
for a few more field ops; hankel_solve turns it into a full O(L) solve through the
Bezoutian, and window_sums is the verifier's O(n) pass over the sequence.
"""

from collections import namedtuple
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


class FieldSpec(namedtuple("FieldSpec", "p sample_set_size")):
    """The field GF(p) together with the challenge sample set
    {0..sample_set_size-1}; sample_set_size None, the default, means all of
    GF(p)."""

    __slots__ = ()

    def __new__(cls, p, sample_set_size=None):
        if not (2 < p < (1 << 62)):
            raise ValueError("modulus out of range (need 2 < p < 2^62)")
        if not is_probable_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        if sample_set_size is None:
            sample_set_size = p
        # a nonzero challenge needs a sample set with a nonzero element
        if not (2 <= sample_set_size <= p):
            raise ValueError("sample set size must lie in [2, p]")
        return super().__new__(cls, p, sample_set_size)


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


def minpoly_of_sequence(s: list, p: int) -> tuple:
    """Monic minimal generating polynomial f of a linearly recurrent sequence,
    and the last column a of the inverse of its Hankel matrix: (f, a).

    Berlekamp-Massey over GF(p).  For a sequence of length 2d whose true
    recurrence has order <= d the output is exact.  The all-zero sequence
    yields the polynomial 1 (and a = []) by convention.  Charges the
    arithmetic performed to the active ledger.

    a, of length L = deg f, solves H a = (0, ..., 0, 1) for the Hankel
    matrix H = (s[i + j]), i, j < L.  At the last length change, at index
    i0 with discrepancy d', the connection polynomial b of length lb left
    behind yields zero on the windows ending before i0 and d' on the one
    ending at i0; those are the L = i0 + 1 - lb rows of H applied to b
    reversed, so a is that reversal over d'.  Reading it off costs lb + 1
    field ops.

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
    l, m, binv, lb = 0, 1, 1, 0
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
            lb, l = l, i + 1 - l
            b = prev
            binv = f_inv(d, p)
            m = 1
    engine.charge_field_ops(ops)
    # minimal polynomial is the degree-l reversal of the connection polynomial
    f = _reversal(c, l, p)
    if l == 0:
        return f, []
    engine.charge_field_ops(lb + 1)
    a = [x * binv % p for x in _reversal(b, lb, p)]
    return f, a + [0] * (l - lb - 1)


def _reversal(c, d, p):
    """x^d c(1/x) reduced, for c of degree at most d."""
    f = [x % p for x in reversed(c[:d + 1])]
    return [0] * (d + 1 - len(f)) + f


def hankel_solve(f: list, a: list, beta: int, p: int) -> list:
    """y with H y = (1, beta, ..., beta^(L-1)), H = (s[i + j]) for i, j < L.

    f is the monic minimal generator of degree L of a sequence s with at
    least 2L entries, and a solves H a = (0, ..., 0, 1), as
    minpoly_of_sequence(s, p) returns them.  H^-1 is then
    the Bezoutian of f and a (a is g^-1 mod f for sum s[k] x^(-k-1) = g/f),
    so y is the coefficient list of (a(beta) f(x) - f(beta) a(x)) /
    (x - beta): one synthetic division, O(L) field ops.
    """
    L = len(f) - 1
    if L == 0:
        return []
    ab = poly_eval(a, beta, p)
    fb = poly_eval(f, beta, p)
    a = a + [0]
    acc = 0
    y = [0] * L
    for i in range(L, 0, -1):
        acc = (acc * beta + ab * f[i] - fb * a[i]) % p
        y[i - 1] = acc
    engine.charge_field_ops(5 * L)
    return y


def window_sums(s: list, rho: int, width: int, count: int, p: int) -> list:
    """[sum_(j < width) rho^j s[i + j] for i < count], for width, count >= 1.

    The top sum by Horner, then downwards c_i = s_i + rho (c_(i+1) -
    rho^(width-1) s_(i+width)): O(width + count) field ops.
    """
    top = count - 1
    acc = 0
    for x in reversed(s[top:top + width]):
        acc = (acc * rho + x) % p
    lead = pow(rho, width - 1, p)
    out = [0] * count
    out[top] = acc
    for i in range(top - 1, -1, -1):
        acc = (s[i] + rho * (acc - lead * s[i + width])) % p
        out[i] = acc
    engine.charge_field_ops(2 * (width - 1) + 2 * (width - 1).bit_length()
                            + 4 * top)
    return out

