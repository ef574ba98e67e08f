"""Exact scalar arithmetic, and one polynomial value type.

Scalars are rationals (`fractions.Fraction`, re-exported as `Q`), kept in
lowest terms with positive denominator by the stdlib.  A coefficient is an
`int` when it is integral and a `Fraction` otherwise, so integral tables
never pay for Fraction arithmetic.

Vectors over Q[z] are not built from polynomials: `vertex` stores a vector
as one sparse map {(coord, deg): scalar} of the coefficients of z^deg e_coord,
with no zero entries, and does its arithmetic on those scalars.  `Poly`, a
normalized low-degree-first tuple in one variable z, remains the public
value type of a single polynomial, and `format_poly` prints one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Q = Fraction

QZERO = Q(0)


def binom(n: int, m: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-m+1)/m! for integer n, m >= 0."""
    if m < 0:
        raise ValueError(f"binom requires m >= 0, got m={m}")
    if n >= 0:
        return math.comb(n, m)
    return (-1) ** m * math.comb(m - n - 1, m)


@lru_cache(maxsize=None)
def inv_factorial(k: int) -> int | Fraction:
    """1/k!, an `int` for k <= 1."""
    f = math.factorial(k)
    return 1 if f == 1 else Q(1, f)


def _as_q(x) -> int | Fraction:
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Poly:
    """Polynomial in z over Q, as a normalized low-degree-first tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({format_poly(enumerate(self.coeffs))})"


def format_q(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(terms, var: str = "z") -> str:
    """Render (degree, coefficient) pairs, in increasing degree, as a
    polynomial in `var`; zero coefficients are skipped."""
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        if k == 0:
            parts.append(format_q(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else format_q(c) + "*")
            parts.append(f"{head}{var}" + (f"^{k}" if k > 1 else ""))
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out
