"""Exact scalar and univariate polynomial arithmetic.

Scalars are rationals (`fractions.Fraction`, re-exported as `Q`), kept in
lowest terms with positive denominator by the stdlib.  Polynomials are dense
coefficient tuples in one variable `z`, low degree first, with no trailing
zeros; they model the regular functions on the affine line.  A coefficient
is an `int` when it is integral and a `Fraction` otherwise.
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
def inv_factorial(k: int) -> Fraction:
    f = 1
    for j in range(2, k + 1):
        f *= j
    return Q(1, f)


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

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def z(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def derivative(self) -> "Poly":
        return Poly(tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:], 0)))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return PZERO
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        c = _as_q(other)
        return Poly(tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


PZERO = Poly()
PONE = Poly((1,))


def format_q(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: Poly, var: str = "z") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(format_q(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else format_q(c) + "*")
            parts.append(f"{head}{var}" + (f"^{k}" if k > 1 else ""))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out
