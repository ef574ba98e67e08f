"""Exact scalar arithmetic, and the printing of one polynomial.

Scalars are rationals (`fractions.Fraction`, re-exported as `Q`), kept in
lowest terms with positive denominator by the stdlib.  A coefficient is an
`int` when it is integral and a `Fraction` otherwise, so integral tables
never pay for Fraction arithmetic.

Vectors over Q[z] are not built from polynomials: `vertex` stores a vector
as one sparse map {(coord, deg): scalar} of the coefficients of z^deg e_coord,
with no zero entries, and does its arithmetic on those scalars.
`format_poly` prints the (deg, scalar) terms of one coordinate.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import ContractError

Q = Fraction

QZERO = Q(0)


def binom(n: int, m: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-m+1)/m! for integer n, m >= 0."""
    if m < 0:
        raise ValueError(f"binom requires m >= 0, got m={m}")
    if n >= 0:
        return math.comb(n, m)
    return (-1) ** m * math.comb(m - n - 1, m)


def factorial(k: int) -> int:
    """k!, the weight between a layer k in powers d^k and in divided powers
    d^k/k!; past the C long the stdlib factorial takes, a ContractError
    (exit 2) that names the weight 1/k!."""
    try:
        return math.factorial(k)
    except OverflowError:
        raise ContractError(f"cannot compute 1/{k}!: the factorial takes arguments "
                            f"up to {sys.maxsize}") from None


@lru_cache(maxsize=None)
def inv_factorial(k: int) -> int | Fraction:
    """1/k!, an `int` for k <= 1."""
    f = factorial(k)
    return 1 if f == 1 else Q(1, f)


def format_q(c: Fraction) -> str:
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:  # an int longer than the interpreter converts to a string
        raise ContractError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                            "digits, the limit for printing an integer") from None


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
