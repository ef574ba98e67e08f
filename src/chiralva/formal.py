"""Finite-window calculus for formal Laurent distributions in x0, x1, x2.

A distribution has infinite support, so equality can only be tested on a
declared finite exponent box; coefficients outside the box are untracked,
never assumed zero.  Every tracked coefficient is computed exactly: finite
factors of a product are expanded over their full (finite) support, and
each key f of that support scatters the single allowed infinite factor,
times x^f, into the box, so no convolution is ever truncated, no key
outside the box is formed, and no product is multiplied out over its sums.
Delta and iota atoms enumerate their own support, times x^f, inside a box,
with integer binomial coefficients.

Expression atoms:

* ``Monomial``    -- rational coefficient times a monomial in x0, x1, x2;
* ``IotaPow``     -- a binomial power (first - second)^n expanded in
                     nonnegative powers of the second variable;
* ``DeltaAtom``   -- a formal delta of one of the ratio shapes
                     delta(v1/v3) or delta((s1*v1 + s2*v2)/(s3*v3)),
                     the binomial numerator again expanded in nonnegative
                     powers of its second summand;
* ``Sum`` / ``Product`` / ``Deriv`` nodes combine them.

A product with two or more factors of infinite support is ill-formed
wherever it sits, even under a zero factor: its expansion would require a
divergent coefficient sum.  `support_bounds` rejects it, and `expand` runs
that check on the whole expression before evaluating anything.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from operator import add, contains

from .errors import ContractError, IllFormedProduct, UnsupportedInput
from .exact import Q, QZERO, binom

VARIABLES = ("x0", "x1", "x2")

_NEG = float("-inf")
_POS = float("inf")


# ---------------------------------------------------------------------------
# boxes and windows


class ExponentBox:
    """Inclusive per-variable exponent bounds for a fixed ordered variable set;
    boxes are equal when their variables and bounds are."""

    __slots__ = ("variables", "bounds", "_ranges")

    def __init__(self, variables: tuple[str, ...], bounds: tuple[tuple[int, int], ...]):
        if len(variables) != len(bounds):
            raise ContractError("one (lo, hi) bound pair per variable required")
        for v in variables:
            if v not in VARIABLES:
                raise ContractError(f"unknown variable {v!r}")
        for v, (lo, hi) in zip(variables, bounds):
            if lo > hi:
                raise ContractError(f"empty bound [{lo}, {hi}] for {v}")
        self.variables, self.bounds = variables, bounds
        self._ranges = tuple(range(lo, hi + 1) for lo, hi in bounds)

    def __eq__(self, other) -> bool:
        return type(other) is ExponentBox and (self.variables, self.bounds) == (other.variables, other.bounds)

    def __hash__(self) -> int:
        return hash((self.variables, self.bounds))

    def __repr__(self) -> str:
        return f"ExponentBox(variables={self.variables!r}, bounds={self.bounds!r})"

    @classmethod
    def cube(cls, variables, lo: int, hi: int) -> "ExponentBox":
        variables = tuple(variables)
        return cls(variables, tuple((lo, hi) for _ in variables))

    def index(self, var: str) -> int:
        return self.variables.index(var)

    def contains(self, key: tuple[int, ...]) -> bool:
        return len(key) == len(self._ranges) and all(map(contains, self._ranges, key))

    def keys(self):
        return itertools.product(*self._ranges)

    def shifted(self, f: tuple[int, ...]) -> "ExponentBox":
        """The box of the keys k with k + f in this box."""
        bounds = tuple((lo - e, hi - e) for (lo, hi), e in zip(self.bounds, f))
        return ExponentBox(self.variables, bounds)

    def describe(self) -> str:
        return ", ".join(
            f"{v} in [{lo}..{hi}]" for v, (lo, hi) in zip(self.variables, self.bounds)
        )


class LaurentWindow:
    """Sparse exponent-key -> rational table tracked inside an ExponentBox."""

    __slots__ = ("box", "coeffs")

    def __init__(self, box: ExponentBox, coeffs: dict | None = None):
        self.box = box
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                if val:
                    if not box.contains(key):
                        raise ContractError(f"key {key} outside box")
                    self.coeffs[key] = val

    def coeff(self, key: tuple[int, ...]) -> Fraction:
        if not self.box.contains(key):
            raise ContractError(f"coefficient at {key} is untracked by this box")
        return self.coeffs.get(key, QZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentWindow)
            and self.box == other.box
            and self.coeffs == other.coeffs
        )

    def diff_keys(self, other: "LaurentWindow") -> list[tuple[int, ...]]:
        if self.box != other.box:
            raise ContractError("windows compare only on equal boxes")
        if self.coeffs == other.coeffs:
            return []
        keys = set(self.coeffs) | set(other.coeffs)
        return sorted(k for k in keys if self.coeffs.get(k, QZERO) != other.coeffs.get(k, QZERO))


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Sum((self, other))

    def __sub__(self, other):
        return Sum((self, Product((Monomial(Q(-1), ()), other))))

    def __mul__(self, other):
        return Product((self, other))


class Monomial(Expr):
    __slots__ = ("coeff", "exps")

    def __init__(self, coeff: Fraction, exps: tuple[tuple[str, int], ...]):
        self.coeff, self.exps = coeff, exps  # exps sorted, nonzero exponents only

    @classmethod
    def make(cls, coeff, exps: dict | None = None) -> "Monomial":
        items = tuple(sorted((v, e) for v, e in (exps or {}).items() if e))
        return cls(Q(coeff), items)


class IotaPow(Expr):
    """(first - second)^n expanded in nonnegative powers of `second`."""

    __slots__ = ("first", "second", "n")

    def __init__(self, first: str, second: str, n: int):
        if first == second:
            raise ContractError("iota expansion needs two distinct variables")
        self.first, self.second, self.n = first, second, n


class DeltaAtom(Expr):
    """delta(num/den); num is one signed variable ((sign, var),) or a signed
    binomial ((s1, v1), (s2, v2)), den one signed variable (sign, var)."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[tuple[int, str], ...], den: tuple[int, str]):
        if len(num) not in (1, 2):
            raise ContractError("delta numerator must have one or two terms")
        seen = {v for _, v in num} | {den[1]}
        if len(seen) != len(num) + 1:
            raise ContractError("delta ratio variables must be distinct")
        for s, _ in (*num, den):
            if s not in (1, -1):
                raise ContractError("delta term signs must be +1 or -1")
        self.num, self.den = num, den


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors


class Deriv(Expr):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Expr):
        self.var, self.body = var, body


def mono(exps: dict | None = None, coeff=1) -> Monomial:
    return Monomial.make(coeff, exps)


def delta_ratio(v1: str, v3: str, s1: int = 1, s3: int = 1) -> DeltaAtom:
    return DeltaAtom(((s1, v1),), (s3, v3))


def delta_binomial(v1: str, v2: str, v3: str, s1: int = 1, s2: int = -1, s3: int = 1) -> DeltaAtom:
    """delta((s1*v1 + s2*v2)/(s3*v3)); defaults give delta((v1-v2)/v3)."""
    return DeltaAtom(((s1, v1), (s2, v2)), (s3, v3))


# ---------------------------------------------------------------------------
# structural support bounds


def _merge_bounds(maps: list[dict], combine) -> dict:
    return {v: combine([m.get(v, (0, 0)) for m in maps]) for v in set().union(*maps)}


def support_bounds(expr: Expr, memo: dict | None = None) -> dict:
    """Per-variable (lo, hi) exponent bounds; entries may be +-inf.  Raises
    IllFormedProduct at any product with two or more infinite factors.
    `memo`, local to one evaluation, keeps each node's bounds and degree by identity."""
    return _bounded(expr, {} if memo is None else memo)[0]


def _bounded(expr: Expr, memo: dict) -> tuple[dict, int | None]:
    return memo[expr] if expr in memo else memo.setdefault(expr, _node_bounds(expr, memo))


def _node_bounds(expr: Expr, memo: dict) -> tuple[dict, int | None]:
    """`expr`'s bounds and degree, the exponent sum of each of its keys:
    an iota's n, a delta's 0, one less under d/dv, None for a Sum of mixed
    degrees and for a product with such a factor."""
    if isinstance(expr, Monomial):
        return {v: (e, e) for v, e in expr.exps}, sum(dict(expr.exps).values())
    if isinstance(expr, IotaPow):
        if expr.n >= 0:
            return {expr.first: (0, expr.n), expr.second: (0, expr.n)}, expr.n
        return {expr.first: (_NEG, expr.n), expr.second: (0, _POS)}, expr.n
    if isinstance(expr, DeltaAtom):
        out = {self_var: (_NEG, _POS) for _, self_var in (*expr.num, expr.den)}
        if len(expr.num) == 2:
            out[expr.num[1][1]] = (0, _POS)
        return out, 0
    if isinstance(expr, Sum):
        parts = [_bounded(t, memo) for t in expr.terms]
        degrees = {d for _, d in parts}
        return _merge_bounds(
            [b for b, _ in parts],
            lambda bs: (min(b[0] for b in bs), max(b[1] for b in bs)),
        ), degrees.pop() if len(degrees) == 1 else None
    if isinstance(expr, Product):
        parts = [_bounded(f, memo) for f in expr.factors]
        if sum(not _finite_bounds(b) for b, _ in parts) > 1:
            raise IllFormedProduct("a product may contain at most one factor of infinite support")
        degrees = [d for _, d in parts]
        return _merge_bounds(
            [b for b, _ in parts], lambda bs: (sum(b[0] for b in bs), sum(b[1] for b in bs))
        ), None if None in degrees else sum(degrees)
    if isinstance(expr, Deriv):
        body, degree = _bounded(expr.body, memo)
        out = dict(body)
        lo, hi = out.get(expr.var, (0, 0))
        out[expr.var] = (lo - 1, hi - 1)
        return out, None if degree is None else degree - 1
    raise ContractError(f"unknown expression node {type(expr).__name__}")


def _finite_bounds(bounds: dict) -> bool:
    return all(lo != _NEG and hi != _POS for lo, hi in bounds.values())


# ---------------------------------------------------------------------------
# exact evaluation


def _atom(expr: Expr, box: ExponentBox, f: tuple[int, ...]) -> dict:
    """Support of x^f times a delta or iota atom inside `box`, with exact int
    coefficients.

    Both atoms are sums over n of (s1*v1 + s2*v2)^n (s3*v3)^-n expanded in
    nonnegative powers m of v2: the coefficient at v1^(n-m) v2^m v3^-n is
    s1^(n-m) s2^m s3^n binom(n, m).  An iota has the one n and no v3, a delta
    ratio has no v2 and so m = 0; every other variable of the box has
    exponent 0.  The m range of each n is clipped to the box moved by -f in
    closed form, each key column is then moved by its variable's f, and
    binom(n, m+1) = binom(n, m) (n-m)/(m+1), an exact division, carries
    each next coefficient from the one before.
    """
    if isinstance(expr, IotaPow):
        (s1, v1), (s2, v2), (s3, v3) = (1, expr.first), (-1, expr.second), (1, None)
    else:
        (s1, v1), (s2, v2) = expr.num if len(expr.num) == 2 else (expr.num[0], (1, None))
        s3, v3 = expr.den
    bounds = {v: (lo - e, hi - e) for v, (lo, hi), e in zip(box.variables, box.bounds, f)}
    lo1, hi1 = bounds.pop(v1)
    lo2, hi2 = bounds.pop(v2, (0, 0))
    lo3, hi3 = bounds.pop(v3) if v3 else (-expr.n, -expr.n)  # an iota's one n
    if any(not lo <= 0 <= hi for lo, hi in bounds.values()):
        return {}
    slots = (v1, v2, v3)
    where = [(slots.index(v) if v in slots else 3, e) for v, e in zip(box.variables, f)]

    def keys(cols):  # a range column moves by e, a constant one becomes repeat(c + e)
        return zip(*[range(c.start + e, c.stop + e, c.step) if type(c) is range
                     else itertools.repeat(c + e) for c, e in ((cols[j], e) for j, e in where)])

    if v2 is None:
        ns = range(max(lo1, -hi3), min(hi1, -lo3) + 1)
        flip = s1 != s3
        return {key: -1 if flip and n % 2 else 1
                for key, n in zip(keys((ns, 0, range(-ns.start, -ns.stop, -1), 0)), ns)}
    ratio = s1 * s2
    out = {}
    for n in range(-hi3, -lo3 + 1):
        mlo = max(0, lo2, n - hi1)
        mhi = min(hi2, n - lo1) if n < 0 else min(hi2, n - lo1, n)
        if mlo > mhi:
            continue
        val = binom(n, mlo)
        if ((s1 < 0) * (n - mlo) + (s2 < 0) * mlo + (s3 < 0) * n) % 2:
            val = -val
        vals = [val]
        for m in range(mlo, mhi):
            val = ratio * val * (n - m) // (m + 1)
            vals.append(val)
        out.update(zip(keys((range(n - mlo, n - mhi - 1, -1), range(mlo, mhi + 1), -n, 0)), vals))
    return out


def _convolve(a: dict, b: dict) -> dict:
    """Product of two finite sparse tables."""
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0) + v1 * v2
    return _drop_zeros(out)


def _factors(expr: Product) -> list:
    """The factors of `expr`, with nested products spliced in."""
    return [g for f in expr.factors for g in (_factors(f) if isinstance(f, Product) else (f,))]


def _gather(parts) -> dict:
    """The sum of `parts`, (c, table) pairs: the first table is adopted, or
    scaled by its c, the rest are added in, and zeros are dropped once."""
    out = None
    for c, table in parts:
        if out is None:
            out = table if c == 1 else {k: c * v for k, v in table.items()}
            continue
        for k, v in table.items():
            out[k] = out.get(k, 0) + c * v
    return {} if out is None else _drop_zeros(out)


def _drop_zeros(table: dict) -> dict:
    """`table` with its zero coefficients deleted in place, so no second
    copy of a large table is held."""
    for k in [k for k, v in table.items() if not v]:
        del table[k]
    return table


def _product(factors, box: ExponentBox, memo: dict, f: tuple[int, ...]) -> dict:
    """x^f times the finite factors, multiplied out over their full support
    into one table.  Each key g of that table, with coefficient c, then
    scatters c times the one infinite factor `support_bounds` allows, times
    x^g, into `box`, and every coefficient is exact."""
    bounds = [_bounded(g, memo)[0] for g in factors]
    finite = [(g, b) for g, b in zip(factors, bounds) if _finite_bounds(b)]
    infinite = [g for g, b in zip(factors, bounds) if not _finite_bounds(b)]
    table = {f: 1}
    zero = (0,) * len(f)
    for g, b in finite:
        full = ExponentBox(box.variables, tuple(b.get(v, (0, 0)) for v in box.variables))
        table = _convolve(table, _table(g, full, memo, zero))
    if not infinite:
        return {k: v for k, v in table.items() if box.contains(k)}
    # a zero finite part leaves the infinite factor unread
    return _gather((c, _table(infinite[0], box, memo, g)) for g, c in table.items())


def _table(expr: Expr, box: ExponentBox, memo: dict, f: tuple[int, ...]) -> dict:
    """Exact nonzero coefficients of x^f times `expr` inside `box`; `expr`
    has passed `support_bounds`, whose bounds and degrees of its nodes
    `memo` keeps."""
    if isinstance(expr, Monomial):
        exps = dict(expr.exps)
        key = tuple(exps.get(v, 0) + e for v, e in zip(box.variables, f))
        c = expr.coeff.numerator if expr.coeff.denominator == 1 else expr.coeff
        return {key: c} if c and box.contains(key) else {}
    if isinstance(expr, (IotaPow, DeltaAtom)):
        return _atom(expr, box, f)
    if isinstance(expr, Product):  # zero on the box when no key there has its one degree
        d = _bounded(expr, memo)[1]
        if d is not None and not sum([lo for lo, _ in box.bounds]) <= d + sum(f) <= sum([hi for _, hi in box.bounds]):
            return {}
        return _product(_factors(expr), box, memo, f)
    if isinstance(expr, Sum):
        return _gather((1, _table(t, box, memo, f)) for t in expr.terms)
    # d/dv takes v^e to e v^(e-1): read the body at the offset one lower in v,
    # so x^f d/dv(x^k) = k_v x^(k+f-1_v) lands on the body's own key
    i = box.index(expr.var)
    g = f[:i] + (f[i] - 1,) + f[i + 1 :]
    return {k: (k[i] - g[i]) * v for k, v in _table(expr.body, box, memo, g).items() if k[i] != g[i]}


def _window(expr: Expr, box: ExponentBox, memo: dict) -> LaurentWindow:
    """The window of `expr` on `box`, filled with `_table`'s keys, which lie
    in the box and carry nonzero values by construction; `memo` is a
    `support_bounds` memo filled for `expr`."""
    window = LaurentWindow(box)
    window.coeffs = _table(expr, box, memo, (0,) * len(box.variables))
    return window


def expand(expr: Expr, box: ExponentBox, _memo: dict | None = None) -> LaurentWindow:
    """Exact coefficients of `expr` on `box`; untracked outside.  `_memo` is
    a `support_bounds` memo the caller already filled for this expression."""
    memo = {} if _memo is None else _memo
    extra = set(support_bounds(expr, memo)) - set(box.variables)
    if extra:
        raise ContractError(f"expression uses variables {sorted(extra)} not in the box")
    return _window(expr, box, memo)


def iota_expand(first: str, second: str, n: int, box: ExponentBox) -> LaurentWindow:
    """Window truncation of the binomial power (first - second)^n under the
    nonnegative-powers-of-second expansion convention."""
    return expand(IotaPow(first, second, n), box)


# ---------------------------------------------------------------------------
# identity checking


class IdentityReport(namedtuple("IdentityReport", "passed box diffs note", defaults=("",))):
    __slots__ = ()  # diffs: ((key, lhs coefficient, rhs coefficient), ...)

    @property
    def first_diff(self):
        return self.diffs[0] if self.diffs else None


def _report(lw: LaurentWindow, rw: LaurentWindow, note: str) -> IdentityReport:
    keys = lw.diff_keys(rw)
    diffs = tuple((k, lw.coeffs.get(k, QZERO), rw.coeffs.get(k, QZERO)) for k in keys)
    return IdentityReport(not diffs, lw.box, diffs, note)


def check_identity(lhs: Expr, rhs: Expr, box: ExponentBox, note: str = "",
                   _memo: dict | None = None) -> IdentityReport:
    """Compare two expansions coefficient-wise on a box; `_memo` as in `expand`."""
    return _report(expand(lhs, box, _memo), expand(rhs, box, _memo), note)


def fundamental_delta_property(
    x_coeffs: LaurentWindow, box: ExponentBox, support_is_complete: bool = False
) -> IdentityReport:
    """Check X(x1,x2) delta(x1/x2) = X(x2,x2) delta(x1/x2) on a box.

    The caller must assert that `x_coeffs` lists the full support of X, so
    the substitution x1 -> x2 is a finite sum in every coefficient.
    """
    if not support_is_complete:
        raise UnsupportedInput(
            "fundamental_delta_property needs the caller to assert complete support"
        )
    if x_coeffs.box.variables != ("x1", "x2") or box.variables != ("x1", "x2"):
        raise ContractError("fundamental property is stated for variables (x1, x2)")
    diag = {}
    for (a, b), val in x_coeffs.coeffs.items():
        diag[0, a + b] = diag.get((0, a + b), 0) + val

    def times_delta(table: dict) -> LaurentWindow:
        x = Sum(tuple(mono({"x1": a, "x2": b}, val) for (a, b), val in table.items() if val))
        product, memo = Product((x, delta_ratio("x1", "x2"))), {}
        support_bounds(product, memo)
        return _window(product, box, memo)

    return _report(times_delta(x_coeffs.coeffs), times_delta(diag), "fundamental delta property")


# ---------------------------------------------------------------------------
# the fixed identity suite from the delta calculus


def jacobi_delta_terms() -> tuple[Expr, Expr, Expr]:
    """The three delta expressions entering the main identity:
    x0^-1 delta((x1-x2)/x0), x0^-1 delta((x2-x1)/-x0), x2^-1 delta((x1-x0)/x2)."""
    t1 = Product((mono({"x0": -1}), delta_binomial("x1", "x2", "x0")))
    t2 = Product((mono({"x0": -1}), delta_binomial("x2", "x1", "x0", s3=-1)))
    t3 = Product((mono({"x2": -1}), delta_binomial("x1", "x0", "x2")))
    return t1, t2, t3


def identity_two_term(box: ExponentBox) -> IdentityReport:
    """x1^-1 delta((x2+x0)/x1) = x2^-1 delta((x1-x0)/x2).

    The source display omits the delta on the right-hand side; the corrected
    identity is checked and the omission is recorded in the report note.
    """
    lhs = Product((mono({"x1": -1}), delta_binomial("x2", "x0", "x1", s2=1)))
    rhs = Product((mono({"x2": -1}), delta_binomial("x1", "x0", "x2")))
    note = "delta restored on the right-hand side (printed form omits it)"
    return check_identity(lhs, rhs, box, note)


def identity_three_term(box: ExponentBox) -> IdentityReport:
    """x0^-1 delta((x1-x2)/x0) - x0^-1 delta((x2-x1)/-x0) = x2^-1 delta((x1-x0)/x2)."""
    t1, t2, t3 = jacobi_delta_terms()
    return check_identity(Sum((t1, Product((mono(coeff=-1), t2)))), t3, box, "three-term delta identity")
