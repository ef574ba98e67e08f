"""Chiral algebras over the affine line in the global-sections model.

Sections of the diagonal pushforward are finite sums over a derivative
degree, in divided powers d1^(k) = d1^k/k!: a DiagSection maps k -> k! a_k
and stands for sum_k d1^k (x) a_k, where d1 + d2 acts through the diagonal
as the derivation D of the module of global sections Q[z]^r.  Triple-diagonal
sections carry two derivative indices, (k, l) -> k! l! a_{k,l}; checks
compare sections with ==, which these weights do not change.

The multiplication data is the coefficient family B^n_m on basis pairs.
The recursion B^{n+1}_k = -(k+1) B^n_{k+1}, in divided powers
m! B^n_m = (-1)^m B^{n+m}_0, determines the whole family from its m = 0
layer, which ChiralData stores as the mode table it is, a VAData over Q[z]
(u_n v = B^n_0(u, v), with the same D); explicit layers m >= 1 (negative
controls, files with full layers) are kept beside it, as given, and read
once, by the O-linearity gate, when the family is built.  Past the gate each
is its closed form; off it, the section mu(u, v), compositions such as
mu(mu(u, v), w) (iterated modes of the m = 0 layer, never cached) and the
three checks all stop at the gate, each check failing before any section is
built and naming the layer `o_linearity_witness` finds.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import accumulate as scan, chain, product

from .errors import ContractError
from .exact import Q, binom, factorial, inv_factorial
from .report import CheckReport
from .vertex import (
    VAData,
    Vector,
    _add_product,
    _clean,
    _slice_points,
    accumulate,
    apply_d,
    bump_structure_constant,
    check_entry_shape,
    closure_witness,
    d_kill_bound,
    d_orbits,
    integer_modes,
    merge_window,
    pair_name,
    triple_name,
    vadd,
    vscale,
)

# Sections map a divided power k (DiagSection) or a pair of them (k, l)
# (Diag3Section) to a nonzero vector; one section algebra serves both.
DiagSection = dict  # k -> Vector
Diag3Section = dict  # (k, l) -> Vector


class ChiralGenerator(namedtuple("ChiralGenerator", "n u v")):
    """(z1 - z2)^n (u (x) v), the generators the morphism acts on."""

    __slots__ = ()


class ChiralData:
    """B-coefficient family on basis pairs: the m = 0 layer B^n_0(e_i, e_j)
    is the mode table `va` (basis, rank and D are its own); explicit layers
    m >= 1, (i, n, j, m) -> Vector, are the overrides, which only the gate reads."""

    def __init__(self, va: VAData, overrides: dict | None = None, _cache: dict | None = None):
        self.va = va  # over Q[z]
        self.overrides = overrides = {} if overrides is None else overrides
        self._cache = {} if _cache is None else _cache
        if va.coeff_ring != "Q[z]":
            raise ContractError(f"the m = 0 layer must be a table over Q[z], got {va.coeff_ring}")
        check_entry_shape(va.rank, overrides)  # va has checked its basis and D
        for key in overrides:
            if key[3] < 1:
                raise ContractError(f"explicit B layer needs m >= 1, got m = {key[3]} at {key}")
        points = [*(va.global_support() or ()), *(n + m for (_, n, _, m) in overrides)]
        self._span = (min(points), max(points)) if points else None  # effective_support()
        # m! val against the closed form, m! computed only where B^{m+n}_0 is stored
        off = (key for key, val in overrides.items()
               if (closed := self.b_layer(*key)) != (vscale(factorial(key[3]), val) if closed else val))
        self._off = min(off, default=None)  # off_recursion()

    def effective_support(self) -> tuple[int, int] | None:
        """Range of B^{n+m}_0-positions touched by stored data, overrides included."""
        return self._span

    def off_recursion(self) -> tuple[int, int, int, int] | None:
        """The least explicit layer key (i, n, j, m) whose value is not its
        recursion closed form; None when the family is the chiral algebra of
        its m = 0 layer, explicit layers or not."""
        return self._off

    def b_layer(self, i: int, n: int, j: int, m: int) -> Vector:
        """m! B^n_m(e_i, e_j) = (-1)^m B^{m+n}_0(e_i, e_j), the closed form the
        recursion gives, read as such off it too, where the gate stops mu."""
        val = self.va.structure.get((i, m + n, j))
        return (vscale(-1, val) if m % 2 else val) if val else {}

    def basis_section(self, i: int, n: int, j: int) -> DiagSection:
        """Every nonzero divided layer `b_layer` of B^n(e_i, e_j), over the
        support range, which covers each override's n + m."""
        key = ("sec", i, n, j)
        if key not in self._cache:
            lo, hi = self.effective_support() or (0, -1)
            layers = ((m, self.b_layer(i, n, j, m)) for m in range(max(0, lo - n), hi - n + 1))
            self._cache[key] = {m: val for m, val in layers if val}
        return self._cache[key]


# ---------------------------------------------------------------------------
# section arithmetic


def diag_add(s: DiagSection, t: DiagSection) -> DiagSection:
    out = dict(s)
    for k, v in t.items():
        accumulate(out, k, v)
    return out


def diag_scale(c, s: DiagSection) -> DiagSection:
    return {k: vscale(c, v) for k, v in s.items()} if c else {}


def diag_contract(x: Vector, section) -> dict:
    """sum_p x_p * section(p): `contract` lifted to sections of either kind."""
    return _multilinear(section, (x,))


def _multilinear(section, xs: tuple) -> dict:
    """The sum, over coordinate tuples ps, of the product of the x_p and
    section(*ps), for sections of either kind: one contraction of every
    vector at once.  The vectors' product is multiplied out into terms
    {(ps, degree): scalar}, section(*ps) is computed once per tuple ps, and
    every product is summed into one accumulator per section key, cleaned
    once."""
    tensor = {((), 0): 1}
    for x in xs:
        out: dict = {}
        for (ps, d), c in tensor.items():
            for (p, e), b in x.items():
                key = (*ps, p), d + e
                out[key] = out[key] + c * b if key in out else c * b
        tensor = out
    coords: dict = {}
    for (ps, d), c in tensor.items():
        if c:
            coords.setdefault(ps, []).append((d, c))
    acc: dict = {}
    for ps, terms in coords.items():
        for k, v in section(*ps).items():
            row = acc.setdefault(k, {})
            for d, c in terms:
                for (q, f), y in v.items():
                    key = (q, f + d)  # stored as is at first: 0 + a Fraction costs an add
                    row[key] = row[key] + c * y if key in row else c * y
    return {k: vec for k, row in acc.items() if (vec := _clean(row))}


def diag_mul_z12(s: DiagSection) -> DiagSection:
    """Multiplication by (z1 - z2): layer k - 1 receives -layer k."""
    return {k - 1: vscale(-1, v) for k, v in s.items() if k}


def diag_apply_d1(s: DiagSection) -> DiagSection:
    """Left derivative d1: layer k + 1 receives (k + 1) layer k."""
    return {k + 1: vscale(k + 1, v) for k, v in s.items()}


def diag_apply_d2(A: ChiralData, s: DiagSection) -> DiagSection:
    """Right derivative d2 = (d1 + d2) - d1, d1 + d2 acting layerwise as D
    through the diagonal: layer k becomes D(layer k) - k layer (k - 1)."""
    out: DiagSection = {}
    for k, v in s.items():
        accumulate(out, k, apply_d(A.va, v))
        accumulate(out, k + 1, vscale(-(k + 1), v))
    return out


def diag3_transpose(s: Diag3Section) -> Diag3Section:
    """Swap the two derivative indices: sections produced in swapped
    coordinates carry their d1/d2 degrees in exchanged positions."""
    return {(l, k): v for (k, l), v in s.items()}


# ---------------------------------------------------------------------------
# the morphism on generators


def mu_eval(A: ChiralData, g: ChiralGenerator) -> DiagSection:
    """mu((z1-z2)^n (u (x) v)) in divided powers, bilinear over Q[z]: the
    basis sections contracted with u and v in one pass; off the recursion,
    ContractError."""
    if (off := o_linearity_witness(A)) is not None:
        raise ContractError(off)
    return _multilinear(lambda i, j: A.basis_section(i, g.n, j), (g.u, g.v))


def sigma12_triple(m1: int, m2: int, m3: int, u: Vector, v: Vector, w: Vector):
    """Swap the first two coordinates of a triple generator.

    (z1-z2)^{m1}(z2-z3)^{m2}(z1-z3)^{m3}(u(x)v(x)w)
      -> (-1)^{m1} (z1-z2)^{m1}(z2-z3)^{m3}(z1-z3)^{m2}(v(x)u(x)w).
    """
    sign = 1 if m1 % 2 == 0 else -1
    return sign, m1, m3, m2, v, u, w


def _unscale(va: VAData):
    """1/L^2, which takes `integer_modes` back to the iterated modes; the int
    1 on an integral table.  The compositions sum in ints and multiply each
    summed entry by it once."""
    return Q(1, va._scale ** 2) if va._scale > 1 else 1


def _compose_left_basis(
    A: ChiralData, m1: int, m2: int, m3: int, iu: int, iv: int, iw: int
) -> Diag3Section:
    """mu(mu(u, v), w) on basis vectors: the (z1-z3)^{m3} expansion reads
    binom(m3 + k, i) times B^{n2}(B^{m1+i-k}_k(u, v), w), n2 = m2 + m3 + k - i,
    whose divided layer l is (-1)^(k+l) (u_{m1+i} v)_{n2+l} w, from the
    triple's `integer_modes` times 1/L^2."""
    rng = A.effective_support()
    if rng is None:
        return {}
    lo, hi = rng
    modes = integer_modes(A.va, iu, iv, iw)[0]
    out: dict = {}
    for i in range(max(0, lo - m1), hi - m1 + 1):
        top = hi - m2 - m3 + i
        # binom(m3 + k, i) vanishes exactly for 0 <= m3 + k < i: skip that gap
        for k in chain(range(min(top, -m3 - 1) + 1), range(max(0, i - m3), top + 1)):
            n2 = m2 + m3 + k - i
            c = -binom(m3 + k, i) if k % 2 else binom(m3 + k, i)
            for l in range(max(0, lo - n2), hi - n2 + 1):
                dbl = modes.get((m1 + i, n2 + l))
                if dbl is not None:
                    _add_product(out.setdefault((k, l), {}), -c if l % 2 else c, 0, dbl)
    unscale = _unscale(A.va)
    return {kl: vec for kl, acc in out.items() if (vec := vscale(unscale, acc))}


def _compose_right_basis(
    A: ChiralData, m1: int, m2: int, m3: int, iu: int, iv: int, iw: int
) -> Diag3Section:
    """mu(u, mu(v, w)) on basis vectors: the (z1-z2)^{m1} expansion reads
    (-1)^i binom(m1, i) times B^{n1}(u, B^{n2}(v, w)), n1 = m1 + m3 - i and
    n2 = m2 + i, whose divided layer (k, l) is (-1)^(k+l) u_{n1+k} (v_{n2+l} w),
    from the triple's `integer_modes` times 1/L^2."""
    rng = A.effective_support()
    if rng is None:
        return {}
    lo, hi = rng
    modes = integer_modes(A.va, iu, iv, iw)[1]
    out: dict = {}
    for i in range(max(0, m1 + m3 - hi), hi - m2 + 1):
        c = (-1) ** i * binom(m1, i)
        if not c:
            continue
        n1 = m1 + m3 - i
        n2 = m2 + i
        for l in range(max(0, lo - n2), hi - n2 + 1):
            cl = -c if l % 2 else c
            for k in range(max(0, lo - n1), hi - n1 + 1):
                dbl = modes.get((n1 + k, n2 + l))
                if dbl is not None:
                    _add_product(out.setdefault((k, l), {}), -cl if k % 2 else cl, 0, dbl)
    unscale = _unscale(A.va)
    return {kl: vec for kl, acc in out.items() if (vec := vscale(unscale, acc))}


def _bilinear3(A: ChiralData, core, m1, m2, m3, u: Vector, v: Vector, w: Vector) -> Diag3Section:
    """`core` extended trilinearly over Q[z] in one contraction: the basis
    core runs once per coordinate triple of (u, v, w) whose iterated-mode
    tables are not both empty (else its composition is), and every term
    goes into one accumulator, cleaned once."""
    if (off := o_linearity_witness(A)) is not None:
        raise ContractError(off)
    return _multilinear(lambda iu, iv, iw: core(A, m1, m2, m3, iu, iv, iw)
                        if any(integer_modes(A.va, iu, iv, iw)) else {}, (u, v, w))


def compose_left(A: ChiralData, m1: int, m2: int, m3: int, u: Vector, v: Vector, w: Vector) -> Diag3Section:
    """mu(mu(.,.),.) on a triple generator, expanding (z1-z3)^{m3} in
    nonnegative powers of z1-z2; finite by the support bounds.  Both
    compositions raise ContractError off the recursion."""
    return _bilinear3(A, _compose_left_basis, m1, m2, m3, u, v, w)


def compose_right(A: ChiralData, m1: int, m2: int, m3: int, u: Vector, v: Vector, w: Vector) -> Diag3Section:
    """mu(.,mu(.,.)) on a triple generator, expanding (z1-z2)^{m1} in
    nonnegative powers of z2-z3."""
    return _bilinear3(A, _compose_right_basis, m1, m2, m3, u, v, w)


# ---------------------------------------------------------------------------
# axiom checkers


def o_linearity_witness(A: ChiralData) -> str | None:
    """None on the recursion.  Off it mu is not O-linear, hence no D-module
    morphism, and the D-module check's parts, chiral skew, chiral-Jacobi and
    the compositions are not defined: the text names the layer
    `off_recursion()` finds."""
    key = A.off_recursion()
    if key is None:
        return None
    i, n, j, m = key
    return (f"mu is not O-linear: explicit layer ({pair_name(A.va, i, j)}, n={n}, m={m}) "
            "disagrees with the recursion")


NOT_SWEPT = "not swept: off the recursion, mu is not a D-module morphism"


def dmodule_parts(A: ChiralData, window=None) -> dict:
    """Sub-verdicts of the D-module-morphism check, on the recursion only
    (ContractError off it).

    (a) multiplication by (z1-z2) matches the layer recursion: it sends
        layer k + 1 of the section at n, (-1)^(k+1) B^{n+k+1}_0, to its
        negative, which is layer k of the section at n + 1, so (a) holds;
    (b) d1 satisfies the Leibniz identity against the exponent;
    (c) d2, rewritten through the diagonal, satisfies its analogue; the D
        image of each section layer, a stored value up to sign, is read
        from its D-orbit.
    Divided layer j of the (b) and (c) differences at n is (-1)^j times a
    quantity of the key n + j, so the one section per pair at the window's
    lo compares every key a later n would.
    """
    if (off := o_linearity_witness(A)) is not None:
        raise ContractError(off)
    parts = {
        "a": {"label": "expl-exp4", "passed": True, "witness": None},
        "b": {"label": "l-1-1", "passed": True, "witness": None},
        "c": {"label": "d2-leibniz", "passed": True, "witness": None},
    }
    rng = A.effective_support()
    if rng is None and window is None:
        return parts
    lo, hi = rng if rng else (0, -1)
    n, _ = merge_window(lo - 2, hi + 1, window)
    va, sec, orbits = A.va, A.basis_section, d_orbits(A.va)
    for i, j in product(range(va.rank), repeat=2):
        s_n, s_n1 = sec(i, n, j), sec(i, n + 1, j)
        d1 = diag_apply_d1(s_n1)
        where = f"({pair_name(va, i, j)}, n={n})"
        if parts["b"]["passed"] and d1 != diag_add(
                diag_scale(n + 1, s_n), diag_contract(va.d_cols[i], lambda p: sec(p, n + 1, j))):
            parts["b"].update(passed=False, witness=where)
        if not parts["c"]["passed"]:
            continue
        # d2 = D - d1 layerwise, so D s_n1 is compared with d1 s_n1 plus the
        # right side; layer m of s_n1 is (-1)^m B^{n+1+m}_0, whose D image is
        # entry 1 of its D-orbit
        d_layers = {m: vscale(-1, orbit[1]) if m % 2 else orbit[1]
                    for m in s_n1 if len(orbit := orbits[i, n + 1 + m, j]) > 1}
        if d_layers != diag_add(d1, diag_add(
                diag_scale(-(n + 1), s_n), diag_contract(va.d_cols[j], lambda p: sec(i, n + 1, p)))):
            parts["c"].update(passed=False, witness=where)
    return parts


def check_dmodule_morphism(A: ChiralData, window=None) -> CheckReport:
    name, label = "d-module-morphism", "expl-exp1"
    if (off := o_linearity_witness(A)) is not None:
        return CheckReport(name, label, False, NOT_SWEPT, off)
    parts = dmodule_parts(A, window)
    passed = all(p["passed"] for p in parts.values())
    witness = None
    details = []
    for key in ("a", "b", "c"):
        p = parts[key]
        status = "PASS" if p["passed"] else f"FAIL at {p['witness']}"
        details.append(f"part ({key}) [{p['label']}]: {status}")
        if witness is None and not p["passed"]:
            witness = f"part ({key}) at {p['witness']}"
    rng = A.effective_support()
    win = "empty table, vacuous" if rng is None else (
        f"window n around support [{rng[0]}..{rng[1]}]; outside, the family "
        "is the recursion closed form and the identities hold layerwise"
    )
    return CheckReport(name, label, passed, win, witness, tuple(details))


def check_chiral_skew(A: ChiralData, window=None) -> CheckReport:
    """mu o sigma_12 = -mu on generators: swap the arguments, flip the sign
    of the exponent parity, and re-express the d2-indexed family in d1 form.

    d1 and d2 = D - d1 commute, so d2^m/m! = sum_{j+t=m} ((-d1)^j/j!)(D^t/t!):
    divided layer j of the swapped section sum_m (d2^m/m!) b_m, b_m the layers
    of B^n(v, u), is (-1)^j sum_t D^t b_{j+t} / t!.  Each b_m is (-1)^m times a
    stored value, whose D^t is read from the D-orbits; D^K kills it (the D-kill
    bound), so the sum is taken times (K-1)!.  Degree 0 is the m = 0 extraction
    identity (-1)^(n+1) sum_m D^m B^n_m(v, u) = B^n_0(u, v).  Off the recursion
    the check stops at the O-linearity gate.  On it, divided layer j of the
    difference at n is (-1)^n times a quantity of the key n + j, so one section
    per pair, at the window's lo, compares every key a later n would."""
    name, label = "chiral-skew", "sigma12"
    if (off := o_linearity_witness(A)) is not None:
        return CheckReport(name, label, False, NOT_SWEPT, off)
    rng = A.effective_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    lo0, hi0 = rng if rng else (0, -1)
    kill = d_kill_bound(A.va)
    lo, hi = merge_window(lo0 - kill - 1, hi0 + 1, window)
    n = lo
    scale, orbits = factorial(kill - 1), d_orbits(A.va)
    for i, j in product(range(A.va.rank), repeat=2):
        swapped: DiagSection = {}
        for m in A.basis_section(j, n, i):  # layer m - t: (-1)^t (K-1)!/t! D^t B^{n+m}_0(v, u)
            for t, w in enumerate(orbits[j, n + m, i][:m + 1]):
                accumulate(swapped, m - t, vscale((-scale if t % 2 else scale) // factorial(t), w))
        if swapped != diag_scale(scale if n % 2 else -scale, A.basis_section(i, n, j)):
            return CheckReport(name, label, False, f"window n in [{lo}..{hi}]",
                               f"({pair_name(A.va, i, j)}, n={n})")
    return CheckReport(
        name, label, True,
        f"window n in [{lo}..{hi}]; every generator bundles the component "
        f"identities at m >= n, and terms vanish below the window "
        f"(support [{lo0}..{hi0}], D-kill bound {kill})",
    )


def _binom_row(x: int, top: int) -> list:
    """binom(x, i) for i in [0..top], each from the one before."""
    return list(scan(range(top), lambda c, i: c * (x - i) // (i + 1), initial=1))


def _scatter_binoms(m1: int, blo: int, lo: int, hi: int) -> tuple:
    """The binomials `_key_scatter` reads at m1 for tables on the support
    [lo..hi]: the columns binom(M, p - m1) for p in [lo..hi] and M in
    [blo..2hi - m1 - blo], and the signed rows -(-1)^i binom(m1, i) and
    (-1)^(m1+i) binom(m1, i) for i in [0..hi - blo].  A column starts at
    binom(blo, i) and steps by binom(M, i) = binom(M-1, i) M/(M - i), which
    is 1 where M = i: one exact multiplication per entry."""
    starts = _binom_row(blo, hi - m1)
    cols = {i: list(scan(range(blo + 1, 2 * hi - m1 - blo + 1), initial=starts[i],
                         func=lambda c, M: 1 if M == i else c * M // (M - i)))
            for i in range(max(0, lo - m1), hi - m1 + 1)}
    uv = [c if i % 2 else -c for i, c in enumerate(_binom_row(m1, hi - blo))]
    return cols, (uv, uv if m1 % 2 else [-c for c in uv])


def _key_scatter(m1: int, blo: int, tables, binoms) -> dict:
    """Left minus right side of every key (m1, M, N) with M, N >= blo, as
    {(M, N, (coord, deg)): scalar}, zero where the terms cancel.

    `tables` are ((u_p v)_q w, u_p (v_q w), v_p (u_q w)).  Expanding
    (z1-z3)^M in powers of z1-z2 reads binom(M, i) (u_{m1+i} v)_{M+N-i} w,
    and expanding (z1-z2)^m1 in powers of z2-z3 reads, with sign
    -(-1)^i binom(m1, i), u_{m1+M-i} (v_{N+i} w) and, swapped and times
    (-1)^m1, v_{m1+N-i} (u_{M+i} w).  So each table entry at (p, q) is
    scattered, times its integer coefficient, to the keys that read it:
    i = p - m1 and M + N = q + i for the first table, i = q - N (or q - M)
    for the other two.  Every key reached has m1 + M + N = p + q with p, q
    on the support, so M, N >= blo is the only bound to impose.  `binoms`
    are `_scatter_binoms` of the sweep's support."""
    cols, (row_uv, row_vu) = binoms
    acc: dict = defaultdict(int)
    left, right_uv, right_vu = tables
    for (p, q), xs in left.items():
        col = cols.get(p - m1)
        if col is not None:
            s = p + q - m1  # M + N
            for M in range(blo, s - blo + 1):
                c = col[M - blo]
                if c:
                    for cd, x in xs.items():
                        acc[M, s - M, cd] += c * x
    for swap, row, table in ((False, row_uv, right_uv), (True, row_vu, right_vu)):
        for (p, q), xs in table.items():
            for i in range(max(0, blo - p + m1), q - blo + 1):
                c = row[i]
                if c:
                    a, b = p - m1 + i, q - i
                    M, N = (b, a) if swap else (a, b)
                    for cd, x in xs.items():
                        acc[M, N, cd] += c * x
    return acc


def _keyed_sweep(A: ChiralData, blo: int, lo: int, hi: int):
    """The first failing generator of the box [blo..bhi]^3, or None, one key
    at a time.  Entry (k, l) of the compositions at (m1, m2, m3) is
    (-1)^(k+l) times the key (m1, m3+k, m2+l), the coefficient of lhs - rhs
    at z12^m1 z13^M z23^N, so (m1, blo, blo) reads every key of its m1.  The
    compositions are O-linear, so z13 = z12 + z23 gives, per basis triple,

        K(m1+1, M, N) = K(m1, M+1, N) - K(m1, M, N+1),

    which reads slice m1 only at M, N >= blo, where `_key_scatter` gives
    every key its exact value: slice blo carries to the whole box, and if it
    is zero every key is.  So only slice blo is scattered, triple by triple
    in index order (`VAData.indexed_triples`; other triples have empty
    tables), reading each triple's `integer_modes` when the sweep reaches
    it; the first triple with a nonzero key fails at m1 = m2 = m3 = blo."""
    va = A.va
    binoms = _scatter_binoms(blo, blo, lo, hi)
    for iu, iv, iw in va.indexed_triples():
        tables = (*integer_modes(va, iu, iv, iw), integer_modes(va, iv, iu, iw)[1])
        if any(_key_scatter(blo, blo, tables, binoms).values()):
            return f"({triple_name(va, iu, iv, iw)}, m1={blo}, m2={blo}, m3={blo})"
    return None


def check_chiral_jacobi(A: ChiralData, window=None) -> CheckReport:
    """Composition Jacobi identity on triple generators over the safe box,
    closed over all exponent triples by the m = 0 layer certificates."""
    name, label = "chiral-jacobi", "comp-jac"
    if (off := o_linearity_witness(A)) is not None:
        return CheckReport(name, label, False, NOT_SWEPT, off)
    rng = A.effective_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    lo, hi = rng if rng else (0, -1)
    span = hi - lo + 1
    blo, bhi = merge_window(lo - span, hi + span, window)
    witness = _keyed_sweep(A, blo, lo, hi)
    if witness is not None:
        return CheckReport(name, label, False, f"window (m1,m2,m3) in [{blo}..{bhi}]^3", witness)
    witness = closure_witness(A.va, lo, hi)
    if witness is not None:
        return CheckReport(name, label, False, f"window (m1,m2,m3) in [{blo}..{bhi}]^3 plus "
                           "closure certificates", f"m=0 layer {witness}")
    swept = A.va.rank ** 3 * _slice_points(blo, bhi, 3 * blo, 2 * hi)  # the generators (m1, m2, m3)
    return CheckReport(
        name, label, True,
        f"window (m1,m2,m3) in [{blo}..{bhi}]^3 with m1+m2+m3 <= {2*hi} "
        f"({swept} generator triples); larger exponents give empty sections; "
        "m=0 layer certificates close the identity over Z^3 given the recursion",
    )


def check_all_chiral(A: ChiralData, window=None) -> list[CheckReport]:
    return [
        check_dmodule_morphism(A, window),
        check_chiral_skew(A, window),
        check_chiral_jacobi(A, window),
    ]


# ---------------------------------------------------------------------------
# mutation helper


def bump_b_entry(A: ChiralData, i: int, n: int, j: int, m: int, coord: int) -> ChiralData:
    """Copy with +1 on one coordinate of B^n_m(e_i, e_j).

    The +1 is at degree 0.  For m = 0 this perturbs the stored layer; for
    m >= 1 it installs an explicit override, which breaks the recursion on
    purpose.
    """
    if m == 0:
        return ChiralData(bump_structure_constant(A.va, i, n, j, coord), dict(A.overrides))
    overrides = dict(A.overrides)
    key = (i, n, j, m)
    layer = overrides[key] if key in overrides else vscale(inv_factorial(m), A.b_layer(*key))
    overrides[key] = vadd(layer, {(coord, 0): 1})
    return ChiralData(A.va, overrides)
