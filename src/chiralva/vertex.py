"""Vertex algebras without vacuum as finite structure-constant tables.

A table stores the basis modes u_n v for (i, n, j) with n in a finite
range; absence means zero.  Coefficients live in Q or Q[z]; over Q[z] the
operator D acts by D(f.e_i) = f'.e_i + f.D(e_i).

A vector of Q[z]^r is one sparse map {(coord, deg): scalar}, the scalar
being the coefficient of z^deg e_coord, with no zero entries: the zero
vector is {}, and multiplying by a polynomial coordinate shifts degrees.
Over Q every degree is 0.  Table values, D columns and every intermediate
result of both checkers are such maps; this is the only vector type.

Axioms are quantified over all integers, so each checker sweeps a finite
index window derived from the support bounds and justifies the complement
symbolically:

* truncation and the D-derivative identity vanish term-by-term outside
  the window;
* skew-symmetry terms die outside the window because D annihilates every
  stored value after finitely many steps (tables with a derivation that
  is not eventually zero on the table are rejected as out of scope);
* the Jacobi identity has nonvanishing terms at index triples arbitrarily
  far from the support, so the sweep alone is not a proof.  For finitely
  supported tables the full identity is equivalent to two finite
  polynomial identities (operator commutativity and a substitution
  identity for iterated modes); the checker verifies both, which closes
  the argument over all of Z^3.

Each table carries one index, built once from its stored entries: the
entries of each basis pair, at construction, and the sorted basis triples
whose iterated modes can be nonzero (`VAData.indexed_triples`), on first
read.  `integer_modes`
multiplies only entries that meet, and every loop over basis triples, in
the sweeps and certificates of both sides, walks the index; a triple off it
has empty tables, so it can be neither a witness nor a term.

The Jacobi sweep scatters: each nonzero iterated-mode entry at (p, q) is
added, times its integer binomial, to every window instance that reads it,
all on the slice l+m+n = p+q.  It runs one l at a time, and the least
(m, n, triple) of the first failing l is the witness: the first failure in
(l, m, n, triple) order.  Pascal's rule on each of the three binomial sums
gives, on any table, J(l, m, n) = J(l-1, m+1, n) - J(l-1, m, n+1) for
lhs - rhs = J, so every point with m < hi and n < hi is carried from the
slice before, and only the top edge m = hi or n = hi of a slice is
computed: at most two points of each entry with p + q - l >= lo + hi, the
prefix of one list of entries sorted by p + q, each added to a point in
one multiply-add of an integer that packs every triple.  The carry starts
from an empty slice, one that no entry reaches inside the window, at or
below lo.  Every instance still gets its exact integer value.

Each basis triple has one iterated-mode table, kept in integers.  Each
iterated mode is a sum of products of two structure scalars, so with L the
lcm of the structure's denominators (`VAData._scale`, one scale per object,
since locality compares the tables of two triples), L^2 times every table
is integral: the object stores its pair entries times L, and
`integer_modes` builds L^2 times the iterated modes from them.  The sweep
and both certificates only test sums for zero and compare tables, which
does not change when every table is multiplied by one nonzero integer; the
chiral compositions, whose values are printed, multiply by 1/L^2.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import defaultdict

from .errors import (
    ContractError,
    NotADerivation,
    NotAssociative,
    NotCommutative,
    NotNilpotent,
    UnsupportedAlgebra,
)
from .exact import binom, format_poly, inv_factorial
from .report import CheckReport

Vector = dict  # {(coord, deg): int | Fraction}, no zero entries

COEFF_RINGS = ("Q", "Q[z]")


# ---------------------------------------------------------------------------
# sparse vectors over Q[z]^r: a coefficient is an int when integral, and an
# accumulator `_clean`s its sums once, at the end


def _clean(acc: dict) -> Vector:
    return {k: x if type(x) is int or x.denominator != 1 else x.numerator
            for k, x in acc.items() if x}


def unit(i: int) -> Vector:
    return {(i, 0): 1}

def vadd(x: Vector, y: Vector) -> Vector:
    out = dict(x)
    _add_product(out, 1, 0, y)
    return _clean(out)

def vscale(c, x: Vector) -> Vector:
    return _clean({k: c * a for k, a in x.items()}) if c else {}

def contract(x: Vector, entries: dict) -> Vector:
    """sum_p x_p * entries[p], the one bilinear contraction: the scalar at
    (p, d) scales entries[p] and shifts its degrees by d.  A coordinate p
    absent from the sparse map `entries` contributes zero."""
    acc: dict = {}
    for (p, d), c in x.items():
        if e := entries.get(p):
            _add_product(acc, c, d, e)
    return _clean(acc)


def matvec_cols(cols: tuple[Vector, ...], x: Vector) -> Vector:
    return contract(x, dict(enumerate(cols)))


def accumulate(out: dict, key, vec: Vector) -> None:
    """out[key] += vec in place; keys whose sum is zero are dropped."""
    prev = out.get(key)
    acc = vec if prev is None else vadd(prev, vec)
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def format_vector(x: Vector, basis: tuple[str, ...]) -> str:
    coords: dict = {}
    for (c, d), a in sorted(x.items()):
        coords.setdefault(c, []).append((d, a))
    parts = []
    for c, terms in coords.items():
        s = format_poly(terms)
        parts.append(basis[c] if s == "1" else f"({s})*{basis[c]}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the data type


def _off_shape(vec: Vector, rank: int):
    """The first key of `vec` off the coordinates 0..rank-1 or at a negative
    degree; None when every key fits."""
    for c, d in vec:
        if not (0 <= c < rank and d >= 0):
            return c, d
    return None


def check_table_shape(rank: int, basis_names, d_cols, entries: dict) -> None:
    """Reject a table that does not fit its rank: distinct basis names, a
    rank x rank D, and entries that fit (`check_entry_shape`)."""
    if len(basis_names) != rank or len(d_cols) != rank:
        raise ContractError("basis names and D columns must match the rank")
    if len(set(basis_names)) != rank:
        raise ContractError(f"basis names must be distinct, got {list(basis_names)}")
    if any(_off_shape(col, rank) for col in d_cols):
        raise ContractError("D must be a rank x rank matrix")
    check_entry_shape(rank, entries)


def check_entry_shape(rank: int, entries: dict) -> None:
    """Reject stored vectors off the keys (coord, deg), 0 <= coord < rank
    and deg >= 0, or at keys (i, n, j, ...) whose basis indices i and j are
    out of range.  Shared by both table kinds."""
    for key, val in entries.items():
        if not (0 <= key[0] < rank and 0 <= key[2] < rank):
            raise ContractError(f"structure index out of range: {key}")
        bad = _off_shape(val, rank)
        if bad:
            raise ContractError(f"structure value at {key} has an entry off the shape: {bad}")


class VAData:
    """Structure constants (i, n, j) -> Vector, nonzero entries only, the derivation matrix
    D(e_j) = d_cols[j], and support bounds (i, j) -> (n_min, n_max), derived when not given."""

    def __init__(self, rank: int, coeff_ring: str, basis_names: tuple[str, ...], structure: dict,
                 d_cols: tuple[Vector, ...], support: dict | None = None, _cache: dict | None = None):
        if coeff_ring not in COEFF_RINGS:
            raise ContractError(f"coeff_ring must be one of {COEFF_RINGS}")
        check_table_shape(rank, basis_names, d_cols, structure)
        for (i, j) in support or ():
            if not (0 <= i < rank and 0 <= j < rank):
                raise ContractError(f"support bounds index out of range: {(i, j)}")
        self.rank, self.coeff_ring, self.basis_names, self.d_cols = rank, coeff_ring, basis_names, d_cols
        self.structure = clean = {k: v for k, v in structure.items() if v}
        self._cache = {} if _cache is None else _cache
        # L: the lcm of the scalars' denominators; an all-int table shares its entries
        fracs = [x for vec in clean.values() for x in vec.values() if type(x) is not int]
        self._scale = L = math.lcm(*(x.denominator for x in fracs))
        self._pairs = {}  # (i, j) -> [(n, L * entry in ints)], the one entry index
        for (i, n, j), val in clean.items():
            if fracs:
                val = {cd: int(L * x) for cd, x in val.items()}
            self._pairs.setdefault((i, j), []).append((n, val))
        self._triples = None  # indexed_triples(), built on its first read
        self._dmap = {j: col for j, col in enumerate(d_cols) if col}  # nonzero D(e_j) only
        if coeff_ring == "Q" and self.max_degree() > 0:
            raise ContractError("coeff_ring Q admits constant coordinates only")
        self.support = support or {ij: (min(n for n, _ in entries), max(n for n, _ in entries))
                                   for ij, entries in self._pairs.items()}
        ns = [n for (_, n, _) in clean]
        self._span = (min(ns), max(ns)) if ns else None  # global_support()

    def mode(self, i: int, n: int, j: int) -> Vector:
        return self.structure.get((i, n, j), {})

    def global_support(self) -> tuple[int, int] | None:
        """(min n, max n) over all stored entries; None for an empty table."""
        return self._span

    def max_degree(self) -> int:
        return max((d for v in (*self.structure.values(), *self.d_cols) for _, d in v), default=0)

    def indexed_triples(self) -> tuple[tuple[int, int, int], ...]:
        """The basis triples, in order, whose iterated-mode tables can be
        nonzero; every other triple's tables are empty.  Closed under swapping
        u and v."""
        if self._triples is None:
            self._triples = _index_triples(self._pairs)
        return self._triples


def _index_triples(pairs: dict) -> tuple:
    """The sorted triples (u, v, w) read by a nonzero iterated mode: (u_p v)_q w
    needs a coordinate c of an entry of (u, v) with an entry of (c, w), and
    u_p (v_q w) a coordinate c of an entry of (v, w) with an entry of (u, c).
    Each pair (i, j) is tried in both roles, and every triple found enters
    with its swap (v, u, w)."""
    firsts: dict = {}  # j -> the i with entries at (i, j)
    seconds: dict = {}  # i -> the j with entries at (i, j)
    for i, j in pairs:
        firsts.setdefault(j, []).append(i)
        seconds.setdefault(i, []).append(j)
    found = set()
    for (i, j), entries in pairs.items():
        for c in {c for _, vec in entries for c, _ in vec}:
            for w in seconds.get(c, ()):  # (i, j) as (u, v)
                found.update(((i, j, w), (j, i, w)))
            for u in firsts.get(c, ()):  # (i, j) as (v, w)
                found.update(((u, i, j), (i, u, j)))
    return tuple(sorted(found))


def equal_tables(v1: VAData, v2: VAData) -> tuple[bool, str | None]:
    """Tablewise equality against the same basis; returns (ok, witness)."""
    if v1.rank != v2.rank or v1.coeff_ring != v2.coeff_ring:
        return False, "rank or coefficient ring differs"
    if v1.basis_names != v2.basis_names:
        return False, "basis names differ"
    if v1.d_cols != v2.d_cols:
        return False, "D matrix differs"
    keys = sorted(set(v1.structure) | set(v2.structure))
    for key in keys:
        if v1.mode(*key) != v2.mode(*key):
            i, n, j = key
            return False, f"(u={v1.basis_names[i]}, n={n}, v={v1.basis_names[j]})"
    return True, None


# ---------------------------------------------------------------------------
# operations


def vertex_coeff(V: VAData, u: Vector, n: int, v: Vector) -> Vector:
    """The mode coefficient u_n v, extended bilinearly over the coefficient ring."""
    return contract(u, {i: mode_left(V, i, n, v) for i in range(V.rank)})


def mode_left(V: VAData, i: int, n: int, x: Vector) -> Vector:
    """(e_i)_n x for a basis operator index."""
    return contract(x, {p: V.structure.get((i, n, p)) for p, _ in x})


def mode_vec(V: VAData, x: Vector, n: int, j: int) -> Vector:
    """x_n e_j for a vector-valued operator."""
    return contract(x, {p: V.structure.get((p, n, j)) for p, _ in x})


def apply_d(V: VAData, u: Vector) -> Vector:
    """D(u) = u' + D-matrix . u: the derivation rule over Q[z], where the
    derivative sends (c, d) to (c, d-1) times d; over Q every degree is 0
    and the derivative term vanishes."""
    derivative = {(p, d - 1): d * c for (p, d), c in u.items() if d}
    return vadd(derivative, contract(u, V._dmap)) if derivative else contract(u, V._dmap)


def d_orbits(V: VAData) -> dict:
    """{key: [w, Dw, D^2 w, ...]} for every stored value w, up to its last
    nonzero power; computed once per object.  Tables whose values are not
    annihilated within the structural cap are out of scope and rejected."""
    if "orbits" in V._cache:
        return V._cache["orbits"]
    cap = V.rank * (V.max_degree() + 2) + 4
    hit = {}
    for key in sorted(V.structure):
        orbit = hit[key] = [V.structure[key]]
        while w := apply_d(V, orbit[-1]):
            if len(orbit) == cap:
                raise UnsupportedAlgebra(
                    "derivation is not nilpotent on the structure table "
                    f"(entry {key} survives D^{cap}); such algebras are out of scope"
                )
            orbit.append(w)
    V._cache["orbits"] = hit
    return hit


def d_kill_bound(V: VAData) -> int:
    """Smallest K with D^K = 0 on every stored table value (at least 1)."""
    return max([1, *map(len, d_orbits(V).values())])


# ---------------------------------------------------------------------------
# axiom checkers


def merge_window(lo: int, hi: int, extra: tuple[int, int] | None) -> tuple[int, int]:
    """The computed window [lo..hi], widened (never narrowed) by a user window."""
    if extra is None:
        return lo, hi
    return min(lo, extra[0]), max(hi, extra[1])


def pair_name(V: VAData, i: int, j: int) -> str:
    """Witness text for a basis pair of a table."""
    return f"u={V.basis_names[i]}, v={V.basis_names[j]}"


def triple_name(V: VAData, i: int, j: int, k: int) -> str:
    """Witness text for a basis triple of a table."""
    return f"{pair_name(V, i, j)}, w={V.basis_names[k]}"


def check_truncation(V: VAData) -> CheckReport:
    """Every stored entry respects the declared per-pair bounds, and every
    pair has a finite upper bound (finiteness is built into the table)."""
    if not V.structure:
        return CheckReport("truncation", "trunc", True, "empty table, vacuous")
    for key in sorted(V.structure):
        i, n, j = key
        bounds = V.support.get((i, j))
        if bounds is None or not (bounds[0] <= n <= bounds[1]):
            witness = f"({pair_name(V, i, j)}, n={n})"
            return CheckReport(
                "truncation", "trunc", False,
                "declared support bounds", witness,
                ("stray entry outside declared bounds",),
            )
    hi = max(b for _, b in V.support.values())
    return CheckReport(
        "truncation", "trunc", True,
        f"all entries within declared bounds; n_max = {hi} finite for every pair",
    )


def _scatter_report(V: VAData, name: str, label: str, acc: dict, index: str, window: str,
                    why: str) -> CheckReport:
    """The report of a check scattered into {(i, j, index): uncleaned
    vector}: the least key whose sum is nonzero is the first failure."""
    failing = [key for key, vec in acc.items() if any(vec.values())]
    if failing:
        i, j, x = min(failing)
        return CheckReport(name, label, False, window, f"({pair_name(V, i, j)}, {index}={x})")
    return CheckReport(name, label, True, f"{window}; {why}")


def check_d_derivative(V: VAData, window: tuple[int, int] | None = None) -> CheckReport:
    """(Du)_{n+1} v = -(n+1) u_n v on the safe window; outside it both sides
    vanish because every mode index lands beyond the support bounds.  The
    difference, times L (`VAData._scale`), is scattered from the stored
    entries: u_n v adds (n+1) u_n v at (u, v, n), and each coordinate c z^d
    e_p of D(e_i) adds c z^d (e_p)_n v at (e_i, v, n-1), so n in [a-1..b]."""
    name, label = "d-derivative", "l-1-0"
    rng = V.global_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    a, b = rng if rng else (0, -1)
    lo, hi = merge_window(a - 1, b + 1, window)
    acc = {(i, j, n): {cd: (n + 1) * x for cd, x in val.items()}
           for (i, j), entries in V._pairs.items() for n, val in entries}
    for i, col in V._dmap.items():
        for (p, d), c in col.items():
            for j in range(V.rank):
                for n, val in V._pairs.get((p, j), ()):
                    _add_product(acc.setdefault((i, j, n - 1), {}), c, d, val)
    return _scatter_report(V, name, label, acc, "n", f"window n in [{lo}..{hi}]",
                           f"outside, both sides vanish by support bounds [{a}..{b}]")


def check_skew_symmetry(V: VAData, window: tuple[int, int] | None = None) -> CheckReport:
    """u_m v = sum_k ((-1)^(k+m+1)/k!) D^k (v_{k+m} u) on the safe window.

    Below the window every term has v_{k+m} u = 0 for k below the D-kill
    bound and D^k (...) = 0 above it; above the window all mode indices
    exceed the support.  The difference is scattered: a stored u_m v adds
    itself at (u, v, m), and each D^k w of the D-orbit of a stored w = v_p u
    adds (-1)^p D^k w / k! at (u, v, p-k): m in [a-K+1..b], K the kill bound."""
    name, label = "skew-symmetry", "skew"
    rng = V.global_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    a, b = rng if rng else (0, -1)
    kill = d_kill_bound(V)
    lo, hi = merge_window(a - kill, b + 1, window)
    acc = {(i, j, m): dict(val) for (i, m, j), val in V.structure.items()}
    for (j, p, i), orbit in d_orbits(V).items():
        sign = -1 if p % 2 else 1
        for k, w in enumerate(orbit):
            _add_product(acc.setdefault((i, j, p - k), {}), sign * inv_factorial(k), 0, w)
    return _scatter_report(V, name, label, acc, "m", f"window m in [{lo}..{hi}]",
                           f"outside, every term vanishes (support [{a}..{b}], D-kill bound {kill})")


def integer_modes(V: VAData, iu: int, iv: int, iw: int) -> tuple[dict, dict]:
    """L^2 times the iterated modes of a basis triple, ({(p, q): (u_p v)_q w},
    {(p, q): u_p (v_q w)}), nonzero entries only, every entry an int, where L
    is `V._scale` (1 for an integral table).  Built from the entries of the
    pairs, which V stores times L: (u_p v)_q w sums x (c_q w) over each
    coordinate c (scalar x) of each entry u_p v and each entry c_q w of the
    pair (c, w), and u_p (v_q w) sums x (u_p c) over each coordinate c of
    each entry v_q w and each entry u_p c of the pair (u, c); only entries
    that meet are multiplied.  Computed once per triple and object: the
    Jacobi sweeps and closure certificates of both sides read these tables,
    and the chiral compositions read them times 1/L^2."""
    key = ("modes", iu, iv, iw)
    hit = V._cache.get(key)
    if hit is not None:
        return hit
    pairs = V._pairs
    left: dict = {}
    for p, uv in pairs.get((iu, iv), ()):
        for (c, d), x in uv.items():
            for q, cw in pairs.get((c, iw), ()):
                _add_product(left.setdefault((p, q), {}), x, d, cw)
    right: dict = {}
    for q, vw in pairs.get((iv, iw), ()):
        for (c, d), x in vw.items():
            for p, uc in pairs.get((iu, c), ()):
                _add_product(right.setdefault((p, q), {}), x, d, uc)
    V._cache[key] = hit = tuple({pq: vec for pq, acc in table.items()
                                 if (vec := {k: x for k, x in acc.items() if x})} for table in (left, right))
    return hit


def _add_product(acc: dict, x, d: int, vec: Vector) -> None:
    """acc += x z^d vec, uncleaned."""
    if d:
        vec = {(r, f + d): y for (r, f), y in vec.items()}
    for k, y in vec.items():
        acc[k] = acc.get(k, 0) + x * y


def _jacobi_edge(l: int, lo: int, hi: int, entries: list, pack) -> dict:
    """The top edge of the slice l of lhs - rhs of the component Jacobi
    identity

        sum_i binom(m, i) (u_{l+i} v)_{m+n-i} w
          = sum_i (-1)^i binom(l, i) u_{m+l-i} (v_{n+i} w)
            - (-1)^l sum_i (-1)^i binom(l, i) v_{n+l-i} (u_{m+i} w)

    over (m, n) in [lo..hi]^2: its points with m = hi or n = hi, as
    {(m, n): packed integer}.  An entry at (p, q) reaches the points with
    l+m+n = p+q, so an edge point has s = m + n = p + q - l >= lo + hi.
    `entries` lists the keys (p + q, table, p, q), table 0, 1, 2 for
    (u_p v)_q w, u_p (v_q w) and v_p (u_q w), by p + q descending, walked
    down to lo + hi + l.  An entry reaches the range [s - hi .. top] of the
    loop index x (m for tables 0 and 2, n for table 1; the other index is
    s - x), top = hi for table 0 and min(hi, q) for the others, whose ends
    x = s - hi and, when top = hi, x = hi are its edge points.  Binomials
    are computed where read: binom(x, p - l) for table 0, read only when
    p >= l, and (-1)^i binom(l, i) at i = q - x, kept for the slice, negated
    for table 1 and times (-1)^l for table 2.  One multiply-add of pack(key)
    adds them for every triple with an entry at the key."""
    acc: dict = defaultdict(int)
    row: dict = {}  # i -> (-1)^i binom(l, i), which tables 1 and 2 share
    for key in entries:
        s, table, p, q = key
        s -= l
        if s < lo + hi:
            break
        x0, top = s - hi, hi if table == 0 else min(hi, q)
        if x0 > top or table == 0 and p < l:
            continue
        for x in ((x0, hi) if x0 < top == hi else (x0,)):
            if table == 0:
                c, m, n = binom(x, p - l), x, s - x
            else:  # (-1)^i binom(l, i), i = q - x, negated for table 1, times (-1)^l for table 2
                if (i := q - x) not in row:
                    row[i] = -binom(l, i) if i % 2 else binom(l, i)
                c, m, n = (-row[i], s - x, x) if table == 1 else (-row[i] if l % 2 else row[i], x, s - x)
            if c:
                acc[m, n] += c * pack(key)
    return acc


def _jacobi_layout(V: VAData, a: int, b: int, hi: int) -> tuple[int, list, list, dict]:
    """(w, starts, fields, keys): the field width `_jacobi_slices` proves, in
    whole bytes; fields[t], each (coord, deg) of indexed triple t's tables to
    its field, numbered from starts[t] on first sight; per key, [t, entry, ...]."""
    vecs = [vec for entries in V._pairs.values() for _, vec in entries]
    e = max((max(map(abs, vec.values())) for vec in vecs), default=0)
    bound = 6 * (b - a + 1) * max(map(len, vecs), default=0) * e * e << max(0, hi, hi - a - 1)
    starts, fields, keys = [0], [], {}
    for t, (iu, iv, iw) in enumerate(V.indexed_triples()):
        seen: dict = {}
        for table, modes in enumerate((*integer_modes(V, iu, iv, iw), integer_modes(V, iv, iu, iw)[1])):
            for (p, q), xs in modes.items():
                seen.update(xs)
                keys.setdefault((p + q, table, p, q), []).extend((t, xs))  # flat: no tuple kept
        fields.append(dict(zip(seen, range(starts[-1], starts[-1] + len(seen)))))
        starts.append(starts[-1] + len(seen))
    return (bound.bit_length() + 8) // 8 * 8, starts, fields, keys


def _jacobi_slices(lo: int, hi: int, a: int, layout: tuple):
    """Yield (l, the nonzero points of the slice l of lhs - rhs) for l in
    lo..hi, for tables supported in [a..b] laid out by `_jacobi_layout`.  A
    point (m, n) holds X = sum_k v_k 2^(w k), v_k its value at field k.  A
    key's X is built when first read, its values offset by 2^(w-1) as the
    w-bit digits of one byte string.  The width: a value held is a
    J(l, m, n), lo <= m, n <= hi, of at most 3 span terms (span = b - a + 1:
    each sum runs over p or q in [a..b]), each a binomial times a
    coordinate, which sums one product of two `VAData._pairs` scalars per
    coordinate of one entry: at most N E^2, N the most coordinates of an
    entry, E the largest scalar.  binom(x, i) <= 2^hi for 0 <= x <= hi, and
    for x < 0, |binom(x, i)| = binom(i-x-1, i) <= 2^(hi-a-1) as a nonzero
    term has i <= x + hi - a (q >= a in table 0, x = m; p >= a in tables 1
    and 2, x = l).  So w > bits(6 span N E^2 2^max(0, hi, hi-a-1)) makes
    every |v_k| < 2^(w-2): X is 0 exactly when every v_k is, and its lowest
    set bit is in its least nonzero field.

    Pascal's rule J(l, m, n) = J(l-1, m+1, n) - J(l-1, m, n+1), true on any
    table, carries every point with m, n < hi from the slice before;
    `_jacobi_edge` computes the top edge.  The carry starts at l = 2a - 2hi
    from an empty slice: an entry (p, q >= a) reaches there only m + n >
    2hi.  Slices from lo up to there are yielded empty, unscattered; slices
    below lo are carried, not yielded."""
    w, starts, fields, keys = layout
    size, half = w // 8, 1 << (w - 1)
    pad = half.to_bytes(size, "little")

    @functools.cache  # a failing sweep stops before it reads every key
    def pack(key) -> int:
        held = keys[key]
        k0, n = starts[held[0]], starts[held[-2] + 1] - starts[held[0]]
        digits = [pad] * n
        for t, xs in zip(held[::2], held[1::2]):
            f = fields[t]
            for cd, y in xs.items():
                digits[f[cd] - k0] = (y + half).to_bytes(size, "little")
        return int.from_bytes(b"".join(digits), "little") - int.from_bytes(pad * n, "little") << w * k0

    entries = sorted(keys, reverse=True)
    start = 2 * a - 2 * hi
    for l in range(lo, min(start, hi + 1)):
        yield l, {}
    prev: dict = {}
    for l in range(start, hi + 1):
        acc = _jacobi_edge(l, lo, hi, entries, pack)
        for (m, n), x in prev.items():
            if m > lo and n < hi:
                acc[m - 1, n] += x
            if n > lo and m < hi:
                acc[m, n - 1] -= x
        prev = {key: x for key, x in acc.items() if x}
        if l >= lo:
            yield l, prev


def _slice_points(lo: int, hi: int, s_lo: int, s_hi: int) -> int:
    """#{(l, m, n) in [lo..hi]^3 : s_lo <= l+m+n <= s_hi} for lo <= hi, by
    inclusion-exclusion: with W = hi - lo + 1, the points of [0..W-1]^3
    with sum at most t number F(t), the sum over the k coordinates forced
    to W or more, k = 0..3 with t - kW >= 0, of (-1)^k C(3, k) C(t-kW+3, 3)."""
    w = hi - lo + 1

    def below(t: int) -> int:
        return sum((-1) ** k * math.comb(3, k) * math.comb(t - k * w + 3, 3)
                   for k in range(4) if t >= k * w)

    return max(0, below(s_hi - 3 * lo) - below(s_lo - 3 * lo - 1))


def _locality_witness(V: VAData) -> str | None:
    # u_m (v_n w) = v_n (u_m w) on the support square; both sides are zero
    # off the square, so this is the whole operator-commutativity statement.
    # The tables hold nonzero entries only, so the least differing (m, n) is
    # the least key of either table that the other, transposed, does not match.
    # Off the index, which is closed under the swap, both tables are empty.
    for iu, iv, iw in V.indexed_triples():
        uv = integer_modes(V, iu, iv, iw)[1]
        vu = {(n, m): x for (m, n), x in integer_modes(V, iv, iu, iw)[1].items()}
        if uv != vu:
            m, n = min(key for key in uv.keys() | vu.keys() if uv.get(key) != vu.get(key))
            return f"commutativity at ({triple_name(V, iu, iv, iw)}, m={m}, n={n})"
    return None


def _associativity_witness(V: VAData, b: int) -> str | None:
    # Compare, after clearing by (x0+x2)^K, the iterated-mode generating
    # polynomial in (x1, x2) substituted at x1 = x0 + x2 against the
    # one-step-composed generating polynomial in (x0, x2).  Together with
    # commutativity this is equivalent to the Jacobi identity for every
    # integer index triple.  lhs - rhs is summed into one integer
    # accumulator keyed (exponents, coord, deg); the witness is the least
    # exponent pair left nonzero.  Only indexed triples have nonzero tables.
    K = max(0, b + 1)
    for iu, iv, iw in V.indexed_triples():
        left, right = integer_modes(V, iu, iv, iw)
        acc: dict = defaultdict(int)
        for (l, n), val in left.items():
            p, q = -l - 1, -n - 1
            for j in range(K + 1):
                c = binom(K, j)
                for cd, x in val.items():
                    acc[(p + j, q + K - j), cd] += c * x
        for (m, n2), val in right.items():
            p2, q2 = -m - 1, -n2 - 1
            for j in range(K + p2 + 1):
                c = binom(K + p2, j)
                for cd, x in val.items():
                    acc[(j, q2 + K + p2 - j), cd] -= c * x
        failing = [key for (key, _), x in acc.items() if x]
        if failing:
            return f"composition identity at exponents {min(failing)} for ({triple_name(V, iu, iv, iw)})"
    return None


def closure_witness(V: VAData, a: int, b: int) -> str | None:
    """First failure of the two certificates that close the Jacobi identity
    over Z^3 for a table supported in [a..b]: operator commutativity, then
    the composition identity.  None when both hold.  Kept in the object's
    cache under b, the only bound they read: a round trip runs them once."""
    if not V.structure:
        return None
    if ("closure", b) not in V._cache:
        V._cache["closure", b] = _locality_witness(V) or _associativity_witness(V, b)
    return V._cache["closure", b]


def check_jacobi(V: VAData, window: tuple[int, int] | None = None) -> CheckReport:
    """Component Jacobi identity swept over the safe window, closed over all
    of Z^3 by the commutativity and composition certificates.  The sweep
    carries each slice from the one before by Pascal's rule, starting after
    a slice that no entry reaches inside the window, and scatters only its
    top edge (`_jacobi_slices`); the first slice left nonzero fails, with
    its least key as the witness."""
    name, label = "jacobi", "jac-comp"
    rng = V.global_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    a, b = rng if rng else (0, -1)
    span = b - a + 1
    lo, hi = merge_window(a - span - 1, b + span + 1, window)
    w, starts, *_ = layout = _jacobi_layout(V, a, b, hi)
    for l, failing in _jacobi_slices(lo, hi, a, layout):
        if failing:  # the first failing instance in (l, m, n, triple) order
            (m, n), x = min(failing.items())
            t = bisect.bisect(starts, ((x & -x).bit_length() - 1) // w) - 1  # the least nonzero field's
            return CheckReport(
                name, label, False, f"window (l,m,n) in [{lo}..{hi}]^3",
                f"({triple_name(V, *V.indexed_triples()[t])}, l={l}, m={m}, n={n})",
            )
    witness = closure_witness(V, a, b)
    if witness is not None:
        return CheckReport(
            name, label, False,
            f"window (l,m,n) in [{lo}..{hi}]^3 plus closure certificates", witness,
        )
    swept = V.rank ** 3 * _slice_points(lo, hi, 2 * a, 2 * b)
    return CheckReport(
        name, label, True,
        f"window (l,m,n) in [{lo}..{hi}]^3 with l+m+n in [{2*a}..{2*b}] "
        f"({swept} instances); off-slice terms vanish by support arithmetic; "
        "commutativity and composition certificates close the identity over Z^3",
    )


def check_all_va(V: VAData, window: tuple[int, int] | None = None) -> list[CheckReport]:
    return [
        check_truncation(V),
        check_d_derivative(V, window),
        check_skew_symmetry(V, window),
        check_jacobi(V, window),
    ]


# ---------------------------------------------------------------------------
# constructors


def make_commutative_va(
    mult: dict,
    d_cols: tuple[Vector, ...],
    basis_names: tuple[str, ...],
) -> VAData:
    """Vertex algebra of a commutative associative algebra with a nilpotent
    derivation: u_{-1-k} v = (D^k u / k!) . v and u_n v = 0 for n >= 0.

    `mult` maps basis pairs (i, j) to product vectors; missing pairs are zero.
    """
    rank = len(basis_names)
    names = basis_names
    mult_rows: dict = {}  # i -> {j: e_i e_j}
    for (i, j), vec in mult.items():
        if not (0 <= i < rank and 0 <= j < rank):
            raise ContractError(f"product table index out of range: {(i, j)}")
        mult_rows.setdefault(i, {})[j] = vec

    def prod(x: Vector, y: Vector) -> Vector:
        return contract(x, {i: contract(y, mult_rows[i]) for i, _ in x if i in mult_rows})

    def dmat(x: Vector) -> Vector:
        return matvec_cols(d_cols, x)

    zero: Vector = {}
    for i in range(rank):
        for j in range(rank):
            if mult.get((i, j), zero) != mult.get((j, i), zero):
                raise NotCommutative(f"product table at ({names[i]}, {names[j]})")
    # (e_i e_j) e_k and e_i (e_j e_k) are both zero off the triples that
    # index the product table as a table of -1 modes
    for i, j, k in _index_triples({pair: [(0, vec)] for pair, vec in mult.items() if vec}):
        left = prod(mult.get((i, j), zero), unit(k))
        right = prod(unit(i), mult.get((j, k), zero))
        if left != right:
            raise NotAssociative(f"witness triple ({names[i]}, {names[j]}, {names[k]})")
    for i in range(rank):
        for j in range(rank):
            lhs = dmat(mult.get((i, j), zero))
            rhs = vadd(prod(d_cols[i], unit(j)), prod(unit(i), d_cols[j]))
            if lhs != rhs:
                raise NotADerivation(
                    f"witness pair ({names[i]}, {names[j]}): "
                    f"D(xy) = {format_vector(lhs, names)} but "
                    f"(Dx)y + x(Dy) = {format_vector(rhs, names)}"
                )
    structure = {}
    for i in range(rank):
        w = unit(i)
        k = 0
        while w:
            if k == rank:
                raise NotNilpotent(f"witness basis vector {names[i]}: D^{rank} != 0")
            for j in range(rank):
                val = vscale(inv_factorial(k), prod(w, unit(j)))
                if val:
                    structure[(i, -1 - k, j)] = val
            w = dmat(w)
            k += 1
    return VAData(rank, "Q", names, structure, d_cols)


def tensor_with_ox(V: VAData) -> VAData:
    """Read a plain-Q table over Q[z]; D gains the derivation rule, which
    changes nothing on constant coordinates.  So every cached entry (tables,
    D-orbits, the axiom suite) is the same on both readings, and the two
    objects share one cache."""
    if V.coeff_ring != "Q":
        raise ContractError("tensor_with_ox expects a vertex algebra over Q")
    return VAData(V.rank, "Q[z]", V.basis_names, dict(V.structure), V.d_cols, dict(V.support),
                  _cache=V._cache)


def transform_basis(V: VAData, p_cols: tuple[Vector, ...], p_inv_cols: tuple[Vector, ...]) -> VAData:
    """Rewrite the table in the basis e'_q = sum_i P[i][q] e_i."""
    rank = V.rank
    for j in range(rank):
        if matvec_cols(p_cols, p_inv_cols[j]) != unit(j):
            raise ContractError("p_inv_cols is not the inverse of p_cols")
    rng = V.global_support()
    structure = {}
    if rng is not None:
        a, b = rng
        for p in range(rank):
            for q in range(rank):
                for n in range(a, b + 1):
                    vec = vertex_coeff(V, p_cols[p], n, p_cols[q])
                    if vec:
                        structure[(p, n, q)] = matvec_cols(p_inv_cols, vec)
    new_d = tuple(matvec_cols(p_inv_cols, apply_d(V, col)) for col in p_cols)
    return VAData(rank, V.coeff_ring, V.basis_names, structure, new_d)


# ---------------------------------------------------------------------------
# mutation helpers (negative controls and sensitivity sweeps)


def bump_structure_constant(V: VAData, i: int, n: int, j: int, coord: int) -> VAData:
    """Return a copy with +1 added to one coordinate of one table entry, at
    degree 0."""
    structure = dict(V.structure)
    structure[(i, n, j)] = vadd(structure.get((i, n, j), {}), {(coord, 0): 1})
    return VAData(V.rank, V.coeff_ring, V.basis_names, structure, V.d_cols)


def mutation_sites(V: VAData, count: int) -> list[tuple[int, int, int, int]]:
    """Deterministic list of (i, n, j, coord) slots: all nonzero coordinates
    first, then zero slots inside the support range, up to `count`."""
    sites = []
    for key in sorted(V.structure):
        sites += [(*key, c) for c in sorted({c for c, _ in V.structure[key]})]
    rng = V.global_support()
    if rng is not None:
        a, b = rng
        for i in range(V.rank):
            for n in range(a, b + 1):
                for j in range(V.rank):
                    for c in range(V.rank):
                        if len(sites) >= count:
                            return sites[:count]
                        if (i, n, j, c) not in sites:
                            sites.append((i, n, j, c))
    return sites[:count]
