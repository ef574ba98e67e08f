"""Concrete algebras used by the test corpus and the CLI examples.

The workhorse is the rank-3 truncated polynomial algebra Q[t]/(t^3) with
the nilpotent derivation t^2 d/dt, read as a commutative vertex algebra;
randomized corpus members are truncated polynomial algebras and square-zero
extensions with seeded rational coefficients, always validated through the
commutative constructor.
"""

from __future__ import annotations

import random
from itertools import product

from .exact import Q
from .vertex import (
    VAData,
    Vector,
    make_commutative_va,
    tensor_with_ox,
    transform_basis,
    unit,
    vadd,
    vscale,
)


def a3_va() -> VAData:
    """Q[t]/(t^3) with D = t^2 d/dt, basis (1, t, t2)."""
    return truncated_poly_va(3, [0, 0, 1])


def trivial_rank1() -> VAData:
    """The field Q with zero derivation: 1_{-1} 1 = 1 is the only constant."""
    mult = {(0, 0): unit(0)}
    return make_commutative_va(mult, ({},), ("1",))


def truncated_poly_va(order: int, deriv_coeffs: list) -> VAData:
    """Q[t]/(t^order) with the derivation (sum_k c_k t^k) d/dt.

    Coefficients c_k with k >= 2 keep the derivation nilpotent and
    well-defined on the quotient.
    """
    names = tuple("1" if k == 0 else f"t{k}" if k > 1 else "t" for k in range(order))
    mult = {}
    for i in range(order):
        for j in range(order):
            if i + j < order:
                mult[(i, j)] = unit(i + j)
    d_cols = []
    for i in range(order):
        col: Vector = {}
        # D(t^i) = i t^{i-1} sum_k c_k t^k
        for k, c in enumerate(deriv_coeffs):
            if c and i >= 1 and i - 1 + k < order:
                col = vadd(col, vscale(i * c, unit(i - 1 + k)))
        d_cols.append(col)
    return make_commutative_va(mult, tuple(d_cols), names)


def square_zero_va(d_entries: tuple) -> VAData:
    """Q + (Q s + Q t) with s^2 = st = t^2 = 0 and a nilpotent derivation on
    the radical given by the 2x2 matrix d_entries = (a, b, c, d)."""
    names = ("1", "s", "t")
    mult = {(0, 0): unit(0), (0, 1): unit(1), (1, 0): unit(1),
            (0, 2): unit(2), (2, 0): unit(2)}
    a, b, c, d = d_entries
    d_cols = ({}, vadd(vscale(a, unit(1)), vscale(c, unit(2))),
              vadd(vscale(b, unit(1)), vscale(d, unit(2))))
    return make_commutative_va(mult, tuple(d_cols), names)


def random_commutative_va(seed: int) -> VAData:
    """A seeded corpus member of rank <= 4 with a nilpotent derivation.

    The family is chosen by seed residue so a corpus of consecutive seeds
    mixes rank-4 truncated polynomial algebras (deeper derivation kill)
    with rank-3 square-zero extensions.
    """
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        coeffs = [Q(0), Q(0)] + [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        if all(c == 0 for c in coeffs):
            coeffs[2] = Q(1)
        return truncated_poly_va(4, coeffs)
    if kind == 1:
        # strictly triangular 2x2 block, conjugation-free
        b = Q(rng.randint(-3, 3), rng.randint(1, 2)) or Q(1)
        return square_zero_va((Q(0), b, Q(0), Q(0)))
    # trace-zero, determinant-zero 2x2 nilpotent block
    p = rng.randint(1, 2)
    q = rng.randint(1, 3)
    return square_zero_va((Q(p * q), Q(q * q), Q(-p * p), Q(-p * q)))


def tensor_product(A: VAData, B: VAData) -> VAData:
    """The commutative vertex algebra of the tensor product of the algebras
    of A and B, with D = D_A (x) 1 + 1 (x) D_B, built by
    `make_commutative_va` (which validates it).  A and B are commutative
    vertex algebras over Q, read through their products u_{-1} v; the basis
    vector a (x) b has index i * B.rank + j and name "a*b"."""

    def tensor(x: Vector, y: Vector) -> Vector:
        return {(i * B.rank + j, 0): c * d for (i, _), c in x.items() for (j, _), d in y.items()}

    pairs = [(i, j) for i in range(A.rank) for j in range(B.rank)]
    mult = {}
    for (i, j), (k, l) in product(pairs, repeat=2):
        vec = tensor(A.mode(i, -1, k), B.mode(j, -1, l))
        if vec:
            mult[i * B.rank + j, k * B.rank + l] = vec
    d_cols = tuple(vadd(tensor(A.d_cols[i], unit(j)), tensor(unit(i), B.d_cols[j])) for i, j in pairs)
    names = tuple(f"{a}*{b}" for a in A.basis_names for b in B.basis_names)
    return make_commutative_va(mult, d_cols, names)


def elementary_rational_matrix(rank: int, seed: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """A random invertible change of basis over Q, returned as
    (columns of P, columns of P^-1) built from elementary shears.

    Entries stay constant: a base change with nonconstant polynomial entries
    does not preserve the axioms under the Q[z]-bilinear reading of the mode
    table that this package uses, because the derivation rule injects
    derivative terms that plain bilinearity does not see.  This is a
    property of that reading, not of the algebras.
    """
    rng = random.Random(seed)
    ident = tuple(unit(i) for i in range(rank))

    def apply_shear(cols, i, j, f):
        # column operation: col_j += f * col_i
        out = list(cols)
        out[j] = vadd(out[j], vscale(f, out[i]))
        return tuple(out)

    shears = []
    for _ in range(max(3, rank + 1)):
        i, j = rng.sample(range(rank), 2)
        shears.append((i, j, Q(rng.randint(-2, 2), rng.randint(1, 2)) or Q(1)))
    p_cols = ident
    for i, j, f in shears:
        p_cols = apply_shear(p_cols, i, j, f)
    p_inv = ident
    for i, j, f in reversed(shears):
        p_inv = apply_shear(p_inv, i, j, -f)
    return p_cols, p_inv


def a3_basis_changed(seed: int = 7) -> VAData:
    """A3 (x) Q[z] rewritten in a random constant basis of unit determinant."""
    v = tensor_with_ox(a3_va())
    p_cols, p_inv = elementary_rational_matrix(3, seed)
    return transform_basis(v, p_cols, p_inv)


def corpus() -> list[tuple[str, VAData]]:
    """The fixture corpus: named vertex algebras over Q[z], roundtrip-ready."""
    out = [
        ("a3", tensor_with_ox(a3_va())),
        ("trivial-rank1", tensor_with_ox(trivial_rank1())),
        ("a3-basis-change", a3_basis_changed(seed=7)),
    ]
    for k in range(5):
        out.append((f"random-{k}", tensor_with_ox(random_commutative_va(1000 + k))))
    return out
