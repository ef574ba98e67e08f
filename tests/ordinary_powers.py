"""Chiral section arithmetic in ordinary powers d1^k: the test oracle for the
divided-power sections of `chiralva.chiral`.

Layer k of a section here is the coefficient a_k of d1^k, where the package
stores k! a_k, the coefficient of d1^(k) = d1^k/k!; an entry (k, l) of a
triple-diagonal section is a_{k,l}, where the package stores k! l! a_{k,l}.
The functions are the ones the package ran before its sections moved to
divided powers: the layers B^n_m = ((-1)^m/m!) B^{n+m}_0, the operators
z1 - z2, d1 and d2 on them, the D-module check, the Horner skew check and
both compositions.  `divided` and `divided3` rescale their sections to the
package's, which must then be equal.
"""

from __future__ import annotations

from itertools import product
from weakref import WeakKeyDictionary

import pytest

from chiralva import chiral
from chiralva.chiral import (
    ChiralData,
    _bilinear3,
    _unscale,
    check_dmodule_morphism,
    diag_add,
    diag_contract,
    diag_scale,
)
from chiralva.exact import binom, factorial, inv_factorial
from chiralva.report import CheckReport
from chiralva.vertex import (
    accumulate,
    apply_d,
    d_kill_bound,
    integer_modes,
    merge_window,
    pair_name,
    vscale,
)

_LAYERS: WeakKeyDictionary = WeakKeyDictionary()  # ChiralData -> {key: layer}


def signed_inv_factorial(k: int):
    return (-1) ** k * inv_factorial(k)


def ordinary_b_layer(A: ChiralData, i: int, n: int, j: int, m: int) -> dict:
    """B^n_m(e_i, e_j): the explicit override if present, else the closed
    form ((-1)^m/m!) B^{m+n}_0(e_i, e_j)."""
    memo = _LAYERS.setdefault(A, {})
    key = ("b", i, n, j, m)
    if key not in memo:
        val = A.overrides.get((i, n, j, m))
        if val is None:
            b0 = A.va.structure.get((i, m + n, j))
            val = vscale(signed_inv_factorial(m), b0) if b0 else {}
        memo[key] = val
    return memo[key]


def ordinary_basis_section(A: ChiralData, i: int, n: int, j: int) -> dict:
    """Every nonzero layer B^n_m(e_i, e_j), m over the support."""
    memo = _LAYERS.setdefault(A, {})
    key = ("sec", i, n, j)
    if key not in memo:
        lo, hi = A.effective_support() or (0, -1)
        layers = ((m, ordinary_b_layer(A, i, n, j, m)) for m in range(max(0, lo - n), hi - n + 1))
        memo[key] = {m: val for m, val in layers if val}
    return memo[key]


def mul_z12(s: dict) -> dict:
    """Multiplication by (z1 - z2): layer k receives -(k+1) times layer k+1."""
    out: dict = {}
    for k, v in s.items():
        if k >= 1:
            accumulate(out, k - 1, vscale(-k, v))
    return out


def apply_d1(s: dict) -> dict:
    """Left derivative d1: shifts the derivative degree up by one."""
    return {k + 1: v for k, v in s.items()}


def apply_d2(A: ChiralData, s: dict) -> dict:
    """Right derivative d2 = (d1 + d2) - d1, d1 + d2 acting layerwise as D."""
    out: dict = {}
    for k, v in s.items():
        accumulate(out, k, apply_d(A.va, v))
        accumulate(out, k + 1, vscale(-1, v))
    return out


def divided(s: dict) -> dict:
    """A section in ordinary powers rewritten in divided powers."""
    return {k: vscale(factorial(k), v) for k, v in s.items()}


def divided3(s: dict) -> dict:
    """A triple-diagonal section in ordinary powers rewritten in divided powers."""
    return {(k, l): vscale(factorial(k) * factorial(l), v) for (k, l), v in s.items()}


def ordinary_dmodule_parts(A: ChiralData, window=None) -> dict:
    """`chiral.dmodule_parts` on ordinary-power sections, reached through
    `check_dmodule_morphism` on the recursion only; it still compares part
    (a), which the package holds by the closed form."""
    parts = {
        "a": {"label": "expl-exp4", "passed": True, "witness": None},
        "b": {"label": "l-1-1", "passed": True, "witness": None},
        "c": {"label": "d2-leibniz", "passed": True, "witness": None},
    }
    rng = A.effective_support()
    if rng is None and window is None:
        return parts
    lo, hi = rng if rng else (0, -1)
    n, _ = merge_window(lo - 2, hi + 1, window)  # on the recursion, one section per pair
    va = A.va
    for i, j in product(range(va.rank), repeat=2):
        s_n = ordinary_basis_section(A, i, n, j)
        s_n1 = ordinary_basis_section(A, i, n + 1, j)
        where = f"({pair_name(va, i, j)}, n={n})"
        if parts["a"]["passed"] and s_n1 != mul_z12(s_n):
            parts["a"].update(passed=False, witness=where)
        if parts["b"]["passed"]:
            rhs = diag_add(diag_scale(n + 1, s_n), diag_contract(
                va.d_cols[i], lambda p: ordinary_basis_section(A, p, n + 1, j)))
            if apply_d1(s_n1) != rhs:
                parts["b"].update(passed=False, witness=where)
        if parts["c"]["passed"]:
            rhs = diag_add(diag_scale(-(n + 1), s_n), diag_contract(
                va.d_cols[j], lambda p: ordinary_basis_section(A, i, n + 1, p)))
            if apply_d2(A, s_n1) != rhs:
                parts["c"].update(passed=False, witness=where)
    return parts


def ordinary_check_dmodule_morphism(A: ChiralData, window=None) -> CheckReport:
    """The D-module report with its parts from `ordinary_dmodule_parts`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chiral, "dmodule_parts", ordinary_dmodule_parts)
        return check_dmodule_morphism(A, window)


def ordinary_check_chiral_skew(A: ChiralData, window=None) -> CheckReport:
    """The chiral skew check on ordinary-power sections, by a Horner pass that
    adds each layer B^n_m(v, u) as it is, over the rationals."""
    name, label = "chiral-skew", "sigma12"
    rng = A.effective_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    lo0, hi0 = rng if rng else (0, -1)
    kill = d_kill_bound(A.va)
    lo, hi = merge_window(lo0 - kill - 1, hi0 + 1, window)
    n = lo  # on the recursion, one section per pair
    for i, j in product(range(A.va.rank), repeat=2):
        sec_vu = ordinary_basis_section(A, j, n, i)
        route: dict = {}
        for m in range(max(sec_vu, default=-1), -1, -1):
            route = apply_d2(A, route)
            if m in sec_vu:
                accumulate(route, 0, sec_vu[m])
        if n % 2:
            route = diag_scale(-1, route)
        if route != diag_scale(-1, ordinary_basis_section(A, i, n, j)):
            return CheckReport(
                name, label, False, f"window n in [{lo}..{hi}]",
                f"({pair_name(A.va, i, j)}, n={n})",
            )
    return CheckReport(
        name, label, True,
        f"window n in [{lo}..{hi}]; every generator bundles the component "
        f"identities at m >= n, and terms vanish below the window "
        f"(support [{lo0}..{hi0}], D-kill bound {kill})",
    )


def ordinary_compose_left_basis(A: ChiralData, m1, m2, m3, iu, iv, iw) -> dict:
    """mu(mu(e_iu, e_iv), e_iw): on the recursion entry (k, l) reads
    ((-1)^(k+l)/k!l!) (u_{m1+i} v)_{n2+l} w, off it the layers contract."""
    rng = A.effective_support()
    if rng is None:
        return {}
    lo, hi = rng
    modes = None if A.off_recursion() else integer_modes(A.va, iu, iv, iw)[0]
    unscale = _unscale(A.va)
    out: dict = {}
    for i in range(max(0, lo - m1), hi - m1 + 1):
        for k in range(0, hi - m2 - m3 + i + 1):
            c = binom(m3 + k, i)
            if not c:
                continue
            n2 = m2 + m3 + k - i
            if modes is None:
                inner = vscale(c, ordinary_b_layer(A, iu, m1 + i - k, iv, k))
                for l, vec in diag_contract(inner, lambda p: ordinary_basis_section(A, p, n2, iw)).items():
                    accumulate(out, (k, l), vec)
                continue
            c *= signed_inv_factorial(k) * unscale
            for l in range(max(0, lo - n2), hi - n2 + 1):
                dbl = modes.get((m1 + i, n2 + l))
                if dbl is not None:
                    accumulate(out, (k, l), vscale(c * signed_inv_factorial(l), dbl))
    return out


def ordinary_compose_right_basis(A: ChiralData, m1, m2, m3, iu, iv, iw) -> dict:
    """mu(e_iu, mu(e_iv, e_iw)): on the recursion entry (k, l) reads
    ((-1)^(k+l)/k!l!) u_{n1+k} (v_{n2+l} w), off it the layers contract."""
    rng = A.effective_support()
    if rng is None:
        return {}
    lo, hi = rng
    modes = None if A.off_recursion() else integer_modes(A.va, iu, iv, iw)[1]
    unscale = _unscale(A.va)
    out: dict = {}
    for i in range(max(0, m1 + m3 - hi), hi - m2 + 1):
        c = (-1) ** i * binom(m1, i)
        if not c:
            continue
        n1, n2 = m1 + m3 - i, m2 + i
        if modes is None:
            for l, inner in ordinary_basis_section(A, iv, n2, iw).items():
                sec = diag_contract(vscale(c, inner), lambda p: ordinary_basis_section(A, iu, n1, p))
                for k, vec in sec.items():
                    accumulate(out, (k, l), vec)
            continue
        for l in range(max(0, lo - n2), hi - n2 + 1):
            cl = c * signed_inv_factorial(l) * unscale
            for k in range(max(0, lo - n1), hi - n1 + 1):
                dbl = modes.get((n1 + k, n2 + l))
                if dbl is not None:
                    accumulate(out, (k, l), vscale(cl * signed_inv_factorial(k), dbl))
    return out


def ordinary_compose_left(A: ChiralData, m1, m2, m3, u, v, w) -> dict:
    return _bilinear3(A, ordinary_compose_left_basis, m1, m2, m3, u, v, w)


def ordinary_compose_right(A: ChiralData, m1, m2, m3, u, v, w) -> dict:
    return _bilinear3(A, ordinary_compose_right_basis, m1, m2, m3, u, v, w)
