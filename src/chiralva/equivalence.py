"""The two functors between vertex algebras without vacuum over the affine
line and chiral algebras, plus exact round-trip verification.

Translation is a re-reading of the same table: the mode u_n v becomes the
m = 0 coefficient layer B^n_0(u, v), the higher layers being forced by the
recursion.  A chiral algebra holds that layer as a VAData over Q[z], so the
functors pass one object between them: `va_to_chiral` wraps a Q[z] table as
it is (a Q table is first read over Q[z]), and `chiral_to_va` returns the
layer itself.  Both directions insist that the input passes its axiom suite
first, so a broken table is rejected by name rather than silently
round-tripped.  The suite runs once per object (`axiom_suite`), so a round
trip checks its input and the one translated object between, each once.
"""

from __future__ import annotations

from collections import namedtuple

from .chiral import ChiralData, check_all_chiral
from .errors import ContractError
from .report import CheckReport
from .vertex import VAData, check_all_va, equal_tables, tensor_with_ox


class TranslationReport(namedtuple("TranslationReport", "direction passed witness", defaults=(None,))):
    __slots__ = ()

    def headline(self) -> str:
        status = "EXACT" if self.passed else "MISMATCH"
        line = f"roundtrip ({self.direction}): {status}"
        if self.witness:
            line += f"; first witness: {self.witness}"
        return line


def axiom_suite(data: VAData | ChiralData) -> tuple[CheckReport, ...]:
    """The axiom reports of `data` on the default window, computed once per
    object (neither data type is mutated after construction)."""
    if "suite" not in data._cache:
        run = check_all_va if isinstance(data, VAData) else check_all_chiral
        data._cache["suite"] = tuple(run(data))
    return data._cache["suite"]


def _require_pass(data, what: str):
    for rep in axiom_suite(data):
        if not rep.passed:
            raise ContractError(
                f"{what} fails the {rep.name} axiom"
                + (f" at {rep.witness}" if rep.witness else "")
            )


def va_to_chiral(V: VAData, *, checked: bool = True) -> ChiralData:
    """B^n_m(u, v) = ((-1)^m / m!) u_{m+n} v; only the m = 0 layer is stored,
    so the recursion holds by construction.  A Q[z] table becomes that layer
    as it is; plain-Q input is checked as it is (the checkers never read the
    coefficient ring) and then read over Q[z]."""
    if checked:
        _require_pass(V, "vertex algebra")
    return ChiralData(V if V.coeff_ring == "Q[z]" else tensor_with_ox(V))


def chiral_to_va(A: ChiralData, *, checked: bool = True) -> VAData:
    """u_n v = B^n_0(u, v) with D the global-sections derivation: the
    m = 0 layer itself."""
    if checked:
        _require_pass(A, "chiral algebra")
    return A.va


def roundtrip_va(V: VAData) -> TranslationReport:
    """A Q table is read over Q[z] once, and that reading goes there and back;
    it shares the input's cache, so its axiom suite is the input's."""
    W = V if V.coeff_ring == "Q[z]" else tensor_with_ox(V)
    ok, witness = equal_tables(W, chiral_to_va(va_to_chiral(W)))
    return TranslationReport("va -> chiral -> va", ok, witness)


def roundtrip_chiral(A: ChiralData) -> TranslationReport:
    back = va_to_chiral(chiral_to_va(A))
    ok, witness = equal_tables(A.va, back.va)
    return TranslationReport("chiral -> va -> chiral", ok, witness)


def roundtrip_check(x) -> TranslationReport:
    if isinstance(x, VAData):
        return roundtrip_va(x)
    if isinstance(x, ChiralData):
        return roundtrip_chiral(x)
    raise ContractError("roundtrip_check expects VAData or ChiralData")
