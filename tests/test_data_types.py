"""The semantics the package relies on from its plain data classes and its
named-tuple reports.

Boxes are equal, and hash alike, when their variables and bounds are
(`LaurentWindow.__eq__` and `diff_keys` compare boxes).  The four reports
compare by field and print as records.  Tables compare by identity: their
per-object caches make two equal tables different objects.  Every
constructor rejects malformed input with its own message, and keeps its
positional and keyword signature.
"""

import copy
import inspect
import re

import pytest

from chiralva.chiral import ChiralData, ChiralGenerator
from chiralva.equivalence import TranslationReport
from chiralva.errors import ContractError
from chiralva.exact import Q
from chiralva.fixtures import a3_va
from chiralva.formal import (
    DeltaAtom,
    Deriv,
    ExponentBox,
    IdentityReport,
    IotaPow,
    LaurentWindow,
    Monomial,
    Product,
    Sum,
)
from chiralva.report import CheckReport
from chiralva.vertex import VAData, tensor_with_ox


def test_boxes_compare_and_hash_by_variables_and_bounds():
    box = ExponentBox(("x1", "x2"), ((-2, 2), (-1, 3)))
    same = ExponentBox.cube(("x1", "x2"), -2, 2).shifted((0, -1))
    assert same is not box and same == box and hash(same) == hash(box) and len({box, same}) == 1
    assert box != ExponentBox(("x1", "x2"), ((-2, 2), (-1, 4)))
    assert box != ExponentBox(("x2", "x1"), ((-2, 2), (-1, 3)))
    assert box != box.bounds and box != (box.variables, box.bounds)
    lw = LaurentWindow(box, {(0, 0): Q(1)})
    assert lw == LaurentWindow(same, {(0, 0): Q(1)})
    assert lw.diff_keys(LaurentWindow(same, {(1, 0): Q(1)})) == [(0, 0), (1, 0)]
    assert lw.diff_keys(LaurentWindow(same, {(0, 0): Q(1)})) == []


BOX = ExponentBox(("x1",), ((0, 1),))

RECORDS = [
    (CheckReport("jacobi", "jac-comp", False, "window", "w", ("d",)),
     "CheckReport(name='jacobi', label='jac-comp', passed=False, window='window', witness='w', details=('d',))"),
    (CheckReport("truncation", "trunc", True, "empty table, vacuous"),
     "CheckReport(name='truncation', label='trunc', passed=True, window='empty table, vacuous', "
     "witness=None, details=())"),
    (TranslationReport("va -> chiral -> va", True),
     "TranslationReport(direction='va -> chiral -> va', passed=True, witness=None)"),
    (IdentityReport(False, BOX, (((0,), Q(1), Q(0)),), "note"),
     "IdentityReport(passed=False, box=ExponentBox(variables=('x1',), bounds=((0, 1),)), "
     "diffs=(((0,), Fraction(1, 1), Fraction(0, 1)),), note='note')"),
    (ChiralGenerator(-2, {(1, 0): 1}, {}), "ChiralGenerator(n=-2, u={(1, 0): 1}, v={})"),
]


@pytest.mark.parametrize("record,text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_reports_compare_by_field_and_print_as_records(record, text):
    assert repr(record) == text
    twin = type(record)(*copy.deepcopy(tuple(record)))
    assert twin is not record and twin == record
    assert record != record._replace(**{record._fields[0]: "other"})


def test_report_defaults_and_hash():
    assert CheckReport("a", "b", True, "w") == CheckReport("a", "b", True, "w", None, ())
    assert hash(CheckReport("a", "b", True, "w")) == hash(CheckReport("a", "b", True, "w", None, ()))
    assert TranslationReport("d", False).witness is None
    assert IdentityReport(True, BOX, ()).note == "" and IdentityReport(True, BOX, ()).first_diff is None


def test_tables_compare_by_identity():
    V, W = a3_va(), a3_va()
    assert V == V and V != W and len({V, W}) == 2
    assert tensor_with_ox(V) != tensor_with_ox(V)
    A = ChiralData(tensor_with_ox(V))
    assert A == A and A != ChiralData(A.va) and len({A, ChiralData(A.va)}) == 2


def _va(**kw):
    args = dict(rank=1, coeff_ring="Q", basis_names=("a",), structure={}, d_cols=({},))
    return VAData(**{**args, **kw})


INVALID = [
    (lambda: ExponentBox(("x1", "x2"), ((0, 1),)), "one (lo, hi) bound pair per variable required"),
    (lambda: ExponentBox(("x1", "y"), ((0, 1), (2, 1))), "unknown variable 'y'"),
    (lambda: ExponentBox(("x1", "x2"), ((0, 1), (2, 1))), "empty bound [2, 1] for x2"),
    (lambda: IotaPow("x1", "x1", 2), "iota expansion needs two distinct variables"),
    (lambda: DeltaAtom((), (1, "x2")), "delta numerator must have one or two terms"),
    (lambda: DeltaAtom(((1, "x1"), (1, "x2"), (1, "x0")), (1, "x2")), "delta numerator must have one or two terms"),
    (lambda: DeltaAtom(((1, "x1"), (-1, "x1")), (1, "x2")), "delta ratio variables must be distinct"),
    (lambda: DeltaAtom(((1, "x1"),), (1, "x1")), "delta ratio variables must be distinct"),
    (lambda: DeltaAtom(((2, "x1"),), (1, "x2")), "delta term signs must be +1 or -1"),
    (lambda: DeltaAtom(((1, "x1"),), (0, "x2")), "delta term signs must be +1 or -1"),
    (lambda: _va(coeff_ring="Z"), "coeff_ring must be one of ('Q', 'Q[z]')"),
    (lambda: _va(d_cols=({}, {})), "basis names and D columns must match the rank"),
    (lambda: _va(structure={(0, -1, 0): {(1, 0): 1}}),
     "structure value at (0, -1, 0) has an entry off the shape: (1, 0)"),
    (lambda: _va(support={(0, 1): (-1, -1)}), "support bounds index out of range: (0, 1)"),
    (lambda: _va(structure={(0, -1, 0): {(0, 1): 1}}), "coeff_ring Q admits constant coordinates only"),
    (lambda: ChiralData(_va()), "the m = 0 layer must be a table over Q[z], got Q"),
    (lambda: ChiralData(_va(coeff_ring="Q[z]"), {(0, -1, 0, 0): {(0, 0): 1}}),
     "explicit B layer needs m >= 1, got m = 0 at (0, -1, 0, 0)"),
]


@pytest.mark.parametrize("build,message", INVALID, ids=[m for _, m in INVALID])
def test_constructors_reject_malformed_input_by_name(build, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        build()


SIGNATURES = {
    VAData: ["rank", "coeff_ring", "basis_names", "structure", "d_cols", "support", "_cache"],
    ChiralData: ["va", "overrides", "_cache"],
    ChiralGenerator: ["n", "u", "v"],
    CheckReport: ["name", "label", "passed", "window", "witness", "details"],
    TranslationReport: ["direction", "passed", "witness"],
    IdentityReport: ["passed", "box", "diffs", "note"],
    ExponentBox: ["variables", "bounds"],
    Monomial: ["coeff", "exps"],
    IotaPow: ["first", "second", "n"],
    DeltaAtom: ["num", "den"],
    Sum: ["terms"],
    Product: ["factors"],
    Deriv: ["var", "body"],
}


def test_constructors_keep_their_signatures():
    assert {cls: list(inspect.signature(cls).parameters) for cls in SIGNATURES} == SIGNATURES
    V = VAData(rank=1, coeff_ring="Q[z]", basis_names=("a",), structure={}, d_cols=({},))
    assert ChiralData(va=V, overrides={}).va is V and V.support == {} and V.global_support() is None
    assert Deriv(var="x1", body=Sum(terms=(Monomial(coeff=Q(1), exps=()),))).body.terms[0].coeff == 1
