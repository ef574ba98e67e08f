"""Canonical JSON spec files for the two algebra kinds.

Rationals serialize as lowest-terms "p/q" strings, polynomials as
coefficient lists low degree first, structure entries as sorted lists, and
documents with sorted keys and a trailing newline, so serialization is
byte-deterministic and parse . serialize is the identity on canonical form.
A coefficient must be a JSON string matching -?[0-9]+(/[0-9]+)? with a
nonzero denominator; anything else is a ParseError.  Coefficient lists are
read straight into the sparse {(coord, deg): scalar} vectors of `vertex`
and written straight out of them.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .chiral import ChiralData
from .errors import ParseError
from .exact import Q, format_q
from .vertex import VAData, Vector

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def str_to_rational(s) -> int | Fraction:
    """A strict coefficient literal: an int when integral, else a Fraction."""
    if not (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise ParseError(f"bad rational literal {s!r}: expected a string p or p/q in ASCII digits")
    try:
        if "/" not in s:
            return int(s)
        p, _, q = s.partition("/")
        x = Q(int(p), int(q))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from None
    return x.numerator if x.denominator == 1 else x


def _read_poly(items, coord: int, out: Vector) -> None:
    """Put the coefficient list of coordinate `coord` into the sparse vector `out`."""
    if not isinstance(items, list):
        raise ParseError(f"polynomial must be a coefficient list, got {type(items).__name__}")
    for deg, item in enumerate(items):
        if item != "0" and (x := str_to_rational(item)):
            out[(coord, deg)] = x


def vector_to_list(v: Vector, rank: int) -> list[list[str]]:
    out: list[list[str]] = [[] for _ in range(rank)]
    for (c, d), x in sorted(v.items()):
        row = out[c]
        row += ["0"] * (d - len(row))
        row.append(format_q(x))
    return out


def list_to_vector(items, rank: int) -> Vector:
    if not isinstance(items, list) or len(items) != rank:
        raise ParseError(f"vector must be a list of {rank} polynomials")
    out: Vector = {}
    for coord, poly in enumerate(items):
        if poly != []:  # an empty coefficient list adds nothing
            _read_poly(poly, coord, out)
    return out


def _matrix_to_obj(cols: tuple[Vector, ...]) -> list[list[list[str]]]:
    # row-major: obj[i][j] is the coefficient of e_i in D(e_j)
    rank = len(cols)
    lists = [vector_to_list(col, rank) for col in cols]
    return [[lists[j][i] for j in range(rank)] for i in range(rank)]


def _obj_to_matrix(obj, rank: int) -> tuple[Vector, ...]:
    if not (isinstance(obj, list) and len(obj) == rank
            and all(isinstance(row, list) and len(row) == rank for row in obj)):
        raise ParseError(f"D must be a {rank}x{rank} matrix of polynomials")
    cols: list[Vector] = [{} for _ in range(rank)]
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            if entry != []:
                _read_poly(entry, i, cols[j])
    return tuple(cols)


def _int_field(entry, key: str) -> int:
    """A field that must be a JSON integer: floats, booleans and strings are
    rejected, never coerced."""
    val = entry[key]
    if type(val) is not int:
        raise ParseError(f"field {key!r} must be an integer, got {val!r}")
    return val


def _basis_names(obj) -> tuple[str, ...]:
    names = obj["basis_names"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ParseError(f"basis_names must be a list of strings, got {names!r:.80}")
    return tuple(names)


def _put_new(table: dict, key, value, what: str) -> None:
    if key in table:
        raise ParseError(f"duplicate {what} entry {key!r}")
    table[key] = value


def _unique_members(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # walk the pairs only to name the duplicate
        obj = {}
        for key, val in pairs:
            _put_new(obj, key, val, "JSON member")
    return obj


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# vertex algebra files


def va_to_obj(V: VAData) -> dict:
    structure = [
        {
            "i": i,
            "n": n,
            "j": j,
            "value": vector_to_list(V.structure[(i, n, j)], V.rank),
        }
        for (i, n, j) in sorted(V.structure)
    ]
    support = [
        {"i": i, "j": j, "n_min": lo, "n_max": hi}
        for (i, j), (lo, hi) in sorted(V.support.items())
    ]
    return {
        "kind": "vertex-algebra",
        "rank": V.rank,
        "coeff_ring": V.coeff_ring,
        "basis_names": list(V.basis_names),
        "D": _matrix_to_obj(V.d_cols),
        "structure": structure,
        "support_bounds": support,
    }


def obj_to_va(obj) -> VAData:
    try:
        rank = _int_field(obj, "rank")
        ring = obj["coeff_ring"]
        names = _basis_names(obj)
        d_cols = _obj_to_matrix(obj["D"], rank)
        structure = {}
        for entry in obj["structure"]:
            key = (_int_field(entry, "i"), _int_field(entry, "n"), _int_field(entry, "j"))
            _put_new(structure, key, list_to_vector(entry["value"], rank), "structure")
        support = {}
        for entry in obj.get("support_bounds", []):
            key = (_int_field(entry, "i"), _int_field(entry, "j"))
            bounds = (_int_field(entry, "n_min"), _int_field(entry, "n_max"))
            _put_new(support, key, bounds, "support_bounds")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed vertex-algebra document: {exc}") from None
    return VAData(rank, ring, names, structure, d_cols, support)


# ---------------------------------------------------------------------------
# chiral algebra files


def chiral_to_obj(A: ChiralData) -> dict:
    va = A.va
    entries = [
        {"i": i, "j": j, "n": n, "m": 0, "value": vector_to_list(va.structure[(i, n, j)], va.rank)}
        for (i, n, j) in sorted(va.structure)
    ]
    for (i, n, j, m) in sorted(A.overrides):
        entries.append(
            {"i": i, "j": j, "n": n, "m": m,
             "value": vector_to_list(A.overrides[(i, n, j, m)], va.rank)}
        )
    return {
        "kind": "chiral-algebra",
        "rank": va.rank,
        "basis_names": list(va.basis_names),
        "D": _matrix_to_obj(va.d_cols),
        "B": entries,
        "recursion_determined": not A.overrides,
    }


def obj_to_chiral(obj) -> ChiralData:
    try:
        rank = _int_field(obj, "rank")
        names = _basis_names(obj)
        d_cols = _obj_to_matrix(obj["D"], rank)
        m0 = {}
        overrides = {}
        for entry in obj["B"]:
            i, j = _int_field(entry, "i"), _int_field(entry, "j")
            n, m = _int_field(entry, "n"), _int_field(entry, "m")
            value = list_to_vector(entry["value"], rank)
            if m == 0:
                _put_new(m0, (i, n, j), value, "B")
            else:
                _put_new(overrides, (i, n, j, m), value, "B")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed chiral-algebra document: {exc}") from None
    return ChiralData(VAData(rank, "Q[z]", names, m0, d_cols), overrides)


# ---------------------------------------------------------------------------
# file-level entry points


def dumps(x) -> str:
    if isinstance(x, VAData):
        return canonical_json(va_to_obj(x))
    if isinstance(x, ChiralData):
        return canonical_json(chiral_to_obj(x))
    raise ParseError(f"cannot serialize {type(x).__name__}")


def loads(text: str):
    try:
        obj = json.loads(text, object_pairs_hook=_unique_members)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError:  # an integer longer than the interpreter converts
        raise ParseError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("document must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "vertex-algebra":
        return obj_to_va(obj)
    if kind == "chiral-algebra":
        return obj_to_chiral(obj)
    raise ParseError(f"unknown document kind {kind!r}")


def load_path(path) -> VAData | ChiralData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return loads(text)
