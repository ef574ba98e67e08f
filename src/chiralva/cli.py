"""Command-line front end.

Subcommands: check-va, check-chiral, to-chiral, to-va, roundtrip,
delta-suite, compose-diff.  Exit status 0 means every check passed, 1 means
an axiom or identity failed (the report names the first witness), 2 means
the input could not be parsed or violated a precondition.  Reports contain
no timestamps: identical inputs give byte-identical output.

`main` parses a command with its subcommand's own parser, which yields the
namespace the full parser would; any argument it leaves over, and any argv
that does not start with a subcommand (none, -h, an unknown command), goes
through the full parser, so usage errors, help and exit codes are its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import serialize
from .chiral import (
    ChiralData,
    check_all_chiral,
    compose_left,
    compose_right,
    diag3_transpose,
    diag_add,
    diag_scale,
    sigma12_triple,
)
from .deltaparse import parse_expression
from .equivalence import axiom_suite, chiral_to_va, roundtrip_check, va_to_chiral
from .errors import ChiralvaError, ContractError, ParseError
from .exact import Q, format_q, inv_factorial
from .formal import (
    Deriv,
    ExponentBox,
    LaurentWindow,
    Product,
    check_identity,
    delta_ratio,
    fundamental_delta_property,
    identity_three_term,
    identity_two_term,
    mono,
    support_bounds,
)
from .report import CheckReport, all_passed
from .vertex import VAData, check_all_va, format_vector, unit, vscale

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

DELTA_SUITE_SEED = 20240

def _parse_window(text: str | None, flag: str = "--window") -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        window = (int(lo), int(hi))
    except ValueError:
        raise ContractError(f"{flag} expects lo:hi, got {text!r}") from None
    if window[0] > window[1]:
        raise ContractError(f"{flag} range is empty: {text!r}")
    return window


def _render(lines: list[str], checks: list[CheckReport], passed: bool, fmt: str, command: str) -> str:
    if fmt == "json":
        doc = {
            "command": command,
            "checks": [c.as_dict() for c in checks],
            "passed": passed,
            "text": lines,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _emit(args, lines, checks, passed, command) -> None:
    text = _render(lines, checks, passed, args.format, command)
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)


def _expect_kind(data, cls, path):
    if not isinstance(data, cls):
        want = "vertex-algebra" if cls is VAData else "chiral-algebra"
        raise ContractError(f"{path} is not a {want} document")
    return data


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args, cls) -> int:
    """check-va (cls VAData) and check-chiral (cls ChiralData); only the
    chiral report lists each check's detail lines."""
    data = _expect_kind(serialize.load_path(args.path), cls, args.path)
    run = check_all_va if cls is VAData else check_all_chiral
    checks = run(data, _parse_window(args.window))
    lines = [f"{args.command}: {args.path}"]
    for c in checks:
        lines += [c.headline()] if cls is VAData else c.lines()
    ok = all_passed(checks)
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, checks, ok, args.command)
    return EXIT_PASS if ok else EXIT_FAIL


def _checked_input(args, command: str, cls=None):
    """Load the input and run its axiom suite.  Returns (data, lines, checks),
    with data None once a failing suite has been reported."""
    data = serialize.load_path(args.path)
    if cls is not None:
        _expect_kind(data, cls, args.path)
    checks = list(axiom_suite(data))
    lines = [f"{command}: {args.path}"] + [c.headline() for c in checks]
    if all_passed(checks):
        return data, lines, checks
    lines.append("result: FAIL (input rejected, axiom failure above)")
    _emit(args, lines, checks, False, command)
    return None, lines, checks


def _cmd_translate(args, cls) -> int:
    """to-chiral (cls VAData) and to-va (cls ChiralData)."""
    data, lines, checks = _checked_input(args, args.command, cls)
    if data is None:
        return EXIT_FAIL
    text = serialize.dumps(va_to_chiral(data) if cls is VAData else chiral_to_va(data))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines.append(f"written: {args.out}")
    else:
        lines.append(text.rstrip("\n"))
    lines.append("result: PASS")
    _emit(args, lines, checks, True, args.command)
    return EXIT_PASS


def _cmd_roundtrip(args) -> int:
    data, lines, checks = _checked_input(args, "roundtrip")
    if data is None:
        return EXIT_FAIL
    tr = roundtrip_check(data)
    lines.append(tr.headline())
    lines.append("roundtrip: EXACT" if tr.passed else "roundtrip: MISMATCH")
    lines.append(f"result: {'PASS' if tr.passed else 'FAIL'}")
    checks.append(CheckReport("roundtrip", "roundtrip", tr.passed, tr.direction, tr.witness))
    _emit(args, lines, checks, tr.passed, "roundtrip")
    return EXIT_PASS if tr.passed else EXIT_FAIL


def _identity_check(name: str, label: str, rep, window: str) -> CheckReport:
    witness = None
    if rep.diffs:
        key, lv, rv = rep.diffs[0]
        witness = f"coefficient at {key}: {format_q(lv)} != {format_q(rv)}"
    note = f" ({rep.note})" if rep.note else ""
    return CheckReport(name, label, rep.passed, window + note, witness)


def _random_window(rng: random.Random) -> LaurentWindow:
    box = ExponentBox.cube(("x1", "x2"), -3, 3)
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        key = (rng.randint(-3, 3), rng.randint(-3, 3))
        coeffs[key] = coeffs.get(key, Q(0)) + Q(rng.randint(-4, 4))
    return LaurentWindow(box, {k: v for k, v in coeffs.items() if v})


def _delta_suite_reports(lo: int, hi: int) -> tuple[list[str], list[CheckReport], bool]:
    box3 = ExponentBox.cube(("x0", "x1", "x2"), lo, hi)
    box2 = ExponentBox.cube(("x1", "x2"), lo, hi)
    lines = []
    checks = []

    checks.append(_identity_check("two-term-delta", "delta-id-1",
                                  identity_two_term(box3), box3.describe()))
    checks.append(_identity_check("three-term-delta", "delta-id-2",
                                  identity_three_term(box3), box3.describe()))

    rng = random.Random(DELTA_SUITE_SEED)
    fund_fail = None
    for trial in range(20):
        rep = fundamental_delta_property(_random_window(rng), box2, support_is_complete=True)
        if not rep.passed:
            fund_fail = f"trial {trial}: {rep.first_diff}"
            break
    checks.append(CheckReport(
        "fundamental-property", "delta-limit", fund_fail is None,
        f"20 randomized finite-support sections on {box2.describe()} (seed {DELTA_SUITE_SEED})",
        fund_fail,
    ))

    kernel = Product((mono({"x2": -1}), delta_ratio("x1", "x2")))
    transport = check_identity(
        Deriv("x1", kernel), Product((mono(coeff=-1), Deriv("x2", kernel))), box2
    )
    checks.append(_identity_check("derivative-transport", "d-delta", transport, box2.describe()))

    lines += [c.headline() for c in checks]
    return lines, checks, all_passed(checks)


def _cmd_delta_suite(args) -> int:
    lo, hi = (-6, 6)
    if args.box:
        lo, hi = _parse_window(args.box, "--box")
    lines = [f"delta-suite: exponent box [{lo}..{hi}] per variable"]
    if args.lhs or args.rhs:
        if not (args.lhs and args.rhs):
            raise ContractError("custom identities need both --lhs and --rhs")
        lhs = parse_expression(args.lhs)
        rhs = parse_expression(args.rhs)
        memo: dict = {}  # each node bounded once per command
        used = support_bounds(lhs, memo).keys() | support_bounds(rhs, memo).keys()
        variables = tuple(v for v in ("x0", "x1", "x2") if v in used) or ("x0", "x1", "x2")
        box = ExponentBox.cube(variables, lo, hi)
        rep = check_identity(lhs, rhs, box, _memo=memo)
        check = _identity_check("custom-identity", "user", rep, box.describe())
        lines.append(f"lhs: {args.lhs}")
        lines.append(f"rhs: {args.rhs}")
        lines.append(check.headline())
        ok = rep.passed
        checks = [check]
    else:
        suite_lines, checks, ok = _delta_suite_reports(lo, hi)
        lines += suite_lines
        lines.append("note: the two-term identity is checked with the delta restored "
                     "on the right-hand side; the printed source omits it")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, checks, ok, "delta-suite")
    return EXIT_PASS if ok else EXIT_FAIL


def _basis_index(ca: ChiralData, name: str) -> int:
    try:
        return ca.va.basis_names.index(name)
    except ValueError:
        raise ContractError(
            f"unknown basis name {name!r}; expected one of {list(ca.va.basis_names)}"
        ) from None


def _format_diag3(section, names) -> list[str]:
    """Print a section held in divided powers in the powers d1^k d2^l: the
    entry (k, l) over k! l!."""
    out = []
    for key in sorted(section):
        vec = section[key]
        if key[0] > 1 or key[1] > 1:  # the weight is 1 below
            vec = vscale(inv_factorial(key[0]) * inv_factorial(key[1]), vec)
        out.append(f"  (k,l)={key}: {format_vector(vec, names)}")
    return out or ["  (empty)"]


def _cmd_compose_diff(args) -> int:
    ca = _expect_kind(serialize.load_path(args.path), ChiralData, args.path)
    m1, m2, m3 = args.m1, args.m2, args.m3
    iu, iv, iw = (_basis_index(ca, n) for n in (args.u, args.v, args.w))
    u, v, w = unit(iu), unit(iv), unit(iw)
    left = compose_left(ca, m1, m2, m3, u, v, w)
    right = compose_right(ca, m1, m2, m3, u, v, w)
    sign, p1, p2, p3, pu, pv, pw = sigma12_triple(m1, m2, m3, u, v, w)
    perm = diag3_transpose(compose_right(ca, p1, p2, p3, pu, pv, pw))
    diff = diag_add(diag_add(left, diag_scale(-1, right)), diag_scale(sign, perm))
    names = ca.va.basis_names
    lines = [
        f"compose-diff: {args.path} (m1,m2,m3)=({m1},{m2},{m3}) "
        f"(u,v,w)=({args.u},{args.v},{args.w})",
        "left composition mu(mu(.,.),.):",
        *_format_diag3(left, names),
        "right composition mu(.,mu(.,.)):",
        *_format_diag3(right, names),
        f"permuted right composition (sign {sign}):",
        *_format_diag3(perm, names),
        "difference left - right + sign*permuted:",
        *_format_diag3(diff, names),
    ]
    ok = not diff
    lines.append(f"result: {'ZERO' if ok else 'NONZERO'}")
    check = CheckReport("compose-diff", "comp-jac", ok,
                        f"(m1,m2,m3)=({m1},{m2},{m3})",
                        None if ok else "difference table above is nonzero")
    _emit(args, lines, [check], ok, "compose-diff")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p, with_window=True):
    p.add_argument("--report", help="also write the report to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if with_window:
        p.add_argument("--window", help="widen the computed safe window, lo:hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralva",
        description="exact checkers for vertex algebras without vacuum, "
        "chiral algebras, and the equivalence between them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-va", help="run the four vertex-algebra axiom checkers")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=lambda args: _cmd_check(args, VAData))

    p = sub.add_parser("check-chiral", help="run the three chiral-algebra checkers")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=lambda args: _cmd_check(args, ChiralData))

    p = sub.add_parser("to-chiral", help="translate a vertex algebra to a chiral algebra")
    p.add_argument("path")
    p.add_argument("--out", help="write the canonical chiral-algebra JSON here")
    _add_common(p, with_window=False)
    p.set_defaults(func=lambda args: _cmd_translate(args, VAData))

    p = sub.add_parser("to-va", help="translate a chiral algebra to a vertex algebra")
    p.add_argument("path")
    p.add_argument("--out", help="write the canonical vertex-algebra JSON here")
    _add_common(p, with_window=False)
    p.set_defaults(func=lambda args: _cmd_translate(args, ChiralData))

    p = sub.add_parser("roundtrip", help="verify both translation roundtrips are exact")
    p.add_argument("path")
    _add_common(p, with_window=False)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("delta-suite", help="run the delta-function identity suite")
    p.add_argument("--box", help="exponent box per variable, lo:hi (default -6:6)")
    p.add_argument("--lhs", help="custom identity: left expression")
    p.add_argument("--rhs", help="custom identity: right expression")
    _add_common(p, with_window=False)
    p.set_defaults(func=_cmd_delta_suite)

    p = sub.add_parser("compose-diff", help="print both compositions and their difference")
    p.add_argument("path")
    p.add_argument("m1", type=int)
    p.add_argument("m2", type=int)
    p.add_argument("m3", type=int)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("w")
    _add_common(p, with_window=False)
    p.set_defaults(func=_cmd_compose_diff)

    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command name, built on the first
    `main` call and reused for the life of the process: parsing never
    changes them, and each call parses into a fresh namespace."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_ERROR
    except ChiralvaError as exc:
        sys.stderr.write(f"contract error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
