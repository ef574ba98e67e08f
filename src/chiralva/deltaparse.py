"""Plain-text surface syntax for delta expressions.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | power | delta | iota | deriv | '(' expr ')'
    power    := var ('^' int)?
    delta    := 'delta' '(' ratio ')'
    ratio    := num '/' den
    num      := var | '(' ['-'] var (('+' | '-') var)? ')'
    den      := ['-'] var | '(' ['-'] var ')'
    iota     := 'iota' '(' var ',' var ')' '^' int
    deriv    := 'deriv' '(' var ',' expr ')'
    rational := ['-'] int ('/' int)?
    var      := 'x0' | 'x1' | 'x2'

Examples: ``x0^-1 * delta((x1-x2)/x0)``, ``delta(x1/x2) * x2^-1``,
``deriv(x1, x2^-1 * delta(x1/x2))``, ``iota(x1,x2)^-3``.
"""

from __future__ import annotations

import re
import sys

from .errors import ContractError, ParseError
from .exact import Q
from .formal import DeltaAtom, Deriv, Expr, IotaPow, Product, Sum, mono

_TOKEN = re.compile(r"\s*(x[012]|delta|iota|deriv|\d+|\^|[()+\-*/,])")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                col = len(text) - len(rest) + 1
                raise ParseError(f"unexpected character {rest[0]!r}", 1, col)
            self.items.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def col(self) -> int:
        if self.i < len(self.items):
            return self.items[self.i][1]
        return len(self.text) + 1

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", 1, self.col())
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", 1, self.col())
        self.i += 1


def _literal(ts: _Tokens, what: str) -> int:
    """The next token, a run of digits, as an int; `what` names it in errors."""
    col = ts.col()
    tok = ts.next()
    if not tok.isdigit():
        raise ParseError(f"expected {what}, got {tok!r}", 1, ts.col())
    try:
        return int(tok)
    except ValueError:  # longer than the interpreter converts
        raise ParseError(f"{what} has more than {sys.get_int_max_str_digits()} digits", 1, col) from None


def _parse_int(ts: _Tokens) -> int:
    sign = 1
    if ts.peek() == "-":
        ts.next()
        sign = -1
    return sign * _literal(ts, "an integer")


def _parse_signed_var(ts: _Tokens) -> tuple[int, str]:
    sign = 1
    if ts.peek() == "-":
        ts.next()
        sign = -1
    tok = ts.next()
    if tok not in ("x0", "x1", "x2"):
        raise ParseError(f"expected a variable, got {tok!r}", 1, ts.col())
    return sign, tok


def _parse_delta(ts: _Tokens) -> tuple:
    ts.expect("(")
    if ts.peek() == "(":
        ts.next()
        first = _parse_signed_var(ts)
        num = (first,)
        if ts.peek() in ("+", "-"):
            op = ts.next()
            _, var = _parse_signed_var(ts)
            num = (first, (1 if op == "+" else -1, var))
        ts.expect(")")
    else:
        num = (_parse_signed_var(ts),)
    ts.expect("/")
    if ts.peek() == "(":
        ts.next()
        den = _parse_signed_var(ts)
        ts.expect(")")
    else:
        den = _parse_signed_var(ts)
    ts.expect(")")
    return num, den


def _atom(node, col: int, *args) -> Expr:
    """Build a delta or iota atom; a violated precondition is a parse error."""
    try:
        return node(*args)
    except ContractError as exc:  # delta(x1/x1), iota(x2,x2)^1
        raise ParseError(str(exc), 1, col) from None


def _parse_factor(ts: _Tokens) -> Expr:
    col = ts.col()
    tok = ts.peek()
    if tok is None:
        raise ParseError("unexpected end of expression", 1, ts.col())
    if tok == "(":
        ts.next()
        inner = _parse_expr(ts)
        ts.expect(")")
        return inner
    if tok == "delta":
        ts.next()
        return _atom(DeltaAtom, col, *_parse_delta(ts))
    if tok == "iota":
        ts.next()
        ts.expect("(")
        _, first = _parse_signed_var(ts)
        ts.expect(",")
        _, second = _parse_signed_var(ts)
        ts.expect(")")
        ts.expect("^")
        return _atom(IotaPow, col, first, second, _parse_int(ts))
    if tok == "deriv":
        ts.next()
        ts.expect("(")
        _, var = _parse_signed_var(ts)
        ts.expect(",")
        body = _parse_expr(ts)
        ts.expect(")")
        return Deriv(var, body)
    if tok in ("x0", "x1", "x2"):
        ts.next()
        exp = 1
        if ts.peek() == "^":
            ts.next()
            exp = _parse_int(ts)
        return mono({tok: exp})
    if tok.isdigit():
        num = _literal(ts, "an integer")
        if ts.peek() == "/":
            ts.next()
            col = ts.col()
            den = _literal(ts, "a denominator")
            if den == 0:
                raise ParseError("zero denominator", 1, col)
            return mono(coeff=Q(num, den))
        return mono(coeff=num)
    raise ParseError(f"unexpected token {tok!r}", 1, ts.col())


def _parse_term(ts: _Tokens) -> Expr:
    factors = [_parse_factor(ts)]
    while ts.peek() == "*":
        ts.next()
        factors.append(_parse_factor(ts))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_expr(ts: _Tokens) -> Expr:
    lead_negative = False
    if ts.peek() == "-":
        ts.next()
        lead_negative = True
    terms = [_parse_term(ts)]
    if lead_negative:
        terms[0] = Product((mono(coeff=-1), terms[0]))
    while ts.peek() in ("+", "-"):
        op = ts.next()
        term = _parse_term(ts)
        if op == "-":
            term = Product((mono(coeff=-1), term))
        terms.append(term)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def parse_expression(text: str) -> Expr:
    """Parse the surface syntax into an expression tree."""
    ts = _Tokens(text)
    try:
        expr = _parse_expr(ts)
    except RecursionError:
        raise ParseError("expression nested too deeply", 1, ts.col()) from None
    if ts.peek() is not None:
        raise ParseError(f"trailing input starting at {ts.peek()!r}", 1, ts.col())
    return expr
