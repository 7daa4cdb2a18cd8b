"""Expression parsing and canonical rendering, plus field specifications.

Grammar (no implicit multiplication):
    expr   := term (('+'|'-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' positive-integer)?
    atom   := rational | 'i' | 'sqrt' '(' integer ')' | variable | '(' expr ')'

Precedence is ^ > unary- > * > binary +/-.  sqrt(n) is the root of n in
the field whose one nonzero component is positive, read off
`field.sqrt_in_field`: n must be a perfect square, or k^2*d on Q(i,sqrt d).
'i' and irrational sqrt require Q(i,sqrt d).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .field import RATIONALS, FieldElement, FieldKind, FieldSpec, quad_gauss, sqrt_in_field
from .poly import MultiPoly, VarSet


class ParseError(ValueError):
    """Syntax or context error at a 1-based line and column; args[0] is the bare message."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line}, column {self.column})"


class ParseContext(NamedTuple):
    varset: VarSet
    field: FieldSpec


# -- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:[ \t]*/[ \t]*\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^(),=])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        column = match.start() - line_start + 1
        if kind == "ws":
            for i, ch in enumerate(value):
                if ch == "\n":
                    line += 1
                    line_start = match.start() + i + 1
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, column)
        tokens.append(_Token(kind, value, line, column))
    last_col = len(text) - line_start + 1
    tokens.append(_Token("end", "", line, last_col))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: ParseContext):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.column)
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def number(self, tok: _Token) -> Fraction:
        try:
            return Fraction(re.sub(r"[ \t]+", "", tok.text))
        except ZeroDivisionError:
            raise ParseError("division by zero", tok.line, tok.column) from None
        except ValueError:  # longer than Python's int-string limit
            raise ParseError("number too long", tok.line, tok.column) from None

    def nest(self, rule: Callable[[], MultiPoly]) -> MultiPoly:
        """Consume the opening '(' or '-' and parse `rule` one level deeper:
        100 levels at most, well inside Python's recursion limit."""
        if self.depth == 100:
            raise self.error("nesting deeper than 100 levels")
        self.advance()
        self.depth += 1
        value = rule()
        self.depth -= 1
        return value

    # grammar rules ------------------------------------------------------

    def parse(self) -> MultiPoly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise self.error(f"unexpected trailing input {tok.text!r}")
        return value

    def expr(self) -> MultiPoly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> MultiPoly:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.unary()
            elif tok.kind in ("number", "name") or (tok.kind == "op" and tok.text == "("):
                raise self.error(f"implicit multiplication before {tok.text!r} is not allowed")
            else:
                return value

    def unary(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            return -self.nest(self.unary)
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "number" or "/" in etok.text or self.number(etok) < 1:
                raise self.error("exponent must be a positive integer")
            if self.number(etok) > 10_000:
                raise self.error("exponent too large")
            self.advance()
            return base ** int(etok.text)
        return base

    def atom(self) -> MultiPoly:
        varset, field = self.ctx.varset, self.ctx.field
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return MultiPoly.constant(varset, field, self.number(tok))
        if tok.kind == "name":
            name = tok.text
            if name == "i":
                if field.kind is not FieldKind.QUAD_GAUSS:
                    raise self.error("'i' requires the field Q(i,sqrt d)")
                self.advance()
                return MultiPoly.constant(varset, field, field.i())
            if name == "sqrt":
                self.advance()
                self.expect_op("(")
                ntok = self.peek()
                if ntok.kind != "number" or "/" in ntok.text:
                    raise self.error("sqrt argument must be an integer")
                self.advance()
                self.expect_op(")")
                return MultiPoly.constant(varset, field, self._sqrt_value(self.number(ntok), tok))
            mvar = re.fullmatch(r"([qp])([0-9]+)", name)
            if mvar:
                kind, num = mvar.group(1), int(mvar.group(2))
                if not 1 <= num <= varset.m:
                    raise ParseError(
                        f"unknown variable {name!r} (m = {varset.m})", tok.line, tok.column
                    )
                self.advance()
                index = num if kind == "q" else varset.m + num
                return MultiPoly.variable(varset, field, index)
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            value = self.nest(self.expr)
            self.expect_op(")")
            return value
        raise self.error(f"expected a value, found {tok.text!r}" if tok.text else "unexpected end of input")

    def _sqrt_value(self, n: Fraction, tok: _Token) -> FieldElement:
        """The root of n >= 0 in the field whose one nonzero component is
        positive: `sqrt_in_field` returns the other."""
        root = sqrt_in_field(self.ctx.field.from_rational(n))
        if root is None:
            raise ParseError(f"sqrt({n}) is not available in this field", tok.line, tok.column)
        return -root


def parse_poly(text: str, ctx: ParseContext) -> MultiPoly:
    """Parse an expression into an exact polynomial over the context's ring."""
    return _Parser(text, ctx).parse()


# -- rendering -----------------------------------------------------------------


def _component_strs(x: FieldElement) -> list[tuple[int, str]]:
    """(sign, magnitude-string) per nonzero basis component, basis order; ValueError past the int-string limit."""
    out: list[tuple[int, str]] = []
    d = x.spec.d

    def push(value: Fraction, suffix: str) -> None:
        if not value:
            return
        sign = 1 if value > 0 else -1
        try:
            mag = str(abs(value))
        except ValueError:  # past the interpreter's int-string limit
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            raise ValueError(f"a coefficient has more than {limit} digits and cannot be printed") from None
        if suffix and mag == "1":
            out.append((sign, suffix))
        elif suffix:
            out.append((sign, f"{mag}*{suffix}"))
        else:
            out.append((sign, mag))

    push(x.a, "")
    push(x.b, "i")
    push(x.c, f"sqrt({d})")
    push(x.e, f"i*sqrt({d})")
    return out


def format_field_element(x: FieldElement) -> str:
    parts = _component_strs(x)
    if not parts:
        return "0"
    pieces = []
    for idx, (sign, mag) in enumerate(parts):
        if idx == 0:
            pieces.append(("-" if sign < 0 else "") + mag)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + mag)
    return " ".join(pieces)


def format_terms(items, names: list[str]) -> str:
    """Canonical text of (exponents, coefficient) items in the given order;
    exponent k is the power of names[k]."""
    pieces = []
    for idx, (exps, coef) in enumerate(items):
        monos = [name if a == 1 else f"{name}^{a}" for name, a in zip(names, exps) if a]
        comps = _component_strs(coef)
        if len(comps) == 1:
            sign, mag = comps[0]
            body = "*".join(monos) if monos and mag == "1" else "*".join([mag] + monos)
        else:
            sign, body = 1, "*".join(["(" + format_field_element(coef) + ")"] + monos)
        if idx == 0:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces) or "0"


def format_poly(A: MultiPoly) -> str:
    """Canonical text: terms in decreasing canonical order; reparses bit-exactly."""
    return format_terms(A.sorted_terms(), A.varset.names())


# -- field specifications --------------------------------------------------------

_FIELD_RE = re.compile(r"^Q\(\s*i\s*,\s*sqrt\s*(\d+)\s*\)$")


def parse_field_spec(text: str) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return RATIONALS
    match = _FIELD_RE.match(text)
    if match:
        try:
            d = int(match.group(1))
        except ValueError:  # longer than Python's int-string limit
            raise ParseError("number too long", 1, 1) from None
        try:
            return quad_gauss(d)
        except ValueError as exc:
            raise ParseError(str(exc), 1, 1) from None
    raise ParseError(f"unrecognised field {text!r}; expected Q or Q(i,sqrtD)", 1, 1)


def format_field_spec(field: FieldSpec) -> str:
    if field.kind is FieldKind.RATIONALS:
        return "Q"
    return f"Q(i,sqrt{field.d})"
