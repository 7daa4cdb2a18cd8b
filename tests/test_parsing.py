import math
import random
import sys

import pytest

from hamdarboux.field import RATIONALS, quad_gauss
from hamdarboux.hamsys import load_system
from hamdarboux.parsing import (
    ParseContext,
    ParseError,
    format_field_spec,
    format_poly,
    parse_field_spec,
    parse_poly,
)
from hamdarboux.poly import VarSet

from conftest import rand_poly

VS = VarSet(2)
CTX_Q = ParseContext(VS, RATIONALS)
CTX_E = ParseContext(VS, quad_gauss(2))


def test_basic_expressions():
    P = parse_poly("p2^2 + 2*q2^4", CTX_Q)
    assert format_poly(P) == "p2^2 + 2*q2^4"
    P = parse_poly("-q1*(q2 - p1)^2", CTX_Q)
    assert format_poly(parse_poly(format_poly(P), CTX_Q)) == format_poly(P)
    P = parse_poly("1/2*p1^2 + 1/2*p2^2 + q1^4", CTX_Q)
    assert format_poly(P) == "1/2*p1^2 + 1/2*p2^2 + q1^4"


def test_extension_literals():
    P = parse_poly("p1 + i*sqrt(2)*q1^2", CTX_E)
    assert format_poly(P) == "p1 + i*sqrt(2)*q1^2"
    P = parse_poly("sqrt(8)", CTX_E)  # 2*sqrt(2) lies in the field
    assert format_poly(P) == "2*sqrt(2)"
    P = parse_poly("sqrt(9)", CTX_Q)  # perfect square stays rational
    assert format_poly(P) == "3"


SQRT_SWEEP = list(range(1001)) + [10**12, 2 * 10**12, 8 * 10**10]


@pytest.mark.parametrize(
    "spec",
    [RATIONALS] + [quad_gauss(d) for d in (2, 3, 6, 10)],
    ids=["Q", "sqrt2", "sqrt3", "sqrt6", "sqrt10"],
)
def test_sqrt_literals_are_the_positive_roots_in_the_field(spec):
    # sqrt(n) parses exactly when n = k^2, or n = k^2*d on Q(i, sqrt d), to
    # the root whose one nonzero component is positive
    ctx = ParseContext(VS, spec)
    for n in SQRT_SWEEP:
        k = math.isqrt(n)
        in_field = k * k == n
        if spec is not RATIONALS and n % spec.d == 0:
            k_d = math.isqrt(n // spec.d)
            in_field = in_field or k_d * k_d * spec.d == n
        if not in_field:
            with pytest.raises(ParseError, match=rf"^sqrt\({n}\) is not available in this field"):
                parse_poly(f"sqrt({n})", ctx)
            continue
        P = parse_poly(f"sqrt({n})", ctx)
        assert P.is_constant()
        x = P.constant_value()
        assert x * x == spec.from_rational(n)
        assert [c > 0 for c in x.components() if c] == ([True] if n else []), n


def test_precedence():
    # ^ binds tighter than unary minus: -q1^2 == -(q1^2)
    assert format_poly(parse_poly("-q1^2", CTX_Q)) == "-q1^2"
    assert parse_poly("-q1^2", CTX_Q) == -parse_poly("q1^2", CTX_Q)
    assert parse_poly("2*q1 + q2 * 3", CTX_Q) == parse_poly("q2*3 + q1*2", CTX_Q)
    assert parse_poly("q1 - q2 - q1", CTX_Q) == -parse_poly("q2", CTX_Q)


def test_rejections():
    with pytest.raises(ParseError):
        parse_poly("2 q1", CTX_Q)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("i*p1", CTX_Q)  # i needs the extension field
    with pytest.raises(ParseError):
        parse_poly("sqrt(3)", CTX_E)  # not in Q(i, sqrt 2)
    with pytest.raises(ParseError):
        parse_poly("q3", CTX_Q)  # out of range for m=2
    with pytest.raises(ParseError):
        parse_poly("q1^(1/2)", CTX_Q)
    with pytest.raises(ParseError):
        parse_poly("", CTX_Q)
    with pytest.raises(ParseError):
        parse_poly("q1 +", CTX_Q)


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("q1 +* q2", CTX_Q)
    assert info.value.line == 1
    assert info.value.column == 5
    with pytest.raises(ParseError) as info:
        parse_poly("q1 +\n  $", CTX_Q)
    assert info.value.line == 2


def test_deep_nesting_is_a_parse_error():
    # parentheses and unary minuses nest at most 100 deep: deeper input is a
    # ParseError at the 101st opening token, never a RecursionError
    for text in ["(" * 100 + "p1" + ")" * 100, "--" * 50 + "p1", "-(" * 50 + "p1" + ")" * 50]:
        assert parse_poly(text, CTX_Q) == parse_poly("p1", CTX_Q)
    cases = [
        ("(" * 200 + "p1" + ")" * 200, 1, 101),
        ("-" * 1000 + "p1", 1, 101),
        ("-(" * 51 + "p1" + ")" * 51, 1, 101),
        ("q1 +\n" + "(" * 101 + "p1" + ")" * 101, 2, 101),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError, match="^nesting deeper than 100 levels") as info:
            parse_poly(text, CTX_Q)
        assert (info.value.line, info.value.column) == (line, column)
    # an error inside V is reported once, at its token's position in the file
    cases = [
        ("V = " + "(" * 200 + "q1" + ")" * 200 + "^3", "nesting deeper than 100 levels", 105),
        ("V =   q1^4 + q3", "unknown variable 'q3' (m = 2)", 14),
    ]
    for line, message, column in cases:
        with pytest.raises(ParseError) as info:
            load_system(f"m = 2\nfield = Q\nmu = 1, 1\n{line}\n")
        assert str(info.value) == f"in V: {message} (line 4, column {column})"
        assert (info.value.line, info.value.column) == (4, column)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts int strings of any length",
)
def test_overlong_literals_are_parse_errors():
    # a number, exponent or sqrt argument longer than the interpreter's
    # int-string limit is a ParseError at its own token
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    cases = [(digits, 1), ("q1 + 1/" + digits, 6), ("q1^" + digits, 4), ("sqrt(" + digits + ")", 6)]
    for text, column in cases:
        with pytest.raises(ParseError, match="^number too long") as info:
            parse_poly(text, CTX_E)
        assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts int strings of any length",
)
def test_unprintable_coefficients_are_value_errors():
    # a coefficient of limit + 1 digits parses but has no text: a ValueError
    # that gives the limit, on a rational and on an i component alike
    limit = sys.get_int_max_str_digits()
    for text, ctx in [(f"(10*p2)^{limit}", CTX_Q), (f"q1 + i*(10*p2)^{limit}", CTX_E)]:
        P = parse_poly(text, ctx)
        with pytest.raises(ValueError, match=f"^a coefficient has more than {limit} digits and cannot be printed$"):
            format_poly(P)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts int strings of any length",
)
def test_overlong_field_parameter_is_a_parse_error():
    # a d longer than the interpreter's int-string limit is "number too long"
    # at the field, not the interpreter's advice; quad_gauss's own message
    # still passes through for a d that converts
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError) as info:
        parse_field_spec(f"Q(i,sqrt{digits})")
    assert info.value.args == ("number too long",)
    assert (info.value.line, info.value.column) == (1, 1)
    with pytest.raises(ParseError, match="square-free"):
        parse_field_spec("Q(i,sqrt4)")


@pytest.mark.parametrize("ctx", [CTX_Q, CTX_E], ids=["Q", "Q(i,sqrt2)"])
def test_round_trip_random(ctx):
    rng = random.Random(99)
    for _ in range(500):
        P = rand_poly(rng, VS, ctx.field, max_degree=4, max_terms=5)
        text = format_poly(P)
        assert parse_poly(text, ctx) == P
        assert format_poly(parse_poly(text, ctx)) == text


def test_total_parser_fuzz():
    # arbitrary byte soup must raise ParseError, never crash
    rng = random.Random(1234)
    alphabet = "qp12 +-*/^()iqrts.,=\\#$\n\te"
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_poly(text, CTX_E)
        except ParseError:
            pass


def test_field_spec_parsing():
    assert parse_field_spec("Q") is RATIONALS
    assert parse_field_spec("Q(i,sqrt2)").d == 2
    assert parse_field_spec(" Q( i , sqrt6 ) ").d == 6
    assert format_field_spec(parse_field_spec("Q(i,sqrt6)")) == "Q(i,sqrt6)"
    assert format_field_spec(RATIONALS) == "Q"
    with pytest.raises(ParseError):
        parse_field_spec("Q(sqrt2)")
    with pytest.raises(ParseError):
        parse_field_spec("Q(i,sqrt4)")


def test_system_definition():
    text = "# comment\nm = 2\nfield = Q(i,sqrt2)\nmu = 1, 1/2\nV = q1^2 + q2^4\n"
    system = load_system(text)
    assert system.m == 2
    assert system.field.d == 2
    assert len(system.mu) == 2
    assert format_poly(system.V) == "q1^2 + q2^4"


def test_system_definition_rejections():
    cases = [
        ("m = 1\nfield = Q\nmu = 1\nV = q1^2\n", "m must be >= 2, got 1", 1),
        ("m = 2\nfield = Q\nmu = 1\nV = q1^2\n", "mu must list 2 rationals, got 1", 3),
        ("m = 2\nfield = Q\nmu = 1, 1\nV = p1^2\n", "V must depend on q-variables only", 4),
        ("m = 2\nfield = Q\nmu = 1, 1\n", "missing key 'V'", 1),
        ("m = 2\nbogus = 3\nfield = Q\nmu = 1, 1\nV = q1^2\n", "unknown key 'bogus'", 2),
        ("m = 2\nfield = Q(x)\nmu = 1, 1\nV = q1^2\n", "unrecognised field 'Q(x)'; expected Q or Q(i,sqrtD)", 2),
    ]
    for text, message, line in cases:
        with pytest.raises(ParseError) as info:
            load_system(text)
        assert str(info.value) == f"{message} (line {line}, column 1)"
        assert info.value.line == line
