import random
from fractions import Fraction

import pytest

from hamdarboux.field import (
    MAX_D,
    RATIONALS,
    FieldElement,
    FieldKind,
    FieldMismatchError,
    FieldSpec,
    _from_domain,
    _sympy_domain,
    _to_domain,
    quad_gauss,
)

from conftest import fe_to_sympy, rand_element

Q2 = quad_gauss(2)


def test_spec_validation():
    with pytest.raises(ValueError):
        quad_gauss(4)  # not square-free
    with pytest.raises(ValueError):
        quad_gauss(12)
    with pytest.raises(ValueError):
        quad_gauss(1)
    assert quad_gauss(6).d == 6
    # d is bounded so that the square-free check by trial division is quick
    assert quad_gauss(9999999967).d == 9999999967  # a prime just below the bound
    with pytest.raises(ValueError, match=str(MAX_D)):
        quad_gauss(1000000000000000003)
    assert RATIONALS == FieldSpec(FieldKind.RATIONALS)
    assert quad_gauss(2) == quad_gauss(2)
    assert quad_gauss(2) != quad_gauss(3)


def test_generator_relations():
    i = Q2.i()
    s = Q2.sqrt_d()
    assert i * i == Q2.from_rational(-1)
    assert s * s == Q2.from_rational(2)
    assert i * s == s * i


def test_known_inverses():
    i = Q2.i()
    s = Q2.sqrt_d()
    # 1/(i*sqrt2) = -i*sqrt2/2
    assert (i * s).inverse() == (i * s) * Q2.from_rational(Fraction(-1, 2))
    x = Q2.element(1, 1, 0, 0)  # 1 + i
    assert x.inverse() == Q2.element(Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert s.inverse() == Q2.element(0, 0, Fraction(1, 2), 0)


@pytest.mark.parametrize("spec", [RATIONALS, Q2, quad_gauss(6)])
def test_field_axioms_random(spec):
    rng = random.Random(11)
    one = spec.one()
    zero = spec.zero()
    for _ in range(1000):
        x = rand_element(rng, spec)
        y = rand_element(rng, spec)
        z = rand_element(rng, spec)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if not x.is_zero():
            assert x * x.inverse() == one
            assert (x / x) == one


def test_embedding_and_predicates():
    rng = random.Random(5)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        xa = Q2.from_rational(a)
        xb = Q2.from_rational(b)
        assert (xa + xb).is_rational()
        assert (xa * xb).components()[0] == a * b
    assert Q2.element(1, 0, 3, 0).is_real()
    assert not Q2.element(1, 1, 0, 0).is_real()
    assert not Q2.element(0, 0, 0, 1).is_real()
    assert abs(Q2.element(1, 0, 1, 0).to_float() - (1 + 2**0.5)) < 1e-12


def test_to_float_rejects_imaginary():
    with pytest.raises(ValueError):
        Q2.i().to_float()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatchError):
        Q2.one() + quad_gauss(3).one()
    with pytest.raises(FieldMismatchError):
        Q2.one() * RATIONALS.one()


def test_int_and_fraction_coercion():
    x = Q2.element(1, 2, 0, 0)
    assert x + 1 == Q2.element(2, 2, 0, 0)
    assert 2 * x == Q2.element(2, 4, 0, 0)
    assert x - Fraction(1, 2) == Q2.element(Fraction(1, 2), 2, 0, 0)
    assert (1 / Q2.from_rational(2)) == Q2.from_rational(Fraction(1, 2))


def test_sort_key_total_order():
    rng = random.Random(3)
    xs = [rand_element(rng, Q2) for _ in range(50)]
    keys = sorted(x.sort_key() for x in xs)
    assert keys == sorted(keys)
    assert Q2.zero().sort_key() < Q2.one().sort_key()


# -- component form: an int when integral, a Fraction only when not --------------


def _reference_mul(x, y, d):
    """The product on the basis {1, i, sqrt d, i sqrt d}, all in Fraction."""
    a1, b1, c1, e1 = x
    a2, b2, c2, e2 = y
    return (
        a1 * a2 - b1 * b2 + d * (c1 * c2 - e1 * e2),
        a1 * b2 + b1 * a2 + d * (c1 * e2 + e1 * c2),
        a1 * c2 + c1 * a2 - (b1 * e2 + e1 * b2),
        a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2,
    )


def _assert_component_form(x):
    stored = (x.a, x.b, x.c, x.e)
    for comp in stored:
        if type(comp) is Fraction:
            assert comp.denominator > 1, stored
        else:
            assert type(comp) is int, stored
    # the public view stays Fraction, so a caller's `/` on it stays exact
    assert all(type(comp) is Fraction for comp in x.components())


def _rand_component(rng):
    """A rational drawn as an int, a Fraction(n, 1) or a Fraction that may or
    may not reduce to an integer."""
    n = rng.randint(-6, 6)
    kind = rng.randrange(3)
    if kind == 0:
        return n
    if kind == 1:
        return Fraction(n)
    return Fraction(n, rng.choice([1, 2, 3, 4, 6]))


@pytest.mark.parametrize(
    "spec", [RATIONALS, Q2, quad_gauss(3), quad_gauss(6)], ids=["Q", "Q2", "Q3", "Q6"]
)
def test_components_are_ints_unless_fractional(spec):
    rng = random.Random(29)
    d = Fraction(spec.d or 0)
    width = 1 if spec is RATIONALS else 4

    def draw():
        comps = [_rand_component(rng) for _ in range(width)]
        x = spec.element(*comps) if width == 4 else spec.from_rational(comps[0])
        ref = tuple(Fraction(c) for c in comps) + (Fraction(0),) * (4 - width)
        return x, ref

    def check(x, ref):
        _assert_component_form(x)
        assert x.components() == ref

    for _ in range(1000):
        (x, rx), (y, ry) = draw(), draw()
        check(x, rx)
        check(x + y, tuple(u + v for u, v in zip(rx, ry)))
        check(x - y, tuple(u - v for u, v in zip(rx, ry)))
        check(-x, tuple(-u for u in rx))
        check(x * y, _reference_mul(rx, ry, d))
        if not x.is_zero():
            inv = x.inverse()
            _assert_component_form(inv)
            assert _reference_mul(inv.components(), rx, d) == (1, 0, 0, 0)
        # the same value from ints and from Fraction(n, 1) is one element
        n = rng.randint(-9, 9)
        from_int, from_fraction = spec.from_rational(n), spec.from_rational(Fraction(n))
        assert type(from_int.a) is type(from_fraction.a) is int
        assert from_int == from_fraction and hash(from_int) == hash(from_fraction)
        built = spec.element(*x.components())
        assert built == x and hash(built) == hash(x)
        # the constructor itself stores Fraction(n, 1) as n
        raw = FieldElement(spec, Fraction(n), 0, 0, 0)
        assert type(raw.a) is int
        assert raw == from_int and hash(raw) == hash(from_int)


@pytest.mark.parametrize("spec", [RATIONALS, Q2, quad_gauss(6)], ids=["Q", "Q2", "Q6"])
def test_int_operand_scales_like_its_element(spec):
    # an int operand scales the components directly; the product, its stored
    # component form and its hash are those of the product by the element
    rng = random.Random(41)
    large = 3**80 + 1
    for _ in range(200):
        x = rand_element(rng, spec)
        for n in (0, 1, -1, 7, -7, large, -large):
            want = x * spec.from_rational(n)
            for got in (x * n, n * x):
                assert got == want and hash(got) == hash(want)
                assert (got.a, got.b, got.c, got.e) == (want.a, want.b, want.c, want.e)
                _assert_component_form(got)


@pytest.mark.parametrize("spec", [RATIONALS, Q2], ids=["Q", "Q2"])
def test_rational_element_hashes_as_its_value(spec):
    # a rational element equals its int or Fraction value, so it hashes like
    # it: as a set member or dict key the two are one
    for n in (0, 1, 3, -7, 3**80, Fraction(1, 2), Fraction(-5, 3), Fraction(6, 3)):
        x = spec.from_rational(n)
        assert x == n and hash(x) == hash(n)
        assert n in {x} and x in {n}
        assert {x: 1}.get(n) == 1
    assert Q2.i() in {Q2.element(0, 1)}


@pytest.mark.parametrize(
    "spec", [RATIONALS, Q2, quad_gauss(3), quad_gauss(6)], ids=["Q", "Q2", "Q3", "Q6"]
)
def test_domain_bridge_matches_expression_oracle(spec):
    # the change of basis to the powers of theta = i + sqrt(d) against
    # sympy's own reading of the expression a + b*I + c*sqrt(d) + e*I*sqrt(d);
    # at d = 3 the (d - 3) coefficient vanishes, so d = 2 and 6 are here too
    rng = random.Random(67)
    K = _sympy_domain(spec)
    assert K is _sympy_domain(FieldSpec(spec.kind, spec.d))
    basis = [spec.one()]
    if spec is not RATIONALS:
        basis += [spec.i(), spec.sqrt_d(), spec.i() * spec.sqrt_d()]
    drawn = [rand_element(rng, spec) for _ in range(40)]
    # sparse: each component zeroed with probability 1/2
    drawn += [spec.element(*(c if rng.random() < 0.5 else 0 for c in x.components())) for x in drawn[:20]]
    elements = basis + [spec.zero()] + drawn
    for x in elements:
        assert _from_domain(_to_domain(x), spec) == x
    # sympy's reading takes about 0.1 s an element: the basis and a few draws
    for x in basis + drawn[:6] + drawn[-6:]:
        assert _to_domain(x) == K.from_sympy(fe_to_sympy(x)), x
    for x, y in zip(elements, reversed(elements)):
        assert _to_domain(x * y) == _to_domain(x) * _to_domain(y), (x, y)
