"""Exact scalar arithmetic: rationals and the quartic extension Q(i, sqrt(d)).

Elements are stored on the fixed basis {1, i, sqrt(d), i*sqrt(d)} with exact
rational components, so every operation is exact and canonical forms are
unique.  Every element stores a component as a Python `int` whenever it is
integral and as a `Fraction` only when it is not, so integer-valued work
never enters `fractions`.  The public constructor normalises any input to
that form; an arithmetic result whose four components are all ints is
already in it and is stored as built, and only a result holding a Fraction
goes through the constructor.  Order and printed text are those of
all-Fraction components, a rational element hashes as the int or Fraction
it equals, and `components()` still returns Fractions.  For the
plain-rational field the i/sqrt components are pinned to 0.  The exact
square roots are here: `sqrt_in_field`, which `roots_in_field`, the
factorisation of H and `sqrt(n)` literals read.  So is the library's only use
of sympy: `factor_in_field` factors a univariate polynomial over the field,
for `roots_in_field` to read.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Union

RationalLike = Union[int, Fraction]

_new = object.__new__


def _component(x) -> RationalLike:
    """Any value `Fraction` accepts, as an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class FieldMismatchError(ValueError):
    """Raised when operands belong to different coefficient fields."""


class FieldKind(Enum):
    RATIONALS = "Q"
    QUAD_GAUSS = "Q(i,sqrt d)"


# Largest d accepted for Q(i, sqrt d): the square-free check then takes at
# most 10^5 trial divisions, where a 19-digit d would take about 10^9.
MAX_D = 10**10


def _is_square_free(n: int) -> bool:
    if n < 1:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


class FieldSpec:
    """Identifies the coefficient field: Q, or Q(i, sqrt(d)) for square-free d >= 2."""

    __slots__ = ("kind", "d")

    def __init__(self, kind: FieldKind, d: int | None = None):
        if kind is FieldKind.QUAD_GAUSS:
            if d is not None and d > MAX_D:
                raise ValueError(f"d must be at most {MAX_D}, got {d}")
            if d is None or d < 2 or not _is_square_free(d):
                raise ValueError(f"d must be a square-free integer >= 2, got {d!r}")
        else:
            if d is not None:
                raise ValueError("d is only meaningful for Q(i,sqrt d)")
        self.kind = kind
        self.d = d

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.kind is other.kind
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.d))

    def __repr__(self) -> str:
        if self.kind is FieldKind.RATIONALS:
            return "FieldSpec(Q)"
        return f"FieldSpec(Q(i,sqrt{self.d}))"

    # -- constructors for elements ------------------------------------

    def element(
        self,
        a: RationalLike = 0,
        b: RationalLike = 0,
        c: RationalLike = 0,
        e: RationalLike = 0,
    ) -> "FieldElement":
        return FieldElement(self, a, b, c, e)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def from_rational(self, a: RationalLike) -> "FieldElement":
        return _stored(self, a, 0, 0, 0)

    def i(self) -> "FieldElement":
        return self.element(0, 1)

    def sqrt_d(self) -> "FieldElement":
        return self.element(0, 0, 1)


RATIONALS = FieldSpec(FieldKind.RATIONALS)


def quad_gauss(d: int) -> FieldSpec:
    return FieldSpec(FieldKind.QUAD_GAUSS, d)


def _stored(spec: FieldSpec, a, b, c, e) -> "FieldElement":
    """The element of `spec` with these components, which are in `spec` (an
    arithmetic result, or a rational value): stored as built when all four
    are ints, else through the normalising constructor."""
    if type(a) is int and type(b) is int and type(c) is int and type(e) is int:
        x = _new(FieldElement)
        x.spec, x.a, x.b, x.c, x.e = spec, a, b, c, e
        return x
    return FieldElement(spec, a, b, c, e)


class FieldElement:
    """a + b*i + c*sqrt(d) + e*i*sqrt(d), all components exact rationals, each
    stored as an int when integral and as a Fraction otherwise.  The
    constructor normalises its components to that form; arithmetic builds
    results through `_stored`.  Truth is being nonzero, as for int and
    Fraction."""

    __slots__ = ("spec", "a", "b", "c", "e")

    def __init__(self, spec: FieldSpec, a, b, c, e):
        a, b, c, e = _component(a), _component(b), _component(c), _component(e)
        if spec.kind is FieldKind.RATIONALS and (b or c or e):
            raise FieldMismatchError("non-rational components in a Q element")
        self.spec = spec
        self.a = a
        self.b = b
        self.c = c
        self.e = e

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise FieldMismatchError(f"mixed fields: {self.spec!r} vs {other.spec!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.e)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.e)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def is_real(self) -> bool:
        return not (self.b or self.e)

    def to_float(self) -> float:
        if not self.is_real():
            raise ValueError(f"{self} has a nonzero imaginary part")
        x = float(self.a)
        if self.c:
            x += float(self.c) * float(self.spec.d) ** 0.5
        return x

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four components as Fractions, on which `/` stays exact."""
        return (Fraction(self.a), Fraction(self.b), Fraction(self.c), Fraction(self.e))

    def sort_key(self):
        return (self.a, self.b, self.c, self.e)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not FieldElement or other.spec is not self.spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _stored(self.spec, self.a + other.a, self.b + other.b, self.c + other.c, self.e + other.e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldElement or other.spec is not self.spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _stored(self.spec, self.a - other.a, self.b - other.b, self.c - other.c, self.e - other.e)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _stored(self.spec, -self.a, -self.b, -self.c, -self.e)

    def __mul__(self, other):
        # a rational operand, int or Fraction or element, scales the other
        # operand's components: 4 multiplications, not 16
        if type(other) is FieldElement:
            if other.spec is not self.spec:
                self._coerce(other)  # raises when the fields differ
            if other.b or other.c or other.e:
                if self.b or self.c or self.e:
                    a1, b1, c1, e1 = self.a, self.b, self.c, self.e
                    a2, b2, c2, e2 = other.a, other.b, other.c, other.e
                    d = self.spec.d
                    # i^2 = -1, sqrt(d)^2 = d, (i sqrt(d))^2 = -d
                    a = a1 * a2 - b1 * b2 + d * (c1 * c2 - e1 * e2)
                    b = a1 * b2 + b1 * a2 + d * (c1 * e2 + e1 * c2)
                    c = a1 * c2 + c1 * a2 - (b1 * e2 + e1 * b2)
                    e = a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2
                    return _stored(self.spec, a, b, c, e)
                x, k = other, self.a
            else:
                x, k = self, other.a
        elif isinstance(other, (int, Fraction)):
            x, k = self, other
        else:
            return NotImplemented
        if x.b or x.c or x.e:
            return _stored(x.spec, x.a * k, x.b * k, x.c * k, x.e * k)
        return _stored(x.spec, x.a * k, 0, 0, 0)

    __rmul__ = __mul__

    def conj_i(self) -> "FieldElement":
        return _stored(self.spec, self.a, -self.b, self.c, -self.e)

    def conj_sqrt(self) -> "FieldElement":
        return _stored(self.spec, self.a, self.b, -self.c, -self.e)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            return self.spec.from_rational(Fraction(1, self.a))
        # conjugate over i, then over sqrt(d): the product of all four
        # conjugates is a nonzero rational norm.
        y = self.conj_i()
        z = self * y
        w = z.conj_sqrt()
        n = z * w
        if not n.is_rational() or n.is_zero():
            raise ArithmeticError("norm computation failed")  # pragma: no cover
        return (y * w) * self.spec.from_rational(Fraction(1, n.a))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.spec.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            (self.spec is other.spec or self.spec == other.spec)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.e == other.e
        )

    def __hash__(self) -> int:
        # a rational element equals its value, so it hashes as that value
        if not (self.b or self.c or self.e):
            return hash(self.a)
        return hash((self.spec, self.a, self.b, self.c, self.e))

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __str__(self) -> str:
        from .parsing import format_field_element

        return format_field_element(self)


# -- exact square roots up the tower Q < Q(sqrt d) < Q(sqrt d)(i) ----------------


def _sqrt_rational(x: FieldElement) -> FieldElement | None:
    """A square root of a rational element (only its `a` component is read)."""
    a = x.a
    if a < 0:
        return None
    num, den = math.isqrt(a.numerator), math.isqrt(a.denominator)
    if num * num != a.numerator or den * den != a.denominator:
        return None
    return x.spec.from_rational(Fraction(num, den))


def _sqrt_step(
    u: FieldElement,
    v: FieldElement,
    c: int,
    g: FieldElement,
    sqrt_below: Callable[[FieldElement], FieldElement | None],
) -> FieldElement | None:
    """A square root of u + v*g, where g^2 = c and u, v, c lie in the field
    below, whose square roots `sqrt_below` takes; None when there is none.

    A root y = s + t*g has y^2 = (s^2 + c*t^2) + 2*s*t*g, so the norm
    u^2 - c*v^2 equals (s^2 - c*t^2)^2 and s^2 = (u +- n)/2 for a root n
    of the norm.  When v = 0, s*t is 0, so the root is s with s^2 = u or
    t*g with t^2 = u/c.  Otherwise 2*s*t = v makes s nonzero, and
    t = v/(2s)."""
    if v.is_zero():
        s = sqrt_below(u)
        if s is not None:
            return s
        t = sqrt_below(u * Fraction(1, c))
        return None if t is None else t * g
    n = sqrt_below(u * u - v * v * c)
    if n is None:
        return None
    x = u + v * g
    for norm_root in (n, -n):
        s = sqrt_below((u + norm_root) * Fraction(1, 2))
        if s is None or s.is_zero():
            continue
        t = v * (s + s).inverse()
        y = s + t * g
        if y * y == x:
            return y
    return None


def _sqrt_real(x: FieldElement) -> FieldElement | None:
    """A square root of an element of Q(sqrt d) (its `a` and `c` components)."""
    spec = x.spec
    return _sqrt_step(
        spec.from_rational(x.a), spec.from_rational(x.c), spec.d, spec.sqrt_d(), _sqrt_rational
    )


def sqrt_in_field(x: FieldElement) -> FieldElement | None:
    """The square root of x in its own field with the smaller `sort_key`, or
    None when x is not a square there.  Exact and free of sympy: it climbs
    Q < Q(sqrt d) < Q(sqrt d)(i), taking each level's root from norms that
    must be squares one level down."""
    if x.is_zero():
        return x
    spec = x.spec
    if spec.kind is FieldKind.RATIONALS:
        y = _sqrt_rational(x)
    else:
        real, imag = spec.element(x.a, 0, x.c), spec.element(x.b, 0, x.e)
        y = _sqrt_step(real, imag, -1, spec.i(), _sqrt_real)
    if y is None:
        return None
    return min(y, -y, key=lambda z: z.sort_key())


# -- factoring over the field, the library's one bridge to sympy -----------------
# Q is QQ to sympy, and Q(i, sqrt d) is QQ<theta> for theta = i + sqrt(d),
# with minimal polynomial x^4 - 2(d - 1)x^2 + (d + 1)^2.  On the basis
# {1, i, sqrt(d), i*sqrt(d)} the powers of theta are 1, i + sqrt(d),
# (d - 1) + 2i*sqrt(d) and (3d - 1)i + (d - 3)sqrt(d), so an element and its
# coefficients on them are one rational change of basis apart.  sympy is
# imported inside these functions, so only a search that factors a cofactor
# constraint loads it, and each domain is built once.


def factor_in_field(coeffs: list[FieldElement], spec: FieldSpec) -> list[list[FieldElement]]:
    """The distinct irreducible factors of sum coeffs[k] x^k over `spec`, as
    coefficient lists lowest degree first.  A rational polynomial is factored
    over Z with its denominators cleared, which over Q is the answer; on
    Q(i, sqrt d) each Q-irreducible factor of degree >= 3 is then factored
    alone over the extension, as is a polynomial with an irrational
    coefficient.  Distinct Q-irreducible factors are coprime, so their
    factors over the field are those of the whole polynomial."""
    if not all(c.is_rational() for c in coeffs):
        return _factor_over_extension(coeffs, spec)
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    den = math.lcm(*(c.a.denominator for c in coeffs))
    _, factors = dup_factor_list([ZZ(int(c.a * den)) for c in reversed(coeffs)], ZZ)
    out: list[list[FieldElement]] = []
    for fac, _mult in factors:
        f = [spec.from_rational(int(c)) for c in reversed(fac)]
        if len(f) <= 3 or spec.kind is FieldKind.RATIONALS:
            out.append(f)
        else:
            out += _factor_over_extension(f, spec)
    return out


def _factor_over_extension(
    coeffs: list[FieldElement], spec: FieldSpec
) -> list[list[FieldElement]]:
    """The distinct irreducible factors of sum coeffs[k] x^k over
    Q(i, sqrt d), from sympy's dense factorisation over `_sympy_domain(spec)`."""
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list([_to_domain(c) for c in reversed(coeffs)], _sympy_domain(spec))
    return [[_from_domain(c, spec) for c in reversed(fac)] for fac, _mult in factors]


@functools.cache
def _sympy_domain(spec: FieldSpec):
    """The sympy domain of `spec`: `QQ`, or `QQ.algebraic_field(I + sqrt(d))`."""
    import sympy as sp

    if spec.kind is FieldKind.RATIONALS:
        return sp.QQ
    return sp.QQ.algebraic_field(sp.I + sp.sqrt(spec.d))


def _to_domain(x: FieldElement):
    """x as an element of `_sympy_domain(x.spec)`."""
    K = _sympy_domain(x.spec)
    if x.spec.kind is FieldKind.RATIONALS:
        return K(x.a.numerator, x.a.denominator)
    d = x.spec.d
    t3, t2 = Fraction(x.b - x.c, 2 * (d + 1)), Fraction(x.e, 2)
    coeffs = (t3, t2, x.c - (d - 3) * t3, x.a - (d - 1) * t2)  # theta^3 first
    return K([K.dom(t.numerator, t.denominator) for t in coeffs])


def _from_domain(v, spec: FieldSpec) -> FieldElement:
    """The element of `spec` that `_sympy_domain(spec)` holds as v."""
    if spec.kind is FieldKind.RATIONALS:
        return spec.from_rational(Fraction(int(v.numerator), int(v.denominator)))
    coeffs = [Fraction(int(t.numerator), int(t.denominator)) for t in v.to_list()]  # theta^3 first
    t3, t2, t1, t0 = [0] * (4 - len(coeffs)) + coeffs
    d = spec.d
    return spec.element(t0 + (d - 1) * t2, t1 + (3 * d - 1) * t3, t1 + (d - 3) * t3, 2 * t2)
