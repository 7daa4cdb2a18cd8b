"""Sparse multivariate polynomials over an exact coefficient field.

Variables are the canonical phase-space variables q1..qm, p1..pm of an
m-degree-of-freedom system, indexed 1..2m.  The canonical term order is
lexicographic with significance p1 > p2 > ... > pm > q1 > ... > qm, which
makes monic normalisation and printed output deterministic.  The search's
polynomials in the unknown cofactor coefficients l1..lk use the same class
over `VarSet.cofactor_unknowns(k)`, ordered lexicographically in l1 > ... > lk.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from typing import Callable

from .field import FieldElement, FieldSpec

MAX_TERMS = 10**6

Exponents = tuple[int, ...]


class InternalInvariantError(RuntimeError):
    """A structural invariant that should be impossible to violate failed."""


class VarSetMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class TooDenseError(ValueError):
    """Guard against runaway dense intermediate results."""


class VarSet:
    """Names the variables of a polynomial ring: the 2m phase-space variables
    q1..qm, p1..pm, or (`cofactor_unknowns`) the search's unknowns l1..lk."""

    __slots__ = ("m", "n")

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("need m >= 1")
        self.m = m
        self.n = 2 * m

    @classmethod
    def cofactor_unknowns(cls, k: int) -> "VarSet":
        """The k unknown cofactor coefficients l1..lk.  Their m is 0, so the
        canonical order is plain lexicographic with l1 > l2 > ... > lk."""
        varset = object.__new__(cls)
        varset.m = 0
        varset.n = k
        return varset

    def name(self, index: int) -> str:
        """1-based variable name: 1..m are q's, m+1..2m are p's (l's when m is 0)."""
        if not 1 <= index <= self.n:
            raise IndexError(f"variable index {index} out of range 1..{self.n}")
        if not self.m:
            return f"l{index}"
        if index <= self.m:
            return f"q{index}"
        return f"p{index - self.m}"

    def names(self) -> list[str]:
        return [self.name(i) for i in range(1, self.n + 1)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSet) and self.m == other.m and self.n == other.n

    def __hash__(self) -> int:
        return hash(("VarSet", self.m, self.n))

    def __repr__(self) -> str:
        if not self.m:
            return f"VarSet.cofactor_unknowns({self.n})"
        return f"VarSet(m={self.m})"


def monomial_key(m: int) -> Callable[[Exponents], tuple[int, ...]]:
    """Sort key for the canonical order (p-block before q-block, lex)."""

    def key(exps: Exponents) -> tuple[int, ...]:
        return exps[m:] + exps[:m]

    return key


class MultiPoly:
    """Immutable sparse polynomial: map exponent-tuple -> nonzero coefficient."""

    __slots__ = ("varset", "field", "terms")

    def __init__(self, varset: VarSet, field: FieldSpec, terms: dict[Exponents, FieldElement]):
        if len(terms) > MAX_TERMS:
            raise TooDenseError(f"polynomial with {len(terms)} terms exceeds the {MAX_TERMS} guard")
        self.varset = varset
        self.field = field
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, varset: VarSet, field: FieldSpec) -> "MultiPoly":
        return cls(varset, field, {})

    @classmethod
    def constant(cls, varset: VarSet, field: FieldSpec, value) -> "MultiPoly":
        if isinstance(value, (int, Fraction)):
            value = field.from_rational(value)
        if value.is_zero():
            return cls.zero(varset, field)
        return cls(varset, field, {(0,) * varset.n: value})

    @classmethod
    def variable(cls, varset: VarSet, field: FieldSpec, index: int) -> "MultiPoly":
        if not 1 <= index <= varset.n:
            raise IndexError(f"variable index {index} out of range 1..{varset.n}")
        exps = [0] * varset.n
        exps[index - 1] = 1
        return cls(varset, field, {tuple(exps): field.one()})

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for a number."""
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self) -> FieldElement:
        if self.is_zero():
            return self.field.zero()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Ordinary total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for exps in self.terms:
            for i, a in enumerate(exps):
                if a:
                    used.add(i + 1)
        return used

    def depends_on_p(self) -> bool:
        m = self.varset.m
        return any(any(e[m:]) for e in self.terms)

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Exponents, FieldElement]]:
        key = monomial_key(self.varset.m)
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=reverse)

    def leading_term(self) -> tuple[Exponents, FieldElement]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = self.varset.m
        # the ring of cofactor unknowns (m = 0) is ordered plain lexicographically
        exps = max(self.terms, key=monomial_key(m)) if m else max(self.terms)
        return exps, self.terms[exps]

    def canonical_key(self):
        return tuple((monomial_key(self.varset.m)(e), c.sort_key()) for e, c in self.sorted_terms())

    def sort_key(self):
        """A total order on one ring's polynomials: the sorted term list."""
        return tuple(sorted((e, c.sort_key()) for e, c in self.terms.items()))

    def rational_content(self) -> tuple[int, int]:
        """The gcd of the numerators and the lcm of the denominators of all
        the coefficients' rational components ((0, 1) for the zero
        polynomial): scaling by den/num leaves coprime integer components."""
        num, den = 0, 1
        for coef in self.terms.values():
            for comp in (coef.a, coef.b, coef.c, coef.e):
                if comp:
                    num = math.gcd(num, comp.numerator)
                    den = math.lcm(den, comp.denominator)
        return num, den

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.varset is other.varset and self.field is other.field:
            return
        if self.varset != other.varset or self.field != other.field:
            raise VarSetMismatchError(
                f"ring mismatch: {self.varset!r}/{self.field!r} vs {other.varset!r}/{other.field!r}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            cur = terms.get(exps)
            s = coef if cur is None else cur + coef
            if s.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return MultiPoly(self.varset, self.field, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            cur = terms.get(exps)
            s = -coef if cur is None else cur - coef
            if s.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return MultiPoly(self.varset, self.field, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.varset, self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        """The product, or the scaled polynomial when `other` is a scalar;
        terms that cancel are dropped."""
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        self._check(other)
        if len(self.terms) * len(other.terms) > 4 * MAX_TERMS:
            raise TooDenseError("product would exceed the dense-term guard")
        terms: dict[Exponents, FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(operator.add, e1, e2))
                cur = terms.get(exps)
                terms[exps] = c1 * c2 if cur is None else cur + c1 * c2
        return MultiPoly(self.varset, self.field, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def scale(self, coef: FieldElement | int | Fraction) -> "MultiPoly":
        if not coef:
            return MultiPoly.zero(self.varset, self.field)
        return MultiPoly(self.varset, self.field, {e: c * coef for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.varset, self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.varset == other.varset and self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.varset, self.field, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .parsing import format_poly

        return f"MultiPoly({format_poly(self)})"

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)

    # -- calculus ------------------------------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable `index` (1-based)."""
        if not 1 <= index <= self.varset.n:
            raise IndexError(f"variable index {index} out of range 1..{self.varset.n}")
        i = index - 1
        terms: dict[Exponents, FieldElement] = {}
        for exps, coef in self.terms.items():
            a = exps[i]
            if a == 0:
                continue
            new = list(exps)
            new[i] = a - 1
            terms[tuple(new)] = coef * a
        return MultiPoly(self.varset, self.field, terms)

    def substitute(self, assign: dict[int, FieldElement]) -> "MultiPoly":
        """Give the variables indexed (1-based) in `assign` their values; the
        result stays in this polynomial's ring."""
        if not assign or not (self.variables_used() & assign.keys()):
            return self
        terms: dict[Exponents, FieldElement] = {}
        for exps, coef in self.terms.items():
            val = coef
            new = list(exps)
            for i, a in enumerate(exps, 1):
                if a and i in assign:
                    x = assign[i]
                    for _ in range(a):
                        val = val * x
                    new[i - 1] = 0
            if val.is_zero():
                continue
            key = tuple(new)
            cur = terms.get(key)
            s = val if cur is None else cur + val
            if s.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = s
        return MultiPoly(self.varset, self.field, terms)

    def univariate_coeffs(self, index: int) -> list[FieldElement]:
        """Coefficients, lowest degree first, of a polynomial in variable
        `index` alone; ValueError when another variable occurs."""
        i = index - 1
        coeffs = [self.field.zero()] * (max((e[i] for e in self.terms), default=-1) + 1)
        for exps, coef in self.terms.items():
            if any(a for j, a in enumerate(exps) if j != i):
                raise ValueError(f"not a polynomial in {self.varset.name(index)} alone")
            coeffs[exps[i]] = coef
        return coeffs

    # -- gamma grading ----------------------------------------------------------

    def gamma_degree(self, weights: tuple[int, ...]) -> int | None:
        """Max weighted degree over terms, for one positive weight per
        variable; None stands for -infinity (zero poly)."""
        if not self.terms:
            return None
        return max(sum(w * a for w, a in zip(weights, e)) for e in self.terms)

    def gamma_decompose(self, weights: tuple[int, ...]) -> list[tuple[int, "MultiPoly"]]:
        """Split into gamma-homogeneous components, degrees strictly increasing."""
        buckets: dict[int, dict[Exponents, FieldElement]] = {}
        for exps, coef in self.terms.items():
            buckets.setdefault(sum(w * a for w, a in zip(weights, exps)), {})[exps] = coef
        return [
            (s, MultiPoly(self.varset, self.field, buckets[s])) for s in sorted(buckets)
        ]

    # -- division and normalisation ------------------------------------------

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lead = self.leading_term()
        return self.scale(lead.inverse())

    def divide_exact(self, other: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self/other, or None when no polynomial quotient exists.

        Each quotient term is subtracted, times the divisor's tail, from one
        mutable remainder; a heap on the canonical order (plain lex in the
        ring of cofactor unknowns) yields the remainder's leading exponent
        without rescanning its terms, and a term that has cancelled is
        skipped when it surfaces."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.varset, self.field)
        lexps, lcoef = other.leading_term()
        lcoef_inv = lcoef.inverse()
        tail = [(e, c) for e, c in other.terms.items() if e != lexps]
        m = self.varset.m

        def heap_key(exps: Exponents) -> tuple[int, ...]:
            return tuple(map(operator.neg, exps[m:] + exps[:m] if m else exps))

        rem = dict(self.terms)
        heap = [(heap_key(e), e) for e in rem]
        heapq.heapify(heap)
        quotient: dict[Exponents, FieldElement] = {}
        previous = None  # heap key of the last step's leading exponent
        while heap:
            hkey, rexps = heapq.heappop(heap)
            rcoef = rem.pop(rexps)
            if not rcoef:
                continue
            if previous is not None and hkey <= previous:
                raise InternalInvariantError("division did not reduce the leading term")  # pragma: no cover
            previous = hkey
            diff = tuple(map(operator.sub, rexps, lexps))
            if any(d < 0 for d in diff):
                return None
            qc = rcoef * lcoef_inv
            quotient[diff] = qc
            for exps, coef in tail:
                t = tuple(map(operator.add, exps, diff))
                cur = rem.get(t)
                if cur is None:
                    rem[t] = -(qc * coef)
                    heapq.heappush(heap, (heap_key(t), t))
                else:
                    rem[t] = cur - qc * coef
        return MultiPoly(self.varset, self.field, quotient)
