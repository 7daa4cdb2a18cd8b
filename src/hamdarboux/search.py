"""Bounded-degree Darboux polynomial search.

The ansatz couples unknown coefficients f of the candidate polynomial with
unknown cofactor coefficients lam: the relation L_H F - Lambda*F = 0, read
per monomial, is linear in f with entries affine in lam.  The f-unknowns are
eliminated fraction-free over the polynomial ring in lam, branching on
whether each pivot vanishes; univariate lam-constraints are solved over the
configured field (in closed form up to degree 2 once their x^k content is
removed, by sympy factoring beyond), in-field roots branch the search and
out-of-field factors are reported as residual conditions.

Each branch keeps the pivot rows it eliminates.  At a leaf every remaining
row is empty and every pivot is nonzero at the leaf's lam-values, so those
rows, evaluated there, span the same kernel as the full ansatz: the leaf
reads its Darboux polynomials from its own branch's rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable

from .darboux import DarbouxCertificate, InternalInvariantError, cofactor_of
from .field import FieldElement, FieldKind, FieldSpec
from .hamsys import (
    NaturalHamiltonian,
    gamma_direction,
    is_homogeneous_potential,
    lie_derivative,
)
from .parsing import format_terms
from .poly import Exponents, MultiPoly, VarSet, monomial_key


class BranchCapExceededError(RuntimeError):
    """Search aborted; carries the partial report gathered so far."""

    def __init__(self, partial: "SearchReport"):
        super().__init__(
            f"branch cap exceeded after {partial.branches_explored} branches"
        )
        self.partial = partial


@dataclass(frozen=True)
class SearchReport:
    certificates: tuple[DarbouxCertificate, ...]
    branches_explored: int
    residual_conditions: tuple[str, ...]


# -- exact roots over Q and Q(i, sqrt d) -----------------------------------------
# sympy is imported inside the bridge functions: only a search that meets a
# cofactor constraint of degree >= 3 past its x^k content pays for loading it.


def _fe_to_sympy(x: FieldElement):
    import sympy as sp

    expr = sp.Rational(x.a)
    if x.b or x.c or x.e:
        s = sp.sqrt(x.spec.d)
        expr = expr + sp.Rational(x.b) * sp.I + sp.Rational(x.c) * s + sp.Rational(x.e) * sp.I * s
    return expr


def _sympy_to_fe(expr, spec: FieldSpec) -> FieldElement:
    import sympy as sp

    expr = sp.expand(expr)
    if spec.kind is FieldKind.RATIONALS:
        rat = sp.Rational(expr)
        return spec.from_rational(Fraction(rat.p, rat.q))
    s = sp.sqrt(spec.d)
    poly = sp.Poly(expr, sp.I, s)
    comps = {(0, 0): Fraction(0), (1, 0): Fraction(0), (0, 1): Fraction(0), (1, 1): Fraction(0)}
    for monom, coef in poly.terms():
        if monom not in comps or not coef.is_rational:
            raise ValueError(f"{expr} does not lie in Q(i,sqrt{spec.d})")
        rat = sp.Rational(coef)
        comps[monom] = Fraction(rat.p, rat.q)
    return spec.element(comps[(0, 0)], comps[(1, 0)], comps[(0, 1)], comps[(1, 1)])


def roots_in_field(
    coeffs: list[FieldElement], spec: FieldSpec
) -> tuple[list[FieldElement], list[list[FieldElement]]]:
    """Roots of sum coeffs[k] x^k lying in the field, sorted by `sort_key`
    without repeats, plus the monic irreducible-over-the-field factors whose
    roots fall outside it.

    The x^k content gives the root 0.  A remainder of degree at most 2 is
    solved in closed form, a quadratic through its discriminant and the exact
    `sqrt_in_field`, so sympy loads only for a remainder of degree >= 3."""
    k = next((i for i, c in enumerate(coeffs) if not c.is_zero()), None)
    if k is None:
        return [], []
    g = list(coeffs[k:])
    while g[-1].is_zero():
        g.pop()
    if len(g) > 3:
        roots, residuals = _factor_with_sympy(g, spec)
    else:
        roots, residuals = _solve_low_degree(g)
    if k:
        roots.append(spec.zero())
    uniq: list[FieldElement] = []
    for r in sorted(roots, key=lambda z: z.sort_key()):
        if not uniq or uniq[-1] != r:
            uniq.append(r)
    return uniq, residuals


def _solve_low_degree(
    g: list[FieldElement],
) -> tuple[list[FieldElement], list[list[FieldElement]]]:
    """Roots and residual factor of g0 + g1 x + g2 x^2 (degree at most 2)."""
    if len(g) == 1:
        return [], []
    if len(g) == 2:
        return [-g[0] * g[1].inverse()], []
    inv = g[2].inverse()
    c0, c1 = g[0] * inv, g[1] * inv  # x^2 + c1 x + c0
    half = c1 * Fraction(-1, 2)
    s = sqrt_in_field(half * half - c0)
    if s is None:
        return [], [[c0, c1, g[0].spec.one()]]
    return [half + s, half - s], []


def _factor_with_sympy(
    coeffs: list[FieldElement], spec: FieldSpec
) -> tuple[list[FieldElement], list[list[FieldElement]]]:
    """Roots (unsorted) and monic residual factors of sum coeffs[k] x^k,
    from sympy's factorisation over the field."""
    import sympy as sp

    x = sp.Symbol("x")
    expr = sp.Add(*(_fe_to_sympy(c) * x**k for k, c in enumerate(coeffs)))
    if spec.kind is FieldKind.QUAD_GAUSS:
        _, factors = sp.factor_list(expr, x, extension=[sp.I, sp.sqrt(spec.d)])
    else:
        _, factors = sp.factor_list(expr, x)
    roots: list[FieldElement] = []
    residuals: list[list[FieldElement]] = []
    for fac, _mult in factors:
        poly = sp.Poly(fac, x)
        if poly.degree() == 0:
            continue
        if poly.degree() == 1:
            c1, c0 = poly.all_coeffs()
            roots.append(_sympy_to_fe(sp.cancel(-sp.sympify(c0) / sp.sympify(c1)), spec))
        else:
            fe_coeffs = [_sympy_to_fe(c, spec) for c in reversed(poly.all_coeffs())]
            lead = fe_coeffs[-1].inverse()
            residuals.append([c * lead for c in fe_coeffs])
    return roots, residuals


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
    of the norm; then t = v/(2s), or t^2 = u/c when s = 0."""
    n = sqrt_below(u * u - v * v * c)
    if n is None:
        return None
    x = u + v * g
    for norm_root in (n, -n):
        s = sqrt_below((u + norm_root) * Fraction(1, 2))
        if s is None:
            continue
        if s.is_zero():
            t = sqrt_below(u * Fraction(1, c))
            if t is None:
                continue
        else:
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


# -- polynomials in the cofactor unknowns ---------------------------------------
# Ansatz entries are MultiPolys over VarSet.cofactor_unknowns(k), except on a
# search over Q with a single unknown l1: there every entry is a dense integer
# coefficient list in l1, lowest degree first, nonzero and without trailing
# zeros, from the ansatz to the leaf (see `_eliminate_dense`).  Residual
# strings list their terms highest total degree first, and candidate pivots
# break ties on the sorted term list; both orders are part of the report.


def _render(p: MultiPoly, names: list[str]) -> str:
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return format_terms(items, names)


def _is_constant(p: MultiPoly | list[int]) -> bool:
    return len(p) == 1 if type(p) is list else p.is_constant()


def _degree(p: MultiPoly | list[int]) -> int:
    return len(p) - 1 if type(p) is list else p.total_degree()


def _entry_key(p: MultiPoly | list[int]):
    """Tie-break between candidate pivots; a dense entry sorts exactly like
    the MultiPoly with the same coefficients."""
    if type(p) is list:
        return tuple((d, x) for d, x in enumerate(p) if x)
    return tuple(sorted((e, c.sort_key()) for e, c in p.terms.items()))


# -- ansatz enumeration ----------------------------------------------------------


def _monomials_up_to_weight(
    weights: tuple[int, ...], bound: int, exact: bool
) -> list[Exponents]:
    out: list[Exponents] = []

    def rec(i: int, remaining: int, prefix: list[int]) -> None:
        if i == len(weights):
            if not exact or remaining == 0:
                out.append(tuple(prefix))
            return
        w = weights[i]
        for a in range(remaining // w + 1):
            prefix.append(a)
            rec(i + 1, remaining - a * w, prefix)
            prefix.pop()

    rec(0, bound, [])
    return out


# -- the branching elimination ----------------------------------------------------


class _Pending:
    """A multivariate constraint p = 0 waiting for substitution.  Clones of a
    state share the entry, so its residual string is rendered at most once,
    by the first leaf that reports it."""

    __slots__ = ("poly", "text")

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self.text: str | None = None

    def render(self, names: list[str]) -> str:
        if self.text is None:
            self.text = _render(self.poly, names)
        return self.text


@dataclass
class _State:
    rows: list[dict[int, MultiPoly | list[int]] | None]
    assign: dict[int, FieldElement]
    nonzero: list[MultiPoly]
    pending: list[_Pending]
    pivots: list[dict[int, MultiPoly | list[int]]]  # eliminated rows, never mutated once kept
    prev_pivot: MultiPoly | list[int] | None = None

    def clone(self) -> "_State":
        return _State(
            rows=[dict(r) if r is not None else None for r in self.rows],
            assign=dict(self.assign),
            nonzero=list(self.nonzero),
            pending=list(self.pending),
            pivots=list(self.pivots),
            prev_pivot=self.prev_pivot,
        )


@dataclass
class _Context:
    sys: NaturalHamiltonian
    f_monomials: list[Exponents]
    lam_monomials: list[Exponents]
    lam_vars: VarSet
    lam_names: list[str]
    ncols: int
    cap: int
    dense: bool  # rows are dense integer lists (over Q, one unknown)
    branches: int = 0
    certificates: dict = dataclass_field(default_factory=dict)
    residuals: set = dataclass_field(default_factory=set)

    def tick(self) -> None:
        self.branches += 1
        if self.branches > self.cap:
            raise BranchCapExceededError(self.report())

    def lam_poly(self, p: MultiPoly | list[int]) -> MultiPoly:
        """A row entry as a MultiPoly in the cofactor unknowns: how a dense
        pivot leaves the elimination for the assumptions and constraints."""
        if type(p) is not list:
            return p
        spec = self.sys.field
        terms = {(d,): spec.from_rational(x) for d, x in enumerate(p) if x}
        return MultiPoly(self.lam_vars, spec, terms)

    def report(self) -> SearchReport:
        certs = sorted(
            self.certificates.values(),
            key=lambda c: (c.F.canonical_key(), c.Lambda.canonical_key()),
        )
        return SearchReport(
            certificates=tuple(certs),
            branches_explored=self.branches,
            residual_conditions=tuple(sorted(self.residuals)),
        )


def _substitute_state(ctx: _Context, state: _State, var: int, value: FieldElement) -> list[_State]:
    """Assign one lam variable, substitute everywhere, re-examine assumptions
    and pending constraints.  May fork (pending constraints gaining roots) or
    die (a nonzero assumption vanishing)."""
    state.assign[var] = value
    if ctx.dense:
        if not _substitute_dense(state, value.a):
            return []
    else:
        if state.prev_pivot is not None:
            state.prev_pivot = state.prev_pivot.substitute(state.assign)
            if state.prev_pivot.is_zero():
                return []
        for row in state.rows:
            if row is None:
                continue
            for col in list(row):
                p = row[col].substitute(state.assign)
                if p.is_zero():
                    del row[col]
                else:
                    row[col] = p
    new_nonzero = []
    for p in state.nonzero:
        p = p.substitute(state.assign)
        if p.is_zero():
            return []
        if not p.is_constant():
            new_nonzero.append(p)
    state.nonzero = new_nonzero
    pending = state.pending
    state.pending = []
    states = [state]
    for entry in pending:
        nxt: list[_State] = []
        for s in states:
            p = entry.poly.substitute(s.assign)
            if p is entry.poly:
                # untouched, so still pending: keep the entry and its rendering
                s.pending.append(entry)
                nxt.append(s)
            else:
                nxt.extend(_apply_constraint(ctx, s, p))
        states = nxt
    return states


def _apply_constraint(ctx: _Context, state: _State, p: MultiPoly) -> list[_State]:
    """Impose p = 0 on the branch.  Univariate constraints are factored over
    the field; each in-field root forks a branch, out-of-field factors are
    recorded as residual conditions."""
    if p.is_zero():
        return [state]
    if p.is_constant():
        return []
    used = p.variables_used()
    if len(used) > 1:
        if len(p.terms) == 1:
            # a monomial vanishes iff one of its variables does
            out_m: list[_State] = []
            for v in sorted(used):
                ctx.tick()
                out_m.extend(
                    _substitute_state(ctx, state.clone(), v, ctx.sys.field.zero())
                )
            return out_m
        state.pending.append(_Pending(p))
        return [state]
    (var,) = used
    roots, residual_factors = roots_in_field(p.univariate_coeffs(var), p.field)
    for fac in residual_factors:
        factor = {
            tuple(deg if i == var else 0 for i in range(1, p.varset.n + 1)): c
            for deg, c in enumerate(fac)
            if not c.is_zero()
        }
        ctx.residuals.add(_render(MultiPoly(p.varset, p.field, factor), ctx.lam_names))
    out: list[_State] = []
    for root in roots:
        ctx.tick()
        out.extend(_substitute_state(ctx, state.clone(), var, root))
    return out


def _strip_row_content(row: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Scale a row to primitive form: common rational content removed."""
    num_gcd = 0
    den_lcm = 1
    for p in row.values():
        for coef in p.terms.values():
            for comp in coef.components():
                if comp:
                    num_gcd = math.gcd(num_gcd, comp.numerator)
                    den_lcm = den_lcm * comp.denominator // math.gcd(
                        den_lcm, comp.denominator
                    )
    if num_gcd in (0, den_lcm):
        return row
    factor = Fraction(den_lcm, num_gcd)
    if factor == 1:
        return row
    scale = next(iter(row.values())).field.from_rational(factor)
    return {c: p.scale(scale) for c, p in row.items()}


def _dense_row(row: dict[int, MultiPoly]) -> dict[int, list[int]]:
    """An ansatz row in l1 alone, over Q, as dense integer lists: the row
    times the lcm of its denominators.  That positive factor moves nothing
    the search reports.  Every rewritten row is made primitive anyway, and
    only a constant entry can be fractional (L_H changes the p-degree of every
    monomial, so the diagonal entry is exactly -l1): the constant steps,
    which ignore values, rewrite or eliminate such a row before any
    candidate order reads it."""
    den = 1
    for p in row.values():
        for c in p.terms.values():
            den = math.lcm(den, c.a.denominator)
    dense: dict[int, list[int]] = {}
    for col, p in row.items():
        vec = [0] * (p.total_degree() + 1)
        for (d,), c in p.terms.items():
            vec[d] = c.a.numerator * (den // c.a.denominator)
        dense[col] = vec
    return dense


def _dense_at(row: dict[int, list[int]], x: Fraction) -> dict[int, int]:
    """A dense row at l1 = x, times a positive factor that makes it a
    primitive integer row; vanishing entries are dropped, the order kept."""
    num, den = x.numerator, x.denominator
    top = max(map(len, row.values()), default=0)
    out: dict[int, int] = {}
    for col, vec in row.items():
        # den^(top-1) * vec(x) by Horner on the homogenised polynomial
        acc, pw = 0, den ** (top - len(vec))
        for coef in reversed(vec):
            acc = acc * num + coef * pw
            pw *= den
        if acc:
            out[col] = acc
    g = 0
    for v in out.values():
        g = math.gcd(g, v)
    if g > 1:
        out = {col: v // g for col, v in out.items()}
    return out


def _substitute_dense(state: _State, x: Fraction) -> bool:
    """Put l1 = x into the dense rows and the previous pivot; False when the
    previous pivot vanishes there.  Every entry turns constant, so from here
    on only constant steps, which ignore values, and the leaf kernel, which
    row scaling does not move, read the rows: each is rescaled to primitive
    integers."""
    if state.prev_pivot is not None:
        prev = _dense_at({0: state.prev_pivot}, x)
        if not prev:
            return False
        state.prev_pivot = [1 if prev[0] > 0 else -1]
    rows = state.rows
    for ri, row in enumerate(rows):
        if row:
            rows[ri] = {col: [v] for col, v in _dense_at(row, x).items()}
    return True


def _conv(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _trim(v: list[int]) -> list[int]:
    n = len(v)
    while n and not v[n - 1]:
        n -= 1
    del v[n:]
    return v


def _int_div_exact(num: list[int], den: list[int]) -> tuple[list[int], int] | None:
    """num/den in Q[x] as (integer quotient, positive denominator), or None
    when the polynomial division leaves a remainder."""
    d = len(den)
    shift = len(num) - d
    if shift < 0:
        return None
    dlc = den[-1]
    for scale in (1, dlc ** (shift + 1)):
        work = [x * scale for x in num]
        quot = [0] * (shift + 1)
        ok = True
        for k in range(shift, -1, -1):
            lead = work[k + d - 1]
            if lead % dlc:
                ok = False
                break
            c = lead // dlc
            quot[k] = c
            if c:
                for j in range(d):
                    work[k + j] -= c * den[j]
        if not ok:
            continue
        if any(work):
            return None
        if scale < 0:
            scale = -scale
            quot = [-x for x in quot]
        return quot, scale
    return None


def _eliminate_dense(state: _State, col: int, pivot_ri: int) -> None:
    """The Bareiss step of `_eliminate_with_pivot` on dense integer rows.
    Each rewritten row is pv*a - e*b, divided by the previous pivot when
    every entry divides exactly over Q, then scaled by a positive factor to
    primitive integers: the row the generic step computes, so the search
    takes the same branches either way."""
    rows = state.rows
    pivot_row = rows[pivot_ri]
    if pivot_row is None:
        raise InternalInvariantError(f"pivot row {pivot_ri} was already eliminated")
    rows[pivot_ri] = None
    state.pivots.append(pivot_row)
    pr = dict(pivot_row)
    pv = pr.pop(col)
    prev = state.prev_pivot
    # rows without a pivot-column entry only need the pv/prev rescaling, which
    # is a constant when both are, so then they are skipped unread
    skip_untouched = len(pv) == 1 and (prev is None or len(prev) == 1)
    for rj, row in enumerate(rows):
        if not row or (skip_untouched and col not in row):
            continue
        e = row.get(col)
        new: dict[int, list[int]] = {}
        if e is None:
            for c, a in row.items():
                new[c] = _conv(pv, a)
        else:
            rest = dict(row)
            del rest[col]
            # the same column sets, in the same order, as the generic step:
            # the order of a row decides which constant pivot it offers
            for c in set(rest) | set(pr):
                a = rest.get(c)
                b = pr.get(c)
                if a is None:
                    val = [-y for y in _conv(e, b)]  # type: ignore[arg-type]
                elif b is None:
                    val = _conv(pv, a)
                else:
                    val = _conv(pv, a)
                    sub = _conv(e, b)
                    if len(sub) > len(val):
                        val.extend([0] * (len(sub) - len(val)))
                    for i, y in enumerate(sub):
                        val[i] -= y
                    _trim(val)
                if val:
                    new[c] = val
        if prev is not None:
            if len(prev) == 1:
                # dividing by a constant only rescales; the content strip
                # below keeps nothing of it but the sign
                if prev[0] < 0:
                    new = {c: [-x for x in vec] for c, vec in new.items()}
            else:
                quotients = {}
                for c, vec in new.items():
                    q = _int_div_exact(vec, prev)
                    if q is None:
                        break
                    quotients[c] = q
                else:
                    den_lcm = 1
                    for _, den in quotients.values():
                        den_lcm = math.lcm(den_lcm, den)
                    new = {
                        c: [x * (den_lcm // den) for x in vec] for c, (vec, den) in quotients.items()
                    }
        g = 0
        for vec in new.values():
            for x in vec:
                g = math.gcd(g, x)
        if g > 1:
            new = {c: [x // g for x in vec] for c, vec in new.items()}
        rows[rj] = new
    state.prev_pivot = pv


def _eliminate_with_pivot(state: _State, col: int, pivot_ri: int) -> None:
    """Fraction-free (Bareiss) elimination of one column.  Every new entry is
    pv*a - e*b, then the whole row is divided by the previous pivot when that
    division is exact; the previous pivot is nonzero on this branch, so the
    division never changes which lam-values admit a kernel.  The pivot row
    is kept on the state for the leaf kernel."""
    rows = state.rows
    pivot_row = rows[pivot_ri]
    if pivot_row is None:
        raise InternalInvariantError(f"pivot row {pivot_ri} was already eliminated")
    state.pivots.append(dict(pivot_row))
    rows[pivot_ri] = None
    pv = pivot_row.pop(col)
    prev = state.prev_pivot
    prev_inv = None
    if prev is not None and prev.is_constant():
        prev_inv = prev.constant_value().inverse()
    # rows without a pivot-column entry only need the pv/prev rescaling, and
    # a constant rescaling is irrelevant to both the kernel and later exact
    # divisions, so the all-constant case skips them entirely
    skip_untouched = pv.is_constant() and (prev is None or prev.is_constant())
    for rj, row in enumerate(rows):
        if row is None:
            continue
        e = row.pop(col, None)
        if e is None and skip_untouched:
            continue
        new_row: dict[int, MultiPoly] = {}
        columns = (set(row) | set(pivot_row)) if e is not None else row.keys()
        for c in columns:
            a = row.get(c)
            b = pivot_row.get(c) if e is not None else None
            val = (pv * a if a is not None else None)
            sub = (e * b if b is not None else None)
            if val is None:
                new = -sub  # type: ignore[operator]
            elif sub is None:
                new = val
            else:
                new = val - sub
            if not new.is_zero():
                new_row[c] = new
        if prev_inv is not None:
            new_row = {c: p.scale(prev_inv) for c, p in new_row.items()}
        elif prev is not None:
            reduced: dict[int, MultiPoly] | None = {}
            for c, p in new_row.items():
                q = p.divide_exact(prev)
                if q is None:
                    reduced = None
                    break
                reduced[c] = q
            if reduced is not None:
                new_row = reduced
        if new_row:
            new_row = _strip_row_content(new_row)
        row.clear()
        row.update(new_row)
    state.prev_pivot = pv


def _explore(ctx: _Context, state: _State) -> None:
    eliminate = _eliminate_dense if ctx.dense else _eliminate_with_pivot
    while True:
        rows = state.rows
        # eliminate every column that admits a constant pivot before touching
        # any lam-bearing one: constant steps never branch and shrink the
        # system; sparse rows first (Markowitz) to limit fill-in
        while True:
            best = None
            for ri, row in enumerate(rows):
                if not row:
                    continue
                size = len(row)
                if best is not None and size >= best[0]:
                    continue
                for col, p in row.items():
                    if _is_constant(p):
                        cand = (size, col, ri)
                        if best is None or cand < best:
                            best = cand
                        break
            if best is None:
                break
            eliminate(state, best[1], best[2])
        # pick the lam-bearing column with the fewest, lowest-degree entries
        occupancy: dict[int, list[tuple[int, MultiPoly | list[int]]]] = {}
        for ri, row in enumerate(rows):
            if not row:
                continue
            for col, p in row.items():
                occupancy.setdefault(col, []).append((ri, p))
        if not occupancy:
            break
        col = min(
            occupancy,
            key=lambda c: (
                len(occupancy[c]),
                min(_degree(p) for _, p in occupancy[c]),
                c,
            ),
        )
        entries = occupancy[col]
        candidates = sorted(
            entries,
            key=lambda rp: (_degree(rp[1]), len(rows[rp[0]] or ()), _entry_key(rp[1]), rp[0]),
        )
        eq_states = [state]  # branches in which the candidates seen so far vanish
        for ri, _ in candidates:
            next_eq: list[_State] = []
            for s in eq_states:
                row = s.rows[ri]
                p = row.get(col) if row is not None else None
                if p is None:
                    next_eq.append(s)
                    continue
                if _is_constant(p):
                    ctx.tick()
                    s2 = s.clone()
                    eliminate(s2, col, ri)
                    _explore(ctx, s2)
                    continue
                # branch A: pivot nonzero
                ctx.tick()
                poly = ctx.lam_poly(p)
                s_nz = s.clone()
                s_nz.nonzero.append(poly)
                eliminate(s_nz, col, ri)
                _explore(ctx, s_nz)
                # branch B: pivot vanishes; drop the entry so the column is
                # not revisited (the pending constraint keeps it at zero)
                s_eq0 = s.clone()
                eq_row = s_eq0.rows[ri]
                if eq_row is not None:
                    eq_row.pop(col, None)
                for s_eq in _apply_constraint(ctx, s_eq0, poly):
                    next_eq.append(s_eq)
            eq_states = next_eq
        # whole column vanished: the corresponding f-unknown stays unconstrained here
        survivors = eq_states
        if not survivors:
            return
        state = survivors[0]
        for extra in survivors[1:]:
            _explore(ctx, extra)
    _handle_leaf(ctx, state)


_FREE_SAMPLES = (0, 1, -1, 2)
_ZERO = Fraction(0)


def _free_point(state: _State, free: list[int], spec: FieldSpec) -> dict[int, FieldElement]:
    """The branch's assignment extended to the free lam-unknowns so that no
    nonzero assumption vanishes.  The samples, one shared value for every
    free unknown, come first; then the grid {0, ..., D}^free, where D bounds
    each unknown's degree in the product of the assumptions.  A nonzero
    polynomial of degree at most D in each variable cannot vanish on that
    whole grid (Combinatorial Nullstellensatz)."""
    bound = max(sum(p.degree_in(i) for p in state.nonzero) for i in free)
    points = itertools.chain(
        ((sample,) * len(free) for sample in _FREE_SAMPLES),
        itertools.product(range(bound + 1), repeat=len(free)),
    )
    for point in points:
        trial = dict(state.assign)
        trial.update(zip(free, map(spec.from_rational, point)))
        if all(not p.substitute(trial).is_zero() for p in state.nonzero):
            return trial
    raise InternalInvariantError("every grid point makes a nonzero assumption vanish")


def _handle_leaf(ctx: _Context, state: _State) -> None:
    spec = ctx.sys.field
    if state.pending:
        for entry in state.pending:
            ctx.residuals.add(entry.render(ctx.lam_names))
        return
    free = [i for i in range(1, len(ctx.lam_monomials) + 1) if i not in state.assign]
    if free:
        assign = _free_point(state, free, spec)
    else:
        # _substitute_state drops every assumption that turned constant
        if state.nonzero:
            raise InternalInvariantError("a fully assigned leaf keeps a nonzero assumption")
        assign = state.assign
    # the branch's pivot rows at the leaf's lam-values: every pivot is
    # nonzero there and every dropped entry vanishes, so their kernel is the
    # kernel of the full ansatz
    numeric_rows: list[dict[int, FieldElement]] = []
    if ctx.dense:
        # dense rows come back rescaled to integers, which moves no kernel
        x = assign[1].a
        for row in state.pivots:
            values = _dense_at(row, x)
            numeric_rows.append(
                {col: FieldElement(spec, Fraction(v), _ZERO, _ZERO, _ZERO) for col, v in values.items()}
            )
    else:
        for row in state.pivots:
            nrow: dict[int, FieldElement] = {}
            for col, p in row.items():
                p2 = p.substitute(assign)
                if p2.is_zero():
                    continue
                if not p2.is_constant():
                    raise InternalInvariantError("leaf pivot row still depends on a cofactor unknown")
                nrow[col] = p2.constant_value()
            numeric_rows.append(nrow)
    for vector in _kernel_basis(numeric_rows, ctx.ncols, spec):
        F = MultiPoly.from_terms(
            ctx.sys.varset,
            spec,
            ((ctx.f_monomials[j], coef) for j, coef in vector.items()),
        )
        if F.is_zero() or F.is_constant():
            continue
        cert = cofactor_of(ctx.sys, F.monic())
        if cert is None:
            raise InternalInvariantError(f"leaf kernel vector {F} is not a Darboux polynomial")
        key = (cert.F.canonical_key(), cert.Lambda.canonical_key())
        ctx.certificates.setdefault(key, cert)


def _kernel_basis(
    rows: list[dict[int, FieldElement]], ncols: int, spec: FieldSpec
) -> list[dict[int, FieldElement]]:
    """Nullspace basis of a sparse matrix over the field (reduced echelon)."""
    pivots: dict[int, dict[int, FieldElement]] = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            if lead in pivots:
                coef = r.pop(lead)
                for c, v in pivots[lead].items():
                    if c == lead:
                        continue
                    cur = r.get(c)
                    new = -coef * v if cur is None else cur - coef * v
                    if new.is_zero():
                        r.pop(c, None)
                    else:
                        r[c] = new
            else:
                inv = r[lead].inverse()
                pivots[lead] = {c: v * inv for c, v in r.items()}
                break
    # back-substitute to reduced form
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, row in pivots.items():
            if other_lead == lead or lead not in row:
                continue
            coef = row.pop(lead)
            for c, v in prow.items():
                if c == lead:
                    continue
                cur = row.get(c)
                new = -coef * v if cur is None else cur - coef * v
                if new.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = new
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec: dict[int, FieldElement] = {fc: spec.one()}
        for lead, row in pivots.items():
            coef = row.get(fc)
            if coef is not None:
                vec[lead] = -coef
        basis.append(vec)
    return basis


# -- public entry point -------------------------------------------------------------


def _check_search_bounds(max_gamma_degree: int, branch_cap: int) -> None:
    """ValueError unless the degree bound is >= 0 and the branch cap >= 1:
    anything else would return a report with no evidence in it."""
    if max_gamma_degree < 0:
        raise ValueError(f"the gamma-degree bound must be >= 0, got {max_gamma_degree}")
    if branch_cap < 1:
        raise ValueError(f"the branch cap must be >= 1, got {branch_cap}")


def search_darboux(
    sys: NaturalHamiltonian,
    max_gamma_degree: int,
    homogeneous_only: bool = False,
    branch_cap: int = 10_000,
) -> SearchReport:
    """Find all Darboux polynomials of bounded weighted degree, up to scalar.

    With homogeneous_only, the candidate is a gamma-form of exactly
    max_gamma_degree; otherwise all monomials up to that weight enter the
    ansatz.  The cofactor ansatz covers the q-monomials of weighted degree
    exactly r - 2 for a homogeneous potential, or everything up to r - 2
    (constant included) otherwise.  ValueError for a negative degree bound
    or a branch cap below 1.
    """
    _check_search_bounds(max_gamma_degree, branch_cap)
    grading = gamma_direction(sys)
    gamma = grading.direction.gamma
    spec = sys.field
    m = sys.m

    f_monomials = _monomials_up_to_weight(gamma, max_gamma_degree, exact=homogeneous_only)
    key = monomial_key(m)
    f_monomials.sort(key=key, reverse=True)
    ncols = len(f_monomials)

    q_weights = gamma[:m]
    homog = is_homogeneous_potential(sys)
    lam_q = _monomials_up_to_weight(q_weights, sys.r - 2, exact=homog)
    lam_monomials = [
        q + (0,) * m
        for q in sorted(lam_q, key=lambda e: key(e + (0,) * m), reverse=True)
    ]
    if homog:
        lam_monomials = [e for e in lam_monomials if grading.direction.weight(e) == sys.r - 2]
    lam_vars = VarSet.cofactor_unknowns(len(lam_monomials))

    rows_by_monomial: dict[Exponents, dict[int, MultiPoly]] = {}

    def bump(mono: Exponents, col: int, delta: MultiPoly) -> None:
        row = rows_by_monomial.setdefault(mono, {})
        cur = row.get(col)
        new = delta if cur is None else cur + delta
        if new.is_zero():
            row.pop(col, None)
        else:
            row[col] = new

    for col, alpha in enumerate(f_monomials):
        mono_poly = MultiPoly(sys.varset, spec, {alpha: spec.one()})
        image = lie_derivative(sys, mono_poly)
        for exps, coef in image.terms.items():
            bump(exps, col, MultiPoly.constant(lam_vars, spec, coef))
        for t, beta in enumerate(lam_monomials, 1):
            prod = tuple(a + b for a, b in zip(alpha, beta))
            bump(prod, col, -MultiPoly.variable(lam_vars, spec, t))

    ordered = sorted(rows_by_monomial, key=key, reverse=True)

    ctx = _Context(
        sys=sys,
        f_monomials=f_monomials,
        lam_monomials=lam_monomials,
        lam_vars=lam_vars,
        lam_names=lam_vars.names(),
        ncols=ncols,
        cap=branch_cap,
        dense=spec.kind is FieldKind.RATIONALS and len(lam_monomials) == 1,
    )
    rows = [rows_by_monomial.pop(mono) for mono in ordered]
    if ctx.dense:
        # in place, so that each MultiPoly row is freed as it is converted
        for ri, row in enumerate(rows):
            rows[ri] = _dense_row(row)
    state = _State(
        rows=rows,
        assign={},
        nonzero=[],
        pending=[],
        pivots=[],
    )
    ctx.tick()
    _explore(ctx, state)
    return ctx.report()
