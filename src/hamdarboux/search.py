"""Bounded-degree Darboux polynomial search.

The ansatz couples unknown coefficients f of the candidate polynomial with
unknown cofactor coefficients lam: the relation L_H F - Lambda*F = 0, read
per monomial, is linear in f with entries affine in lam.  `_ansatz` alone
builds that system, each entry as a map from lam-exponent to coefficient,
and `_choose_entry_form` builds each entry once in its final form.  The
f-unknowns are eliminated fraction-free over the polynomial ring in lam,
branching on whether each pivot vanishes; a pivot alone in its row that is
nonzero on the branch sets its unknown to zero, so its column is deleted
rather than eliminated, which leaves the other rows and the previous pivot
as they are.  Univariate lam-constraints are solved over the configured
field: once their x^k content is removed, one of degree at most 2 is its
own factor, and one of higher degree is factored by `field.factor_in_field`,
the library's one use of sympy.  `roots_in_field` alone reads each factor,
in field arithmetic and with the square roots of `field.sqrt_in_field`,
into roots or a monic residual; in-field roots branch the search and
out-of-field factors are reported as residual conditions.

Each branch keeps its pivot rows, with their pivot columns, in echelon
form.  At a leaf every remaining row is empty and every pivot is nonzero at
the leaf's lam-values, so the kernel has one dimension per non-pivot column.
A fully assigned leaf with a kernel back-substitutes through those rows,
with no further elimination, evaluating there only the entries it reads.

On a search over Q with the one unknown l1 a constant entry is a plain int,
so most elimination steps of a cubic potential's search run on Python
integers."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .darboux import DarbouxCertificate, InternalInvariantError, cofactor_of
from .field import RATIONALS, FieldElement, FieldKind, FieldSpec, factor_in_field, sqrt_in_field
from .hamsys import NaturalHamiltonian, gamma_direction, is_homogeneous_potential, lie_image
from .parsing import format_terms
from .poly import Exponents, MultiPoly, VarSet, monomial_key


class BranchCapExceededError(RuntimeError):
    """Search aborted; carries the partial report gathered so far."""

    def __init__(self, partial: "SearchReport"):
        super().__init__(
            f"branch cap exceeded after {partial.branches_explored} branches"
        )
        self.partial = partial


class SearchReport(NamedTuple):
    certificates: tuple[DarbouxCertificate, ...]
    branches_explored: int
    residual_conditions: tuple[str, ...]


# -- exact roots over Q and Q(i, sqrt d) -----------------------------------------


def roots_in_field(
    coeffs: list[FieldElement], spec: FieldSpec
) -> tuple[list[FieldElement], list[list[FieldElement]]]:
    """Roots of sum coeffs[k] x^k lying in the field, sorted by `sort_key`
    without repeats, plus the monic irreducible-over-the-field factors whose
    roots fall outside it.

    The x^k content gives the root 0.  A remainder of degree at most 2 is its
    own factor, and one of higher degree is factored by `factor_in_field`.
    Every factor is read here, in field arithmetic: a linear one gives its
    root, a quadratic its roots through the discriminant and the exact
    `sqrt_in_field`, and one with no root to read is a monic residual."""
    k = next((i for i, c in enumerate(coeffs) if not c.is_zero()), None)
    if k is None:
        return [], []
    g = list(coeffs[k:])
    while g[-1].is_zero():
        g.pop()
    factors = [g] if len(g) <= 3 else factor_in_field(g, spec)
    roots = [spec.zero()] if k else []
    residuals: list[list[FieldElement]] = []
    for f in factors:
        if len(f) == 2:
            roots.append(-f[0] * f[1].inverse())
        elif len(f) > 2:
            inv = f[-1].inverse()
            monic = [c * inv for c in f]
            if len(f) == 3:
                half = monic[1] * Fraction(-1, 2)
                s = sqrt_in_field(half * half - monic[0])
                if s is not None:
                    roots += [half + s, half - s]
                    continue
            residuals.append(monic)
    uniq: list[FieldElement] = []
    for r in sorted(roots, key=lambda z: z.sort_key()):
        if not uniq or uniq[-1] != r:
            uniq.append(r)
    return uniq, residuals


# -- polynomials in the cofactor unknowns ---------------------------------------
# Ansatz entries are MultiPolys over VarSet.cofactor_unknowns(k), except on a
# search over Q with a single unknown l1, the integer form, where a constant
# entry is a number and every other entry an `_IntPoly`, from the ansatz to
# the leaf.  One elimination, substitution and leaf serve both forms: they
# read numbers directly, and otherwise use the arithmetic, truth value and
# `divide_exact` that `_IntPoly` and MultiPoly share.  Residual strings list
# their terms highest total degree first, and candidate pivots break ties on
# `sort_key`; both orders are part of the report.


def _render(p: MultiPoly, names: list[str]) -> str:
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return format_terms(items, names)


class _IntPoly(list):
    """A polynomial in l1 of degree >= 1 over Z as its dense coefficient list,
    lowest degree first, with a nonzero leading coefficient.

    In the integer entry form a constant entry is a bare number: an `int`,
    or, only after a substitution, a `Fraction` when its exact value is not
    integral.  The search keeps each row only up to a positive rational
    factor, which the row-content strip removes, so an `_IntPoly`'s
    coefficients are integers; with the one unknown l1 a substitution turns
    every entry into a number, so a `Fraction` never meets an `_IntPoly`.
    The arithmetic takes numbers on either side and returns a number when the
    result has degree 0.  `total_degree` and `sort_key` order entries exactly
    as on the MultiPoly with the same coefficients."""

    __slots__ = ()

    def __mul__(self, other: "_IntPoly | int") -> "_IntPoly | int":
        if type(other) is not _IntPoly:
            return _IntPoly([x * other for x in self]) if other else 0
        out = [0] * (len(self) + len(other) - 1)
        for i, x in enumerate(self):
            if x:
                for j, y in enumerate(other):
                    if y:
                        out[i + j] += x * y
        return _IntPoly(out)

    __rmul__ = __mul__

    def __sub__(self, other: "_IntPoly | int") -> "_IntPoly | int":
        out = _IntPoly(self)
        if type(other) is not _IntPoly:
            out[0] -= other
            return out
        out.extend([0] * (len(other) - len(self)))
        for i, y in enumerate(other):
            out[i] -= y
        while out and not out[-1]:
            out.pop()
        return out if len(out) > 1 else out[0] if out else 0

    def __rsub__(self, other: int) -> "_IntPoly":
        out = -self
        out[0] += other
        return out

    def __neg__(self) -> "_IntPoly":
        return _IntPoly([-x for x in self])

    def total_degree(self) -> int:
        return len(self) - 1

    def sort_key(self):
        return tuple((d, x) for d, x in enumerate(self) if x)

    @staticmethod
    def divide_exact(a: "_IntPoly | int", b: "_IntPoly | int") -> "_IntPoly | int | None":
        """a/b times the positive content of b, for a nonzero dividend a, or
        None when b does not divide a over Q.  The factor depends on b alone,
        so a row divided entry by entry keeps its direction.  Long division
        by b's primitive part: by Gauss's lemma the quotient of an integral
        dividend is integral whenever it exists over Q, so the first
        coefficient that does not divide exactly, or a nonzero remainder,
        means no quotient."""
        if type(b) is not _IntPoly:
            return a if b > 0 else -a
        if type(a) is not _IntPoly or len(a) < len(b):
            return None
        g = math.gcd(*b)
        b = [y // g for y in b]
        n, lead = len(b) - 1, b[-1]
        rem = list(a)
        quotient = [0] * (len(a) - n)
        for i in range(len(quotient) - 1, -1, -1):
            q, r = divmod(rem[i + n], lead)
            if r:
                return None
            if q:
                quotient[i] = q
                for j in range(n):
                    rem[i + j] -= q * b[j]
        if any(rem[:n]):
            return None
        return _IntPoly(quotient) if len(quotient) > 1 else quotient[0]

    def substitute(self, assign: dict[int, FieldElement]) -> "int | Fraction":
        """The exact value at l1 = assign[1], a number."""
        x = assign[1].a
        num, den = x.numerator, x.denominator
        # den^deg * value, by Horner on the homogenised polynomial
        acc, pw = 0, 1
        for coef in reversed(self):
            acc = acc * num + coef * pw
            pw *= den
        scale = den ** (len(self) - 1)
        return acc // scale if acc % scale == 0 else Fraction(acc, scale)

    def as_multipoly(self, varset: VarSet) -> MultiPoly:
        terms = {(d,): RATIONALS.from_rational(x) for d, x in enumerate(self) if x}
        return MultiPoly(varset, RATIONALS, terms)


# the constant entries of the integer form
_NUMBERS = (int, Fraction)


def _is_constant(p: "Entry") -> bool:
    """Whether an entry is free of the cofactor unknowns: a number, or a
    constant MultiPoly."""
    return type(p) is not _IntPoly and (type(p) is not MultiPoly or p.is_constant())


def _substituted(p: "Entry", assign: dict[int, FieldElement]) -> "Entry":
    """An entry at the assigned lam-values; a number is its own value."""
    return p if type(p) in _NUMBERS else p.substitute(assign)


Entry = MultiPoly | _IntPoly | int | Fraction


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


def _ansatz(
    sys: NaturalHamiltonian, max_gamma_degree: int, homogeneous_only: bool
) -> tuple[list[Exponents], list[Exponents], list[dict[int, dict[Exponents, FieldElement]]]]:
    """The ansatz in canonical order, highest first: the f-monomials, the
    lam-monomials, whose weight r - 2 or less leaves out every momentum, and
    one row per phase-space monomial of L_H F - Lambda*F, each entry a map
    from lam-exponent to coefficient: the L_H image's scalar under the zero
    key, -1 under e_t for l_t.  No key is written twice: image exponents are
    distinct and alpha + beta_t differs per t."""
    gamma, key = gamma_direction(sys), monomial_key(sys.m)
    f_monomials, lam_monomials = (
        sorted(_monomials_up_to_weight(gamma, bound, exact), key=key, reverse=True)
        for bound, exact in [
            (max_gamma_degree, homogeneous_only),
            (sys.r - 2, is_homogeneous_potential(sys)),
        ]
    )
    k = len(lam_monomials)
    zero_key = (0,) * k
    unit_keys = [tuple(int(i == t) for i in range(k)) for t in range(k)]
    minus_one = -sys.field.one()
    rows_by_monomial: dict[Exponents, dict[int, dict[Exponents, FieldElement]]] = {}
    for col, alpha in enumerate(f_monomials):
        for exps, coef in lie_image(sys, alpha).items():
            rows_by_monomial.setdefault(exps, {})[col] = {zero_key: coef}
        for beta, unit in zip(lam_monomials, unit_keys):
            prod = tuple(map(operator.add, alpha, beta))
            rows_by_monomial.setdefault(prod, {}).setdefault(col, {})[unit] = minus_one
    ordered = sorted(rows_by_monomial, key=key, reverse=True)
    return f_monomials, lam_monomials, [rows_by_monomial.pop(mono) for mono in ordered]


# -- the branching elimination ----------------------------------------------------


class _State:
    """One branch of the elimination.  `pending` holds the multivariate
    constraints p = 0 waiting for substitution, `pivots` the (pivot column,
    eliminated row) pairs in elimination order, never mutated once kept: no
    row has an entry in an earlier pivot's column.  The branch owns the rows
    it is given and copies of the assignment and the lists."""

    __slots__ = ("rows", "assign", "nonzero", "pending", "pivots", "prev_pivot")

    def __init__(self, rows, assign=(), nonzero=(), pending=(), pivots=(), prev_pivot=None) -> None:
        self.rows: list[dict[int, Entry] | None] = rows
        self.assign: dict[int, FieldElement] = dict(assign)
        self.nonzero: list[MultiPoly] = list(nonzero)
        self.pending: list[MultiPoly] = list(pending)
        self.pivots: list[tuple[int, dict[int, Entry]]] = list(pivots)
        self.prev_pivot: Entry | None = prev_pivot

    def clone(self) -> "_State":
        rows = [dict(r) if r is not None else None for r in self.rows]
        return _State(rows, self.assign, self.nonzero, self.pending, self.pivots, self.prev_pivot)


class _Context:
    """What one search's branches share: the system, the ansatz's monomials,
    the branch count against the cap, and the certificates and residuals."""

    def __init__(self, sys, f_monomials, lam_monomials, lam_vars, cap) -> None:
        self.sys: NaturalHamiltonian = sys
        self.f_monomials: list[Exponents] = f_monomials
        self.lam_monomials: list[Exponents] = lam_monomials
        self.lam_vars: VarSet = lam_vars
        self.lam_names: list[str] = lam_vars.names()
        self.cap: int = cap
        self.branches = 0
        self.certificates: dict = {}
        self.residuals: set = set()

    def tick(self) -> None:
        self.branches += 1
        if self.branches > self.cap:
            raise BranchCapExceededError(self.report())

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
    assign = state.assign
    assign[var] = value
    if state.prev_pivot is not None:
        state.prev_pivot = _substituted(state.prev_pivot, assign)
        if not state.prev_pivot:
            return []
    rows = state.rows
    for ri, row in enumerate(rows):
        if row:
            new: dict[int, Entry] = {}
            for col, p in row.items():
                p = _substituted(p, assign)
                if p:
                    new[col] = p
            rows[ri] = new
    new_nonzero = []
    for p in state.nonzero:
        p = p.substitute(assign)
        if p.is_zero():
            return []
        if not p.is_constant():
            new_nonzero.append(p)
    state.nonzero = new_nonzero
    pending = state.pending
    state.pending = []
    states = [state]
    for constraint in pending:
        nxt: list[_State] = []
        for s in states:
            p = constraint.substitute(s.assign)
            if p is constraint:
                # no assigned variable occurs, so it stays pending as it is
                s.pending.append(p)
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
        state.pending.append(p)
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


def _strip_row_content(row: dict[int, Entry]) -> dict[int, Entry]:
    """Scale a row to primitive form: common rational content removed.  A row
    of ints and `_IntPoly`s needs one integer gcd; a `Fraction` is left only
    by a substitution, which leaves every entry a number."""
    ints: list[int] = []
    for p in row.values():
        if type(p) is int:
            ints.append(p)
        elif type(p) is _IntPoly:
            ints += p
        else:
            break
    else:
        g = math.gcd(*ints)
        if g <= 1:
            return row
        return {
            c: p // g if type(p) is int else _IntPoly([x // g for x in p]) for c, p in row.items()
        }
    num_gcd, den_lcm = 0, 1
    for p in row.values():
        num, den = (p.numerator, p.denominator) if type(p) in _NUMBERS else p.rational_content()
        num_gcd = math.gcd(num_gcd, num)
        den_lcm = math.lcm(den_lcm, den)
    if num_gcd in (0, den_lcm):
        return row
    factor = Fraction(den_lcm, num_gcd)
    return {c: int(p * factor) if type(p) in _NUMBERS else p.scale(factor) for c, p in row.items()}


def _eliminate_with_pivot(state: _State, col: int, pivot_ri: int) -> None:
    """Fraction-free (Bareiss) elimination of one column.  Every new entry is
    pv*a - e*b, then the whole row is divided by the previous pivot when that
    division is exact; the previous pivot is nonzero on this branch, so the
    division never changes which lam-values admit a kernel.  Each rewritten
    row is made primitive, which removes any positive rational factor, such
    as the one an `_IntPoly` quotient carries.  The pivot row is kept on the
    state for the leaf kernel.

    A lone non-constant pivot, a pivot row {col: pv}, says f_col = 0 on this
    branch, where pv is nonzero (it sits in `state.nonzero`, so a
    substitution that makes it vanish kills the branch).  Its column is
    deleted from every other row, and no row is rescaled, divided or
    stripped; the previous pivot stays.  A Bareiss step would only multiply
    each other row by pv/prev, which is nonzero here.  Neither the row nor
    the column has served as a pivot before, so by Sylvester's identity the
    remaining entries are exactly the Bareiss entries, with the same
    previous pivot, of the matrix without that row and column, and the
    elimination continues on that matrix.  The kept pivot row gives the leaf
    f_col = 0."""
    rows = state.rows
    pivot_row = rows[pivot_ri]
    if pivot_row is None:
        raise InternalInvariantError(f"pivot row {pivot_ri} was already eliminated")
    rows[pivot_ri] = None
    state.pivots.append((col, pivot_row))
    if len(pivot_row) == 1 and not _is_constant(pivot_row[col]):
        for row in rows:
            if row:
                row.pop(col, None)
        return
    pr = dict(pivot_row)
    pv = upv = pr.pop(col)
    prev = state.prev_pivot
    # rows without a pivot-column entry only need the pv/prev rescaling, which
    # is a constant when both are, so then they are skipped unread
    skip_untouched = _is_constant(pv) and (prev is None or _is_constant(prev))
    if prev is not None and _is_constant(prev):
        # the content strip removes any positive rational factor, so of a
        # constant previous pivot only a sign or an irrational part is left to
        # divide out; every new entry is linear in the pivot row, which takes it
        if type(prev) is MultiPoly:
            value = prev.constant_value()
            if not value.is_rational():
                inv = value.inverse()
                upv, pr = pv.scale(inv), {c: b.scale(inv) for c, b in pr.items()}
            negative = value.is_rational() and value.a < 0
        else:
            negative = prev < 0
        if negative:
            upv, pr = -pv, {c: -b for c, b in pr.items()}
        prev = None
    # built once: equal sets from one dict iterate alike, so the union's
    # order, which decides the constant pivot a row offers, is kept
    pr_cols = set(pr)
    for rj, row in enumerate(rows):
        if not row or (skip_untouched and col not in row):
            continue
        e = row.get(col)
        new: dict[int, Entry] = {}
        if e is None:
            for c, a in row.items():
                new[c] = upv * a
        else:
            rest = dict(row)
            del rest[col]
            for c in set(rest) | pr_cols:
                a = rest.get(c)
                b = pr.get(c)
                if a is None:
                    new[c] = -(e * b)  # type: ignore[operator]
                elif b is None:
                    new[c] = upv * a
                else:
                    val = upv * a - e * b
                    if val:
                        new[c] = val
        if prev is not None:
            quotients: dict[int, Entry] = {}
            divide = type(prev).divide_exact  # its dividend may be a number
            for c, p in new.items():
                q = divide(p, prev)
                if q is None:
                    break
                quotients[c] = q
            else:
                new = quotients
        rows[rj] = _strip_row_content(new)
    state.prev_pivot = pv


def _explore(ctx: _Context, state: _State) -> None:
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
                    # `_is_constant`, inlined in the search's hottest loop
                    if type(p) is not _IntPoly and (type(p) is not MultiPoly or p.is_constant()):
                        cand = (size, col, ri)
                        if best is None or cand < best:
                            best = cand
                        break
            if best is None:
                break
            _eliminate_with_pivot(state, best[1], best[2])
        # pick the lam-bearing column with the fewest, lowest-degree entries
        occupancy: dict[int, list[tuple[int, Entry]]] = {}
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
                min(p.total_degree() for _, p in occupancy[c]),
                c,
            ),
        )
        entries = occupancy[col]
        candidates = sorted(
            entries,
            key=lambda rp: (
                rp[1].total_degree(), len(rows[rp[0]] or ()), rp[1].sort_key(), rp[0]
            ),
        )
        eq_states = [state]  # branches in which the candidates seen so far vanish
        for ri, _ in candidates:
            next_eq: list[_State] = []
            for s in eq_states:
                p = s.rows[ri].get(col)
                if p is None:
                    next_eq.append(s)
                    continue
                # branch A: pivot nonzero, an assumption unless it is constant
                ctx.tick()
                # the one place an integer entry leaves the elimination
                poly = p.as_multipoly(ctx.lam_vars) if type(p) is _IntPoly else p
                constant = _is_constant(poly)
                s_nz = s.clone()
                if not constant:
                    s_nz.nonzero.append(poly)
                _eliminate_with_pivot(s_nz, col, ri)
                _explore(ctx, s_nz)
                if constant:
                    continue
                # branch B: pivot vanishes, which a nonzero constant cannot;
                # drop the entry so the column is not revisited (the pending
                # constraint keeps it at zero).  Nothing reads s again, so
                # the branch takes it over rather than a copy
                s.rows[ri].pop(col)
                next_eq.extend(_apply_constraint(ctx, s, poly))
            eq_states = next_eq
        # whole column vanished: the corresponding f-unknown stays unconstrained here
        survivors = eq_states
        if not survivors:
            return
        state = survivors[0]
        for extra in survivors[1:]:
            _explore(ctx, extra)
    _handle_leaf(ctx, state)


def _handle_leaf(ctx: _Context, state: _State) -> None:
    """What a leaf holds, decided by its kernel dimension.

    Lemma: Darboux polynomials with distinct cofactors are linearly
    independent.  On the leaf's lam-set (pending constraints zero, no nonzero
    assumption zero) every kept pivot is nonzero and every other entry
    vanishes, so the kernel dimension is ncols - len(pivots) at every lam of
    the set, over the algebraic closure too; if it is >= 1, each such lam
    fixes the cofactor of a Darboux polynomial, so the set has at most ncols
    points.  Hence (a) a leaf with no pending constraint and a free unknown,
    whose set is infinite, has kernel 0; (b) a pending leaf with kernel 0
    holds nothing, so its constraints are not reported; (c) a pending leaf
    with a kernel has a zero-dimensional saturated ideal, whose lex Groebner
    basis holds a univariate eliminant."""
    ncols = len(ctx.f_monomials)
    if len(state.pivots) == ncols:
        return
    if state.pending:
        for p in state.pending:
            ctx.residuals.add(_render(p, ctx.lam_names))
        return
    if len(state.assign) < len(ctx.lam_monomials):
        raise InternalInvariantError(
            "a leaf with a free unknown has a kernel, but Darboux polynomials "
            "with distinct cofactors are linearly independent"
        )
    # _substitute_state drops every assumption that turned constant
    if state.nonzero:
        raise InternalInvariantError("a fully assigned leaf keeps a nonzero assumption")
    spec = ctx.sys.field
    # the branch's pivot rows at the leaf's lam-values: every pivot is
    # nonzero there and every dropped entry vanishes, so their kernel is the
    # kernel of the full ansatz
    for vector in _kernel_basis(state.pivots, ncols, spec, state.assign):
        # distinct columns are distinct monomials, and no coefficient is zero
        F = MultiPoly(ctx.sys.varset, spec, {ctx.f_monomials[j]: c for j, c in vector.items()})
        if F.is_constant():
            continue
        cert = cofactor_of(ctx.sys, F)
        if cert is None:
            raise InternalInvariantError(f"leaf kernel vector {F} is not a Darboux polynomial")
        key = (cert.F.canonical_key(), cert.Lambda.canonical_key())
        ctx.certificates.setdefault(key, cert)


def _kernel_basis(
    pivots: list[tuple[int, dict[int, Entry]]],
    ncols: int,
    spec: FieldSpec,
    assign: dict[int, FieldElement],
) -> list[dict[int, FieldElement]]:
    """Nullspace basis of a branch's pivot rows at the leaf's lam-values
    `assign`, in reduced form: each vector is one at its highest column, its
    lead, which every other vector misses; sorted by lead.  The rows are in
    echelon form (a nonzero pivot, no entry in an earlier pivot's column), so
    each non-pivot column set to one, the others to zero, back-substitutes
    through them in reverse into a kernel vector.  Reducing those gives the
    unique reduced basis, the one a forward reduction of the rows gives.
    Only the entries back-substitution reads are evaluated: each pivot, and
    the entries on columns some vector has reached."""
    earlier = {col for col, _ in pivots}
    if len(earlier) < len(pivots):
        raise InternalInvariantError("a pivot row has an entry in an earlier pivot column")
    vectors = [{f: spec.one()} for f in range(ncols) if f not in earlier]
    live = set().union(*vectors)  # the columns some vector has reached
    for k in range(len(pivots) - 1, -1, -1):
        col, row = pivots[k]
        pv = _at_leaf(row[col], assign) if col in row else spec.zero()
        if pv.is_zero():
            raise InternalInvariantError(f"pivot {k} vanishes at the leaf in column {col}")
        earlier.discard(col)
        if not earlier.isdisjoint(row):
            raise InternalInvariantError(f"pivot row {k} has an entry in an earlier pivot column")
        if live.isdisjoint(row):
            continue
        # no vector holds this row's own column until the loop below sets it
        reached = {c: _at_leaf(p, assign) for c, p in row.items() if c in live}
        for vec in vectors:
            acc = None
            for c, v in reached.items():
                x = vec.get(c)
                if x is not None:
                    acc = v * x if acc is None else acc + v * x
            if acc is not None and not acc.is_zero():
                vec[col] = -(acc * pv.inverse())
                live.add(col)
    basis: dict[int, dict[int, FieldElement]] = {}
    for vec in vectors:
        for lead, b in basis.items():
            if lead in vec:
                vec = _minus_multiple(vec, vec[lead], b)
        lead = max(vec)
        inv = vec[lead].inverse()
        vec = {c: x * inv for c, x in vec.items()}
        for other, b in basis.items():
            if lead in b:
                basis[other] = _minus_multiple(b, b[lead], vec)
        basis[lead] = vec
    return [basis[lead] for lead in sorted(basis)]


def _at_leaf(entry: Entry, assign: dict[int, FieldElement]) -> FieldElement:
    """A kept pivot row's entry at the leaf's lam-values."""
    value = _substituted(entry, assign)
    if type(value) in _NUMBERS:
        return RATIONALS.from_rational(value)
    if not value.is_constant():
        raise InternalInvariantError("leaf pivot row still depends on a cofactor unknown")
    return value.constant_value()


def _minus_multiple(
    u: dict[int, FieldElement], x: FieldElement, w: dict[int, FieldElement]
) -> dict[int, FieldElement]:
    """u - x*w on sparse vectors, zeros dropped."""
    out = dict(u)
    for c, y in w.items():
        cur = out.get(c)
        new = -(x * y) if cur is None else cur - x * y
        if new.is_zero():
            out.pop(c, None)
        else:
            out[c] = new
    return out


def _choose_entry_form(rows: list[dict], lam_vars: VarSet, spec: FieldSpec) -> None:
    """The one place that picks the entry form.  Each ansatz entry arrives as
    its map from lam-exponent to coefficient and is built once, in place so
    that each row of maps is freed as it is converted: over Q with a single
    unknown as a row of ints for the constant entries and `_IntPoly`s for the
    others, otherwise as the MultiPolys over `lam_vars` with those terms.

    An integer row is the row of maps times the lcm of its denominators.
    That positive factor moves nothing the search reports.  Every rewritten
    row is made primitive anyway, and only a constant entry can be fractional
    (L_H changes the p-degree of every monomial, so the diagonal entry is
    exactly -l1): the constant steps, which ignore values, rewrite or
    eliminate such a row before any candidate order reads it."""
    integer = spec.kind is FieldKind.RATIONALS and lam_vars.n == 1
    for ri, row in enumerate(rows):
        if not integer:
            rows[ri] = {col: MultiPoly(lam_vars, spec, terms) for col, terms in row.items()}
            continue
        den = math.lcm(*(c.a.denominator for terms in row.values() for c in terms.values()))
        int_row: dict[int, Entry] = {}
        for col, terms in row.items():
            vec = [0] * (max(terms)[0] + 1)
            for (d,), c in terms.items():
                vec[d] = c.a.numerator * (den // c.a.denominator)
            int_row[col] = _IntPoly(vec) if len(vec) > 1 else vec[0]
        rows[ri] = int_row


# -- public entry point -------------------------------------------------------------


def check_search_bounds(max_gamma_degree: int, branch_cap: int) -> None:
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
    check_search_bounds(max_gamma_degree, branch_cap)
    f_monomials, lam_monomials, rows = _ansatz(sys, max_gamma_degree, homogeneous_only)
    lam_vars = VarSet.cofactor_unknowns(len(lam_monomials))
    _choose_entry_form(rows, lam_vars, sys.field)
    ctx = _Context(sys, f_monomials, lam_monomials, lam_vars, branch_cap)
    ctx.tick()
    _explore(ctx, _State(rows))
    return ctx.report()
