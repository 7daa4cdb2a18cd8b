"""Natural Hamiltonian systems H = (1/2) sum mu_i p_i^2 + V(q).

Reads them from system files, and provides the associated derivation (Lie
derivative along the canonical vector field), the time-reversal involution
tau, and the weighted grading with q-weight 2 and p-weight r = deg V.
"""

from __future__ import annotations

import operator
import warnings
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import FieldElement, FieldSpec
from .parsing import ParseContext, ParseError, parse_field_spec, parse_poly
from .poly import Exponents, MultiPoly, VarSet


class GradingUnavailableError(ValueError):
    """Grading-based operations require deg V >= 3."""


class NaturalHamiltonian(NamedTuple):
    varset: VarSet
    field: FieldSpec
    mu: tuple[FieldElement, ...]
    V: MultiPoly
    r: int
    H: MultiPoly
    grad_V: tuple[MultiPoly, ...]  # dV/dq_i, precomputed

    @property
    def m(self) -> int:
        return self.varset.m


def make_system(mu: Sequence, V: MultiPoly) -> NaturalHamiltonian:
    """Build the system from the mass coefficients and the potential."""
    varset = V.varset
    field = V.field
    m = varset.m
    if m < 2:
        raise ValueError(f"need m >= 2 degrees of freedom, got m = {m}")
    if len(mu) != m:
        raise ValueError(f"mu must have {m} entries, got {len(mu)}")
    if V.is_zero():
        raise ValueError("the potential V must be nonzero")
    if V.depends_on_p():
        raise ValueError("the potential V must depend on q-variables only")
    mu_elems = tuple(
        x if isinstance(x, FieldElement) else field.from_rational(Fraction(x)) for x in mu
    )
    r = V.total_degree()
    if r <= 2:
        warnings.warn(
            f"deg V = {r} <= 2: the system is constructible but grading-based "
            "operations will refuse to run",
            stacklevel=2,
        )
    H = V
    half = field.from_rational(Fraction(1, 2))
    for i in range(1, m + 1):
        p_i = MultiPoly.variable(varset, field, m + i)
        H = H + (p_i * p_i).scale(half * mu_elems[i - 1])
    grad = tuple(V.diff(i) for i in range(1, m + 1))
    return NaturalHamiltonian(
        varset=varset, field=field, mu=mu_elems, V=V, r=r, H=H, grad_V=grad
    )


def load_system(text: str) -> NaturalHamiltonian:
    """Build a system from the line-based `key = value` system file (# starts
    a comment).  Each bad entry raises a ParseError that names its line."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        entries[key] = (value.strip(), lineno)
    for required in ("m", "field", "mu", "V"):
        if required not in entries:
            raise ParseError(f"missing key {required!r}", 1, 1)
    unknown = set(entries) - {"m", "field", "mu", "V"}
    if unknown:
        key = sorted(unknown)[0]
        raise ParseError(f"unknown key {key!r}", entries[key][1], 1)

    mtext, mline = entries["m"]
    try:
        m = int(mtext)
    except ValueError:
        raise ParseError(f"m must be an integer, got {mtext!r}", mline, 1) from None
    if m < 2:
        raise ParseError(f"m must be >= 2, got {m}", mline, 1)

    ftext, fline = entries["field"]
    try:
        field = parse_field_spec(ftext)
    except ValueError as exc:
        raise ParseError(exc.args[0], fline, 1) from None

    mutext, muline = entries["mu"]
    parts = [p.strip() for p in mutext.split(",")]
    if len(parts) != m:
        raise ParseError(f"mu must list {m} rationals, got {len(parts)}", muline, 1)
    mu = []
    for part in parts:
        try:
            mu.append(field.from_rational(Fraction(part)))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {part!r} in mu", muline, 1) from None

    vtext, vline = entries["V"]
    try:
        V = parse_poly(vtext, ParseContext(VarSet(m), field))
    except ParseError as exc:
        raw = text.splitlines()[vline - 1]
        start = raw.index(vtext, raw.index("=") + 1)  # where vtext begins in its line
        raise ParseError(f"in V: {exc.args[0]}", vline, start + exc.column) from None
    if V.depends_on_p():
        raise ParseError("V must depend on q-variables only", vline, 1)
    return make_system(mu, V)


def lie_image(sys: NaturalHamiltonian, alpha: Exponents) -> dict[Exponents, FieldElement]:
    """L_H of the monomial q^a p^b with exponents alpha = (a, b), by exponent
    arithmetic: the sum over i of mu_i a_i q^(a - e_i) p^(b + e_i) and of
    -b_i (dV/dq_i) q^a p^(b - e_i).  No two terms share an exponent (each
    moves the p-part by +e_i or -e_i for its own i), so each coefficient is a
    single nonzero product."""
    m = sys.m
    image: dict[Exponents, FieldElement] = {}
    for i in range(m):
        a, b = alpha[i], alpha[m + i]
        if a and not sys.mu[i].is_zero():
            exps = list(alpha)
            exps[i] -= 1
            exps[m + i] += 1
            image[tuple(exps)] = sys.mu[i] * a
        if b:
            lowered = list(alpha)
            lowered[m + i] -= 1
            for g_exps, g_coef in sys.grad_V[i].terms.items():
                image[tuple(map(operator.add, lowered, g_exps))] = g_coef * -b
    return image


def lie_derivative(sys: NaturalHamiltonian, F: MultiPoly) -> MultiPoly:
    """sum_i mu_i p_i dF/dq_i - sum_i (dV/dq_i) dF/dp_i, exactly: the sum of
    the `lie_image`s of F's terms, with cancelled terms dropped."""
    if F.varset != sys.varset or F.field != sys.field:
        raise ValueError("polynomial does not live in the system's ring")
    terms: dict[Exponents, FieldElement] = {}
    for alpha, coef in F.terms.items():
        for exps, c in lie_image(sys, alpha).items():
            cur = terms.get(exps)
            terms[exps] = coef * c if cur is None else cur + coef * c
    return MultiPoly(sys.varset, sys.field, {e: c for e, c in terms.items() if not c.is_zero()})


def tau(F: MultiPoly) -> MultiPoly:
    """Time reversal: fixes q_i, negates p_i; an involution of the ring."""
    m = F.varset.m
    terms = {}
    for exps, coef in F.terms.items():
        if sum(exps[m:]) % 2:
            terms[exps] = -coef
        else:
            terms[exps] = coef
    return MultiPoly(F.varset, F.field, terms)


def gamma_direction(sys: NaturalHamiltonian) -> tuple[int, ...]:
    """The gamma grading's weights (2,...,2, r,...,r), one per variable q1..qm,
    p1..pm, with r = deg V; requires r >= 3."""
    if sys.r <= 2:
        raise GradingUnavailableError(
            f"deg V = {sys.r} <= 2: the weighted grading is unavailable"
        )
    m = sys.m
    return (2,) * m + (sys.r,) * m


def top_hamiltonian(sys: NaturalHamiltonian) -> NaturalHamiltonian:
    """Replace V by its top total-degree component (same mu)."""
    gamma_direction(sys)  # enforces r >= 3
    top_terms = {
        exps: coef
        for exps, coef in sys.V.terms.items()
        if sum(exps) == sys.r
    }
    v_top = MultiPoly(sys.varset, sys.field, top_terms)
    return make_system(list(sys.mu), v_top)


def is_homogeneous_potential(sys: NaturalHamiltonian) -> bool:
    return len({sum(e) for e in sys.V.terms}) <= 1
