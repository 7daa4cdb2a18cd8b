"""Irreducibility of H, functional independence, and executable checks of
the two structural theorems (odd-degree potentials admit no proper Darboux
polynomial; a proper Darboux polynomial yields an independent integral)."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .darboux import DarbouxCertificate, InternalInvariantError, reversal_integral
from .field import sqrt_in_field
from .hamsys import (
    NaturalHamiltonian,
    is_homogeneous_potential,
)
from .poly import MultiPoly, monomial_key
from .search import check_search_bounds, search_darboux


class Verdict(Enum):
    CONSISTENT = "consistent-with-theorem"
    COUNTEREXAMPLE = "counterexample-found"
    HYPOTHESES_NOT_MET = "hypotheses-not-met"


class TheoremReport(NamedTuple):
    verdict: Verdict
    evidence: Sequence[DarbouxCertificate] = ()
    notes: Sequence[str] = ()
    residual_conditions: tuple[str, ...] = ()


class FactorWitness(NamedTuple):
    """An explicit degree-1-in-p factorisation 2H = G1 * G2."""

    G1: MultiPoly
    G2: MultiPoly


def _polynomial_sqrt(P: MultiPoly) -> MultiPoly | None:
    """W with W*W = P, or None.  Works over Q and Q(i, sqrt d)."""
    if P.is_zero():
        return P
    key = monomial_key(P.varset.m)
    lexps, lcoef = P.leading_term()
    if any(a % 2 for a in lexps):
        return None
    root_coef = sqrt_in_field(lcoef)
    if root_coef is None:
        return None
    half = tuple(a // 2 for a in lexps)
    W = MultiPoly(P.varset, P.field, {half: root_coef})
    two = P.field.from_rational(2)
    while True:
        R = P - W * W
        if R.is_zero():
            return W
        rexps, rcoef = R.leading_term()
        # next term t satisfies 2*LT(W)*t = LT(R)
        diff = tuple(a - b for a, b in zip(rexps, half))
        if any(d < 0 for d in diff):
            return None
        if key(rexps) >= key(lexps):
            return None
        t_coef = rcoef * (two * root_coef).inverse()
        W = W + MultiPoly(P.varset, P.field, {diff: t_coef})


def is_irreducible_natural_H(sys: NaturalHamiltonian) -> tuple[bool, FactorWitness | str]:
    """Irreducibility of H over its field, with an explicit factorisation of
    2H as the negative witness.  Every factorisation of 2H is degree 1 in p
    when some mu_i is nonzero, which decides it for every m.

    Write 2H = (alpha.p + W1)(beta.p + W2).  For two indices i, j with
    nonzero mu: alpha_i beta_i = mu_i, the p_i p_j terms give
    alpha_i beta_j + alpha_j beta_i = 0 and the p-linear terms give
    alpha_i W2 + beta_i W1 = 0 for each i; together they force W1 = W2 = 0,
    so 2V = W1 W2 = 0, impossible for V != 0.  So H is irreducible with two
    or more nonzero mu_i, and with one nonzero mu_k reducible exactly when
    -2V/mu_k is a polynomial square."""
    if sys.m < 2:
        raise ValueError("need m >= 2")
    if sys.V.is_zero():
        raise ValueError("need V != 0")
    m = sys.m
    spec = sys.field
    nz = [i for i in range(m) if not sys.mu[i].is_zero()]
    if not nz:
        raise ValueError("all mu_i are zero: H has no kinetic part to factor against")
    if len(nz) >= 2:
        return True, "at least two mu_i nonzero: H is irreducible"
    k = nz[0]
    # single nonzero mu_k: 2H = (p_k + W1)(mu_k p_k + W2), W2 = -mu_k W1,
    # so W1^2 = -2V/mu_k must be a polynomial square.
    target = sys.V.scale(spec.from_rational(-2) * sys.mu[k].inverse())
    W1 = _polynomial_sqrt(target)
    if W1 is None:
        return True, "no degree-1-in-p factorisation of 2H exists"
    p_k = MultiPoly.variable(sys.varset, spec, m + k + 1)
    G1 = p_k + W1
    G2 = p_k.scale(sys.mu[k]) - W1.scale(sys.mu[k])
    if not (G1 * G2 - sys.H.scale(spec.from_rational(2))).is_zero():
        raise InternalInvariantError("factor witness does not multiply back to 2H")
    return False, FactorWitness(G1=G1, G2=G2)


def jacobian_independent(sys: NaturalHamiltonian, F: MultiPoly, G: MultiPoly) -> bool:
    """True iff some 2x2 minor of the Jacobian of (F, G) is a nonzero polynomial."""
    if F.is_zero() or G.is_zero():
        raise ValueError("inputs must be nonzero")
    n = sys.varset.n
    dF = [F.diff(i) for i in range(1, n + 1)]
    dG = [G.diff(i) for i in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            if not (dF[i] * dG[j] - dF[j] * dG[i]).is_zero():
                return True
    return False


def check_theorem1(
    sys: NaturalHamiltonian, max_gamma_degree: int, branch_cap: int = 10_000
) -> TheoremReport:
    """Odd-degree potential: every Darboux polynomial should be a first
    integral.  Notes which cofactor strata parity empties (every q-monomial
    has even weight) and runs a bounded-degree search for proper
    certificates."""
    check_search_bounds(max_gamma_degree, branch_cap)
    if sys.r % 2 == 0:
        return TheoremReport(
            verdict=Verdict.HYPOTHESES_NOT_MET,
            notes=[f"deg V = {sys.r} is even; the theorem assumes an odd degree"],
        )
    notes = []
    if is_homogeneous_potential(sys):
        notes.append(
            "homogeneous odd potential: parity empties the entire cofactor ansatz"
        )
    else:
        covered = [s for s in range(sys.r - 1) if s % 2 == 1]
        notes.append(
            "non-homogeneous potential: the parity argument covers the odd "
            f"cofactor strata {covered}; even strata are tested empirically"
        )
    report = search_darboux(
        sys, max_gamma_degree, homogeneous_only=False, branch_cap=branch_cap
    )
    residuals = report.residual_conditions
    proper = [c for c in report.certificates if c.proper]
    if proper:
        return TheoremReport(
            verdict=Verdict.COUNTEREXAMPLE,
            evidence=proper,
            notes=notes + ["a proper Darboux certificate was found and re-verified"],
            residual_conditions=residuals,
        )
    notes.append(
        f"no proper certificate up to weighted degree {max_gamma_degree} "
        f"({report.branches_explored} branches)"
    )
    if residuals:
        notes.append(f"the search left {len(residuals)} residual condition(s) undecided")
    return TheoremReport(
        verdict=Verdict.CONSISTENT,
        evidence=list(report.certificates),
        notes=notes,
        residual_conditions=residuals,
    )


def check_theorem2_pipeline(
    sys: NaturalHamiltonian, cert: DarbouxCertificate
) -> TheoremReport:
    """From a proper Darboux certificate, construct tau(F)*F and check that it
    is a first integral functionally independent of H.  Every deg V is in
    scope: an odd one can have proper certificates when its top form is
    degenerate, as in `check_theorem1`'s counterexamples."""
    notes = []
    nonzero_mu = sum(1 for x in sys.mu if not x.is_zero())
    if nonzero_mu < 2:
        return TheoremReport(
            verdict=Verdict.HYPOTHESES_NOT_MET,
            notes=["fewer than two nonzero mu_i"],
        )
    if not cert.proper:
        return TheoremReport(
            verdict=Verdict.HYPOTHESES_NOT_MET,
            notes=["certificate is not proper (cofactor is zero)"],
        )
    # reversal_integral raises unless tau(F)*F is a first integral
    integral = reversal_integral(sys, cert)
    if not jacobian_independent(sys, sys.H, integral.F):
        return TheoremReport(verdict=Verdict.COUNTEREXAMPLE, evidence=[integral])
    notes.append("tau(F)*F is a first integral functionally independent of H")
    return TheoremReport(verdict=Verdict.CONSISTENT, evidence=[integral], notes=notes)

