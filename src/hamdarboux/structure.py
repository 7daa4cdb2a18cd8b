"""Irreducibility of H, functional independence, and executable checks of
the two structural theorems (odd-degree potentials admit no proper Darboux
polynomial; a proper Darboux polynomial yields an independent integral)."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum

from .darboux import (
    DarbouxCertificate,
    InternalInvariantError,
    reversal_integral,
    verify_first_integral,
)
from .hamsys import (
    NaturalHamiltonian,
    gamma_direction,
    is_homogeneous_potential,
)
from .poly import MultiPoly, monomial_key
from .search import _check_search_bounds, _monomials_up_to_weight, search_darboux, sqrt_in_field


class Verdict(Enum):
    CONSISTENT = "consistent-with-theorem"
    COUNTEREXAMPLE = "counterexample-found"
    HYPOTHESES_NOT_MET = "hypotheses-not-met"


@dataclass
class TheoremReport:
    verdict: Verdict
    evidence: list = dataclass_field(default_factory=list)
    notes: list[str] = dataclass_field(default_factory=list)


@dataclass(frozen=True)
class FactorWitness:
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


def factor_ansatz_search(sys: NaturalHamiltonian) -> FactorWitness | None:
    """Exhaustive solve of the degree-1-in-p factorisation conditions for 2H.

    Matching the p_i p_j coefficients pins the linear parts up to one scalar;
    the remaining freedom reduces to a polynomial square root.  Returns the
    factors when 2H splits, None when it provably does not.
    """
    m = sys.m
    spec = sys.field
    nz = [i for i in range(m) if not sys.mu[i].is_zero()]
    if not nz:
        raise ValueError("all mu_i are zero: H has no kinetic part to factor against")
    k = nz[0]
    # normalise alpha_k = 1 (scalar freedom of the factorisation), so
    # beta_k = mu_k and beta_i = -mu_k alpha_i for i != k.
    # alpha_i beta_i = mu_i forces alpha_i^2 = -mu_i/mu_k; pairwise
    # p_i p_j matching forces alpha_i alpha_j = 0 off the k-th index.
    if len(nz) >= 3:
        return None
    if len(nz) == 2:
        i = nz[1] if nz[0] == k else nz[0]
        alpha_i = sqrt_in_field(-sys.mu[i] * sys.mu[k].inverse())
        if alpha_i is None:
            return None
        # the W-matching conditions then force W1 = 0, impossible for V != 0
        return None
    # single nonzero mu_k: 2H = (p_k + W1)(mu_k p_k + W2), W2 = -mu_k W1,
    # so W1^2 = -2V/mu_k must be a polynomial square.
    target = sys.V.scale(spec.from_rational(-2) * sys.mu[k].inverse())
    W1 = _polynomial_sqrt(target)
    if W1 is None:
        return None
    p_k = MultiPoly.variable(sys.varset, spec, m + k + 1)
    G1 = p_k + W1
    G2 = p_k.scale(sys.mu[k]) - W1.scale(sys.mu[k])
    two_h = sys.H.scale(spec.from_rational(2))
    if not (G1 * G2 - two_h).is_zero():
        raise InternalInvariantError("factor witness does not multiply back to 2H")
    return FactorWitness(G1=G1, G2=G2)


def is_irreducible_natural_H(sys: NaturalHamiltonian) -> tuple[bool, FactorWitness | str]:
    """Irreducibility of H, with an explicit factorisation as the negative
    witness.  When at least two mu_i are nonzero the general argument applies;
    the factor search is still run as a cross-check at desk scale."""
    if sys.m < 2:
        raise ValueError("need m >= 2")
    if sys.V.is_zero():
        raise ValueError("need V != 0")
    nonzero_mu = sum(1 for x in sys.mu if not x.is_zero())
    witness = factor_ansatz_search(sys) if sys.m <= 3 else None
    if nonzero_mu >= 2:
        if witness is not None:
            raise InternalInvariantError(
                "factor search contradicts the two-nonzero-mu irreducibility argument"
            )  # pragma: no cover
        return True, "at least two mu_i nonzero: H is irreducible"
    if witness is not None:
        return False, witness
    return True, "no degree-1-in-p factorisation of 2H exists"


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
    integral.  Runs the structural parity check on the cofactor ansatz plus
    a bounded-degree empirical search for proper certificates."""
    _check_search_bounds(max_gamma_degree, branch_cap)
    if sys.r % 2 == 0:
        return TheoremReport(
            verdict=Verdict.HYPOTHESES_NOT_MET,
            notes=[f"deg V = {sys.r} is even; the theorem assumes an odd degree"],
        )
    grading = gamma_direction(sys)  # also enforces r >= 3
    notes = []
    # structural check: q-monomials all have even weight, so the weight-(r-2)
    # cofactor stratum is empty when r is odd
    top_stratum = _monomials_up_to_weight(grading.direction.gamma[: sys.m], sys.r - 2, exact=True)
    structural_ok = not top_stratum
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
    proper = [c for c in report.certificates if c.proper]
    if proper:
        return TheoremReport(
            verdict=Verdict.COUNTEREXAMPLE,
            evidence=proper,
            notes=notes + ["a proper Darboux certificate was found and re-verified"],
        )
    if not structural_ok:
        return TheoremReport(  # pragma: no cover - arithmetically impossible
            verdict=Verdict.COUNTEREXAMPLE,
            notes=notes + ["non-empty top cofactor stratum"],
        )
    notes.append(
        f"no proper certificate up to weighted degree {max_gamma_degree} "
        f"({report.branches_explored} branches)"
    )
    return TheoremReport(
        verdict=Verdict.CONSISTENT, evidence=list(report.certificates), notes=notes
    )


def check_theorem2_pipeline(
    sys: NaturalHamiltonian, cert: DarbouxCertificate
) -> TheoremReport:
    """From a proper Darboux certificate, construct tau(F)*F and check that it
    is a first integral functionally independent of H."""
    notes = []
    if sys.r % 2:
        return TheoremReport(
            verdict=Verdict.HYPOTHESES_NOT_MET,
            notes=[f"deg V = {sys.r} is odd; the theorem assumes an even degree"],
        )
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
    integral = reversal_integral(sys, cert)
    if not verify_first_integral(sys, integral.F):
        return TheoremReport(  # pragma: no cover - reversal_integral re-verifies
            verdict=Verdict.COUNTEREXAMPLE, evidence=[integral]
        )
    if not jacobian_independent(sys, sys.H, integral.F):
        return TheoremReport(verdict=Verdict.COUNTEREXAMPLE, evidence=[integral])
    notes.append("tau(F)*F is a first integral functionally independent of H")
    return TheoremReport(verdict=Verdict.CONSISTENT, evidence=[integral], notes=notes)

