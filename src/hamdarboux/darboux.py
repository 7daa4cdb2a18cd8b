"""Darboux-polynomial verification, cofactor extraction, and the
time-reversal first-integral construction, which holds at every deg V."""

from __future__ import annotations

from typing import NamedTuple

from .hamsys import NaturalHamiltonian, gamma_direction, lie_derivative, tau
from .poly import InternalInvariantError, MultiPoly


class DarbouxCertificate(NamedTuple):
    """A verified pair (F, Lambda) with L_H F = Lambda * F, F monic."""

    F: MultiPoly
    Lambda: MultiPoly

    @property
    def proper(self) -> bool:
        return not self.Lambda.is_zero()


def _validate_cofactor(sys: NaturalHamiltonian, Lambda: MultiPoly) -> None:
    # deg V >= 2 here: for deg V <= 1, L_H lowers the weight (2 for q, 1 for p) by
    # one, so L_H F = Lambda*F forces Lambda = 0 and `cofactor_of` returns first
    if Lambda.depends_on_p():
        raise InternalInvariantError(
            f"cofactor {Lambda} depends on momenta (deg V = {sys.r})"
        )
    if sys.r >= 3:
        gdeg = Lambda.gamma_degree(gamma_direction(sys))
        if gdeg is not None and gdeg > sys.r - 2:
            raise InternalInvariantError(
                f"cofactor {Lambda} has weighted degree {gdeg} > r - 2 = {sys.r - 2}"
            )


def cofactor_of(sys: NaturalHamiltonian, F: MultiPoly) -> DarbouxCertificate | None:
    """Certificate for F, or None when F is not a Darboux polynomial.  The
    cofactor does not depend on the scale of F, so it is taken from monic F,
    whose smaller coefficients make L_H F and the division cheaper."""
    if F.is_zero():
        raise ValueError("the zero polynomial is not a Darboux polynomial")
    F = F.monic()
    image = lie_derivative(sys, F)
    if image.is_zero():
        return DarbouxCertificate(F=F, Lambda=MultiPoly.zero(sys.varset, sys.field))
    quotient = image.divide_exact(F)
    if quotient is None:
        return None
    _validate_cofactor(sys, quotient)
    return DarbouxCertificate(F=F, Lambda=quotient)


def certificate_holds(sys: NaturalHamiltonian, cert: DarbouxCertificate) -> bool:
    """Recheck L_H F - Lambda*F = 0 independently of how the cert was made."""
    return (lie_derivative(sys, cert.F) - cert.Lambda * cert.F).is_zero()


def verify_first_integral(sys: NaturalHamiltonian, F: MultiPoly) -> bool:
    """True iff L_H F = 0 exactly."""
    if F.is_zero():
        raise ValueError("the zero polynomial is not admitted as a first integral")
    return lie_derivative(sys, F).is_zero()


def reversal_integral(sys: NaturalHamiltonian, cert: DarbouxCertificate) -> DarbouxCertificate:
    """From a Darboux polynomial F with cofactor Lambda, build the first
    integral tau(F)*F; checks the cofactor sign flip of tau(F) en route.
    Holds at every deg V: L_H(tau(G)) = -tau(L_H G), and a cofactor depends
    on q alone (`_validate_cofactor` raises otherwise), so tau(Lambda) = Lambda."""
    if not certificate_holds(sys, cert):
        raise ValueError("invalid certificate for this system")
    reversed_cert = cofactor_of(sys, tau(cert.F))
    if reversed_cert is None or not (reversed_cert.Lambda + cert.Lambda).is_zero():
        raise InternalInvariantError(
            "tau(F) does not carry the negated cofactor"
        )
    G = tau(cert.F) * cert.F
    integral = DarbouxCertificate(F=G.monic(), Lambda=MultiPoly.zero(sys.varset, sys.field))
    if not certificate_holds(sys, integral):
        raise InternalInvariantError("tau(F)*F failed the first-integral check")
    return integral
