"""Built-in corpus: the five integrable quartic-potential systems with two
degrees of freedom, together with their published first integrals and
Darboux factors.  `run_corpus` exercises the whole chain end to end and is
the CLI's primary acceptance entry point."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .darboux import cofactor_of, reversal_integral, verify_first_integral
from .hamsys import NaturalHamiltonian, load_system, tau
from .parsing import ParseContext, parse_poly
from .poly import MultiPoly
from .structure import jacobian_independent


class CorpusEntry(NamedTuple):
    name: str
    definition: str
    checks: Callable[["CorpusEntry", NaturalHamiltonian], list[tuple[str, bool, str]]]

    def system(self) -> NaturalHamiltonian:
        return load_system(self.definition)

    def poly(self, sys: NaturalHamiltonian, text: str) -> MultiPoly:
        return parse_poly(text, ParseContext(sys.varset, sys.field))


def _check_item1(entry: CorpusEntry, sys: NaturalHamiltonian):
    F = entry.poly(sys, "p2")
    ok = verify_first_integral(sys, F)
    return [("p2 is a first integral", ok, str(F))]


def _check_item2(entry: CorpusEntry, sys: NaturalHamiltonian):
    F = entry.poly(sys, "q1*p2 - q2*p1")
    results = [("angular momentum is a first integral", verify_first_integral(sys, F), str(F))]
    results.append(
        (
            "it is independent of H",
            jacobian_independent(sys, sys.H, F),
            "2x2 Jacobian minor nonzero",
        )
    )
    return results


def _check_item3(entry: CorpusEntry, sys: NaturalHamiltonian):
    results = []
    G1 = entry.poly(sys, "i*p2 + sqrt(2)*q2^2")
    expected = entry.poly(sys, "-2*i*sqrt(2)*q2")
    cert = cofactor_of(sys, G1)
    results.append(
        (
            "cofactor of i*p2 + sqrt(2)*q2^2 is -2*sqrt(2)*i*q2",
            cert is not None and (cert.Lambda - expected).is_zero(),
            str(cert.Lambda) if cert else "not a Darboux polynomial",
        )
    )
    cert_rev = cofactor_of(sys, tau(G1))
    results.append(
        (
            "time reversal flips the cofactor sign",
            cert_rev is not None and (cert_rev.Lambda + expected).is_zero(),
            str(cert_rev.Lambda) if cert_rev else "not a Darboux polynomial",
        )
    )
    product = entry.poly(sys, "p2^2 + 2*q2^4")
    results.append(
        (
            "the product p2^2 + 2*q2^4 is a first integral",
            verify_first_integral(sys, product),
            str(product),
        )
    )
    misprint = entry.poly(sys, "p2^2 + 2*q2^2")
    results.append(
        (
            "the literal p2^2 + 2*q2^2 is NOT a first integral (misprint pinned)",
            not verify_first_integral(sys, misprint),
            str(misprint),
        )
    )
    return results


def _check_item4(entry: CorpusEntry, sys: NaturalHamiltonian):
    F = entry.poly(sys, "p2*(p1*q2 - p2*q1) + q2^2*(2*q1^3 + q1*q2^2)*1/3")
    return [("the cubic-in-momenta integral verifies", verify_first_integral(sys, F), str(F))]


def _check_item5(entry: CorpusEntry, sys: NaturalHamiltonian):
    results = []
    G = entry.poly(
        sys,
        "3*sqrt(6)*p2^2 + 12*i*p2*q1*q2 + q2^2*(-6*i*p1 + sqrt(6)*(2*q1^2 + q2^2))",
    )
    cert = cofactor_of(sys, G)
    results.append(
        (
            "G is a proper Darboux polynomial",
            cert is not None and cert.proper,
            str(cert.Lambda) if cert else "not a Darboux polynomial",
        )
    )
    if cert is None:
        return results
    integral = reversal_integral(sys, cert)
    results.append(
        (
            "tau(G)*G is a first integral",
            verify_first_integral(sys, integral.F),
            str(integral.F),
        )
    )
    results.append(
        (
            "tau(G)*G is independent of H",
            jacobian_independent(sys, sys.H, integral.F),
            "2x2 Jacobian minor nonzero",
        )
    )
    return results


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="separable quartic (V = q1^4)",
        definition="m = 2\nfield = Q\nmu = 1, 1\nV = q1^4\n",
        checks=_check_item1,
    ),
    CorpusEntry(
        name="central quartic (V = (q1^2 + q2^2)^2)",
        definition="m = 2\nfield = Q\nmu = 1, 1\nV = (q1^2 + q2^2)^2\n",
        checks=_check_item2,
    ),
    CorpusEntry(
        name="mixed quadratic-quartic (V = q1^2 + q2^4)",
        definition="m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^2 + q2^4\n",
        checks=_check_item3,
    ),
    CorpusEntry(
        name="1:12 quartic (V = 4*q1^4/3 + q1^2*q2^2 + q2^4/12)",
        definition="m = 2\nfield = Q\nmu = 1, 1\nV = 4/3*q1^4 + q1^2*q2^2 + 1/12*q2^4\n",
        checks=_check_item4,
    ),
    CorpusEntry(
        name="1:6 quartic (V = 4*q1^4/3 + q1^2*q2^2 + q2^4/6)",
        definition="m = 2\nfield = Q(i,sqrt6)\nmu = 1, 1\nV = 4/3*q1^4 + q1^2*q2^2 + 1/6*q2^4\n",
        checks=_check_item5,
    ),
)


def run_corpus() -> list[tuple[str, str, bool, str]]:
    """Run every golden assertion; returns (entry, check, passed, detail)."""
    rows = []
    for entry in CORPUS:
        sys = entry.system()
        for label, passed, detail in entry.checks(entry, sys):
            rows.append((entry.name, label, passed, detail))
    return rows
