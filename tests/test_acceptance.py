"""End-to-end acceptance gate.

Each test covers one numbered criterion, runs inside its stated time budget,
and records a single PASS/FAIL line in the terminal summary.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hamdarboux.darboux import cofactor_of, reversal_integral, verify_first_integral
from hamdarboux.field import RATIONALS
from hamdarboux.hamsys import (
    gamma_direction,
    lie_derivative,
    load_system,
    make_system,
    tau,
)
from hamdarboux.numcheck import drift
from hamdarboux.parsing import ParseContext, format_poly, parse_poly
from hamdarboux.poly import MultiPoly, VarSet
from hamdarboux.search import search_darboux
from hamdarboux.structure import (
    FactorWitness,
    Verdict,
    check_theorem1,
    is_irreducible_natural_H,
    jacobian_independent,
)

from conftest import evaluate_exact, poly_of, rand_poly, random_small_system, record_acceptance, sympy_factor_list


class _Criterion:
    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.start = time.monotonic()

    def finish(self, ok: bool) -> None:
        elapsed = time.monotonic() - self.start
        in_budget = elapsed <= self.budget_s
        status = "PASS" if (ok and in_budget) else "FAIL"
        record_acceptance(
            f"criterion {self.number} [{status}] {self.title} "
            f"({elapsed:.1f}s of {self.budget_s:.0f}s budget)"
        )
        assert ok, f"criterion {self.number} failed: {self.title}"
        assert in_budget, (
            f"criterion {self.number} exceeded budget: {elapsed:.1f}s > {self.budget_s}s"
        )


def test_criterion_1_golden_integrals(sys_s1, sys_s2, sys_s4):
    crit = _Criterion(1, "golden first integrals verify exactly", 3.0)
    ok = (
        verify_first_integral(sys_s1, poly_of(sys_s1, "p2"))
        and verify_first_integral(sys_s2, poly_of(sys_s2, "q1*p2 - q2*p1"))
        and verify_first_integral(
            sys_s4,
            poly_of(sys_s4, "p2*(p1*q2 - p2*q1) + q2^2*(2*q1^3 + q1*q2^2)*1/3"),
        )
    )
    crit.finish(ok)


def test_criterion_2_mixed_quartic_cofactors(sys_s3):
    crit = _Criterion(2, "cofactor sign flip and pinned misprint", 1.0)
    F = poly_of(sys_s3, "i*p2 + sqrt(2)*q2^2")
    expected = poly_of(sys_s3, "-2*sqrt(2)*i*q2")
    cert = cofactor_of(sys_s3, F)
    cert_rev = cofactor_of(sys_s3, tau(F))
    ok = (
        cert is not None
        and cert.Lambda == expected
        and cert_rev is not None
        and cert_rev.Lambda == -expected
        and verify_first_integral(sys_s3, poly_of(sys_s3, "p2^2 + 2*q2^4"))
        and not verify_first_integral(sys_s3, poly_of(sys_s3, "p2^2 + 2*q2^2"))
    )
    crit.finish(ok)


def test_criterion_3_reversal_pipeline(sys_s5):
    crit = _Criterion(3, "proper certificate to independent integral", 5.0)
    G = poly_of(
        sys_s5,
        "3*sqrt(6)*p2^2 + 12*i*p2*q1*q2 + q2^2*(-6*i*p1 + sqrt(6)*(2*q1^2 + q2^2))",
    )
    cert = cofactor_of(sys_s5, G)
    ok = cert is not None and cert.proper
    if ok:
        integral = reversal_integral(sys_s5, cert)
        ok = (
            integral.Lambda.is_zero()
            and verify_first_integral(sys_s5, integral.F)
            and jacobian_independent(sys_s5, sys_s5.H, integral.F)
        )
    crit.finish(ok)


def _cubic_top_is_perfect_cube(terms) -> bool:
    # the binary cubic c3*q1^3 + c2*q1^2*q2 + c1*q1*q2^2 + c0*q2^3 is the cube
    # of a linear form iff its Hessian vanishes identically
    def coef(e1, e2):
        v = terms.get((e1, e2, 0, 0))
        return v.a if v is not None else Fraction(0)

    c3, c2, c1, c0 = coef(3, 0), coef(2, 1), coef(1, 2), coef(0, 3)
    return c2 * c2 == 3 * c3 * c1 and c1 * c1 == 3 * c2 * c0 and c2 * c1 == 9 * c3 * c0


def _random_cubic_potential(rng, varset):
    while True:
        terms = {}
        for e1 in range(4):
            for e2 in range(4 - e1):
                if e1 == e2 == 0:
                    continue
                coef = rng.randint(-3, 3)
                if coef:
                    terms[(e1, e2, 0, 0)] = RATIONALS.from_rational(Fraction(coef))
        V = MultiPoly(varset, RATIONALS, dict(terms))
        # a cubic top that is the cube of a linear form leaves one direction
        # governed purely by lower-order terms; an inverted-oscillator mode
        # there carries a proper Darboux polynomial with constant cofactor,
        # outside the regime the odd-degree statement addresses (see the
        # pinned counterexample in the structure tests)
        if V.total_degree() == 3 and not _cubic_top_is_perfect_cube(V.terms):
            return V


def test_criterion_4_odd_degree_suite():
    crit = _Criterion(4, "odd-degree potentials admit no proper certificate", 60.0)
    varset = VarSet(2)
    systems = [load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 + q2^3\n")]
    rng = random.Random(7)
    for _ in range(20):
        systems.append(make_system([1, 1], _random_cubic_potential(rng, varset)))
    ok = True
    for system in systems:
        report = check_theorem1(system, 12)
        ok = ok and report.verdict is Verdict.CONSISTENT
        # structural parity check for homogeneous odd potentials
        if all(
            sum(w * a for w, a in zip(gamma_direction(system), e)) == system.r
            for e in system.V.terms
        ):
            from hamdarboux.search import _monomials_up_to_weight

            gamma_q = gamma_direction(system)[: system.m]
            stratum = _monomials_up_to_weight(gamma_q, system.r - 2, exact=True)
            ok = ok and not stratum
    crit.finish(ok)


def test_criterion_5_search_determinism(tmp_path):
    crit = _Criterion(5, "field-sensitive search with deterministic reports", 30.0)
    ext = tmp_path / "ext.sys"
    ext.write_text("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^4\n")
    rat = tmp_path / "rat.sys"
    rat.write_text("m = 2\nfield = Q\nmu = 1, 1\nV = q1^4\n")
    sys_ext = load_system(ext.read_text())
    sys_rat = load_system(rat.read_text())
    rep_ext = search_darboux(sys_ext, 4)
    rep_rat = search_darboux(sys_rat, 4)
    ok = (
        {(format_poly(c.F), format_poly(c.Lambda)) for c in rep_ext.certificates}
        == {
            ("p2", "0"),
            ("p1 + i*sqrt(2)*q1^2", "2*i*sqrt(2)*q1"),
            ("p1 - i*sqrt(2)*q1^2", "-2*i*sqrt(2)*q1"),
        }
        and len(rep_rat.certificates) == 1
        and format_poly(rep_rat.certificates[0].F) == "p2"
        and rep_rat.residual_conditions == ("l1^2 + 8",)
    )
    outputs = []
    src = str(Path(__file__).resolve().parent.parent / "src")
    for _ in range(2):
        proc = subprocess.run(
            [
                sys.executable, "-m", "hamdarboux.cli",
                "search", "--system", str(rat),
                "--max-gamma-degree", "4", "--output", "json",
            ],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    ok = ok and outputs[0] == outputs[1] and json.loads(outputs[0])["timing_ms"] == 0
    crit.finish(ok)


def test_criterion_6_property_suites(sys_s3, sys_s1_ext):
    crit = _Criterion(6, "exact property suites, 500 random cases each", 120.0)
    rng = random.Random(2718)
    varset = sys_s3.varset
    spec = sys_s3.field
    weights = gamma_direction(sys_s3)
    ok = True

    # Leibniz rule and tau-anticommutation
    for _ in range(500):
        F = rand_poly(rng, varset, spec)
        G = rand_poly(rng, varset, spec)
        ok = ok and lie_derivative(sys_s3, F * G) == (
            lie_derivative(sys_s3, F) * G + F * lie_derivative(sys_s3, G)
        )
        ok = ok and tau(lie_derivative(sys_s3, F)) == -lie_derivative(sys_s3, tau(F))

    # cofactor additivity and the cofactor structure bound on products
    pool = [
        cofactor_of(sys_s3, poly_of(sys_s3, text))
        for text in ("i*p2 + sqrt(2)*q2^2", "i*p2 - sqrt(2)*q2^2", "p2^2 + 2*q2^4")
    ]
    ok = ok and all(c is not None for c in pool)
    for _ in range(500):
        picks = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        product = picks[0].F
        total = picks[0].Lambda
        for cert in picks[1:]:
            product = product * cert.F
            total = total + cert.Lambda
        got = cofactor_of(sys_s3, product)
        ok = ok and got is not None and got.Lambda == total
        ok = ok and not got.Lambda.depends_on_p()
        gdeg = got.Lambda.gamma_degree(weights)
        ok = ok and (gdeg is None or gdeg <= sys_s3.r - 2)

    # Euler and scaling identities on gamma-homogeneous components
    t = Fraction(3)
    for _ in range(500):
        A = rand_poly(rng, varset, RATIONALS, max_degree=2)
        pt = [
            RATIONALS.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(4)
        ]
        scaled = [
            x * RATIONALS.from_rational(t ** weights[i])
            for i, x in enumerate(pt)
        ]
        for s, comp in A.gamma_decompose(weights):
            euler = MultiPoly.zero(varset, RATIONALS)
            for idx in range(1, 5):
                term = MultiPoly.variable(varset, RATIONALS, idx) * comp.diff(idx)
                euler = euler + term.scale(
                    RATIONALS.from_rational(weights[idx - 1])
                )
            ok = ok and euler == comp.scale(RATIONALS.from_rational(s))
            ok = ok and evaluate_exact(comp, scaled) == evaluate_exact(comp, pt) * RATIONALS.from_rational(t**s)

    # gamma_decompose round-trip
    for _ in range(500):
        A = rand_poly(rng, varset, spec)
        total = MultiPoly.zero(varset, spec)
        for s, comp in A.gamma_decompose(weights):
            ok = ok and len(comp.gamma_decompose(weights)) == 1
            total = total + comp
        ok = ok and total == A

    # parse/format round-trip
    ctx = ParseContext(varset, spec)
    for _ in range(500):
        A = rand_poly(rng, varset, spec, max_degree=4, max_terms=5)
        ok = ok and parse_poly(format_poly(A), ctx) == A

    crit.finish(ok)


def test_criterion_7_irreducibility(sys_s2, sys_s3, sys_s5):
    crit = _Criterion(7, "irreducibility lemma against sympy's factorisation of 2H", 30.0)
    ok = all(
        is_irreducible_natural_H(system)[0] for system in (sys_s2, sys_s3, sys_s5)
    )
    reducible = load_system("m = 2\nfield = Q\nmu = 1, 0\nV = -1/2*q2^4\n")
    verdict, witness = is_irreducible_natural_H(reducible)
    ok = ok and not verdict and isinstance(witness, FactorWitness)
    if isinstance(witness, FactorWitness):
        two_h = reducible.H.scale(reducible.field.from_rational(2))
        ok = ok and witness.G1 * witness.G2 == two_h
    rng = random.Random(1009)
    for _ in range(100):
        system = random_small_system(rng)
        two_h = system.H.scale(system.field.from_rational(2))
        _, factors = sympy_factor_list(two_h)
        verdict, witness = is_irreducible_natural_H(system)
        # irreducible over Q exactly when sympy finds one factor to the power 1
        ok = ok and verdict == (sum(mult for _, mult in factors) == 1)
        if not verdict:
            ok = ok and witness.G1 * witness.G2 == two_h
    crit.finish(ok)


def test_criterion_8_numeric_cross_check(sys_s1, sys_s2, sys_s3, sys_s4):
    crit = _Criterion(8, "RK4 drift bounds on verified integrals", 30.0)
    rng = random.Random(4242)
    cases = [
        (sys_s1, poly_of(sys_s1, "p2")),
        (sys_s2, poly_of(sys_s2, "q1*p2 - q2*p1")),
        (sys_s3, poly_of(sys_s3, "p2^2 + 2*q2^4")),
        (sys_s4, poly_of(sys_s4, "p2*(p1*q2 - p2*q1) + q2^2*(2*q1^3 + q1*q2^2)*1/3")),
    ]
    ok = True
    for system, F in cases:
        ok = ok and verify_first_integral(system, F)
        states = [[rng.uniform(-1.0, 1.0) for _ in range(2 * system.m)] for _ in range(16)]
        ok = ok and all(drift(system, F, x0, 1e-3, 1.0) <= 1e-6 for x0 in states)
    p1 = poly_of(sys_s2, "p1")
    states = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(16)]
    # a NaN drift fails the control, as it fails the bound above
    drifts = [drift(sys_s2, p1, x0, 1e-3, 1.0) for x0 in states]
    ok = ok and not any(math.isnan(d) for d in drifts) and max(drifts) > 1e-2
    crit.finish(ok)
