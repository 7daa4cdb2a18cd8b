import random
import warnings

import pytest
import sympy as sp

from hamdarboux.darboux import cofactor_of, verify_first_integral
from hamdarboux.hamsys import load_system, make_system
from hamdarboux.parsing import format_poly
from hamdarboux.search import search_darboux
from hamdarboux.structure import (
    FactorWitness,
    Verdict,
    check_theorem1,
    check_theorem2_pipeline,
    is_irreducible_natural_H,
    jacobian_independent,
)

from conftest import poly_of, random_small_system, sympy_factor_list


def test_irreducible_examples(sys_s2, sys_s3, sys_s5):
    for system in (sys_s2, sys_s3, sys_s5):
        verdict, evidence = is_irreducible_natural_H(system)
        assert verdict
        assert isinstance(evidence, str)


def test_reducible_example():
    system = load_system("m = 2\nfield = Q\nmu = 1, 0\nV = -1/2*q2^4\n")
    verdict, witness = is_irreducible_natural_H(system)
    assert not verdict
    assert isinstance(witness, FactorWitness)
    two_h = system.H.scale(system.field.from_rational(2))
    assert witness.G1 * witness.G2 == two_h
    assert {format_poly(witness.G1), format_poly(witness.G2)} == {
        "p1 - q2^2",
        "p1 + q2^2",
    }


def test_reducible_with_four_degrees_of_freedom():
    # the factorisation is decided for every m: 2H = (p1 - q1^2 - q2^2)(p1 + q1^2 + q2^2)
    system = load_system("m = 4\nfield = Q\nmu = 1, 0, 0, 0\nV = -1/2*(q1^2 + q2^2)^2\n")
    verdict, witness = is_irreducible_natural_H(system)
    assert not verdict
    assert isinstance(witness, FactorWitness)
    assert witness.G1 * witness.G2 == system.H.scale(system.field.from_rational(2))


def test_single_mu_irreducible_when_no_square_root():
    # -2V is not a polynomial square, so H stays irreducible even with one mu
    system = load_system("m = 2\nfield = Q\nmu = 1, 0\nV = q2^3\n")
    verdict, evidence = is_irreducible_natural_H(system)
    assert verdict


def test_factor_search_agrees_with_lemma_on_random_systems():
    rng = random.Random(42)
    for _ in range(100):
        system = random_small_system(rng)
        nonzero = sum(1 for x in system.mu if not x.is_zero())
        verdict, witness = is_irreducible_natural_H(system)
        if nonzero >= 2:
            assert verdict
        if not verdict:
            two_h = system.H.scale(system.field.from_rational(2))
            assert witness.G1 * witness.G2 == two_h


@pytest.mark.parametrize("m", [2, 3, 4])
def test_irreducibility_matches_sympy_factoring(m):
    # an oracle independent of the lemma: sympy's factor_list of 2H over Q.
    # Half the draws keep one nonzero mu_k, and half of those take
    # V = -mu_k/2 * W^2, which makes 2H reducible.
    rng = random.Random(600 + m)
    verdicts = []
    for _ in range(24):
        system = random_small_system(rng, m=m)
        if rng.random() < 0.5:
            k = rng.randrange(m)
            mu = [0] * m
            mu[k] = rng.choice([-2, -1, 1, 2])
            V = system.V
            if rng.random() < 0.5:
                W = random_small_system(rng, m=m, max_degree=2).V
                V = (W * W).scale(system.field.from_rational(-mu[k]) / 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                system = make_system(mu, V)
        two_h = system.H.scale(system.field.from_rational(2))
        gens, factors = sympy_factor_list(two_h)
        # every factorisation of 2H is degree 1 in p when some mu_i is nonzero
        if len(factors) > 1 or factors[0][1] > 1:
            assert all(sp.Poly(f, *gens[m:]).total_degree() == 1 for f, _ in factors)
        verdict, witness = is_irreducible_natural_H(system)
        assert verdict == (sum(mult for _, mult in factors) == 1)
        if not verdict:
            assert witness.G1 * witness.G2 == two_h
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_jacobian_independence(sys_s2):
    F = sys_s2.H
    G = poly_of(sys_s2, "q1*p2 - q2*p1")
    assert jacobian_independent(sys_s2, F, G)
    # a function of F alone is dependent on F
    assert not jacobian_independent(sys_s2, F, F * F)
    assert not jacobian_independent(sys_s2, G, G * G + G)
    with pytest.raises(ValueError):
        jacobian_independent(sys_s2, F, poly_of(sys_s2, "q1 - q1"))


def test_theorem1_cubic():
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 + q2^3\n")
    report = check_theorem1(system, 12)
    assert report.verdict is Verdict.CONSISTENT
    # every certificate found along the way is an honest first integral
    assert all(not c.proper for c in report.evidence)
    assert any("parity" in note for note in report.notes)


def test_theorem1_degenerate_top_counterexample():
    # when the cubic top form is the cube of a linear form, one direction is
    # governed purely by lower-order terms; an inverted-oscillator quadratic
    # there carries a proper Darboux polynomial with constant cofactor, and
    # the odd-degree claim fails.  d_H(p2 + 2*q2) = 4*q2 + 2*p2 = 2*(p2 + 2*q2)
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 - 2*q2^2\n")
    cert = cofactor_of(system, poly_of(system, "p2 + 2*q2"))
    assert cert is not None and cert.proper
    assert format_poly(cert.Lambda) == "2"
    report = check_theorem1(system, 4)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert any(c.proper for c in report.evidence)


@pytest.mark.parametrize(
    "V, residual, field",
    [
        ("-3*q1^3 - q1^2*q2 + q1*q2^2 - 2*q2^3 + 2*q1^2 + 2*q1*q2 + 2*q2^2", "l1^2 - 14", "Q(i,sqrt14)"),
        ("q1^2*q2 + 3*q1*q2^2 - 2*q2^3 - 2*q1^2 + q1*q2 - q2^2", "l1^2 - 7/2", "Q(i,sqrt14)"),
        ("3*q1^3 - q1^2*q2 + q1*q2^2 - q2^3 + 3*q1^2 + 2*q1*q2 + 3*q2^2", "l1^2 + 24", "Q(i,sqrt6)"),
    ],
    ids=["sqrt14", "sqrt14-half", "sqrt6"],
)
def test_theorem1_residuals_decide_over_their_splitting_field(V, residual, field):
    # seeded cubics whose degree-10 search over Q leaves an out-of-field
    # residual; the extension holds its roots (+-sqrt14, +-sqrt14/2 and
    # +-2*i*sqrt6), and there the search decides them and still finds no
    # proper certificate
    for spec, residuals in (("Q", (residual,)), (field, ())):
        system = load_system(f"m = 2\nfield = {spec}\nmu = 1, 1\nV = {V}\n")
        report = check_theorem1(system, 10)
        assert report.verdict is Verdict.CONSISTENT
        assert report.residual_conditions == residuals
        assert search_darboux(system, 10).residual_conditions == residuals


def test_theorem1_rejects_even_degree(sys_s1):
    report = check_theorem1(sys_s1, 4)
    assert report.verdict is Verdict.HYPOTHESES_NOT_MET


def test_theorem2_pipeline(sys_s5):
    G = poly_of(
        sys_s5,
        "3*sqrt(6)*p2^2 + 12*i*p2*q1*q2 + q2^2*(-6*i*p1 + sqrt(6)*(2*q1^2 + q2^2))",
    )
    cert = cofactor_of(sys_s5, G)
    assert cert is not None and cert.proper
    report = check_theorem2_pipeline(sys_s5, cert)
    assert report.verdict is Verdict.CONSISTENT
    integral = report.evidence[0]
    assert integral.Lambda.is_zero()


@pytest.mark.parametrize(
    "field, V, degree, count",
    [
        ("Q(i,sqrt2)", "q1^2 + q2^4", 8, 12),
        ("Q", "q1^3 - 2*q2^2", 6, 4),
        ("Q(i,sqrt2)", "q1^3 - 2*q2^2", 6, 4),
    ],
    ids=["anchor", "cubic-Q", "cubic-Q(i,sqrt2)"],
)
def test_theorem2_on_every_proper_certificate(field, V, degree, count):
    # at either parity of deg V, every proper certificate the search finds
    # yields tau(F)*F, a first integral independent of H
    system = load_system(f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n")
    proper = [c for c in search_darboux(system, degree).certificates if c.proper]
    assert len(proper) == count
    for cert in proper:
        report = check_theorem2_pipeline(system, cert)
        assert report.verdict is Verdict.CONSISTENT
        (integral,) = report.evidence
        assert verify_first_integral(system, integral.F)


def test_theorem2_hypotheses(sys_s1_ext, sys_s3):
    # an odd-degree potential is in scope: the degenerate-top cubic's proper
    # certificate yields an independent integral
    odd = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 - 2*q2^2\n")
    cert = cofactor_of(odd, poly_of(odd, "p2 + 2*q2"))
    assert check_theorem2_pipeline(odd, cert).verdict is Verdict.CONSISTENT
    # a non-proper certificate is out of scope
    cert = cofactor_of(sys_s3, poly_of(sys_s3, "p2^2 + 2*q2^4"))
    assert check_theorem2_pipeline(sys_s3, cert).verdict is Verdict.HYPOTHESES_NOT_MET
    # fewer than two nonzero mu
    single = load_system("m = 2\nfield = Q\nmu = 1, 0\nV = q1^4\n")
    cert = cofactor_of(single, poly_of(single, "p2"))
    assert check_theorem2_pipeline(single, cert).verdict is Verdict.HYPOTHESES_NOT_MET
