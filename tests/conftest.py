import random
import warnings
from fractions import Fraction

import pytest

from hamdarboux.field import RATIONALS, FieldSpec, quad_gauss
from hamdarboux.hamsys import NaturalHamiltonian, load_system, make_system
from hamdarboux.parsing import ParseContext, parse_poly
from hamdarboux.poly import MultiPoly, VarSet

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def rand_fraction(rng: random.Random, bound: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def rand_element(rng: random.Random, spec: FieldSpec):
    if spec is RATIONALS:
        return spec.from_rational(rand_fraction(rng))
    return spec.element(
        rand_fraction(rng), rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
    )


def rand_poly(
    rng: random.Random,
    varset: VarSet,
    spec: FieldSpec,
    max_degree: int = 3,
    max_terms: int = 4,
    nonzero: bool = False,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(varset.n))
        coef = rand_element(rng, spec)
        if not coef.is_zero():
            terms[exps] = coef
    P = MultiPoly(varset, spec, terms)
    if nonzero and P.is_zero():
        return MultiPoly.constant(varset, spec, spec.one())
    return P


def poly_of(system: NaturalHamiltonian, text: str) -> MultiPoly:
    return parse_poly(text, ParseContext(system.varset, system.field))


def random_small_system(rng, m: int = 2, max_degree: int = 4) -> NaturalHamiltonian:
    """Random system with small integer data, for agreement tests."""
    varset = VarSet(m)
    while True:
        mu = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(m)]
        if any(mu):
            break
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * (2 * m)
        for i in range(m):
            exps[i] = rng.randint(0, max_degree)
        if sum(exps) == 0:
            continue
        coef = Fraction(rng.randint(-3, 3))
        if coef:
            terms[tuple(exps)] = RATIONALS.from_rational(coef)
    if not terms:
        terms[(2,) + (0,) * (2 * m - 1)] = RATIONALS.one()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_system(mu, MultiPoly(varset, RATIONALS, terms))


@pytest.fixture(scope="session")
def sys_s1():
    return load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^4\n")


@pytest.fixture(scope="session")
def sys_s1_ext():
    return load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^4\n")


@pytest.fixture(scope="session")
def sys_s2():
    return load_system("m = 2\nfield = Q\nmu = 1, 1\nV = (q1^2 + q2^2)^2\n")


@pytest.fixture(scope="session")
def sys_s3():
    return load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^2 + q2^4\n")


@pytest.fixture(scope="session")
def sys_s4():
    return load_system(
        "m = 2\nfield = Q\nmu = 1, 1\nV = 4/3*q1^4 + q1^2*q2^2 + 1/12*q2^4\n"
    )


@pytest.fixture(scope="session")
def sys_s5():
    return load_system(
        "m = 2\nfield = Q(i,sqrt6)\nmu = 1, 1\nV = 4/3*q1^4 + q1^2*q2^2 + 1/6*q2^4\n"
    )
