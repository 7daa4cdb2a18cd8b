import random
import re
import warnings
from fractions import Fraction

import pytest

from hamdarboux.field import RATIONALS, FieldElement, FieldKind, FieldSpec, quad_gauss
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


def evaluate_exact(A: MultiPoly, point) -> FieldElement:
    """A at the point's field elements, term by term with repeated
    multiplication: the tests' exact evaluation oracle."""
    total = A.field.zero()
    for exps, coef in A.terms.items():
        for x, a in zip(point, exps):
            for _ in range(a):
                coef = coef * x
        total = total + coef
    return total


def evaluate_float(A: MultiPoly, state) -> float:
    """A at one state of floats through numcheck's compiled straight-line
    code: the float operations, in the same order, that `drift` folds in
    after each RK4 step."""
    from hamdarboux.numcheck import _compile

    return _compile([A], A.varset.n)(*map(float, state))[0]


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


@pytest.fixture
def leaf_log(monkeypatch):
    """Every search leaf, logged by a wrapper around the leaf handler as
    (kernel dimension, its pending constraints as residual strings).  The
    dimension is read off the leaf as ncols - len(pivots): at a leaf every
    kept pivot is nonzero and every other entry vanishes."""
    import hamdarboux.search as search_module

    handle_leaf = search_module._handle_leaf
    leaves: list[tuple[int, frozenset[str]]] = []

    def leaf(ctx, state):
        kernel = len(ctx.f_monomials) - len(state.pivots)
        leaves.append((kernel, frozenset(search_module._render(p, ctx.lam_names) for p in state.pending)))
        handle_leaf(ctx, state)

    monkeypatch.setattr(search_module, "_handle_leaf", leaf)
    return leaves


def check_residuals_against_leaves(residuals, leaves) -> None:
    """The residual strings of one search against its `leaf_log`: those in
    more than one unknown (a pending constraint; an out-of-field factor has
    one) are exactly the pending strings of the leaves with a kernel."""
    multivariate = {r for r in residuals if len(set(re.findall(r"l\d+", r))) > 1}
    assert multivariate == set().union(*(strs for kernel, strs in leaves if kernel >= 1))


def assert_ring_form(P: MultiPoly) -> None:
    """P keeps no zero coefficient, and each coefficient stores a component as
    an int when integral and as a Fraction only when not."""
    for coef in P.terms.values():
        assert not coef.is_zero(), P.terms
        for comp in (coef.a, coef.b, coef.c, coef.e):
            assert type(comp) is int or (type(comp) is Fraction and comp.denominator > 1), P.terms


def rand_rational_poly(
    rng: random.Random,
    varset: VarSet,
    spec: FieldSpec,
    max_degree: int = 3,
    max_terms: int = 4,
    nonzero: bool = False,
) -> MultiPoly:
    """A random polynomial over `spec` whose coefficients are all rational."""
    P = rand_poly(rng, varset, RATIONALS, max_degree, max_terms, nonzero)
    return MultiPoly(varset, spec, {e: spec.from_rational(c.a) for e, c in P.terms.items()})


# -- the expression-level oracle for sympy numbers --------------------------------
# The library reaches sympy only through `hamdarboux.field.factor_in_field`;
# the factoring oracles build sympy expressions instead, so they check the
# library along a path that does not go through it.


def fe_to_sympy(x: FieldElement):
    """x as a sympy number on the basis {1, I, sqrt(d), I*sqrt(d)}."""
    import sympy as sp

    expr = sp.Rational(x.a)
    if x.b or x.c or x.e:
        s = sp.sqrt(x.spec.d)
        expr = expr + sp.Rational(x.b) * sp.I + sp.Rational(x.c) * s + sp.Rational(x.e) * sp.I * s
    return expr


def sympy_factor_list(P: MultiPoly):
    """(generators, factors) of sympy's `factor_list` of P, with the
    generators named as P's variables."""
    import sympy as sp

    gens = sp.symbols(P.varset.names())
    expr = sp.Add(*(fe_to_sympy(c) * sp.Mul(*(g**a for g, a in zip(gens, e))) for e, c in P.terms.items()))
    return gens, sp.factor_list(expr, *gens)[1]


def sympy_to_fe(expr, spec: FieldSpec) -> FieldElement:
    """The element of `spec` equal to a sympy number; ValueError when the
    number lies outside the field."""
    import sympy as sp

    expr = sp.expand(expr)
    if spec.kind is FieldKind.RATIONALS:
        rat = sp.Rational(expr)
        return spec.from_rational(Fraction(rat.p, rat.q))
    s = sp.sqrt(spec.d)
    poly = sp.Poly(expr, sp.I, s)
    comps = dict.fromkeys([(0, 0), (1, 0), (0, 1), (1, 1)], 0)
    for monom, coef in poly.terms():
        if monom not in comps or not coef.is_rational:
            raise ValueError(f"{expr} does not lie in Q(i,sqrt{spec.d})")
        rat = sp.Rational(coef)
        comps[monom] = Fraction(rat.p, rat.q)
    return spec.element(comps[(0, 0)], comps[(1, 0)], comps[(0, 1)], comps[(1, 1)])
