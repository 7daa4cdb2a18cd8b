import random
from fractions import Fraction

import pytest

from hamdarboux.field import RATIONALS, quad_gauss
from hamdarboux.poly import (
    MultiPoly,
    VarSet,
    VarSetMismatchError,
    monomial_key,
)

from conftest import assert_ring_form, evaluate_exact, rand_element, rand_poly, rand_rational_poly

Q2 = quad_gauss(2)
VS = VarSet(2)


def V(index):
    return MultiPoly.variable(VS, RATIONALS, index)


def test_varset_names():
    assert VS.names() == ["q1", "q2", "p1", "p2"]
    assert VS.n == 4
    with pytest.raises(ValueError):
        VarSet(0)


def test_cofactor_unknowns_ring():
    lam = VarSet.cofactor_unknowns(3)
    assert lam.names() == ["l1", "l2", "l3"]
    assert lam.n == 3 and lam != VarSet(2) and lam == VarSet.cofactor_unknowns(3)
    assert VarSet.cofactor_unknowns(0).names() == []
    l1, l2, l3 = (MultiPoly.variable(lam, Q2, i) for i in (1, 2, 3))
    # plain lexicographic, l1 > l2 > l3
    assert (l3**5 + l2 * l3 + l1).leading_term()[0] == (1, 0, 0)
    A = l2 * l2 * l2.scale(Q2.i()) + l2 + MultiPoly.constant(lam, Q2, 7)
    assert A.univariate_coeffs(2) == [Q2.from_rational(7), Q2.one(), Q2.zero(), Q2.i()]
    assert MultiPoly.zero(lam, Q2).univariate_coeffs(2) == []
    with pytest.raises(ValueError):
        (A + l1).univariate_coeffs(2)


def test_monomial_order_p_dominates_q():
    key = monomial_key(2)
    # p1 > p2 > q1 > q2, pure lexicographic
    p1 = (0, 0, 1, 0)
    p2 = (0, 0, 0, 1)
    q1sq = (2, 0, 0, 0)
    assert key(p1) > key(p2) > key(q1sq)
    # lexicographic, not graded: p1 beats any pure-q monomial of higher total degree
    assert key(p1) > key((9, 9, 0, 0))


@pytest.mark.parametrize("spec", [RATIONALS, Q2])
def test_ring_axioms_random(spec):
    rng = random.Random(23)
    zero = MultiPoly.zero(VS, spec)
    one = MultiPoly.constant(VS, spec, spec.one())
    for _ in range(500):
        A = rand_poly(rng, VS, spec)
        B = rand_poly(rng, VS, spec)
        C = rand_poly(rng, VS, spec)
        assert (A + B) + C == A + (B + C)
        assert A + B == B + A
        assert A * B == B * A
        assert (A * B) * C == A * (B * C)
        assert A * (B + C) == A * B + A * C
        assert A + zero == A
        assert A * one == A
        assert (A - A).is_zero()
    # every result keeps no zero coefficient and stores its components as
    # ints or Fractions; over Q(i, sqrt2) the operands are also polynomials
    # with only rational coefficients, against each other and against
    # irrational ones
    rng = random.Random(31)
    draws = (rand_poly, rand_rational_poly)
    for _ in range(300):
        A, B = (rng.choice(draws)(rng, VS, spec) for _ in range(2))
        k = rand_element(rng, spec)
        point = {i: rand_element(rng, spec) for i in rng.sample(range(1, 5), rng.randint(1, 4))}
        results = [A * B, A + B, A - B, A.substitute(point), (A + B) * (A - B)]
        results += [A.scale(c) for c in (0, 3, -6, Fraction(2, 3), Fraction(-1, 4), k)]
        if not B.is_zero():
            results.append((A * B).divide_exact(B))
        for P in results:
            assert_ring_form(P)


def test_degree_and_leading():
    q1, q2, p1 = V(1), V(2), V(3)
    A = p1 * p1 + q1 * q2 * q2
    assert A.total_degree() == 3
    exps, coef = A.leading_term()
    assert exps == (0, 0, 2, 0)
    assert coef == RATIONALS.one()
    assert MultiPoly.zero(VS, RATIONALS).total_degree() == -1


def test_diff_and_evaluate():
    q1, p2 = V(1), V(4)
    A = q1 * q1 * p2 + q1
    assert A.diff(1) == q1.scale(RATIONALS.from_rational(2)) * p2 + MultiPoly.constant(
        VS, RATIONALS, RATIONALS.one()
    )
    assert A.diff(2).is_zero()
    pt = [RATIONALS.from_rational(x) for x in (2, 0, 0, 3)]
    assert evaluate_exact(A, pt) == RATIONALS.from_rational(14)


@pytest.mark.parametrize("spec", [RATIONALS, Q2], ids=["Q", "sqrt2"])
def test_substitute_random(spec):
    # substituting some variables and then the rest is evaluation, in the
    # phase-space ring and in the ring of cofactor unknowns alike
    rng = random.Random(61)
    for varset in (VS, VarSet.cofactor_unknowns(3)):
        indices = list(range(1, varset.n + 1))
        for _ in range(200):
            A = rand_poly(rng, varset, spec)
            point = [rand_element(rng, spec) for _ in indices]
            first = set(rng.sample(indices, rng.randint(0, varset.n)))
            part = A.substitute({i: point[i - 1] for i in first})
            assert part.varset is varset and part.field is spec
            assert not part.variables_used() & first
            rest = part.substitute({i: point[i - 1] for i in indices if i not in first})
            assert rest.is_constant()
            whole = A.substitute(dict(enumerate(point, 1))).constant_value()
            assert rest.constant_value() == whole == evaluate_exact(A, point)
            unused = {i: point[i - 1] for i in indices if i not in A.variables_used()}
            assert A.substitute(unused) == A


def test_diff_product_rule_random():
    rng = random.Random(7)
    for _ in range(200):
        A = rand_poly(rng, VS, RATIONALS)
        B = rand_poly(rng, VS, RATIONALS)
        idx = rng.randint(1, 4)
        assert (A * B).diff(idx) == A.diff(idx) * B + A * B.diff(idx)


def test_gamma_decompose_round_trip():
    rng = random.Random(41)
    weights = (2, 2, 4, 4)
    for _ in range(300):
        A = rand_poly(rng, VS, Q2)
        parts = A.gamma_decompose(weights)
        total = MultiPoly.zero(VS, Q2)
        last = None
        for s, comp in parts:
            assert [d for d, _ in comp.gamma_decompose(weights)] == [s]
            assert last is None or s > last
            last = s
            total = total + comp
        assert total == A


def test_euler_identity_on_homogeneous_parts():
    # sum gamma_i x_i dF/dx_i == s*F for a gamma-form of weight s
    rng = random.Random(4)
    weights = (2, 2, 4, 4)
    for _ in range(200):
        A = rand_poly(rng, VS, RATIONALS)
        for s, comp in A.gamma_decompose(weights):
            euler = MultiPoly.zero(VS, RATIONALS)
            for idx in range(1, 5):
                term = MultiPoly.variable(VS, RATIONALS, idx) * comp.diff(idx)
                euler = euler + term.scale(
                    RATIONALS.from_rational(weights[idx - 1])
                )
            assert euler == comp.scale(RATIONALS.from_rational(s))


def test_scaling_identity_on_homogeneous_parts():
    # F(t^gamma_i x_i) == t^s F(x) for a gamma-form of weight s, tested at t=3
    rng = random.Random(9)
    weights = (2, 2, 4, 4)
    t = Fraction(3)
    for _ in range(200):
        A = rand_poly(rng, VS, RATIONALS, max_degree=2)
        pt = [RATIONALS.from_rational(rand_element(rng, RATIONALS).components()[0]) for _ in range(4)]
        scaled = [
            x * RATIONALS.from_rational(t ** weights[i])
            for i, x in enumerate(pt)
        ]
        for s, comp in A.gamma_decompose(weights):
            lhs = evaluate_exact(comp, scaled)
            rhs = evaluate_exact(comp, pt) * RATIONALS.from_rational(t**s)
            assert lhs == rhs


def test_monic_and_canonical():
    q1, p1 = V(1), V(3)
    A = (p1 + q1).scale(RATIONALS.from_rational(Fraction(-3, 2)))
    M = A.monic()
    assert M.leading_term()[1] == RATIONALS.one()
    assert M == p1 + q1
    assert A.canonical_key() != M.canonical_key()


def test_divide_exact_random():
    # over Q and Q(i, sqrt2), in phase space and in the search's ring of three
    # cofactor unknowns, up to products of 40 terms and more
    rng = random.Random(77)
    lam = VarSet.cofactor_unknowns(3)
    cases = [
        (VS, RATIONALS, 2, 4, 300),
        (VS, Q2, 2, 4, 100),
        (lam, RATIONALS, 3, 4, 100),
        (lam, Q2, 3, 4, 100),
        (lam, Q2, 4, 12, 40),
        (VS, RATIONALS, 3, 12, 40),
    ]
    large = 0
    for varset, spec, max_degree, max_terms, count in cases:
        one = MultiPoly.constant(varset, spec, spec.one())
        for _ in range(count):
            A = rand_poly(rng, varset, spec, max_degree, max_terms, nonzero=True)
            B = rand_poly(rng, varset, spec, max_degree, max_terms, nonzero=True)
            P = A * B
            large += len(P.terms) >= 40
            assert P.divide_exact(B) == A
            if not B.is_constant():
                # B | A*B + 1 would make B divide 1
                assert (P + one).divide_exact(B) is None
    assert large >= 20
    # a product whose terms cancel almost all: l1^n - l2^n has two terms, so
    # most of the remainder's leading terms appear only during the division
    l1, l2 = (MultiPoly.variable(lam, Q2, i) for i in (1, 2))
    for n in range(2, 9):
        geometric = MultiPoly(lam, Q2, {(n - 1 - k, k, 0): Q2.one() for k in range(n)})
        assert (l1**n - l2**n).divide_exact(l1 - l2) == geometric
        assert (l1**n - l2**n + l1).divide_exact(l1 - l2) is None
    # polynomials over Q(i, sqrt2) with only rational coefficients, divided
    # by each other and paired with irrational ones
    for varset, max_degree, max_terms, count in ((lam, 3, 6, 80), (VS, 2, 4, 80)):
        one = MultiPoly.constant(varset, Q2, 1)
        for _ in range(count):
            R, S = (rand_rational_poly(rng, varset, Q2, max_degree, max_terms, nonzero=True) for _ in range(2))
            T = rand_poly(rng, varset, Q2, max_degree, max_terms, nonzero=True)
            for A, B in ((R, S), (R, T), (T, R)):
                P = A * B
                quotient = P.divide_exact(B)
                assert quotient == A
                assert_ring_form(P)
                assert_ring_form(quotient)
                if not B.is_constant():
                    assert (P + one).divide_exact(B) is None
    # products whose cross terms cancel, on the element path and on the
    # rational-parts path
    sq = MultiPoly.constant(lam, Q2, Q2.i() * Q2.sqrt_d())
    for A, B, product in (
        (l1 + sq * l2, l1 - sq * l2, l1 * l1 + (l2 * l2).scale(2)),
        (l1 - l2, l1 + l2, l1 * l1 - l2 * l2),
        (l1.scale(Fraction(1, 2)) - l2, l1.scale(Fraction(1, 2)) + l2, (l1 * l1).scale(Fraction(1, 4)) - l2 * l2),
    ):
        assert A * B == B * A == product
        assert len(product.terms) == 2
        for P in (A * B, B * A, product.divide_exact(A), product.divide_exact(B)):
            assert_ring_form(P)
        assert product.divide_exact(A) == B and product.divide_exact(B) == A


def test_divide_exact_random_products():
    # a product divides back into each factor, and one more than it into
    # neither non-constant factor; over an extension the factor C has an
    # irrational coefficient
    q1, q2 = V(1), V(2)
    assert (q1 * q1 - q2 * q2).divide_exact(q1 - q2) == q1 + q2
    rng = random.Random(13)
    for spec, cases in ((RATIONALS, 60), (Q2, 12), (quad_gauss(3), 12), (quad_gauss(6), 12)):
        one = MultiPoly.constant(VS, spec, 1)
        for _ in range(cases):
            A = rand_poly(rng, VS, spec, max_degree=2, max_terms=3, nonzero=True)
            B = rand_poly(rng, VS, spec, max_degree=2, max_terms=3, nonzero=True)
            C = rand_poly(rng, VS, spec, max_degree=1, max_terms=2, nonzero=True)
            while spec is not RATIONALS and all(c.is_rational() for c in C.terms.values()):
                C = rand_poly(rng, VS, spec, max_degree=1, max_terms=2, nonzero=True)
            for P in (A, B):
                assert (P * C).divide_exact(C) == P
                assert (P * C).divide_exact(P) == C
                if not C.is_constant():
                    assert (P * C + one).divide_exact(C) is None
    # over Q(i,sqrt2), q1^2 + 2*q2^2 = (q1 - i*sqrt2*q2)(q1 + i*sqrt2*q2) splits
    x, y = (MultiPoly.variable(VS, Q2, i) for i in (1, 2))
    F = x - y.scale(Q2.i() * Q2.sqrt_d())
    A = x * x + (y * y).scale(2)
    assert A.divide_exact(F) == x + y.scale(Q2.i() * Q2.sqrt_d())
    B = (F * (x + y)).scale(Q2.i() + 3)
    assert B.divide_exact(F) == (x + y).scale(Q2.i() + 3)
    assert B.divide_exact(x + y.scale(Q2.i() * Q2.sqrt_d())) is None


def test_varset_mismatch():
    other = MultiPoly.variable(VarSet(3), RATIONALS, 1)
    with pytest.raises(VarSetMismatchError):
        V(1) + other


def test_pow():
    q1 = V(1)
    assert q1**0 == MultiPoly.constant(VS, RATIONALS, RATIONALS.one())
    assert q1**3 == q1 * q1 * q1
    with pytest.raises(ValueError):
        q1 ** (-1)
