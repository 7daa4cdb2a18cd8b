import random

import pytest

from hamdarboux.field import RATIONALS, quad_gauss
from hamdarboux.hamsys import (
    GradingUnavailableError,
    gamma_direction,
    is_homogeneous_potential,
    lie_derivative,
    load_system,
    make_system,
    tau,
    top_hamiltonian,
)
from hamdarboux.poly import MultiPoly, VarSet

from conftest import poly_of, rand_poly

VS = VarSet(2)


@pytest.fixture(scope="module")
def sys_m3_ext():
    # m = 3 over Q(i,sqrt3) with one zero mu_i
    return load_system(
        "m = 3\nfield = Q(i,sqrt3)\nmu = 2, 0, -1/3\n"
        "V = sqrt(3)*q1^3*q2 - i*q2^2*q3^2 + q1*q2*q3 + 2*q3^4\n"
    )


def test_make_system_basics(sys_s1):
    assert sys_s1.m == 2
    assert sys_s1.r == 4
    assert poly_of(sys_s1, "1/2*p1^2 + 1/2*p2^2 + q1^4") == sys_s1.H
    assert [str(g) for g in sys_s1.grad_V] == ["4*q1^3", "0"]


def test_make_system_rejections():
    with pytest.raises(ValueError):
        make_system([1], MultiPoly.variable(VarSet(1), RATIONALS, 1))
    V = MultiPoly.zero(VS, RATIONALS)
    with pytest.raises(ValueError):
        make_system([1, 1], V)
    p_dep = MultiPoly.variable(VS, RATIONALS, 3)
    with pytest.raises(ValueError):
        make_system([1, 1], p_dep)


def test_low_degree_warns():
    V = MultiPoly.variable(VS, RATIONALS, 1) ** 2
    with pytest.warns(UserWarning):
        make_system([1, 1], V)


def test_canonical_equations(sys_s2, sys_m3_ext):
    # d_H q_i = mu_i p_i and d_H p_i = -dV/dq_i; with Leibniz and linearity
    # (test_leibniz_random) these fix the derivation
    for system in (sys_s2, sys_m3_ext):
        for i in range(1, system.m + 1):
            qi = poly_of(system, f"q{i}")
            pi = poly_of(system, f"p{i}")
            assert lie_derivative(system, qi) == pi.scale(system.mu[i - 1])
            assert lie_derivative(system, pi) == -system.V.diff(i)


def test_hamiltonian_is_conserved(sys_s1, sys_s2, sys_s4, sys_s5):
    for system in (sys_s1, sys_s2, sys_s4, sys_s5):
        assert lie_derivative(system, system.H).is_zero()


def test_leibniz_random(sys_s3, sys_m3_ext):
    rng = random.Random(31)
    for system in (sys_s3, sys_m3_ext):
        for _ in range(300):
            F = rand_poly(rng, system.varset, system.field)
            G = rand_poly(rng, system.varset, system.field)
            lhs = lie_derivative(system, F * G)
            rhs = lie_derivative(system, F) * G + F * lie_derivative(system, G)
            assert lhs == rhs
            assert lie_derivative(system, F - G) == lie_derivative(system, F) - lie_derivative(system, G)


def test_tau_involution_and_anticommutation(sys_s2):
    rng = random.Random(17)
    for _ in range(300):
        F = rand_poly(rng, VS, sys_s2.field)
        assert tau(tau(F)) == F
        assert tau(F * F) == tau(F) * tau(F)
        # momentum reversal reverses time: tau o d_H = -d_H o tau
        assert tau(lie_derivative(sys_s2, F)) == -lie_derivative(sys_s2, tau(F))


def test_gamma_direction(sys_s1):
    assert gamma_direction(sys_s1) == (2, 2, 4, 4)
    with pytest.warns(UserWarning):
        low = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1\n")
    with pytest.raises(GradingUnavailableError):
        gamma_direction(low)


def test_graded_derivation_on_homogeneous_potential(sys_s1, sys_s2):
    # for homogeneous V the derivation shifts gamma-degree by exactly r - 2
    rng = random.Random(53)
    for system in (sys_s1, sys_s2):
        direction = gamma_direction(system)
        shift = system.r - 2
        for _ in range(150):
            F = rand_poly(rng, VS, system.field)
            for s, comp in F.gamma_decompose(direction):
                image = lie_derivative(system, comp)
                if not image.is_zero():
                    assert [d for d, _ in image.gamma_decompose(direction)] == [s + shift]


def test_top_component_law():
    # d-top of a non-homogeneous system agrees with the system of the top potential
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^2 + q2^4\n")
    top = top_hamiltonian(system)
    assert is_homogeneous_potential(top)
    assert str(top.V) == "q2^4"
    rng = random.Random(71)
    direction = gamma_direction(system)
    shift = system.r - 2
    for _ in range(100):
        F = rand_poly(rng, VS, system.field, nonzero=True)
        Ftop = F.gamma_decompose(direction)[-1][1]
        lhs = lie_derivative(top, Ftop)
        full = lie_derivative(system, F)
        if lhs.is_zero():
            continue
        # the top gamma-component of d_H F is d_Htop applied to the top of F
        want = F.gamma_degree(direction) + shift
        comps = dict((s, c) for s, c in full.gamma_decompose(direction))
        assert comps.get(want, MultiPoly.zero(VS, system.field)) == lhs


def test_homogeneity_predicate(sys_s1, sys_s3, sys_s4):
    assert is_homogeneous_potential(sys_s1)
    assert not is_homogeneous_potential(sys_s3)
    assert is_homogeneous_potential(sys_s4)
