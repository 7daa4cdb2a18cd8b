import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hamdarboux.field import RATIONALS
from hamdarboux.hamsys import load_system, make_system
from hamdarboux.numcheck import (
    NotRealEvaluableError,
    _vector_field,
    drift,
    integrate_rk4,
)
from hamdarboux.poly import MultiPoly, VarSet

from conftest import evaluate_exact, evaluate_float, poly_of, rand_poly, random_small_system


def test_free_motion_trajectory():
    # with a decoupled flat direction, q2 moves linearly: q2(t) = q2 + p2 t
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^4\n")
    x0 = [0.1, 0.2, 0.3, 0.4]
    states = integrate_rk4(system, x0, 1e-3, 1.0)
    assert len(states) == 1000 + 1
    x_end = states[-1]
    assert math.isclose(x_end[1], 0.2 + 0.4 * 1.0, rel_tol=1e-10)
    assert math.isclose(x_end[3], 0.4, rel_tol=1e-12)


def test_evaluate_float(sys_s2):
    F = poly_of(sys_s2, "q1*p2 - q2*p1")
    state = np.array([1.0, 2.0, 3.0, 4.0])
    assert math.isclose(evaluate_float(F, state), 1 * 4 - 2 * 3)
    # the coefficient 1/3 rounded once, times 1.0
    assert evaluate_float(poly_of(sys_s2, "1/3*q1"), (1, 0, 0, 0)) == 1 / 3


def test_hamiltonian_drift_small(sys_s2, sys_s4):
    rng = random.Random(8)
    for system in (sys_s2, sys_s4):
        for _ in range(4):
            x0 = [rng.uniform(-1, 1) for _ in range(4)]
            assert drift(system, system.H, x0, 1e-3, 1.0) <= 1e-8


def test_non_integral_drifts(sys_s2):
    x0 = [0.3, -0.4, 0.5, 0.2]
    assert drift(sys_s2, poly_of(sys_s2, "p1"), x0, 1e-3, 1.0) > 1e-2


def test_order_of_convergence(sys_s2):
    # RK4 halving the step shrinks the drift by roughly 2^4; demand >= 8x
    x0 = [0.4, 0.3, -0.2, 0.5]
    coarse = drift(sys_s2, sys_s2.H, x0, 2e-2, 1.0)
    fine = drift(sys_s2, sys_s2.H, x0, 1e-2, 1.0)
    assert coarse / fine >= 8.0


def test_non_real_coefficients_rejected(sys_s3):
    F = poly_of(sys_s3, "i*p2 + sqrt(2)*q2^2")
    with pytest.raises(NotRealEvaluableError):
        drift(sys_s3, F, [0.1, 0.2, 0.3, 0.4], 1e-3, 0.1)
    # real coefficients in the extension field are fine
    G = poly_of(sys_s3, "p2^2 + sqrt(2)*q2^4")
    evaluate_float(G, np.array([1.0, 1.0, 1.0, 1.0]))


def test_argument_validation(sys_s2):
    with pytest.raises(ValueError):
        integrate_rk4(sys_s2, [0.0] * 4, -1e-3, 1.0)
    with pytest.raises(ValueError):
        integrate_rk4(sys_s2, [0.0] * 4, 1e-3, 0.0)
    # a short, long, nested or batch state is one ValueError from each of
    # the two functions, never the generated code's TypeError; ["0"] * 4
    # stands for a (4, 1) column on numpy before 2.4, whose length-1 rows
    # float() converts as a string of one digit is converted
    p1 = poly_of(sys_s2, "p1")
    wrong = [[0.0] * 3, [1, 2, 3], [0.0] * 5, [[0.0] * 4], [[0.0] * 4] * 3, [[0.0]] * 4, ["0"] * 4]
    for x0 in wrong + [np.zeros((3, 4)), np.zeros((4, 1)), 0.0]:
        for call in (
            lambda: drift(sys_s2, p1, x0, 1e-3, 1.0),
            lambda: integrate_rk4(sys_s2, x0, 1e-3, 1.0),
        ):
            with pytest.raises(ValueError, match="^a state must have 4 coordinates$"):
                call()
    for h, T in [(math.inf, 1.0), (math.nan, 1.0), (1e-3, math.inf), (1e-3, math.nan), (math.inf, math.inf)]:
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_rk4(sys_s2, [0.0] * 4, h, T)
        with pytest.raises(ValueError, match="positive and finite"):
            drift(sys_s2, poly_of(sys_s2, "p1"), [0.0] * 4, h, T)
    # finite h and T whose ratio overflows
    with pytest.raises(ValueError, match="too many steps"):
        integrate_rk4(sys_s2, [0.0] * 4, 1e-320, 1.0)


def test_vector_field_matches_exact(sys_s3):
    # the compiled (mu p, -grad V) at rational states against the field's
    # exact values converted to float
    rng = random.Random(31)
    custom = load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 2, -1/3\nV = sqrt(2)*q1^3*q2 - 5/2*q2^4 + q1\n")
    systems = [sys_s3, custom] + [random_small_system(rng, m=m) for m in (2, 3, 3)]
    for system in systems:
        m = system.m
        vector_field = _vector_field(system)
        for _ in range(8):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2 * m)]
            exact_point = [system.field.from_rational(x) for x in point]
            exact = [system.mu[i] * exact_point[m + i] for i in range(m)]
            exact += [-evaluate_exact(g, exact_point) for g in system.grad_V]
            got = vector_field(*[float(x) for x in point])
            for value, want in zip(got, exact):
                assert math.isclose(value, want.to_float(), rel_tol=1e-12, abs_tol=1e-12)


def test_non_real_potential_rejected():
    # a real F does not make a non-real vector field evaluable
    system = load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = i*q1^4 + q2^2\n")
    with pytest.raises(NotRealEvaluableError):
        _vector_field(system)
    with pytest.raises(NotRealEvaluableError):
        drift(system, poly_of(system, "p2"), [0.1, 0.2, 0.3, 0.4], 1e-3, 0.1)


def test_horizon_must_be_whole_steps(sys_s2):
    x0 = [0.1, 0.2, 0.3, 0.4]
    # h = 0.3 would take no step towards T = 0.1 and stop short of T = 1.0
    for h, T in [(0.3, 0.1), (0.3, 1.0), (1e-3, 1.0005)]:
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate_rk4(sys_s2, x0, h, T)
        with pytest.raises(ValueError, match="whole number of steps"):
            drift(sys_s2, poly_of(sys_s2, "p1"), x0, h, T)
    # 0.3 / 0.1 is 2.9999999999999996 in floats: three steps, ending at T
    assert len(integrate_rk4(sys_s2, x0, 0.1, 0.3)) == 3 + 1


def test_constant_outputs_keep_the_batch_shape():
    # dV/dq2 = 0 for V = q1^4 and dV/dq1 = 1 for V = q1 + q2^2 come out as
    # their constant float values at one state, and F = 1 drifts by exactly 0
    state = [0.1, 0.5, 0.0, 1.0]
    for text, pdot in [("q1^4", (-4 * 0.1**3, 0.0)), ("q1 + q2^2", (-1.0, -2 * 0.5))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deg V = 2 is fine for numerics
            system = load_system(f"m = 2\nfield = Q\nmu = 1, 1\nV = {text}\n")
        got = _vector_field(system)(*state)
        assert all(type(value) is float for value in got)
        assert got[2:] == pdot
        assert drift(system, poly_of(system, "1"), state, 1e-2, 0.5) == 0.0


def test_gradient_longer_than_one_expression_allows():
    # a dense degree-28 potential in q1, q2, q3 has 4,059 terms in each
    # gradient component; a sum of over 3,000 terms written as one expression
    # exceeds the compiler's recursion limit
    terms = {
        e + (0, 0, 0): RATIONALS.from_rational(Fraction(1, sum(e)))
        for e in itertools.product(range(29), repeat=3)
        if 2 <= sum(e) <= 28
    }
    system = make_system([1, 1, 1], MultiPoly(VarSet(3), RATIONALS, terms))
    assert all(len(g.sorted_terms()) > 3000 for g in system.grad_V)
    x0 = [0.1, -0.2, 0.1, 0.3, 0.0, -0.1]
    states = integrate_rk4(system, x0, 1e-3, 2e-3)
    assert len(states) == 3 and all(math.isfinite(v) for state in states for v in state)
    assert drift(system, system.H, x0, 1e-3, 2e-3) <= 1e-12


def trajectory_drift(system, F, x0, h, T):
    """The drift's definition over a stored trajectory: numpy's maximum of
    |F - F0| / max(1, |F0|) over the states `integrate_rk4` returns."""
    values = np.array([evaluate_float(F, state) for state in integrate_rk4(system, x0, h, T)])
    return float(np.max(np.abs(values[1:] - values[0]) / np.maximum(1.0, np.abs(values[0]))))


def test_single_drift_equals_the_trajectory_maximum(sys_s1, sys_s2, sys_s3, sys_s4):
    # one state's drift folds F into the generated RK4 loop without storing
    # the trajectory; it is the same float as the maximum over the stepper's
    # states. F set to each coordinate in turn compares every coordinate of
    # the two, where a bound on the drift would not notice a reordering of the
    # float operations. V = q1 + q2^2 has a constant gradient component, the
    # custom system and sys_s4 have more coefficients than coordinates
    rng = random.Random(2024)
    cases = [
        (sys_s1, poly_of(sys_s1, "p2")),
        (sys_s2, poly_of(sys_s2, "q1*p2 - q2*p1")),
        (sys_s3, poly_of(sys_s3, "p2^2 + 2*q2^4")),
        (sys_s4, poly_of(sys_s4, "p2*(p1*q2 - p2*q1) + q2^2*(2*q1^3 + q1*q2^2)*1/3")),
        (sys_s2, poly_of(sys_s2, "p1")),
    ]
    for m in (2, 3):
        system = random_small_system(rng, m=m)
        cases += [(system, system.H), (system, rand_poly(rng, system.varset, RATIONALS, nonzero=True))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deg V = 2 is fine for numerics
        linear = load_system("m = 2\nfield = Q\nmu = 0, 1\nV = q1 + q2^2\n")
    custom = load_system("m = 2\nfield = Q\nmu = 2, -1/3\nV = q1^4 - 5/2*q1^2*q2^2 + 1/7*q2^3*q1 + q2^4 - q1^3\n")
    randoms = [random_small_system(rng, m=3) for _ in range(3)]
    assert any(0 in system.mu for system in randoms)
    for system in [linear, custom] + randoms:
        cases += [(system, MultiPoly.variable(system.varset, system.field, i)) for i in range(1, 2 * system.m + 1)]
        states = integrate_rk4(system, [rng.uniform(-0.5, 0.5) for _ in range(2 * system.m)], 1e-2, 0.2)
        assert len(states) == 20 + 1
    for system, F in cases:
        # starts in [-2, 2] give |F(x0)| > 1, so the ratios are divided by
        # a scale other than 1
        for bound in (1.0, 1.0, 2.0):
            x0 = [rng.uniform(-bound, bound) for _ in range(2 * system.m)]
            for h, T in [(1e-3, 0.2), (0.05, 1.0)]:
                want = trajectory_drift(system, F, x0, h, T)
                got = drift(system, F, x0, h, T)
                assert type(got) is float
                assert got == want or (math.isnan(got) and math.isnan(want))


def test_drift_never_serves_another_pairs_loop(sys_s1, sys_s2):
    # drift keeps the loop of the last (system, F) it compiled; alternating
    # F on one system, and the system under one F, must recompile each time
    x0 = [0.3, -0.4, 0.5, 0.2]
    s2_H, s2_p1, s1_p1 = (sys_s2, sys_s2.H), (sys_s2, poly_of(sys_s2, "p1")), (sys_s1, poly_of(sys_s1, "p1"))
    want = {pair: trajectory_drift(*pair, x0, 1e-2, 0.5) for pair in (s2_H, s2_p1, s1_p1)}
    assert len(set(want.values())) == 3
    for pair in (s2_H, s2_p1, s2_H, s1_p1, s2_p1, s1_p1, s1_p1, s2_H):
        assert drift(*pair, x0, 1e-2, 0.5) == want[pair]


def test_non_finite_drift_alone_and_in_a_batch():
    # from (3, 0.1, 0, 0.2) the force 6*q1^5 of V = -q1^6 + q2^4 sends q1 and
    # p1 to inf within T = 1: H turns inf - inf = NaN and p1 turns inf, in
    # the drift and over the stored trajectory; the finite steps before them
    # do not hide them
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = -q1^6 + q2^4\n")
    x0 = [3.0, 0.1, 0.0, 0.2]
    for F, non_finite in [(system.H, math.isnan), (poly_of(system, "p1"), math.isinf)]:
        assert non_finite(drift(system, F, x0, 0.1, 1.0))
        assert non_finite(trajectory_drift(system, F, x0, 0.1, 1.0))
    # a start of NaN is NaN throughout; an infinite start scales by
    # |F(x0)| = inf, and inf - inf is NaN
    for start in ([math.nan, 0.1, 0.0, 0.2], [math.inf, 0.1, 0.0, 0.2]):
        assert math.isnan(drift(system, system.H, start, 0.1, 1.0))
