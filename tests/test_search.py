import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.factortools import dup_factor_list

from hamdarboux.darboux import InternalInvariantError, certificate_holds
from hamdarboux.field import RATIONALS, FieldKind, quad_gauss
from hamdarboux.hamsys import gamma_direction, load_system, tau
from hamdarboux.parsing import format_poly
from hamdarboux.poly import MultiPoly, VarSet
from hamdarboux.search import (
    BranchCapExceededError,
    _IntPoly,
    roots_in_field,
    search_darboux,
    sqrt_in_field,
)

from conftest import check_residuals_against_leaves, fe_to_sympy, poly_of, rand_element, rand_fraction, sympy_to_fe

Q2 = quad_gauss(2)


def test_roots_in_field_rational():
    # (x - 2)(x + 3) over Q
    roots, residuals = roots_in_field(
        [RATIONALS.from_rational(-6), RATIONALS.from_rational(1), RATIONALS.one()],
        RATIONALS,
    )
    assert sorted(str(r) for r in roots) == ["-3", "2"]
    assert residuals == []
    # x^2 + 8 has no rational roots
    roots, residuals = roots_in_field(
        [RATIONALS.from_rational(8), RATIONALS.zero(), RATIONALS.one()], RATIONALS
    )
    assert roots == []
    assert len(residuals) == 1
    assert [str(c) for c in residuals[0]] == ["8", "0", "1"]


def test_roots_in_field_extension():
    # x^2 + 8 = (x - 2 i sqrt2)(x + 2 i sqrt2) over Q(i, sqrt2)
    roots, residuals = roots_in_field(
        [Q2.from_rational(8), Q2.zero(), Q2.one()], Q2
    )
    assert residuals == []
    assert sorted(str(r) for r in roots) == ["-2*i*sqrt(2)", "2*i*sqrt(2)"]
    # x^2 - 3 stays irreducible over Q(i, sqrt2)
    roots, residuals = roots_in_field(
        [Q2.from_rational(-3), Q2.zero(), Q2.one()], Q2
    )
    assert roots == []
    assert len(residuals) == 1


def test_roots_of_cubic_and_quartic():
    # degree > 2 constraints are handled, not just the quadratic case
    # (x - 1)(x^2 + 1) over Q and over Q(i, sqrt2)
    coeffs_q = [RATIONALS.from_rational(c) for c in (-1, 1, -1, 1)]
    roots, residuals = roots_in_field(coeffs_q, RATIONALS)
    assert [str(r) for r in roots] == ["1"]
    assert len(residuals) == 1
    coeffs_e = [Q2.from_rational(c) for c in (-1, 1, -1, 1)]
    roots, residuals = roots_in_field(coeffs_e, Q2)
    assert sorted(str(r) for r in roots) == ["-i", "1", "i"]
    assert residuals == []


def test_sqrt_in_field():
    # the root with the smaller sort_key, as the factoring route returns it
    assert str(sqrt_in_field(Q2.from_rational(2))) == "-sqrt(2)"
    assert str(sqrt_in_field(Q2.from_rational(-1))) == "-i"
    assert str(sqrt_in_field(RATIONALS.from_rational(4))) == "-2"
    assert str(sqrt_in_field(Q2.element(3, 0, 2, 0))) == "-1 - sqrt(2)"
    assert str(sqrt_in_field(Q2.element(0, 2, 0, 0))) == "-1 - i"
    assert sqrt_in_field(Q2.from_rational(3)) is None
    assert sqrt_in_field(RATIONALS.from_rational(-1)) is None
    assert sqrt_in_field(Q2.zero()) == Q2.zero()


def _sparse_element(rng, spec):
    """A random element with each component zeroed with probability 1/2, so
    the real subfield Q(sqrt d) and the rationals inside it come up often."""
    x = rand_element(rng, spec)
    if spec is RATIONALS:
        return x
    return spec.element(*(c if rng.random() < 0.5 else 0 for c in x.components()))


@functools.cache
def _oracle_domain(spec):
    """sympy's own domain of the field, built apart from the library's,
    and the basis {1, i, sqrt(d), i*sqrt(d)} in it: QQ, or QQ<2i + sqrt(d)>
    with i and sqrt(d) embedded by sympy."""
    if spec is RATIONALS:
        return sp.QQ, (sp.QQ.one,)
    K = sp.QQ.algebraic_field(2 * sp.I + sp.sqrt(spec.d))
    i, s = K.from_sympy(sp.I), K.from_sympy(sp.sqrt(spec.d))
    return K, (K.one, i, s, i * s)


def _oracle_element(x, spec):
    """x as an element of `_oracle_domain(spec)`, summed on its basis."""
    K, basis = _oracle_domain(spec)
    return sum((K.from_sympy(sp.Rational(t)) * b for t, b in zip(x.components(), basis)), K.zero)


def _factor_by_sympy(coeffs, spec):
    """Oracle: sorted distinct in-field roots and monic residual factors of
    sum coeffs[k] x^k, from sympy's dense factorisation over the field."""
    K, _ = _oracle_domain(spec)
    dense = [_oracle_element(c, spec) for c in reversed(coeffs)]
    _, factors = dup_factor_list(dense, K)
    roots, residuals = set(), []
    for fac, _ in factors:
        monic = [sympy_to_fe(K.to_sympy(K.quo(c, fac[0])), spec) for c in reversed(fac)]
        if len(fac) == 2:
            roots.add(-monic[0])
        elif len(fac) > 2:
            residuals.append(monic)
    return sorted(roots, key=lambda z: z.sort_key()), residuals


FIELDS = pytest.mark.parametrize(
    "spec",
    [RATIONALS, quad_gauss(2), quad_gauss(3), quad_gauss(6)],
    ids=["Q", "sqrt2", "sqrt3", "sqrt6"],
)


@FIELDS
def test_sqrt_in_field_matches_factoring(spec):
    # oracle: the smaller root of x^2 - x factored over the field by sympy
    rng = random.Random(31)
    multipliers = [spec.from_rational(k) for k in (-1, 2, 3, 5)]
    if spec is not RATIONALS:
        multipliers += [spec.i(), spec.sqrt_d(), spec.element(1, 1)]
    squares = tested = 0
    for k in range(75):
        y = _sparse_element(rng, spec)
        x = (y * y, y * y * rng.choice(multipliers), _sparse_element(rng, spec))[k % 3]
        if x.is_zero():
            continue
        roots, _ = _factor_by_sympy([-x, spec.zero(), spec.one()], spec)
        got = sqrt_in_field(x)
        assert got == (roots[0] if roots else None), str(x)
        squares += got is not None
        tested += 1
    assert squares >= 20 and tested - squares >= 20, (squares, tested)


def _nonzero_element(rng, spec):
    x = _sparse_element(rng, spec)
    return spec.one() if x.is_zero() else x


def _times(a, b):
    out = [a[0].spec.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@FIELDS
def test_closed_form_roots_match_factoring(spec):
    # c * x^k * (linear | double root | split quadratic | irreducible
    # quadratic): the closed-form path against sympy factoring of the whole
    # polynomial, roots in order and monic residual factors alike
    rng = random.Random(47)
    one = spec.one()
    shapes = {"linear": 0, "double": 0, "split": 0, "irreducible": 0}
    for n in range(20):
        shape = list(shapes)[n % 4]
        r1, r2 = _sparse_element(rng, spec), _sparse_element(rng, spec)
        if shape == "linear":
            rest = [r1, _nonzero_element(rng, spec)]
        elif shape == "double":
            rest = _times([-r1, one], [-r1, one])
        elif shape == "split":
            rest = _times([-r1, one], [-r2, one])
        else:  # (x - r1)^2 - r2, kept only when sympy finds it irreducible
            rest = _times([-r1, one], [-r1, one])
            rest[0] = rest[0] - r2
        c = _nonzero_element(rng, spec)
        k = rng.randrange(3)
        coeffs = [spec.zero()] * k + [c * a for a in rest]
        expected = _factor_by_sympy(coeffs, spec)
        if shape == "irreducible" and not expected[1]:
            continue
        roots, residuals = roots_in_field(coeffs, spec)
        assert (roots, residuals) == expected, [str(a) for a in coeffs]
        shapes[shape] += 1
    assert min(shapes.values()) >= 4, shapes


def test_low_degree_searches_load_no_sympy():
    # every constraint these searches meet has degree <= 2 once its x^k
    # content is removed, so no factoring library is needed
    script = """
import sys
from hamdarboux.hamsys import load_system
from hamdarboux.search import search_darboux
from hamdarboux.structure import check_theorem1

quartic = load_system("m = 2\\nfield = Q(i,sqrt2)\\nmu = 1, 1\\nV = q1^4\\n")
assert len(search_darboux(quartic, 4).certificates) == 3
cubic = load_system("m = 2\\nfield = Q\\nmu = 1, 1\\nV = q1^3 + q2^3\\n")
print(check_theorem1(cubic, 6).verdict.value)
print("sympy" in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["consistent-with-theorem", "False"]


def _rational(spec, *coeffs):
    return [spec.from_rational(c) for c in coeffs]


def _q_first_factor(rng, spec, shape):
    """A rational factor, lowest degree first, of the given shape."""
    d = spec.d or 2
    if shape == "linear":
        return _rational(spec, rand_fraction(rng), 1)
    if shape in ("split", "irreducible"):  # (x - a)^2 - r
        a, t = rand_fraction(rng), Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if shape == "irreducible":
            lines = (-1, 5, -5) if spec is RATIONALS else (5, -5)
        else:
            lines = (1,) if spec is RATIONALS else (1, -1, d, -d)
        r = rng.choice(lines) * t * t
        return _rational(spec, a * a - r, -2 * a, 1)
    if shape == "quartic":  # Q-irreducible; x^4 + 1 splits over Q(i, sqrt 2) alone
        return rng.choice(
            (_rational(spec, (d + 1) ** 2, 0, -2 * (d - 1), 0, 1), _rational(spec, 1, 0, 0, 0, 1))
        )
    # Q-irreducible and split over none of the fields
    return rng.choice((_rational(spec, -2, 0, 0, 1), _rational(spec, -2, 0, 0, 0, 1)))


def _in_order(factors):
    return sorted(tuple(c.sort_key() for c in f) for f in factors)


@FIELDS
def test_rational_constraints_factored_over_q_match_factoring(spec, monkeypatch):
    # c * x^k * (a product of rational linear factors, quadratics split and
    # irreducible over the field, the Q-irreducible quartics x^4 + 1 and the
    # minimal polynomial of i + sqrt d, and x^3 - 2 or x^4 - 2), total
    # degree 3-10 with a remainder of degree >= 3: the Q-first path against
    # sympy factoring of each piece alone over the field (the distinct
    # irreducible factors of a product are those of its pieces, and x^k adds
    # the root 0); only Q-irreducible factors of degree >= 3 reach the
    # extension factoring
    import hamdarboux.field as field_module

    climbed = []
    factor_over_extension = field_module._factor_over_extension

    def recorded(coeffs, field):
        climbed.append(coeffs)
        return factor_over_extension(coeffs, field)

    monkeypatch.setattr(field_module, "_factor_over_extension", recorded)
    rng = random.Random(53)
    shapes = dict.fromkeys(["linear", "split", "irreducible", "quartic", "unsplit"], 0)
    for _ in range(24):
        k = rng.randrange(3)
        rest, used = [spec.one()], set()
        expected_roots, expected_residuals = {spec.zero()} if k else set(), set()
        while len(rest) - 1 < 3 or (len(rest) - 1 < 10 - k and rng.random() < 0.5):
            shape = rng.choice(list(shapes))
            fac = _q_first_factor(rng, spec, shape)
            if len(rest) + len(fac) - 2 > 10 - k:
                continue
            piece_roots, piece_residuals = _factor_by_sympy(fac, spec)
            if shape in ("split", "irreducible"):
                assert bool(piece_roots) == (shape == "split")
            expected_roots.update(piece_roots)
            expected_residuals.update(_in_order(piece_residuals))
            rest = _times(rest, fac)
            used.add(shape)
        c = spec.from_rational(rand_fraction(rng) or 1)
        coeffs = [spec.zero()] * k + [c * a for a in rest]
        roots, residuals = roots_in_field(coeffs, spec)
        assert roots == sorted(expected_roots, key=lambda z: z.sort_key()), [str(a) for a in coeffs]
        # factors over Q come in another order than over the field
        assert _in_order(residuals) == sorted(expected_residuals), [str(a) for a in coeffs]
        for shape in used:
            shapes[shape] += 1
    assert min(shapes.values()) >= 4, shapes
    x = sp.Symbol("x")
    for coeffs in climbed:
        assert spec is not RATIONALS and len(coeffs) > 3
        assert all(c.is_rational() for c in coeffs)
        _, factors = sp.factor_list(sp.Add(*(fe_to_sympy(c) * x**k for k, c in enumerate(coeffs))), x)
        assert [m for _, m in factors] == [1], [str(c) for c in coeffs]
    assert bool(climbed) == (spec is not RATIONALS)


def test_rational_constraints_skip_extension_factoring(monkeypatch):
    # this degree-8 search on Q(i, sqrt2) meets a rational constraint of
    # degree >= 3, which splits over Q into factors of degree <= 2
    import hamdarboux.field as field_module
    import hamdarboux.search as search_module

    calls = {"over_q": 0, "extension": 0}
    for module, name, key in (
        (search_module, "factor_in_field", "over_q"),
        (field_module, "_factor_over_extension", "extension"),
    ):
        def counted(*args, _fn=getattr(module, name), _key=key):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    search_darboux(load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^2 + 2*q2^2 + q2^4\n"), 8)
    assert calls["over_q"] > 0 and calls["extension"] == 0, calls


def _irrational_element(rng, spec):
    while True:
        x = _sparse_element(rng, spec)
        if not x.is_rational():
            return x


def _extension_factor(rng, spec, shape):
    """A factor with irrational coefficients, lowest degree first: x - a,
    (x - a)^2 - y^2, (x - a)^2 - y or (x - a)^3 - 2, a cubic irreducible
    over Q(i, sqrt d) because x^3 - 2 has no root there."""
    one = spec.one()
    a = _irrational_element(rng, spec)
    if shape == "linear":
        return [-a, one]
    fac = _times([-a, one], [-a, one])
    if shape == "cubic":
        fac = _times(fac, [-a, one])
        fac[0] = fac[0] - spec.from_rational(2)
        return fac
    y = _irrational_element(rng, spec)
    fac[0] = fac[0] - (y * y if shape == "split" else y)
    return fac


@pytest.mark.parametrize("d", [2, 3, 6])
def test_irrational_constraints_read_like_factoring(d, monkeypatch):
    # c * x^k * (irrational linear factors, quadratics split and irreducible
    # over the field, and an irreducible cubic), total degree 3-8: each
    # remainder reaches the extension factoring with irrational coefficients,
    # and its factors are read into roots and residuals in field arithmetic;
    # against sympy factoring of the whole polynomial over the field
    import hamdarboux.field as field_module

    climbed = []
    factor_over_extension = field_module._factor_over_extension

    def recorded(coeffs, field):
        climbed.append(coeffs)
        return factor_over_extension(coeffs, field)

    monkeypatch.setattr(field_module, "_factor_over_extension", recorded)
    spec = quad_gauss(d)
    rng = random.Random(61)
    shapes = dict.fromkeys(["cubic", "irreducible", "linear", "split"], 0)
    for n in range(6):
        k = rng.randrange(3)
        rest, used = [spec.one()], set()
        shape = list(shapes)[n % 4]
        while len(rest) - 1 < 3 or (len(rest) - 1 < 8 - k and rng.random() < 0.5):
            fac = _extension_factor(rng, spec, shape)
            fits = len(rest) + len(fac) - 2 <= 8 - k
            if fits and shape in ("split", "irreducible"):
                fits = bool(_factor_by_sympy(fac, spec)[0]) == (shape == "split")
            if fits:
                rest = _times(rest, fac)
                used.add(shape)
            shape = rng.choice(list(shapes))
        c = _nonzero_element(rng, spec)
        coeffs = [spec.zero()] * k + [c * a for a in rest]
        calls = len(climbed)
        roots, residuals = roots_in_field(coeffs, spec)
        assert len(climbed) == calls + 1
        assert not all(a.is_rational() for a in climbed[-1])
        expected_roots, expected_residuals = _factor_by_sympy(coeffs, spec)
        assert roots == expected_roots, [str(a) for a in coeffs]
        assert _in_order(residuals) == _in_order(expected_residuals), [str(a) for a in coeffs]
        for shape in used:
            shapes[shape] += 1
    assert min(shapes.values()) >= 2, shapes


@pytest.mark.parametrize("d", [2, 3, 6])
def test_rational_radicands_match_factoring(d):
    # the tower's square roots of rational radicands, whose roots lie on Q,
    # Q*i, Q*sqrt d or Q*i*sqrt d, and of non-squares, against sympy
    # factoring of x^2 - r over the field
    spec = quad_gauss(d)
    rng = random.Random(59 + d)
    lines = {1: 0, -1: 0, d: 0, -d: 0, None: 0}
    for n in range(60):
        line = list(lines)[n % 5]
        t = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        if line is None:
            r = rng.choice((1, -1)) * rng.choice([p for p in (2, 3, 5, 7, 10, 15) if p != d]) * t * t
        else:
            r = line * t * t
        x = spec.from_rational(r)
        roots, _ = _factor_by_sympy([-x, spec.zero(), spec.one()], spec)
        got = sqrt_in_field(x)
        assert got == (roots[0] if roots else None), str(x)
        lines[None if got is None else line] += 1
    assert min(lines.values()) >= 10, lines


def test_search_v_q1_4_over_extension(sys_s1_ext):
    report = search_darboux(sys_s1_ext, 4)
    found = {(format_poly(c.F), format_poly(c.Lambda)) for c in report.certificates}
    assert found == {
        ("p2", "0"),
        ("p1 + i*sqrt(2)*q1^2", "2*i*sqrt(2)*q1"),
        ("p1 - i*sqrt(2)*q1^2", "-2*i*sqrt(2)*q1"),
    }
    assert report.residual_conditions == ()
    for cert in report.certificates:
        assert certificate_holds(sys_s1_ext, cert)


def test_search_v_q1_4_over_rationals(sys_s1):
    report = search_darboux(sys_s1, 4)
    found = {(format_poly(c.F), format_poly(c.Lambda)) for c in report.certificates}
    assert found == {("p2", "0")}
    assert report.residual_conditions == ("l1^2 + 8",)


def test_search_homogeneous_slice_matches(sys_s1_ext):
    report = search_darboux(sys_s1_ext, 4, homogeneous_only=True)
    found = {format_poly(c.F) for c in report.certificates}
    assert found == {"p2", "p1 + i*sqrt(2)*q1^2", "p1 - i*sqrt(2)*q1^2"}


def test_search_finds_angular_momentum(sys_s2):
    report = search_darboux(sys_s2, 6)
    found = {format_poly(c.F) for c in report.certificates}
    assert "-q2*p1 + q1*p2" in found or "q2*p1 - q1*p2" in found
    for cert in report.certificates:
        assert certificate_holds(sys_s2, cert)


def test_search_against_sympy_brute_force(sys_s1_ext):
    # independent oracle: solve L_H F = Lambda F for the full gamma-degree-4
    # ansatz with sympy over Q(i, sqrt2), then compare monic solution sets
    q1, q2, p1, p2, lam1, lam2 = sp.symbols("q1 q2 p1 p2 lam1 lam2")
    s2 = sp.sqrt(2)
    fs = sp.symbols("f0:8")
    monos = [p1, p2, q1**2, q1 * q2, q2**2, q1, q2, sp.Integer(1)]
    F = sum(f * mono for f, mono in zip(fs, monos))
    lam = lam1 * q1 + lam2 * q2
    LF = (
        p1 * sp.diff(F, q1)
        + p2 * sp.diff(F, q2)
        - 4 * q1**3 * sp.diff(F, p1)
    )
    eqs = sp.Poly(sp.expand(LF - lam * F), q1, q2, p1, p2).coeffs()
    sols = sp.solve(eqs, list(fs) + [lam1, lam2], dict=True)
    oracle = set()
    for sol in sols:
        Fsol = sp.expand(F.subs(sol))
        free = sorted(Fsol.free_symbols & set(fs), key=str)
        # enumerate one representative per free coefficient direction
        trials = []
        if not free:
            trials.append(Fsol)
        else:
            for g in free:
                trials.append(Fsol.subs([(g, 1)] + [(h, 0) for h in free if h != g]))
        for cand in trials:
            cand = sp.expand(cand.subs([(s, 0) for s in cand.free_symbols - {q1, q2, p1, p2, sp.I}]))
            if cand == 0 or cand.is_number:
                continue
            lead = sp.LC(sp.Poly(cand, p1, p2, q1, q2))
            oracle.add(sp.simplify(sp.expand(cand / lead)))
    report = search_darboux(sys_s1_ext, 4)
    got = set()
    for cert in report.certificates:
        expr = sp.sympify(
            format_poly(cert.F).replace("sqrt(2)", "s2").replace("i*", "I*").replace("^", "**"),
            locals={"q1": q1, "q2": q2, "p1": p1, "p2": p2, "s2": s2},
        )
        got.add(sp.simplify(sp.expand(expr)))
    for expr in got:
        assert any(sp.simplify(expr - o) == 0 for o in oracle), expr
    assert len(got) == 3


def test_branch_cap():
    with pytest.raises(BranchCapExceededError) as info:
        search_darboux(
            poly_system(), 8, branch_cap=2
        )
    assert info.value.partial.branches_explored >= 2


def poly_system():
    from hamdarboux.hamsys import load_system

    return load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^4 + q2^4\n")


def test_search_is_deterministic(sys_s1_ext):
    a = search_darboux(sys_s1_ext, 4)
    b = search_darboux(sys_s1_ext, 4)
    assert [format_poly(c.F) for c in a.certificates] == [
        format_poly(c.F) for c in b.certificates
    ]
    assert a.residual_conditions == b.residual_conditions


def test_random_certificates_verify():
    from hamdarboux.hamsys import load_system

    rng = random.Random(2024)
    for _ in range(6):
        c1 = rng.randint(1, 2)
        c2 = rng.randint(1, 2)
        system = load_system(
            f"m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = {c1}*q1^4 + {c2}*q2^4\n"
        )
        report = search_darboux(system, 4)
        # each axis contributes p_k +- sqrt(2 c_k) i q_k^2, all proper
        proper = [c for c in report.certificates if c.proper]
        assert len(proper) == 4, (c1, c2, [str(c.F) for c in report.certificates])
        for cert in report.certificates:
            assert certificate_holds(system, cert)


# Ordered reports of searches in which some leaf kernel has dimension >= 2,
# pinned so that the leaf's kernel routine can change without moving a single
# certificate: q1^3 + q2^3 runs the generic Bareiss path with no cofactor
# unknown, the next two systems the integer path with one unknown (the second
# of them with a residual), and q1^4 over Q(i, sqrt2) the generic path with
# two unknowns and forks, once more as 3*q1^4 over Q(i, sqrt6).  The quartics
# once left 13 pending residuals, each a monomial times a polynomial in l1:
# a lone lam-pivot was eliminated as a Bareiss step whose divisions failed.
# q1^3*q2 + q2^4 over Q(i, sqrt3) pins the text of multivariate residuals,
# pending constraints in l1 and l2 that reach leaves with a kernel.
PINNED_REPORTS = [
    pytest.param(
        "Q", "q1^3 + q2^3", 12, 1,
        [
            ("p2^2 + 2*q2^3", "0"),
            ("p2^4 + 4*q2^3*p2^2 + 4*q2^6", "0"),
            ("p1^2 + 2*q1^3", "0"),
            ("p1^2*p2^2 + 2*q2^3*p1^2 + 2*q1^3*p2^2 + 4*q1^3*q2^3", "0"),
            ("p1^4 + 4*q1^3*p1^2 + 4*q1^6", "0"),
        ],
        (),
        id="cubic-generic",
    ),
    pytest.param(
        "Q", "q1^3 - 2*q2^3 + q1^2 - q2", 10, 7,
        [
            ("p2^2 - 4*q2^3 - 2*q2", "0"),
            ("p1^2 + 2*q1^3 + 2*q1^2", "0"),
        ],
        (),
        id="cubic-integer-path",
    ),
    pytest.param(
        "Q", "2*q1^3 - 3*q1^2*q2 + 3*q1*q2^2 + 3*q1^2 + q1*q2 + 3*q2^2 - 3*q2", 10, 7,
        [
            ("p1^2 + p2^2 + 4*q1^3 - 6*q1^2*q2 + 6*q1^2 + 6*q1*q2^2 + 2*q1*q2 + 6*q2^2 - 6*q2", "0"),
        ],
        ("l1^2 + 6",),
        id="cubic-integer-path-residual",
    ),
    pytest.param(
        "Q(i,sqrt2)", "q1^4", 8, 61,
        [
            ("p2", "0"),
            ("p2^2", "0"),
            ("p1 - i*sqrt(2)*q1^2", "-2*i*sqrt(2)*q1"),
            ("p1 + i*sqrt(2)*q1^2", "2*i*sqrt(2)*q1"),
            ("p1*p2 - i*sqrt(2)*q1^2*p2", "-2*i*sqrt(2)*q1"),
            ("p1*p2 + i*sqrt(2)*q1^2*p2", "2*i*sqrt(2)*q1"),
            ("p1^2 + 2*q1^4", "0"),
            ("p1^2 - 2*i*sqrt(2)*q1^2*p1 - 2*q1^4", "-4*i*sqrt(2)*q1"),
            ("p1^2 + 2*i*sqrt(2)*q1^2*p1 - 2*q1^4", "4*i*sqrt(2)*q1"),
        ],
        (),
        id="quartic-extension",
    ),
    pytest.param(
        "Q(i,sqrt6)", "3*q1^4", 8, 61,
        [
            ("p2", "0"),
            ("p2^2", "0"),
            ("p1 - i*sqrt(6)*q1^2", "-2*i*sqrt(6)*q1"),
            ("p1 + i*sqrt(6)*q1^2", "2*i*sqrt(6)*q1"),
            ("p1*p2 - i*sqrt(6)*q1^2*p2", "-2*i*sqrt(6)*q1"),
            ("p1*p2 + i*sqrt(6)*q1^2*p2", "2*i*sqrt(6)*q1"),
            ("p1^2 + 6*q1^4", "0"),
            ("p1^2 - 2*i*sqrt(6)*q1^2*p1 - 6*q1^4", "-4*i*sqrt(6)*q1"),
            ("p1^2 + 2*i*sqrt(6)*q1^2*p1 - 6*q1^4", "4*i*sqrt(6)*q1"),
        ],
        (),
        id="quartic-extension-sqrt6",
    ),
    pytest.param(
        "Q(i,sqrt3)", "q1^3*q2 + q2^4", 8, 60,
        [
            ("p1^2 + p2^2 + 2*q1^3*q2 + 2*q2^4", "0"),
        ],
        (
            "-l1*l2 - 2",
            "-l1^6*l2 - 10*l1^3*l2^2 - 16*l1^3 - 24*l1^2*l2 + 8*l2^3 + 64*l2",
            "-l1^7 - 8*l1^4*l2 - 16*l1^3 + 24*l1*l2^2 - 32*l2",
            "5*l1^6*l2^2 + 48*l1^6 + 40*l1^3*l2^3 + 384*l1^3*l2 + 120*l1^2*l2^2 + 1152*l1^2",
            "l1^2*l2^2 + 8*l1^2",
            "l1^3 + 2*l2",
            "l1^3*l2 - 4*l2^2",
            "l1^5*l2^3 + 32*l1^5*l2 + 8*l1^2*l2^4 + 256*l1^2*l2^2 + 24*l1*l2^3 + 768*l1*l2",
            "l1^6 + 22*l1^3*l2 + 108*l1^2 + 4*l2^2",
            "l1^7*l2 - 6*l1^6 + 4*l1^4*l2^2 - 32*l1^4 - 48*l1^3*l2 + 64*l1*l2^3 - 144*l1^2 - 64*l1*l2 + 96*l2^2",
            "l1^8 + 10*l1^5*l2 + 24*l1^4 - 128*l1^2*l2^2 - 528*l1*l2",
        ),
        id="pending-residuals",
    ),
]


@pytest.mark.parametrize("field, V, degree, branches, certificates, residuals", PINNED_REPORTS)
def test_pinned_ordered_reports(field, V, degree, branches, certificates, residuals, leaf_log):
    from hamdarboux.hamsys import load_system

    system = load_system(f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n")
    report = search_darboux(system, degree)
    assert [(format_poly(c.F), format_poly(c.Lambda)) for c in report.certificates] == certificates
    assert report.residual_conditions == residuals
    assert report.branches_explored == branches
    check_residuals_against_leaves(report.residual_conditions, leaf_log)


def _in_span(target, basis, spec):
    """Whether target is a linear combination of the polynomials in basis,
    over their field: some vector of the reference kernel of the columns
    basis + [target], read monomial by monomial, uses the target."""
    columns = basis + [target]
    monomials = {e for P in columns for e in P.terms}
    rows = [{j: P.terms[e] for j, P in enumerate(columns) if e in P.terms} for e in monomials]
    return any(len(basis) in vec for vec in _forward_kernel(rows, len(columns), spec))


def _spans_by_cofactor(system, report):
    """The reported polynomials with a given cofactor, and 1 with cofactor 0."""
    by_cofactor = {}
    for cert in report.certificates:
        by_cofactor.setdefault(cert.Lambda, []).append(cert.F)
    one = MultiPoly.constant(system.varset, system.field, 1)
    return lambda Lambda: by_cofactor.get(Lambda, []) + ([one] if Lambda.is_zero() else [])


def _products_outside_span(system, report, bound):
    """Products F1*F2 of reported certificates within the gamma-degree bound
    that the report's polynomials with cofactor Lambda1 + Lambda2 do not
    span.  Each such product is a Darboux polynomial with that cofactor, so
    a complete report leaves none."""
    direction = gamma_direction(system)
    span = _spans_by_cofactor(system, report)
    certs = report.certificates
    return [
        (format_poly(a.F), format_poly(b.F))
        for i, a in enumerate(certs)
        for b in certs[i:]
        if a.F.gamma_degree(direction) + b.F.gamma_degree(direction) <= bound
        and not _in_span(a.F * b.F, span(a.Lambda + b.Lambda), system.field)
    ]


CLOSURE_SYSTEMS = [
    pytest.param("Q(i,sqrt2)", "q1^2 + q2^4", 8, id="anchor"),
    pytest.param("Q(i,sqrt2)", "q1^6 + q2^6", 12, id="sextic"),
] + [pytest.param(*param.values[:3], id=param.id) for param in PINNED_REPORTS]


@pytest.mark.parametrize("field, V, degree", CLOSURE_SYSTEMS)
def test_certificates_close_under_products_and_reversal(field, V, degree):
    # the anchor once missed the four cross products
    # (p1 +- i*sqrt2*q1)(p2 +- i*sqrt2*q2^2) of its own certificates.
    # L_H(tau F) = -tau(L_H F) and a cofactor depends on q alone, so F has
    # cofactor Lambda exactly when tau(F) has cofactor -Lambda
    system = load_system(f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n")
    report = search_darboux(system, degree)
    assert _products_outside_span(system, report, degree) == []
    span = _spans_by_cofactor(system, report)
    for cert in report.certificates:
        assert _in_span(tau(cert.F), span(-cert.Lambda), system.field), format_poly(cert.F)


def _kernel_dimension(system, Lambda, bound):
    """The dimension of the kernel of F -> L_H F - Lambda*F on the monomials
    of gamma-degree <= bound, from sympy's `DomainMatrix` rank over the
    field, with L_H taken by `_lie_derivative_by_diff`.  The matrix is built
    over the tests' own `_oracle_domain`, so the check shares no code with
    the library's basis change to sympy."""
    from sympy.polys.matrices import DomainMatrix

    gamma = gamma_direction(system)
    spec = system.field
    columns = []
    for alpha in itertools.product(*(range(bound // w + 1) for w in gamma)):
        if sum(a * w for a, w in zip(alpha, gamma)) <= bound:
            mono = MultiPoly(system.varset, spec, {alpha: spec.one()})
            columns.append(_lie_derivative_by_diff(system, mono) - Lambda * mono)
    K, _ = _oracle_domain(spec)
    rows = [
        [_oracle_element(P.terms[e], spec) if e in P.terms else K.zero for P in columns]
        for e in sorted({e for P in columns for e in P.terms})
    ]
    return len(columns) - DomainMatrix(rows, (len(rows), len(columns)), K).rank()


@pytest.mark.parametrize("field, V, degree", CLOSURE_SYSTEMS)
def test_kernel_dimension_at_each_cofactor_matches_the_report(field, V, degree):
    # a report lists, per cofactor, a basis of the Darboux polynomials with
    # it up to the degree bound, the constant left out: at each reported
    # cofactor, and at 0, the kernel has exactly that many dimensions, plus
    # the constant's at 0
    system = load_system(f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n")
    report = search_darboux(system, degree)
    counts = {MultiPoly.zero(system.varset, system.field): 0}
    for cert in report.certificates:
        counts[cert.Lambda] = counts.get(cert.Lambda, 0) + 1
    for Lambda, count in counts.items():
        expected = count + (1 if Lambda.is_zero() else 0)
        assert _kernel_dimension(system, Lambda, degree) == expected, format_poly(Lambda)


def test_constant_cofactor_needs_two_unknowns():
    # L_H(p1 + c*q1) = c*p1 - 4*q1 is c*(p1 + c*q1) exactly when c^2 = -4:
    # the cofactor +-2i takes l1 = 0 and l2 nonzero
    system = load_system("m = 2\nfield = Q(i,sqrt3)\nmu = 1, 1\nV = 2*q1^2 - 3*q2^4\n")
    report = search_darboux(system, 5)
    found = {(format_poly(c.F), format_poly(c.Lambda)) for c in report.certificates}
    assert {("p1 - 2*i*q1", "-2*i"), ("p1 + 2*i*q1", "2*i")} <= found
    for cert in report.certificates:
        assert certificate_holds(system, cert)


def test_sextic_search_finishes_under_the_default_cap(leaf_log):
    # once stopped by BranchCapExceededError; the pending constraints that
    # remain carry monomial content (see ROADMAP)
    system = load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^6 + q2^6\n")
    report = search_darboux(system, 12)
    assert len(report.certificates) == 14
    assert report.branches_explored == 194
    assert len(report.residual_conditions) == 42
    check_residuals_against_leaves(report.residual_conditions, leaf_log)
    for cert in report.certificates:
        assert certificate_holds(system, cert)


# the PINNED_REPORTS systems (the two non-homogeneous cubics build integer
# entries, the others MultiPolys) and an m = 3 cubic
ANSATZ_SYSTEMS = [
    pytest.param(
        "m = 2\nfield = {}\nmu = 1, 1\nV = {}\n".format(*param.values[:2]),
        param.values[2],
        id=param.id,
    )
    for param in PINNED_REPORTS
] + [
    pytest.param(
        "m = 3\nfield = Q(i,sqrt3)\nmu = 1, 0, 1/2\nV = q1^3 + q2^3 - 2*q3^3 + q1*q2*q3\n",
        9,
        id="m3-cubic",
    )
]


def _lie_derivative_by_diff(system, F):
    """L_H F = sum_i mu_i p_i dF/dq_i - dV/dq_i dF/dp_i from `MultiPoly.diff`
    and products: an oracle that shares no code with `lie_image`."""
    m, varset, spec = system.m, system.varset, system.field
    total = MultiPoly.zero(varset, spec)
    for i in range(1, m + 1):
        p_i = MultiPoly.variable(varset, spec, m + i)
        total = total + (p_i * F.diff(i)).scale(system.mu[i - 1]) - system.V.diff(i) * F.diff(m + i)
    return total


@pytest.mark.parametrize("definition, degree", ANSATZ_SYSTEMS)
def test_ansatz_columns_are_lie_derivative_images(definition, degree):
    # each ansatz column is L_H of its monomial, built by exponent arithmetic:
    # the same polynomial as the diff-and-product oracle and `lie_derivative`
    from hamdarboux.hamsys import gamma_direction, lie_derivative, lie_image
    from hamdarboux.search import _monomials_up_to_weight

    system = load_system(definition)
    gamma = gamma_direction(system)
    monomials = _monomials_up_to_weight(gamma, degree, exact=False)
    assert len(monomials) > 20
    for alpha in monomials:
        image = lie_image(system, alpha)
        assert all(not c.is_zero() for c in image.values())
        mono = MultiPoly(system.varset, system.field, {alpha: system.field.one()})
        oracle = _lie_derivative_by_diff(system, mono)
        assert MultiPoly(system.varset, system.field, image) == oracle == lie_derivative(system, mono)


@pytest.mark.parametrize(
    "definition, degree, homogeneous_only",
    [pytest.param(*param.values, False, id=param.id) for param in ANSATZ_SYSTEMS]
    + [pytest.param(*param.values, True, id=f"{param.id}-exact") for param in ANSATZ_SYSTEMS],
)
def test_ansatz_rows_are_the_darboux_relation(definition, degree, homogeneous_only):
    # row by row, in the canonical order of the phase-space monomials, the
    # ansatz is L_H(x^alpha) - Lambda*x^alpha read at each monomial, one
    # column per alpha, for the full ansatz and for the exact-weight slice:
    # the coefficient maps, and the entries built from them, as MultiPolys
    # or, on the integer form, as that row times the lcm of its
    # denominators, with each constant entry an int
    import math

    from hamdarboux.poly import monomial_key
    from hamdarboux.search import _ansatz, _choose_entry_form

    system = load_system(definition)
    spec = system.field
    f_monomials, lam_monomials, maps = _ansatz(system, degree, homogeneous_only)
    weights = {sum(g * a for g, a in zip(gamma_direction(system), alpha)) for alpha in f_monomials}
    assert (weights == {degree}) if homogeneous_only else (max(weights) <= degree)
    lam = VarSet.cofactor_unknowns(len(lam_monomials))
    built = list(maps)
    _choose_entry_form(built, lam, spec)
    relation: dict = {}
    for col, alpha in enumerate(f_monomials):
        image = _lie_derivative_by_diff(system, MultiPoly(system.varset, spec, {alpha: spec.one()}))
        for exps, coef in image.terms.items():
            relation.setdefault(exps, {})[col] = MultiPoly.constant(lam, spec, coef)
        for t, beta in enumerate(lam_monomials, 1):
            row = relation.setdefault(tuple(a + b for a, b in zip(alpha, beta)), {})
            row[col] = row.get(col, MultiPoly.zero(lam, spec)) - MultiPoly.variable(lam, spec, t)
    expected = [
        {col: p for col, p in relation[exps].items() if not p.is_zero()}
        for exps in sorted(relation, key=monomial_key(system.m), reverse=True)
    ]
    expected = [row for row in expected if row]
    assert len(expected) >= 20
    maps = [{col: MultiPoly(lam, spec, terms) for col, terms in row.items()} for row in maps]
    assert maps == expected
    integer = spec is RATIONALS and lam.n == 1
    assert len(built) == len(expected)
    for row, want in zip(built, expected):
        if integer:
            assert {type(p) for p in row.values()} <= {int, _IntPoly}
            den = math.lcm(*(c.a.denominator for p in want.values() for c in p.terms.values()))
            row = {col: _integer_entry_as_poly(p, lam) for col, p in row.items()}
            want = {col: p.scale(den) for col, p in want.items()}
        else:
            assert {type(p) for p in row.values()} == {MultiPoly}
        assert row == want


def _lemma_systems():
    """Seeded potentials with 2 to 4 terms of degree 2 to 4 in m = 2, and 2
    to 3 in m = 3, over Q and over Q(i, sqrt d) with coefficients drawn from
    the whole field, searched at gamma-degree 6; the m = 3 cubic of ANSATZ_SYSTEMS;
    and V = q1^4 + q1*q2, whose free leaves keep l1 and l2 under the
    assumptions l1^2 and l1^2 - l2^2."""
    import warnings

    from hamdarboux.hamsys import make_system

    rng = random.Random(23)
    fields = [RATIONALS] * 3 + [quad_gauss(2), quad_gauss(3), quad_gauss(6)]
    systems = []
    for m, spec in [(2, spec) for spec in fields * 2] + [(3, spec) for spec in fields[2:5]]:
        terms = {}
        while max((sum(e) for e in terms), default=0) < 3:
            terms = {}
            for _ in range(rng.randint(2, 4)):
                exps = [0] * (2 * m)
                for _ in range(rng.randint(2, 6 - m)):
                    exps[rng.randrange(m)] += 1
                terms[tuple(exps)] = _nonzero_element(rng, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            systems.append((make_system([1] * m, MultiPoly(VarSet(m), spec, terms)), 6))
    definition, degree = ANSATZ_SYSTEMS[-1].values
    systems.append((load_system(definition), degree))
    systems.append((load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^4 + q1*q2\n"), 4))
    return systems


def test_free_leaves_have_no_kernel(monkeypatch):
    # Darboux polynomials with distinct cofactors are linearly independent,
    # so a leaf with no pending constraint and a free unknown, whose lam-set
    # is infinite, has no kernel column.  Checked against the full ansatz at
    # two points of each such leaf's set (its assignment, the free unknowns
    # drawn so that no nonzero assumption vanishes), where the reference
    # forward reduction must find an empty kernel.  A leaf with pending
    # constraints may have a finite set and a kernel, so it is not checked.
    import hamdarboux.search as search_module

    rng = random.Random(5)
    built = {}
    checked = []
    handle_leaf = search_module._handle_leaf

    def point_of(state, free, spec):
        for attempt in range(1000):
            point = dict(state.assign)
            bound = 3 + attempt // 20
            point.update((i, spec.from_rational(rng.randint(-bound, bound))) for i in free)
            if all(not p.substitute(point).is_zero() for p in state.nonzero):
                return point
        raise AssertionError("no point off the nonzero assumptions")

    def leaf(ctx, state):
        free = [i for i in range(1, len(ctx.lam_monomials) + 1) if i not in state.assign]
        if free and not state.pending:
            ncols = len(ctx.f_monomials)
            assert len(state.pivots) == ncols
            spec, lam_vars = ctx.sys.field, ctx.lam_vars
            points = []
            while len(points) < 2:
                point = point_of(state, free, spec)
                if point not in points:
                    points.append(point)
            for point in points:
                rows = []
                for row in built["maps"]:
                    values = {
                        col: MultiPoly(lam_vars, spec, terms).substitute(point).constant_value()
                        for col, terms in row.items()
                    }
                    rows.append({col: x for col, x in values.items() if not x.is_zero()})
                assert _forward_kernel(rows, ncols, spec) == []
            checked.append((ctx.sys.m, spec.kind, len(free)))
        handle_leaf(ctx, state)

    def search(system, degree):
        built["maps"] = search_module._ansatz(system, degree, False)[2]
        return search_darboux(system, degree)

    monkeypatch.setattr(search_module, "_handle_leaf", leaf)
    reports = [search(system, degree) for system, degree in _lemma_systems()]
    assert len(checked) >= 30 and max(n for _, _, n in checked) >= 2
    assert {(m, kind) for m, kind, _ in checked} == {(m, kind) for m in (2, 3) for kind in FieldKind}
    # the last system holds no Darboux polynomial at degree 4: its residual
    # l1^2 + 8 is out of field, and over Q(i, sqrt2), which holds its roots
    # +-2*i*sqrt2, the same search decides it and finds nothing
    assert reports[-1].branches_explored == 15
    assert reports[-1].certificates == ()
    assert reports[-1].residual_conditions == ("l1^2 + 8",)
    extended = search(load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^4 + q1*q2\n"), 4)
    assert (extended.certificates, extended.residual_conditions) == ((), ())


def test_leaf_with_a_free_unknown_and_a_kernel_raises(monkeypatch):
    # a free leaf that lost a pivot row would have a kernel column, which the
    # lemma rules out: it must raise rather than pick a point and solve
    import hamdarboux.search as search_module

    handle_leaf = search_module._handle_leaf

    def leaf(ctx, state):
        if len(state.assign) < len(ctx.lam_monomials) and not state.pending:
            state.pivots = state.pivots[:-1]
        handle_leaf(ctx, state)

    monkeypatch.setattr(search_module, "_handle_leaf", leaf)
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^4 + q1*q2\n")
    with pytest.raises(InternalInvariantError, match="linearly independent"):
        search_darboux(system, 4)


def _forward_kernel(rows, ncols, spec):
    """Reference nullspace basis: forward reduction of the rows to reduced
    echelon form, lowest column as lead, then one vector per free column."""
    pivots = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            if lead in pivots:
                coef = r.pop(lead)
                for c, v in pivots[lead].items():
                    if c == lead:
                        continue
                    cur = r.get(c)
                    new = -coef * v if cur is None else cur - coef * v
                    if new.is_zero():
                        r.pop(c, None)
                    else:
                        r[c] = new
            else:
                inv = r[lead].inverse()
                pivots[lead] = {c: v * inv for c, v in r.items()}
                break
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, row in pivots.items():
            if other_lead == lead or lead not in row:
                continue
            coef = row.pop(lead)
            for c, v in prow.items():
                if c == lead:
                    continue
                cur = row.get(c)
                new = -coef * v if cur is None else cur - coef * v
                if new.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = new
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = {fc: spec.one()}
        for lead, row in pivots.items():
            if fc in row:
                vec[lead] = -row[fc]
        basis.append(vec)
    return basis


@pytest.mark.parametrize("spec", [RATIONALS, Q2], ids=["Q", "Q(i,sqrt2)"])
def test_kernel_basis_matches_forward_reduction(spec):
    # seeded echelon systems like a branch's kept rows (pivot columns in
    # scrambled order, no entry in an earlier pivot's column): the
    # back-substituted basis is the forward-reduction basis, vector for
    # vector, and annihilates every row
    from hamdarboux.search import _kernel_basis

    def nonzero(rng):
        while True:
            x = rand_element(rng, spec)
            if not x.is_zero():
                return x

    rng = random.Random(17)
    dims = set()
    for _ in range(160):
        ncols = rng.randint(1, 9)
        dim = rng.randint(0, min(3, ncols))
        order = rng.sample(range(ncols), ncols - dim)
        pivots = []
        for k, col in enumerate(order):
            row = {col: nonzero(rng)}
            for c in range(ncols):
                if c not in order[: k + 1] and rng.random() < 0.5:
                    row[c] = nonzero(rng)
            pivots.append((col, row))
        # the entries as constants in the cofactor unknowns, with nothing to assign
        lam = VarSet.cofactor_unknowns(1)
        entries = [(col, {c: MultiPoly.constant(lam, spec, x) for c, x in row.items()}) for col, row in pivots]
        basis = _kernel_basis(entries, ncols, spec, {})
        assert basis == _forward_kernel([row for _, row in pivots], ncols, spec)
        assert len(basis) == dim
        for vec in basis:
            for _, row in pivots:
                products = [v * vec[c] for c, v in row.items() if c in vec]
                assert sum(products, spec.zero()).is_zero()
        dims.add(dim)
    assert dims == {0, 1, 2, 3}


@pytest.mark.parametrize("corruption", ["pivot vanishes", "earlier pivot column"])
@pytest.mark.parametrize(
    "field, V", [("Q", "q1^3 - 2*q2^3 + q1^2 - q2"), ("Q(i,sqrt2)", "q1^4")], ids=["integer", "generic"]
)
def test_leaf_rejects_a_kept_row_out_of_echelon_form(field, V, corruption, monkeypatch):
    # the leaf back-substitutes through the kept rows, which is sound only
    # while each pivot is nonzero there and no row reaches into an earlier
    # pivot's column: a corrupted kept row must raise, not give a kernel
    import hamdarboux.search as search_module

    eliminate = search_module._eliminate_with_pivot

    def corrupt(state, col, pivot_ri):
        eliminate(state, col, pivot_ri)
        if len(state.pivots) < 2:
            return
        col, row = state.pivots[-1]
        if corruption == "pivot vanishes":
            row = {c: p for c, p in row.items() if c != col}
        else:
            row = {**row, state.pivots[0][0]: row[col]}
        state.pivots[-1] = (col, row)

    monkeypatch.setattr(search_module, "_eliminate_with_pivot", corrupt)
    system = load_system(f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n")
    match = "vanishes at the leaf" if corruption == "pivot vanishes" else "earlier pivot column"
    with pytest.raises(InternalInvariantError, match=match):
        search_darboux(system, 8)


def test_leaf_rejects_a_pivot_in_an_unassigned_unknown(sys_s1_ext, monkeypatch):
    # a fully assigned leaf reads every kept pivot at its lam-values: one
    # that still holds an unknown (here one past the ansatz's) must raise
    import hamdarboux.search as search_module

    handle_leaf = search_module._handle_leaf

    def leaf(ctx, state):
        if len(state.assign) == len(ctx.lam_monomials) and len(state.pivots) < len(ctx.f_monomials):
            extra = VarSet.cofactor_unknowns(len(ctx.lam_monomials) + 1)
            col, row = state.pivots[-1]
            state.pivots[-1] = (col, {**row, col: MultiPoly.variable(extra, ctx.sys.field, extra.n)})
        handle_leaf(ctx, state)

    monkeypatch.setattr(search_module, "_handle_leaf", leaf)
    with pytest.raises(InternalInvariantError, match="still depends on a cofactor unknown"):
        search_darboux(sys_s1_ext, 4)


def test_leaf_rejects_a_kernel_vector_that_is_not_darboux(sys_s1_ext, monkeypatch):
    # a leaf never drops a kernel vector silently: one that fails the
    # cofactor check is a broken elimination invariant
    import hamdarboux.search as search_module

    monkeypatch.setattr(search_module, "cofactor_of", lambda system, F: None)
    with pytest.raises(InternalInvariantError, match="not a Darboux polynomial"):
        search_darboux(sys_s1_ext, 4)


def test_leaf_invariant_survives_optimized_mode():
    # python -O strips assert statements; the invariant must still raise
    script = """
import hamdarboux.search as search_module
from hamdarboux.corpus import CORPUS
from hamdarboux.darboux import InternalInvariantError

assert False, "assertions are stripped under -O"
search_module.cofactor_of = lambda system, F: None
try:
    search_module.search_darboux(CORPUS[0].system(), 4)
except InternalInvariantError:
    raise SystemExit(0)
raise SystemExit(3)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("degree, cap", [(-3, 10_000), (-1, 10_000), (4, 0), (4, -5)])
def test_search_rejects_meaningless_bounds(sys_s1, degree, cap):
    # a negative degree bound searched an empty ansatz and a cap below 1
    # reported "branch cap exceeded": both looked like results
    from hamdarboux.structure import check_theorem1

    cubic = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 + q2^3 + q1^2\n")
    for homogeneous_only in (False, True):
        with pytest.raises(ValueError):
            search_darboux(sys_s1, degree, homogeneous_only=homogeneous_only, branch_cap=cap)
    for system in (cubic, sys_s1):
        with pytest.raises(ValueError):
            check_theorem1(system, degree, branch_cap=cap)


def _random_cubic(rng, pool, fractional):
    """A non-homogeneous V(q1, q2) of degree 3 with coefficients from `pool`
    (at least one of them fractional when asked).  A cubic top that is the
    cube of a linear form is redrawn: it carries proper Darboux polynomials
    whose coefficients may need the extension."""
    while True:
        coefs = {(e1, e2): rng.choice(pool) for e1 in range(4) for e2 in range(4 - e1) if e1 + e2}
        a, b, c, d = coefs[(3, 0)], coefs[(2, 1)], coefs[(1, 2)], coefs[(0, 3)]
        cube = b * b == 3 * a * c and c * c == 3 * b * d and b * c == 9 * a * d
        lower = any(v for (e1, e2), v in coefs.items() if e1 + e2 < 3)
        has_fraction = any(Fraction(v).denominator > 1 for v in coefs.values() if v)
        if any((a, b, c, d)) and not cube and lower and has_fraction == fractional:
            break
    terms = []
    for (e1, e2), v in coefs.items():
        if v:
            mono = "*".join(f"{n}^{e}" for n, e in (("q1", e1), ("q2", e2)) if e)
            terms.append(f"({v})*{mono}")
    return " + ".join(terms)


def _cubic_oracle_cases():
    rng = random.Random(31)
    integer = [_random_cubic(rng, range(-3, 4), False) for _ in range(12)]
    pool = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 1, -1, 2, 0]
    fractional = [_random_cubic(rng, pool, True) for _ in range(8)]
    return integer + fractional


def test_integer_and_generic_elimination_agree_on_cubics():
    # over Q a cubic's search has one cofactor unknown and runs the integer
    # Bareiss path; over Q(i, sqrt2) the same ansatz runs the generic
    # MultiPoly path, which shares no elimination code with it.  Residuals
    # and branch counts may differ where roots lie in the extension, the
    # certificates may not.  Eight of the cubics have coefficients 1/2 or
    # 1/3, so their ansatz rows start fractional.
    for V in _cubic_oracle_cases():
        reports = [
            search_darboux(load_system(f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n"), 8)
            for field in ("Q", "Q(i,sqrt2)")
        ]
        over_q, over_ext = (
            [(format_poly(c.F), format_poly(c.Lambda)) for c in r.certificates] for r in reports
        )
        assert over_q, V  # H itself is always found
        assert over_q == over_ext, V


def _integer_path_cases():
    """Searches over Q that run the integer form: the oracle cubics at degree
    8; one at degree 10 that divides rows by a non-constant previous pivot
    and has a sextic residual; one whose branch at l1 = 0 leaves constant
    candidates in the column being branched on; and one whose roots l1 =
    +-1/2 leave fractional entries."""
    cases = [(V, 8) for V in _cubic_oracle_cases()]
    cases.append(("-2*q1^3 + 2*q1^2*q2 + q1*q2^2 - q2^3 + 2*q1^2 - 2*q1*q2 - 2*q2^2 - q1 + 3*q2", 10))
    cases.append(("1/3*q1^3 + q1^2*q2 - 1/3*q1*q2^2 + 2*q2^3 - 1/2*q1^2 - q1*q2 - q2^2 + q2", 8))
    cases.append(("q1^3 - 1/8*q2^2", 6))
    return [(load_system(f"m = 2\nfield = Q\nmu = 1, 1\nV = {V}\n"), degree) for V, degree in cases]


def _generic_entries(rows, lam_vars, spec):
    """`_choose_entry_form` with the integer form switched off."""
    for ri, row in enumerate(rows):
        rows[ri] = {col: MultiPoly(lam_vars, spec, terms) for col, terms in row.items()}


def test_integer_path_reports_like_the_generic_path(monkeypatch):
    # the same searches over Q with the integer entries switched off at the
    # one place that picks the form: the whole ordered report, branch counts
    # and residuals included, must not move
    import hamdarboux.search as search_module

    systems = _integer_path_cases()
    pivot_forms = []
    eliminate = search_module._eliminate_with_pivot

    def counted(state, col, pivot_ri):
        pivot_forms.append(type(state.rows[pivot_ri][col]))
        eliminate(state, col, pivot_ri)

    monkeypatch.setattr(search_module, "_eliminate_with_pivot", counted)
    dense = [search_darboux(system, degree) for system, degree in systems]
    assert set(pivot_forms) == {int, Fraction, search_module._IntPoly}

    monkeypatch.setattr(search_module, "_choose_entry_form", _generic_entries)
    pivot_forms.clear()
    generic = [search_darboux(system, degree) for system, degree in systems]
    assert pivot_forms and set(pivot_forms) == {MultiPoly}
    for a, b in zip(dense, generic):
        assert [(format_poly(c.F), format_poly(c.Lambda)) for c in a.certificates] == [
            (format_poly(c.F), format_poly(c.Lambda)) for c in b.certificates
        ]
        assert a.branches_explored == b.branches_explored
        assert a.residual_conditions == b.residual_conditions


def test_integer_entries_keep_their_form(monkeypatch):
    # in the integer form a constant entry is a nonzero number and an
    # `_IntPoly` has degree >= 1 and int coefficients: after every Bareiss
    # step and every substitution of the integer-path searches, no row, kept
    # pivot row or previous pivot holds a constant `_IntPoly` or one whose
    # leading coefficient is zero
    import hamdarboux.search as search_module

    lam = VarSet.cofactor_unknowns(1)
    eliminate, substitute = search_module._eliminate_with_pivot, search_module._substitute_state
    forms = set()

    def check(state):
        entries = [p for row in state.rows if row for p in row.values()]
        entries += [p for _, row in state.pivots for p in row.values()]
        entries += [] if state.prev_pivot is None else [state.prev_pivot]
        for p in entries:
            _integer_entry_as_poly(p, lam)
            forms.add(type(p))

    def eliminated(state, col, pivot_ri):
        eliminate(state, col, pivot_ri)
        check(state)

    def substituted(ctx, state, var, value):
        states = substitute(ctx, state, var, value)
        for s in states:
            check(s)
        return states

    monkeypatch.setattr(search_module, "_eliminate_with_pivot", eliminated)
    monkeypatch.setattr(search_module, "_substitute_state", substituted)
    for system, degree in _integer_path_cases():
        search_darboux(system, degree)
    assert forms == {int, Fraction, _IntPoly}


def _integer_entry(vec):
    """The integer-form entry with coefficients `vec`, lowest degree first
    and the last nonzero: a number when it is constant."""
    return _IntPoly(vec) if len(vec) > 1 else vec[0]


def _integer_entry_as_poly(p, lam):
    """An integer-form entry as a MultiPoly: a nonzero number, or an
    `_IntPoly` of degree >= 1 with int coefficients and a nonzero leading one."""
    if type(p) is _IntPoly:
        assert len(p) > 1 and p[-1] and all(type(x) is int for x in p), p
        return p.as_multipoly(lam)
    assert type(p) in (int, Fraction) and p, p
    return MultiPoly.constant(lam, RATIONALS, p)


def _random_int_vectors(rng, ncols):
    row = {}
    for col in rng.sample(range(ncols), rng.randint(1, ncols)):
        vec = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        vec[-1] = vec[-1] or 1
        row[col] = vec
    return row


def _random_int_row(rng, ncols):
    return {col: _integer_entry(vec) for col, vec in _random_int_vectors(rng, ncols).items()}


def test_one_bareiss_step_on_both_entry_forms():
    # the single elimination step and the substitution of a root, run on the
    # same rows as integer entries and as MultiPolys: after every step each
    # row, the kept pivot rows and the previous pivot must be the same
    # polynomials on both forms
    import hamdarboux.search as search_module

    lam = VarSet.cofactor_unknowns(1)

    def as_poly(p):
        return p if type(p) is MultiPoly else _integer_entry_as_poly(p, lam)

    def view(state):
        def row_view(row):
            return None if row is None else [(c, as_poly(p)) for c, p in row.items()]

        prev = state.prev_pivot
        return (
            [row_view(r) for r in state.rows],
            [(col, row_view(r)) for col, r in state.pivots],
            None if prev is None else as_poly(prev),
        )

    rng = random.Random(21)
    seen = set()
    for _ in range(120):
        ncols = rng.randint(2, 6)
        rows = [_random_int_row(rng, ncols) for _ in range(rng.randint(2, 6))]
        # a run may start mid-elimination, after a previous pivot that every
        # row is a multiple of, so that dividing by it is exact
        prev = rng.choice([None, -2, _IntPoly([1, 2]), _IntPoly([-3, 0, 2])])
        if prev is not None and rng.random() < 0.5:
            rows = [{c: p * prev for c, p in r.items()} for r in rows]
        states = [
            search_module._State(
                rows=[{c: convert(p) for c, p in r.items()} for r in rows],
                prev_pivot=None if prev is None else convert(prev),
            )
            for convert in (lambda p: p, as_poly)
        ]
        substituted = False
        while True:
            live = [(ri, col) for ri, row in enumerate(states[0].rows) if row for col in row]
            if not live:
                break
            if not substituted and rng.random() < 0.3:
                x = RATIONALS.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                outcomes = [search_module._substitute_state(None, s, 1, x) for s in states]
                assert [len(o) for o in outcomes] in ([0, 0], [1, 1])
                if not outcomes[0]:
                    seen.add("previous pivot vanishes at the root")
                    break
                substituted = True
                seen.add("root")
            else:
                ri, col = rng.choice(live)
                pv, prev = states[0].rows[ri][col], states[0].prev_pivot
                seen.add((
                    "constant pivot" if type(pv) is not _IntPoly else "lam pivot",
                    "first" if prev is None else
                    "constant previous" if type(prev) is not _IntPoly else "lam previous",
                ))
                for s in states:
                    search_module._eliminate_with_pivot(s, col, ri)
            assert view(states[0]) == view(states[1])
            assert all(
                type(p) is int or type(p) is _IntPoly for row in states[0].rows if row for p in row.values()
            ) or substituted
    assert seen == {
        (pivot, previous)
        for pivot in ("constant pivot", "lam pivot")
        for previous in ("first", "constant previous", "lam previous")
    } | {"root", "previous pivot vanishes at the root"}


@pytest.mark.parametrize("form", ["integer", "generic"])
def test_lone_lam_pivot_deletes_its_column(form):
    # a pivot row {col: pv} with pv non-constant says f_col = 0 where pv is
    # nonzero: the row is kept as a pivot, col leaves every other row, and
    # nothing else changes, the previous pivot included; a constant lone
    # pivot still takes the Bareiss step, which makes it the previous pivot
    import hamdarboux.search as search_module

    lam = VarSet.cofactor_unknowns(1)

    def convert(p):
        return p if form == "integer" else _integer_entry_as_poly(p, lam)

    rng = random.Random(8)
    steps = set()
    for _ in range(60):
        ncols = rng.randint(2, 6)
        col = rng.randrange(ncols)
        pv = rng.choice([_IntPoly([rng.randint(-3, 3), rng.choice([-2, 1, 3])]), _IntPoly([1, 0, 1])])
        rows = [_random_int_row(rng, ncols) for _ in range(rng.randint(1, 5))]
        pivot_ri = rng.randrange(len(rows) + 1)
        rows.insert(pivot_ri, {col: pv})
        rows = [{c: convert(p) for c, p in r.items()} for r in rows] + [None]
        prev = rng.choice([None, -2, _IntPoly([1, 2])])
        prev = None if prev is None else convert(prev)
        state = search_module._State(
            rows=[None if r is None else dict(r) for r in rows], prev_pivot=prev,
        )
        pivot_row = state.rows[pivot_ri]
        search_module._eliminate_with_pivot(state, col, pivot_ri)
        assert state.pivots == [(col, pivot_row)] and state.pivots[0][1] is pivot_row
        assert pivot_row == {col: convert(pv)}
        assert state.prev_pivot is prev
        assert state.rows[pivot_ri] is None
        for ri, (before, after) in enumerate(zip(rows, state.rows)):
            if ri != pivot_ri:
                assert after == (None if before is None else {c: p for c, p in before.items() if c != col})
        steps.add((prev is None or search_module._is_constant(prev), any(col in r for r in rows if r and r is not rows[pivot_ri])))
    assert steps == {(a, b) for a in (True, False) for b in (True, False)}
    constant = search_module._State(
        rows=[{0: convert(3)}, {0: convert(_IntPoly([1, 1])), 1: convert(2)}], prev_pivot=None,
    )
    search_module._eliminate_with_pivot(constant, 0, 0)
    assert constant.prev_pivot == convert(3)
    assert constant.rows[1] == {1: convert(1)}


def test_dense_entries_sort_like_their_multipolys():
    # candidate pivots are ordered by degree, then `sort_key`; an integer
    # entry must take the place its MultiPoly takes
    lam = VarSet.cofactor_unknowns(1)
    rng = random.Random(5)
    entries = []
    for _ in range(300):
        vec = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        vec[-1] = vec[-1] or 1
        entries.append((_IntPoly(vec), _IntPoly(vec).as_multipoly(lam)))

    def order(form):
        keys = [
            (entry[form].total_degree(), entry[form].sort_key(), k)
            for k, entry in enumerate(entries)
        ]
        return sorted(range(len(entries)), key=keys.__getitem__)

    assert order(0) == order(1)


def test_dense_row_at_a_rational_point():
    # substitution and the leaf read an integer entry at l1 = x as its exact
    # value; the content strip then turns the row into primitive integers,
    # one positive factor times those values, zeros dropped, order kept
    import math

    from hamdarboux.search import _strip_row_content, _substituted

    rng = random.Random(8)
    for _ in range(200):
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        row = _random_int_vectors(rng, 20)
        exact = {c: sum(coef * x**d for d, coef in enumerate(vec)) for c, vec in row.items()}
        values = {}
        for c, vec in row.items():
            value = _substituted(_integer_entry(vec), {1: RATIONALS.from_rational(x)})
            assert type(value) is (int if exact[c].denominator == 1 else Fraction)
            assert value == exact[c]
            if value:
                values[c] = value
        got = _strip_row_content(values)
        assert list(got) == [c for c in row if exact[c]]
        if got:
            assert all(type(p) is int for p in got.values())
            factor = {Fraction(got[c]) / exact[c] for c in got}
            assert len(factor) == 1 and factor.pop() > 0
            assert math.gcd(*got.values()) == 1


def test_dense_exact_division_against_division_over_q():
    # a nonzero integer dividend a and divisor b, numbers when constant: None
    # exactly when b does not divide a over Q, else the quotient by b's
    # primitive part, a number when constant
    import math

    x = sp.Symbol("x")

    def as_poly(vec):
        return sp.Poly(list(reversed(vec)), x, domain=sp.QQ)

    def times(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, s in enumerate(u):
            for j, t in enumerate(v):
                out[i + j] += s * t
        return out

    def nonzero_vec(rng, length):
        vec = [rng.randint(-4, 4) for _ in range(length)]
        vec[-1] = vec[-1] or rng.choice([-3, -1, 2])
        return vec

    rng = random.Random(29)
    quotients = 0
    for k in range(600):
        b = [rng.choice([-3, -1, 1, 2, 6]) * c for c in nonzero_vec(rng, rng.randint(1, 4))]
        primitive = [c // math.gcd(*b) for c in b]
        if k % 2:
            a = times(nonzero_vec(rng, rng.randint(1, 4)), primitive)
        else:
            a = nonzero_vec(rng, rng.randint(1, 6))
        r = _IntPoly.divide_exact(_integer_entry(a), _integer_entry(b))
        if as_poly(a).rem(as_poly(b)).is_zero:
            assert type(r) is int or type(r) is _IntPoly, (a, b, r)
            vec = list(r) if type(r) is _IntPoly else [r]
            assert _integer_entry(vec) == r and all(type(c) is int for c in vec) and vec[-1], (a, b, r)
            assert times(vec, primitive) == a, (a, b, r)
            quotients += 1
        else:
            assert r is None, (a, b, r)
    assert 300 <= quotients < 600, quotients
