"""Floating-point cross-validation: integrate the canonical equations with
classical RK4 and measure drift of claimed first integrals.

A state is 2m real numbers ordered (q1..qm, p1..pm), read as Python floats. Each
polynomial runs as generated straight-line source, free of user text, on a
state's floats. `integrate_rk4` is the reference stepper: four calls of the
compiled vector field per step, each state kept as a tuple. `drift` runs one
generated loop, compiled once per (system, F), with the vector field's source
inlined in each of the four stages and F folded in after each step: the same
float operations, in the same order, as the stepper, and no trajectory kept."""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Real
from typing import Callable, Sequence

from .hamsys import NaturalHamiltonian
from .poly import MultiPoly


class NotRealEvaluableError(ValueError):
    """Coefficients with a nonzero imaginary part cannot be evaluated on
    real trajectories."""


def _terms(polys: Sequence[MultiPoly], n: int) -> tuple[list, list[float]]:
    """Each polynomial's terms as (coefficient index, exponents) in
    `sorted_terms()` order, a zero polynomial as one zero constant term; and
    the coefficients as floats."""
    coefs: list[float] = []
    plan = []
    for poly in polys:
        terms = []
        for e, c in poly.sorted_terms() or [((0,) * n, poly.field.zero())]:
            if not c.is_real():
                raise NotRealEvaluableError(f"{poly} has non-real coefficients")
            terms.append((len(coefs), e))
            coefs.append(c.to_float())
        plan.append(terms)
    return plan, coefs


def _render(plan: list, inputs: Sequence[str], outputs: Sequence[str], indent: str) -> str:
    """Statements setting outputs[j] to polynomial j of `plan` at the
    coordinates named by `inputs`. Each term c{k}*x0*x0*x1 is added by its
    own statement, which keeps long sums within the compiler's recursion
    limit."""
    body = ""
    for terms, y in zip(plan, outputs):
        for t, (k, e) in enumerate(terms):
            variables = "".join(f"*{inputs[i]}" for i, a in enumerate(e) for _ in range(a))
            body += f"{indent}{y} = {f'{y} + ' if t else ''}c{k}{variables}\n"
    return body


def _define(name: str, args: Sequence[str], coefs: list[float], body: str) -> Callable:
    """Execute `def name(args)` with the coefficients bound once to the
    locals c0, c1, ... from a tuple, never written as float literals (inf
    has none), ahead of `body`."""
    bind = f"    {', '.join(f'c{k}' for k in range(len(coefs)))}, = c\n"
    namespace = {"c": tuple(coefs)}
    exec(f"def {name}({', '.join(args)}):\n{bind}{body}", namespace)
    return namespace[name]


def _compile(polys: Sequence[MultiPoly], n: int) -> Callable[..., tuple]:
    """A function of the coordinates x0..x{n-1} returning the polynomials'
    values."""
    plan, coefs = _terms(polys, n)
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{j}" for j in range(len(polys))]
    return _define("f", xs, coefs, f"{_render(plan, xs, ys, '    ')}    return ({', '.join(ys)},)\n")


def _field_polys(sys: NaturalHamiltonian) -> list[MultiPoly]:
    """(mu_i p_i, -dV/dq_i)."""
    m = sys.m
    p = [MultiPoly.variable(sys.varset, sys.field, m + i) for i in range(1, m + 1)]
    return [p_i.scale(mu_i) for p_i, mu_i in zip(p, sys.mu)] + [-g for g in sys.grad_V]


def _vector_field(sys: NaturalHamiltonian) -> Callable[..., tuple]:
    """(mu_i p_i, -dV/dq_i) compiled as one function."""
    return _compile(_field_polys(sys), 2 * sys.m)


@lru_cache(maxsize=1)
def _drift_loop(sys: NaturalHamiltonian, F: MultiPoly) -> Callable[..., float]:
    """run(h, steps, x0, ..., x{2m-1}) takes `steps` RK4 steps from x, the
    float operations of `integrate_rk4`, evaluates F after each one and
    returns the largest d = |F(x_s) - F(x_0)| / max(1, |F(x_0)|). The stages
    k1..k4 are the vector field's source inlined at x, x + hh*k1, x + hh*k2
    and x + h*k3 with hh = 0.5*h, and the step is x + h6*(k1 + 2*k2 + 2*k3 +
    k4) with h6 = h/6.0. The running maximum turns NaN at the first NaN d
    and stays NaN; a NaN F(x_0), which Python's max drops from the scale,
    makes every d NaN. The last (system, F) is cached, so drifts from many
    states of one pair compile once."""
    n = 2 * sys.m
    xs = [f"x{i}" for i in range(n)]
    us = [f"u{i}" for i in range(n)]
    ks = [[f"k{r}_{i}" for i in range(n)] for r in range(1, 5)]
    (*plan, f_plan), coefs = _terms(_field_polys(sys) + [F], n)
    pad = " " * 8
    body = _render([f_plan], xs, ["y"], " " * 4) + (
        "    f0 = y\n"
        "    scale = max(1.0, abs(f0))\n"
        "    worst = 0.0\n"
        "    hh = 0.5*h\n"
        "    h6 = h/6.0\n"
        "    for s in range(steps):\n"
    )
    body += _render(plan, xs, ks[0], pad)
    for scale, k, k_next in zip(("hh", "hh", "h"), ks, ks[1:]):
        body += "".join(f"{pad}{u} = {x} + {scale}*{a}\n" for u, x, a in zip(us, xs, k))
        body += _render(plan, us, k_next, pad)
    body += "".join(f"{pad}{x} = {x} + h6*({a} + 2*{b} + 2*{c} + {d})\n" for x, a, b, c, d in zip(xs, *ks))
    body += _render([f_plan], xs, ["y"], pad) + (
        "        d = abs(y - f0)/scale\n"
        "        if d > worst or d != d:\n"
        "            worst = d\n"
        "    return worst\n"
    )
    return _define("run", ["h", "steps"] + xs, coefs, body)


def _step_count(h: float, T: float) -> int:
    """T/h as a whole number of steps: h and T must be positive and finite
    and T/h a positive whole number, to a relative 1e-9."""
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
    if not 0 < T < math.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    ratio = T / h
    if ratio == math.inf:
        raise ValueError(f"horizon T = {T} takes too many steps h = {h} to count")
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"horizon T = {T} is not a whole number of steps h = {h}")
    return steps


def _state(x0, n: int) -> list[float]:
    """x0 as one state of n floats; ValueError unless it is n real numbers.
    The Real check, not float(), rejects a length-1 array as a coordinate:
    numpy before 2.4 converts one to a float."""
    try:
        coords = list(x0)
    except TypeError:
        coords = []
    if len(coords) != n or not all(isinstance(v, Real) for v in coords):
        raise ValueError(f"a state must have {n} coordinates")
    return [float(v) for v in coords]


def integrate_rk4(sys: NaturalHamiltonian, x0: Sequence[float], h: float, T: float) -> tuple[tuple[float, ...], ...]:
    """Fixed-step classical RK4 for qdot_i = mu_i p_i, pdot_i = -dV/dq_i, from
    one state of 2m numbers, ending at T: T/h must be a positive whole number
    of steps, to a relative 1e-9. Each step calls the compiled vector field
    four times; the steps + 1 states come back as tuples of 2m floats, entry
    s holding step s's coordinates."""
    steps = _step_count(h, T)
    f = _vector_field(sys)
    y = tuple(_state(x0, 2 * sys.m))
    states = [y]
    for _ in range(steps):
        k1 = f(*y)
        k2 = f(*[a + 0.5 * h * k for a, k in zip(y, k1)])
        k3 = f(*[a + 0.5 * h * k for a, k in zip(y, k2)])
        k4 = f(*[a + h * k for a, k in zip(y, k3)])
        y = tuple(a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        states.append(y)
    return tuple(states)


def drift(sys: NaturalHamiltonian, F: MultiPoly, x0: Sequence[float], h: float, T: float) -> float:
    """max_t |F(x(t)) - F(x0)| / max(1, |F(x0)|) along the RK4 trajectory
    from one state of 2m numbers, computed step by step without storing the
    trajectory."""
    steps = _step_count(h, T)
    state = _state(x0, 2 * sys.m)
    return _drift_loop(sys, F)(h, steps, *state)
