"""Floating-point cross-validation: integrate the canonical equations with
classical RK4 and measure drift of claimed first integrals.

A state is a float array of shape (2m,) ordered (q1..qm, p1..pm), or a batch
of S such states of shape (S, 2m) that one RK4 loop advances together. Each
polynomial runs as generated straight-line source, free of user text, on a
state's floats or a batch's coordinate columns in one order of operations,
so a state's floats are the same alone and inside a batch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hamsys import NaturalHamiltonian
from .poly import MultiPoly


class NotRealEvaluableError(ValueError):
    """Coefficients with a nonzero imaginary part cannot be evaluated on
    real trajectories."""


@dataclass(frozen=True)
class Trajectory:
    samples: list[tuple[float, np.ndarray]]  # each state has the start's shape
    h: float
    # (steps + 1, 2m[, S]): step s holds the 2m coordinates, each a float or
    # a column of S floats; the samples are views into it
    states: np.ndarray


def _compile(polys: Sequence[MultiPoly], n: int) -> Callable[..., tuple]:
    """A function of the coordinates x0..x{n-1} (floats, or arrays of one
    shape) returning the polynomials' values. Each term c[k]*x0*x0*x1 is
    added in `sorted_terms()` order by its own statement, which keeps long
    sums within the compiler's recursion limit; a constant is multiplied by
    x0**0 (1.0 even at inf or nan) to take the coordinates' shape."""
    coefs: list[float] = []
    body = ""
    for j, poly in enumerate(polys):
        for t, (e, c) in enumerate(poly.sorted_terms() or [((0,) * n, poly.field.zero())]):
            if not c.is_real():
                raise NotRealEvaluableError(f"{poly} has non-real coefficients")
            variables = "".join(f"*x{i}" for i, a in enumerate(e) for _ in range(a))
            body += f"    y{j} = {f'y{j} + ' if t else ''}c[{len(coefs)}]{variables}\n"
            coefs.append(c.to_float())
        if poly.is_constant():
            body += f"    y{j} = y{j}*x0**0\n"
    args = ", ".join(f"x{i}" for i in range(n))
    outputs = ", ".join(f"y{j}" for j in range(len(polys)))
    namespace = {"c": tuple(coefs)}
    exec(f"def f({args}):\n{body}    return ({outputs},)\n", namespace)
    return namespace["f"]


def _vector_field(sys: NaturalHamiltonian) -> Callable[..., tuple]:
    """(mu_i p_i, -dV/dq_i) compiled as one function."""
    m = sys.m
    p = [MultiPoly.variable(sys.varset, sys.field, m + i) for i in range(1, m + 1)]
    qdot = [p_i.scale(mu_i) for p_i, mu_i in zip(p, sys.mu)]
    return _compile(qdot + [-g for g in sys.grad_V], 2 * m)


def evaluate_float(poly: MultiPoly, state: np.ndarray) -> float:
    (value,) = _compile([poly], poly.varset.n)(*np.asarray(state, dtype=float).tolist())
    return float(value)


def integrate_rk4(sys: NaturalHamiltonian, x0, h: float, T: float) -> Trajectory:
    """Fixed-step classical RK4 for qdot_i = mu_i p_i, pdot_i = -dV/dq_i, from
    one state (2m,) or a batch (S, 2m), ending at T: T/h must be a positive
    whole number of steps, to a relative 1e-9."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    if T <= 0:
        raise ValueError("horizon T must be positive")
    ratio = T / h
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"horizon T = {T} is not a whole number of steps h = {h}")
    m = sys.m
    x = np.array(x0, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 2 * m:
        raise ValueError(f"initial state must have {2 * m} coordinates")
    f = _vector_field(sys)
    states = np.empty((steps + 1, 2 * m) + x.shape[:-1])
    states[0] = x.T
    times = [0.0]
    y = x.tolist() if x.ndim == 1 else list(x.T)
    for s in range(1, steps + 1):
        k1 = f(*y)
        k2 = f(*[a + 0.5 * h * k for a, k in zip(y, k1)])
        k3 = f(*[a + 0.5 * h * k for a, k in zip(y, k2)])
        k4 = f(*[a + h * k for a, k in zip(y, k3)])
        y = [a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        states[s] = y
        times.append(times[-1] + h)
    return Trajectory(samples=list(zip(times, (state.T for state in states))), h=h, states=states)


def drift(sys: NaturalHamiltonian, F: MultiPoly, x0, h: float, T: float):
    """max_t |F(x(t)) - F(x0)| / max(1, |F(x0)|) along the RK4 trajectory: a
    float for one state, an array of S drifts for a batch (S, 2m)."""
    f = _compile([F], 2 * sys.m)
    (values,) = f(*integrate_rk4(sys, x0, h, T).states.swapaxes(0, 1))
    scale = np.maximum(1.0, np.abs(values[0]))
    worst = np.max(np.abs(values[1:] - values[0]) / scale, axis=0)
    return float(worst) if worst.ndim == 0 else worst
