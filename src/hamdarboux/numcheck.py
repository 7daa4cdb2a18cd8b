"""Floating-point cross-validation: integrate the canonical equations with
classical RK4 and measure drift of claimed first integrals.

A state is a float array of shape (2m,) ordered (q1..qm, p1..pm), or a batch
of S such states of shape (S, 2m) that one RK4 loop advances together. Every
operation acts on each state alone, so a state's floats are the same alone
and inside a batch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    method: str = "rk4"


def _compile(polys: Sequence[MultiPoly], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix E (T, n) over the union of the polynomials' monomials
    and coefficient matrix C (T, k), column j holding polys[j]."""
    rows: dict[tuple[int, ...], int] = {}
    entries = []
    for j, poly in enumerate(polys):
        for e, c in poly.sorted_terms():
            if not c.is_real():
                raise NotRealEvaluableError(f"{poly} has non-real coefficients")
            entries.append((rows.setdefault(e, len(rows)), j, c.to_float()))
    E = np.zeros((len(rows), n))
    for e, t in rows.items():
        E[t] = e
    C = np.zeros((len(rows), len(polys)))
    for t, j, c in entries:
        C[t, j] = c
    return E, C


def _evaluate(E: np.ndarray, C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The compiled polynomials at states x (..., n), shape (..., k)."""
    monomials = np.multiply.reduce(x[..., None, :] ** E, axis=-1)
    # einsum sums over the term axis in its own loop; BLAS (`@`) would change
    # the summation order, and so the floats, with the batch size
    return np.einsum("...t,tk->...k", monomials, C)


def _vector_field(sys: NaturalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """(mu_i p_i, -dV/dq_i) compiled as one tensor."""
    m = sys.m
    p = [MultiPoly.variable(sys.varset, sys.field, m + i) for i in range(1, m + 1)]
    qdot = [p_i.scale(mu_i) for p_i, mu_i in zip(p, sys.mu)]
    return _compile(qdot + [-g for g in sys.grad_V], 2 * m)


def evaluate_float(poly: MultiPoly, state: np.ndarray) -> float:
    E, C = _compile([poly], poly.varset.n)
    return float(_evaluate(E, C, np.asarray(state, dtype=float))[..., 0])


def integrate_rk4(
    sys: NaturalHamiltonian, x0, h: float, T: float
) -> Trajectory:
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
    E, C = _vector_field(sys)
    states = np.empty((steps + 1,) + x.shape)
    states[0] = x
    times = [0.0]
    for s in range(1, steps + 1):
        k1 = _evaluate(E, C, x)
        k2 = _evaluate(E, C, x + 0.5 * h * k1)
        k3 = _evaluate(E, C, x + 0.5 * h * k2)
        k4 = _evaluate(E, C, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[s] = x
        times.append(times[-1] + h)
    return Trajectory(samples=list(zip(times, states)), h=h)


def drift(sys: NaturalHamiltonian, F: MultiPoly, x0, h: float, T: float):
    """max_t |F(x(t)) - F(x0)| / max(1, |F(x0)|) along the RK4 trajectory: a
    float for one state, an array of S drifts for a batch (S, 2m)."""
    E, C = _compile([F], 2 * sys.m)
    trajectory = integrate_rk4(sys, x0, h, T)
    values = _evaluate(E, C, np.stack([state for _, state in trajectory.samples]))[..., 0]
    scale = np.maximum(1.0, np.abs(values[0]))
    worst = np.max(np.abs(values[1:] - values[0]) / scale, axis=0)
    return float(worst) if worst.ndim == 0 else worst
