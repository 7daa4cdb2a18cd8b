"""Per-layer rates measured on operands taken from a workload's systems, and
import costs read from `python -X importtime`."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def _rate(op, operands, min_seconds: float = 0.05, repeats: int = 5) -> float:
    """Median over `repeats` of calls per second of op over the operand list,
    each repeat cycling through the list until `min_seconds` have passed."""
    rates = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        while True:
            for args in operands:
                op(*args)
            calls += len(operands)
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        rates.append(calls / elapsed)
    return statistics.median(rates)


def _rationals(systems) -> list[Fraction]:
    """The nonzero rational components of every coefficient of V and H."""
    out = []
    for system in systems:
        for poly in (system.V, system.H):
            for _, coef in poly.sorted_terms():
                out += [x for x in coef.components() if x]
    return sorted(set(out)) or [Fraction(1)]


def field_rates(systems) -> dict[str, float]:
    from hamdarboux import RATIONALS, FieldKind, quad_gauss

    values = _rationals(systems)
    # shift by distinct small amounts so the operand list is never all zero
    # or all equal, whatever the workload's coefficients are
    values = [v + Fraction(k + 1, 7) for k, v in enumerate(values * 4)]
    q = [RATIONALS.from_rational(v) for v in values]
    specs = [s.field for s in systems if s.field.kind is FieldKind.QUAD_GAUSS]
    spec = specs[0] if specs else quad_gauss(2)
    ext = [spec.element(*(values[(k + j) % len(values)] for j in range(4))) for k in range(len(values))]
    pairs_q = [(q[k], q[k - 1]) for k in range(len(q))]
    pairs_ext = [(ext[k], ext[k - 1]) for k in range(len(ext))]
    return {
        "field.q_add_per_s": _rate(lambda x, y: x + y, pairs_q),
        "field.q_mul_per_s": _rate(lambda x, y: x * y, pairs_q),
        "field.q_inv_per_s": _rate(lambda x, y: x.inverse(), [p for p in pairs_q if not p[0].is_zero()]),
        "field.ext_add_per_s": _rate(lambda x, y: x + y, pairs_ext),
        "field.ext_mul_per_s": _rate(lambda x, y: x * y, pairs_ext),
        "field.ext_inv_per_s": _rate(lambda x, y: x.inverse(), [p for p in pairs_ext if not p[0].is_zero()]),
    }


def poly_rates(systems) -> dict[str, float]:
    """mul: H*V, diff: dH/dx for every variable, divide_exact: (H*V)/H."""
    systems = systems[:8]
    mul = [(s.H, s.V) for s in systems]
    diff = [(s.H, k) for s in systems for k in range(1, s.varset.n + 1)]
    div = [(s.H * s.V, s.H) for s in systems]
    return {
        "poly.mul_per_s": _rate(lambda a, b: a * b, mul),
        "poly.diff_per_s": _rate(lambda a, k: a.diff(k), diff),
        "poly.divide_exact_per_s": _rate(lambda a, b: a.divide_exact(b), div),
    }


def _importtime(stderr: str) -> tuple[dict[str, float], float]:
    """Cumulative seconds per module from `-X importtime` output, and the
    summed cumulative time of the top-level `hamdarboux` imports."""
    per_module, top = {}, 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        seconds = int(parts[1]) / 1e6
        name = parts[2].strip()
        per_module.setdefault(name, seconds)
        if parts[2] == " " + name and name.split(".")[0] == "hamdarboux":
            top += seconds
    return per_module, top


def import_costs(root, repeats: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of the import of `hamdarboux.cli`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hamdarboux.cli"],
            capture_output=True, text=True, cwd=root, env=env,
            check=True,
        )
        runs.append(_importtime(proc.stderr))

    def median(name: str) -> float:
        return statistics.median(per_module.get(name, 0.0) for per_module, _ in runs)

    return {
        "cli.import_s": statistics.median(top for _, top in runs),
        "cli.import_sympy_s": median("sympy"),
        "cli.import_numpy_s": median("numpy"),
    }
