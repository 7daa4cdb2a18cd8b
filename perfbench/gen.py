"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain text (system
definitions and polynomials in the program's own file syntax) or plain
numbers, so the program under test sees only the generated inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction


def system_text(field: str, V: str) -> str:
    return f"m = 2\nfield = {field}\nmu = 1, 1\nV = {V}\n"


def _poly_text(terms: list[tuple[Fraction, str]]) -> str:
    out = []
    for coef, mono in terms:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = mono if mag == 1 else f"{mag}*{mono}"
        out.append(f"{sign} {body}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _cubic_top_is_cube_of_linear_form(c30: int, c21: int, c12: int, c03: int) -> bool:
    """A binary cubic is the cube of a linear form iff its Hessian vanishes."""
    return (
        c21 * c21 == 3 * c30 * c12
        and c12 * c12 == 3 * c21 * c03
        and c21 * c12 == 9 * c30 * c03
    )


def random_cubic_potential(rng) -> str:
    """Random V(q1, q2) of total degree 3 with integer coefficients in [-3, 3].

    Cubic tops that are the cube of a linear form are redrawn: such systems
    carry a proper Darboux polynomial with constant cofactor and lie outside
    the odd-degree statement the workload checks.
    """
    while True:
        coefs = {}
        for e1 in range(4):
            for e2 in range(4 - e1):
                if e1 + e2:
                    coefs[(e1, e2)] = rng.randint(-3, 3)
        top = [coefs[(3, 0)], coefs[(2, 1)], coefs[(1, 2)], coefs[(0, 3)]]
        if any(top) and not _cubic_top_is_cube_of_linear_form(*top):
            break
    terms = [
        (Fraction(c), _monomial(e1, e2))
        for (e1, e2), c in sorted(coefs.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0]))
        if c
    ]
    return _poly_text(terms)


def _monomial(e1: int, e2: int) -> str:
    parts = []
    for name, e in (("q1", e1), ("q2", e2)):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


EXT_D = (2, 3, 5, 6, 7)


def random_ext_oscillator(rng) -> tuple[int, Fraction, Fraction]:
    """(d, a, b) for V = a*q1^2 + b*q2^4 over Q(i, sqrt d).

    |2a| and |2b| are drawn from {k^2, d*k^2}, so both c^2 = -2a and c^2 = -2b
    have roots c in the field and, by construction, p1 + c*q1 (cofactor c)
    and p2 + c*q2^2 (cofactor 2*c*q2) are Darboux polynomials.
    """
    d = rng.choice(EXT_D)

    def coef() -> Fraction:
        k = rng.randint(1, 3)
        base = k * k * rng.choice((1, d))
        return Fraction(rng.choice((-1, 1)) * base, 2)

    return d, coef(), coef()


def ext_root_texts(d: int, minus_two_c: Fraction) -> list[str]:
    """Both roots c of c^2 = minus_two_c in Q(i, sqrt d), as polynomial text."""
    for scale, unit in ((1, ""), (d, f"sqrt({d})")):
        for sign, imag in ((1, ""), (-1, "i")):
            k = _rational_sqrt(sign * minus_two_c / scale)
            if k:
                factors = ([str(k)] if k != 1 else []) + [f for f in (imag, unit) if f]
                root = "*".join(factors) or "1"
                return [root, f"-{root}"]
    raise ValueError(f"{minus_two_c} has no square root in Q(i,sqrt{d})")


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The positive square root of x when it is rational, else None."""
    if x <= 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def drift_states(rng, count: int) -> list[list[float]]:
    """Initial states (q1, q2, p1, p2) uniform in [-1, 1]^4."""
    return [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(count)]


def cli_pass_order(rng, commands: list[str]) -> list[str]:
    """One pass of the CLI mix: every command once, in seeded order."""
    order = list(commands)
    rng.shuffle(order)
    return order
