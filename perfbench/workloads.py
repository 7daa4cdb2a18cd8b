"""The four workloads: seeded inputs, the timed call per item, and oracles.

Why each workload exists (which layers it loads):

- odd_suite: `check_theorem1` on random cubic potentials over Q.  The work is
  fraction-free elimination on the integer fast path and the leaf kernel;
  little branching and little factoring.
- ext_search: `search_darboux` over Q(i, sqrt d).  The same search layer used
  the other way: branching on the generic path, extension-field arithmetic,
  sympy factoring (`roots_in_field`) and residual rendering.
- cli_short: fresh `python -m hamdarboux.cli ... --output json` processes,
  one at a time (closed loop, one client).  Import dominates; the exact
  layers do little.
- rk4_drift: in-process RK4 drift of known first integrals and one control.
  Only `numcheck` works; the exact layers sit idle.

Item counts are a function of the seed and `--seconds` only (through fixed
nominal per-item costs), so exact work counts repeat exactly between runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen

# At least this many items per run, so that the tail percentile (the highest
# one with ten items beyond it) lies above the median.
MIN_ITEMS = 21

# The corpus systems, which also carry the drift cases and the CLI mix.
SYSTEMS = {
    "s1": ("Q", "q1^4"),
    "s2": ("Q", "(q1^2 + q2^2)^2"),
    "s3": ("Q(i,sqrt2)", "q1^2 + q2^4"),
    "s4": ("Q", "4/3*q1^4 + q1^2*q2^2 + 1/12*q2^4"),
    "s5": ("Q(i,sqrt6)", "4/3*q1^4 + q1^2*q2^2 + 1/6*q2^4"),
}
I4 = "p2*(p1*q2 - p2*q1) + q2^2*(2*q1^3 + q1*q2^2)*1/3"
G3 = "i*p2 + sqrt(2)*q2^2"
G5 = "3*sqrt(6)*p2^2 + 12*i*p2*q1*q2 + q2^2*(-6*i*p1 + sqrt(6)*(2*q1^2 + q2^2))"


@dataclass
class Job:
    id: str
    payload: dict


@dataclass
class Outcome:
    job: Job
    seconds: float
    value: object = None
    error: str | None = None
    problems: list = field(default_factory=list)
    digest: str = ""

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def digest_of(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _cert_key(cert) -> tuple[str, str]:
    from hamdarboux import format_poly

    return format_poly(cert.F), format_poly(cert.Lambda)


def report_digest(reports) -> str:
    """Hash of the formatted certificates and residuals of search reports."""
    lines = []
    for rep in reports:
        lines += [f"{f} | {l}" for f, l in map(_cert_key, rep.certificates)]
        lines += ["residual " + r for r in rep.residual_conditions]
        lines.append(f"branches {rep.branches_explored}")
    return digest_of(lines)


def _recheck(system, certs) -> list[str]:
    from hamdarboux import certificate_holds

    return [f"certificate {_cert_key(c)} fails L_H F = Lambda F" for c in certs
            if not certificate_holds(system, c)]


def _eliminate(row: dict, mono, pivot: dict) -> dict:
    """row - row[mono] * pivot, where pivot[mono] == 1."""
    coef = row.get(mono)
    if not coef:
        return row
    out = dict(row)
    for e, c in pivot.items():
        new = out.get(e, Fraction(0)) - coef * c
        if new:
            out[e] = new
        else:
            out.pop(e, None)
    return out


def _in_rational_span(target, basis) -> bool:
    """Is `target` a Q-linear combination of `basis` (polynomials over Q)?"""

    def vector(poly) -> dict:
        return {e: c.components()[0] for e, c in poly.sorted_terms()}

    pivots: list[tuple[tuple, dict]] = []

    def reduce(row: dict) -> dict:
        for mono, pivot in pivots:
            row = _eliminate(row, mono, pivot)
        return row

    for poly in basis:
        row = reduce(vector(poly))
        if row:
            mono = max(row)
            row = {e: c / row[mono] for e, c in row.items()}
            pivots = [(m, _eliminate(p, mono, row)) for m, p in pivots] + [(mono, row)]
    return not reduce(vector(target))


class Workload:
    name = ""
    in_process = True
    tracer = None  # a tracing.Recorder while a traced pass runs out of process
    extra_info: dict = {}

    def build(self, rng: random.Random, seconds: float, smoke: bool) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, outcomes: list[Outcome], reports: dict) -> None:
        """Fill each outcome's problems and digest."""
        raise NotImplementedError

    def systems(self, jobs: list[Job]) -> list:
        seen, out = set(), []
        for job in jobs:
            system = job.payload.get("system")
            if system is not None and id(system) not in seen:
                seen.add(id(system))
                out.append(system)
        return out


# -- odd_suite ------------------------------------------------------------------


class OddSuite(Workload):
    """check_theorem1 at weighted degree 10 on q1^3 + q2^3 plus random cubics.

    Degree 10 rather than 12: at 12 single systems take 0.6 s to 4.9 s, so one
    heavy draw sets a seed's total; at 10 they take 0.1 s to 0.26 s.
    """

    name = "odd_suite"
    DEGREE = 10
    ITEM_S = 0.2
    ANCHOR = "q1^3 + q2^3"
    ANCHOR_CERTS = {("p1^2 + 2*q1^3", "0"), ("p2^2 + 2*q2^3", "0")}

    def build(self, rng, seconds, smoke):
        from hamdarboux import load_system

        count = 4 if smoke else max(MIN_ITEMS, round(seconds / self.ITEM_S))
        potentials = [self.ANCHOR] + [gen.random_cubic_potential(rng) for _ in range(count - 1)]
        return [
            Job(f"odd{k:03d}", {"system": load_system(gen.system_text("Q", V)), "V": V})
            for k, V in enumerate(potentials)
        ]

    def run(self, job):
        from hamdarboux import check_theorem1

        return check_theorem1(job.payload["system"], self.DEGREE)

    def check(self, outcomes, reports):
        from hamdarboux import Verdict

        for out in outcomes:
            out.digest = report_digest(reports.get(out.job.id, []))
            if out.error:
                continue
            system, report = out.job.payload["system"], out.value
            if report.verdict is not Verdict.CONSISTENT:
                out.problems.append(f"verdict {report.verdict.value} for V = {out.job.payload['V']}")
            out.problems += _recheck(system, report.evidence)
            integrals = [c.F for c in report.evidence if not c.proper]
            if not _in_rational_span(system.H, integrals):
                out.problems.append("H is not in the span of the reported first integrals")
            if out.job.payload["V"] == self.ANCHOR:
                missing = self.ANCHOR_CERTS - set(map(_cert_key, report.evidence))
                out.problems += [f"known certificate {m} not reported" for m in sorted(missing)]


# -- ext_search -------------------------------------------------------------------

# Certificates reported at the commit that introduced the benchmark.  The
# oracle asks for a superset, so a more complete search still passes.
PINNED = {
    ("Q(i,sqrt2)", "q1^2 + q2^4", 8): {
        ("p2 - i*sqrt(2)*q2^2", "-2*i*sqrt(2)*q2"),
        ("p2 + i*sqrt(2)*q2^2", "2*i*sqrt(2)*q2"),
        ("p2^2 + 2*q2^4", "0"),
        ("p2^2 - 2*i*sqrt(2)*q2^2*p2 - 2*q2^4", "-4*i*sqrt(2)*q2"),
        ("p2^2 + 2*i*sqrt(2)*q2^2*p2 - 2*q2^4", "4*i*sqrt(2)*q2"),
        ("p1 - i*sqrt(2)*q1", "-i*sqrt(2)"),
        ("p1 + i*sqrt(2)*q1", "i*sqrt(2)"),
        ("p1^2 + 2*q1^2", "0"),
        ("p1^2 - 2*i*sqrt(2)*q1*p1 - 2*q1^2", "-2*i*sqrt(2)"),
        ("p1^2 + 2*i*sqrt(2)*q1*p1 - 2*q1^2", "2*i*sqrt(2)"),
    },
    ("Q(i,sqrt2)", "q1^4", 8): {
        ("p2", "0"),
        ("p2^2", "0"),
        ("p1 - i*sqrt(2)*q1^2", "-2*i*sqrt(2)*q1"),
        ("p1 + i*sqrt(2)*q1^2", "2*i*sqrt(2)*q1"),
        ("p1*p2 - i*sqrt(2)*q1^2*p2", "-2*i*sqrt(2)*q1"),
        ("p1*p2 + i*sqrt(2)*q1^2*p2", "2*i*sqrt(2)*q1"),
        ("p1^2 + 2*q1^4", "0"),
        ("p1^2 - 2*i*sqrt(2)*q1^2*p1 - 2*q1^4", "-4*i*sqrt(2)*q1"),
        ("p1^2 + 2*i*sqrt(2)*q1^2*p1 - 2*q1^4", "4*i*sqrt(2)*q1"),
    },
    ("Q(i,sqrt2)", "q1^4", 4): {
        ("p2", "0"),
        ("p1 + i*sqrt(2)*q1^2", "2*i*sqrt(2)*q1"),
        ("p1 - i*sqrt(2)*q1^2", "-2*i*sqrt(2)*q1"),
    },
}


class ExtSearch(Workload):
    """The ROADMAP system V = q1^2 + q2^4 on Q(i, sqrt 2) at degree 8, the
    corpus system V = q1^4 on Q(i, sqrt 2) at degree 8, and seeded
    V = a*q1^2 + b*q2^4 on Q(i, sqrt d) at degree 5."""

    name = "ext_search"
    SMALL_DEGREE = 5
    ANCHOR_S = 12.0
    SMALL_S = 0.27

    def build(self, rng, seconds, smoke):
        from hamdarboux import load_system

        if smoke:
            anchors = [("Q(i,sqrt2)", "q1^4", 4)]
            count = 2
        else:
            anchors = [("Q(i,sqrt2)", "q1^2 + q2^4", 8), ("Q(i,sqrt2)", "q1^4", 8)]
            count = max(MIN_ITEMS - len(anchors), round((seconds - self.ANCHOR_S) / self.SMALL_S))
        anchor_jobs = []
        for field_text, V, degree in anchors:
            system = load_system(gen.system_text(field_text, V))
            anchor_jobs.append(Job(f"ext-anchor{len(anchor_jobs)}", {
                "system": system, "degree": degree, "pinned": PINNED[(field_text, V, degree)],
                "found": [], "probes": [],
            }))
        # the ROADMAP's documented omission, (p1 + i*sqrt(2)*q1)(p2 + i*sqrt(2)*q2^2)
        # and its conjugate: counted as known-missing, not as a failure
        if not smoke:
            anchor_jobs[0].payload["probes"] = [
                "(p1 + i*sqrt(2)*q1)*(p2 + i*sqrt(2)*q2^2)",
                "(p1 - i*sqrt(2)*q1)*(p2 - i*sqrt(2)*q2^2)",
            ]
        jobs = []
        for k in range(count):
            d, a, b = gen.random_ext_oscillator(rng)
            V = f"{a}*q1^2 + {b}*q2^4".replace("+ -", "- ")
            system = load_system(gen.system_text(f"Q(i,sqrt{d})", V))
            jobs.append(Job(f"ext{k:03d}", {
                "system": system, "degree": self.SMALL_DEGREE, "pinned": set(),
                # p2 + c*q2^2 is found by the search at this commit; p1 + c*q1 has
                # a constant cofactor that needs two nonzero cofactor unknowns and
                # is not (ROADMAP item 2), so it is a probe
                "found": [f"p2 + {c}*q2^2" for c in gen.ext_root_texts(d, -2 * b)],
                "probes": [f"p1 + {c}*q1" for c in gen.ext_root_texts(d, -2 * a)],
            }))
        # spread the small searches before, between and after the anchors, so
        # their times sample the whole run rather than its last seconds
        for i, anchor in enumerate(anchor_jobs):
            jobs.insert((i + 1) * count // (len(anchor_jobs) + 1) + i, anchor)
        return jobs

    def run(self, job):
        from hamdarboux import search_darboux

        return search_darboux(job.payload["system"], job.payload["degree"])

    def check(self, outcomes, reports):
        from hamdarboux import ParseContext, cofactor_of, parse_poly

        known_missing = 0
        for out in outcomes:
            out.digest = report_digest(reports.get(out.job.id, []))
            if out.error:
                continue
            payload, report = out.job.payload, out.value
            system = payload["system"]
            out.problems += _recheck(system, report.certificates)
            reported = set(map(_cert_key, report.certificates))
            expected = set(payload["pinned"])
            ctx = ParseContext(system.varset, system.field)
            for text in payload["found"] + payload["probes"]:
                cert = cofactor_of(system, parse_poly(text, ctx))
                if cert is None:
                    out.problems.append(f"constructed {text} is not a Darboux polynomial")
                elif text in payload["found"]:
                    expected.add(_cert_key(cert))
                elif _cert_key(cert) not in reported:
                    known_missing += 1
            out.problems += [f"known certificate {m} not reported" for m in sorted(expected - reported)]
        self.extra_info = {"search.known_missing": known_missing}


# -- cli_short ----------------------------------------------------------------------

H2 = "1/2*p1^2 + 1/2*p2^2 + (q1^2 + q2^2)^2"

# command -> variants of (system, --poly arguments, expected result fields)
CLI_MIX = {
    "cofactor": [
        ("s3", [G3], {"kind": "darboux_certificate", "cofactor": "-2*i*sqrt(2)*q2"}),
        ("s1", ["p2"], {"kind": "darboux_certificate", "cofactor": "0"}),
        ("s1", ["p1"], {"kind": "not_darboux", "verdict": False}),
    ],
    "verify-integral": [
        ("s1", ["p2"], {"verdict": True}),
        ("s2", ["q1*p2 - q2*p1"], {"verdict": True}),
        ("s3", ["p2^2 + 2*q2^4"], {"verdict": True}),
        ("s4", [I4], {"verdict": True}),
        ("s3", ["p2^2 + 2*q2^2"], {"verdict": False}),
    ],
    "reversal": [("s3", [G3], {"verdict": True}), ("s5", [G5], {"verdict": True})],
    "independence": [
        ("s2", ["q1*p2 - q2*p1", H2], {"verdict": True}),
        ("s1", ["p2", "p2^2"], {"verdict": False}),
    ],
    "irreducible": [(name, [], {"verdict": True}) for name in SYSTEMS],
    "theorem2": [
        ("s3", [G3], {"verdict": "consistent-with-theorem"}),
        ("s5", [G5], {"verdict": "consistent-with-theorem"}),
    ],
    "examples": [(None, [], {"verdict": True})],
}


def _check_cli_json(command: str, expect: dict, data: dict) -> list[str]:
    problems = []
    if data.get("timing_ms") != 0:
        problems.append("timing_ms is not pinned to 0")
    results = data.get("results") or []
    if not results:
        return problems + ["no results"]
    if command == "examples":
        bad = [r.get("evidence") for r in results if r.get("verdict") is not True]
        return problems + [f"golden check failed: {b}" for b in bad]
    first = results[0]
    for key, value in expect.items():
        if first.get(key) != value:
            problems.append(f"{key} = {first.get(key)!r}, expected {value!r}")
    if command == "reversal" and (len(results) != 2 or results[1].get("cofactor") != "0"):
        problems.append("reversal did not return a first integral with cofactor 0")
    return problems


class CliShort(Workload):
    name = "cli_short"
    in_process = False
    CALL_S = 0.75

    def __init__(self, root: Path):
        self.root = root
        self.system_dir = root / ".perfbench" / "systems"

    def build(self, rng, seconds, smoke):
        self.system_dir.mkdir(parents=True, exist_ok=True)
        for name, (field_text, V) in SYSTEMS.items():
            (self.system_dir / f"{name}.sys").write_text(gen.system_text(field_text, V))
        commands = list(CLI_MIX)
        passes = 1 if smoke else max(
            math.ceil(MIN_ITEMS / len(commands)), round(seconds / (self.CALL_S * len(commands)))
        )
        jobs = []
        for _ in range(passes):
            for command in gen.cli_pass_order(rng, commands):
                system, polys, expect = rng.choice(CLI_MIX[command])
                argv = [command]
                if system is not None:
                    argv += ["--system", str(self.system_dir / f"{system}.sys")]
                for poly in polys:
                    argv += ["--poly", poly]
                argv += ["--output", "json"]
                jobs.append(Job(f"cli{len(jobs):03d}-{command}", {"argv": argv, "expect": expect}))
        return jobs

    def spawn(self, cmd: list[str]) -> tuple[int, str, str, int]:
        """Run one child to completion: (exit code, stdout, stderr, max RSS in KiB)."""
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        out_path = self.root / ".perfbench" / "child.out"
        err_path = self.root / ".perfbench" / "child.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=env)
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss

    def run(self, job):
        argv = job.payload["argv"]
        if self.tracer is None:
            return self.spawn([sys.executable, "-m", "hamdarboux.cli", *argv])
        spans_file = self.root / ".perfbench" / "child.spans"
        child = Path(__file__).resolve().parent / "child.py"
        result = self.spawn([sys.executable, str(child), "cli", str(spans_file), *argv])
        data = json.loads(spans_file.read_text())
        self.tracer.merge(data["spans"], data["counts"], job.id)
        return result

    def check(self, outcomes, reports):
        for out in outcomes:
            if out.error:
                continue
            code, stdout, stderr, _ = out.value
            out.digest = digest_of([stdout])
            if code != 0:
                out.error = f"exit {code}: {stderr.strip()[-200:]}"
                continue
            try:
                data = json.loads(stdout)
            except json.JSONDecodeError as exc:
                out.problems.append(f"output is not JSON: {exc}")
                continue
            command = out.job.payload["argv"][0]
            out.problems += _check_cli_json(command, out.job.payload["expect"], data)


# -- rk4_drift ------------------------------------------------------------------------

DRIFT_CASES = [
    ("s1", "p2", True),
    ("s2", "q1*p2 - q2*p1", True),
    ("s3", "p2^2 + 2*q2^4", True),
    ("s4", I4, True),
    ("s2", "p1", False),  # control: not a first integral
]
DRIFT_H, DRIFT_T = 1e-3, 1.0
INTEGRAL_BOUND, CONTROL_FLOOR = 1e-6, 1e-2


class Rk4Drift(Workload):
    """Drift of the four criterion-8 integrals and the p1 control, 16 seeded
    initial states per case and pass."""

    name = "rk4_drift"
    STATES = 16
    PASS_S = 8.4

    def build(self, rng, seconds, smoke):
        from hamdarboux import ParseContext, load_system, parse_poly

        systems = {name: load_system(gen.system_text(*SYSTEMS[name])) for name in ("s1", "s2", "s3", "s4")}
        states = 4 if smoke else self.STATES
        passes = 1 if smoke else max(1, round(seconds / self.PASS_S))
        jobs = []
        for p in range(passes):
            for c, (name, text, integral) in enumerate(DRIFT_CASES):
                system = systems[name]
                F = parse_poly(text, ParseContext(system.varset, system.field))
                for x0 in gen.drift_states(rng, states):
                    jobs.append(Job(f"rk4-p{p}-c{c}-{len(jobs):03d}", {
                        "system": system, "F": F, "x0": x0, "group": (p, c), "integral": integral,
                    }))
        return jobs

    def run(self, job):
        from hamdarboux import drift

        payload = job.payload
        return drift(payload["system"], payload["F"], payload["x0"], DRIFT_H, DRIFT_T)

    def check(self, outcomes, reports):
        from hamdarboux import verify_first_integral

        groups: dict[tuple, list[Outcome]] = {}
        for out in outcomes:
            out.digest = digest_of([repr(out.value)])
            groups.setdefault(out.job.payload["group"], []).append(out)
        exact = {}
        for members in groups.values():
            done = [o for o in members if not o.error]
            if not done:
                continue
            payload = done[0].job.payload
            key = payload["group"][1]
            if key not in exact:
                exact[key] = verify_first_integral(payload["system"], payload["F"])
            worst = max(done, key=lambda o: o.value)
            if exact[key] != payload["integral"]:
                worst.problems.append("exact first-integral check disagrees with the case")
            if payload["integral"] and not worst.value <= INTEGRAL_BOUND:
                worst.problems.append(f"drift {worst.value:.3e} above {INTEGRAL_BOUND}")
            if not payload["integral"] and not worst.value > CONTROL_FLOOR:
                worst.problems.append(f"control drift {worst.value:.3e} not above {CONTROL_FLOOR}")


def make(name: str, root: Path) -> Workload:
    if name == "cli_short":
        return CliShort(root)
    return {"odd_suite": OddSuite, "ext_search": ExtSearch, "rk4_drift": Rk4Drift}[name]()


NAMES = ("odd_suite", "ext_search", "cli_short", "rk4_drift")
