"""Command-line front door.

Exit status: 0 for completed analyses (including negative mathematical
findings), 1 for user-input or operational errors, 2 for internal invariant
violations.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys as _sys
import time
from pathlib import Path

from .corpus import run_corpus
from .darboux import (
    DarbouxCertificate,
    InternalInvariantError,
    cofactor_of,
    reversal_integral,
    verify_first_integral,
)
from .hamsys import NaturalHamiltonian, load_system
from .parsing import ParseContext, format_field_spec, format_poly, parse_poly
from .search import BranchCapExceededError, SearchReport, search_darboux
from .structure import (
    FactorWitness,
    TheoremReport,
    check_theorem1,
    check_theorem2_pipeline,
    is_irreducible_natural_H,
    jacobian_independent,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamdarboux",
        description="Exact Darboux polynomials and first integrals of natural Hamiltonian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_system: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if needs_system:
            p.add_argument("--system", required=True, help="system-definition file")
        p.add_argument("--output", choices=["text", "json"], default="text")
        return p

    p = add("cofactor", "cofactor of a candidate Darboux polynomial")
    p.add_argument("--poly", required=True)

    p = add("verify-integral", "check L_H F = 0 exactly")
    p.add_argument("--poly", required=True)

    p = add("search", "bounded-degree Darboux polynomial search")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma-degree", type=int, help="exact weighted degree (homogeneous ansatz)")
    group.add_argument("--max-gamma-degree", type=int, help="search all weighted degrees up to this bound")
    p.add_argument("--branch-cap", type=int, default=10_000)

    p = add("reversal", "first integral tau(F)*F from a Darboux polynomial F")
    p.add_argument("--poly", required=True)

    p = add("independence", "functional independence of two polynomials")
    p.add_argument("--poly", action="append", required=True,
                   help="give twice: the two polynomials")

    add("irreducible", "irreducibility of H, with explicit factors if reducible")

    p = add("theorem1", "odd-degree potentials: no proper Darboux polynomial")
    p.add_argument("--max-gamma-degree", type=int, required=True)
    p.add_argument("--branch-cap", type=int, default=10_000)

    p = add("theorem2", "proper Darboux polynomial implies an independent integral")
    p.add_argument("--poly", required=True)

    p = add("numcheck", "RK4 drift of a claimed first integral")
    p.add_argument("--poly", required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=16)

    add("examples", "run the built-in golden corpus end to end", needs_system=False)
    return parser


def _system_block(system: NaturalHamiltonian | None) -> dict | None:
    if system is None:
        return None
    return {
        "m": system.m,
        "field": format_field_spec(system.field),
        "mu": [str(x) for x in system.mu],
        "V": format_poly(system.V),
        "degV": system.r,
    }


def _cert_result(cert: DarbouxCertificate) -> dict:
    return {
        "kind": "darboux_certificate",
        "poly": format_poly(cert.F),
        "cofactor": format_poly(cert.Lambda),
        "verdict": cert.proper,
    }


def _emit(report: dict, output: str, elapsed_ms: int) -> None:
    if output == "json":
        # timing is pinned to keep identical invocations byte-identical
        report["timing_ms"] = 0
        print(json.dumps(report, indent=2, sort_keys=False))
        return
    print(f"command: {report['command']}")
    system = report.get("system")
    if system:
        print(
            f"system: m={system['m']} field={system['field']} "
            f"mu={', '.join(system['mu'])} V={system['V']} (deg {system['degV']})"
        )
    for res in report["results"]:
        parts = [res["kind"]]
        for key in ("poly", "cofactor", "verdict", "evidence"):
            if key in res and res[key] is not None:
                parts.append(f"{key}={res[key]}")
        print("  " + "  ".join(str(p) for p in parts))
    if report.get("residual_conditions"):
        print("residual conditions: " + "; ".join(report["residual_conditions"]))
    print(f"timing_ms: {elapsed_ms}")


def _load(args) -> NaturalHamiltonian:
    path = Path(args.system)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read system file {path}: {exc}") from exc
    return load_system(text)


def _parse_arg_poly(system: NaturalHamiltonian, text: str):
    return parse_poly(text, ParseContext(system.varset, system.field))


def _darboux_arg(system: NaturalHamiltonian, text: str) -> DarbouxCertificate:
    """The certificate of the `--poly` argument; ValueError when it is not a
    Darboux polynomial of the system."""
    cert = cofactor_of(system, _parse_arg_poly(system, text))
    if cert is None:
        raise ValueError(f"{text} is not a Darboux polynomial of this system")
    return cert


def _theorem_result(command: str, report: TheoremReport) -> dict:
    return {
        "kind": command,
        "verdict": report.verdict.value,
        "evidence": [_cert_result(c) for c in report.evidence],
        "notes": report.notes,
    }


def _report(
    command: str, system: NaturalHamiltonian | None, results: list[dict], residuals: list[str]
) -> dict:
    return {
        "command": command,
        "system": _system_block(system),
        "results": results,
        "residual_conditions": residuals,
    }


def _run(args, system: NaturalHamiltonian | None) -> tuple[int, dict]:
    command = args.command
    results: list[dict] = []
    residuals: list[str] = []
    status = 0

    if command == "cofactor":
        F = _parse_arg_poly(system, args.poly)
        cert = cofactor_of(system, F)
        if cert is None:
            results.append({"kind": "not_darboux", "poly": format_poly(F), "verdict": False})
        else:
            results.append(_cert_result(cert))

    elif command == "verify-integral":
        F = _parse_arg_poly(system, args.poly)
        results.append(
            {
                "kind": "first_integral_check",
                "poly": format_poly(F),
                "verdict": verify_first_integral(system, F),
            }
        )

    elif command == "search":
        exact = args.gamma_degree is not None
        degree = args.gamma_degree if exact else args.max_gamma_degree
        report = search_darboux(
            system, degree, homogeneous_only=exact, branch_cap=args.branch_cap
        )
        for cert in report.certificates:
            results.append(_cert_result(cert))
        residuals = list(report.residual_conditions)
        results.append(
            {
                "kind": "search_summary",
                "evidence": {
                    "branches_explored": report.branches_explored,
                    "certificates": len(report.certificates),
                },
            }
        )

    elif command == "reversal":
        cert = _darboux_arg(system, args.poly)
        integral = reversal_integral(system, cert)
        results.append(_cert_result(cert))
        results.append(_cert_result(integral))

    elif command == "independence":
        if len(args.poly) != 2:
            raise ValueError("independence needs --poly given exactly twice")
        F = _parse_arg_poly(system, args.poly[0])
        G = _parse_arg_poly(system, args.poly[1])
        results.append(
            {
                "kind": "independence_check",
                "poly": [format_poly(F), format_poly(G)],
                "verdict": jacobian_independent(system, F, G),
            }
        )

    elif command == "irreducible":
        verdict, witness = is_irreducible_natural_H(system)
        evidence: object
        if isinstance(witness, FactorWitness):
            evidence = {"G1": format_poly(witness.G1), "G2": format_poly(witness.G2)}
        else:
            evidence = witness
        results.append({"kind": "irreducibility", "verdict": verdict, "evidence": evidence})

    elif command == "theorem1":
        report = check_theorem1(system, args.max_gamma_degree, branch_cap=args.branch_cap)
        results.append(_theorem_result(command, report))
        residuals = list(report.residual_conditions)

    elif command == "theorem2":
        report = check_theorem2_pipeline(system, _darboux_arg(system, args.poly))
        results.append(_theorem_result(command, report))

    elif command == "numcheck":
        if args.samples < 1:
            # no states would report verdict 0.0, which reads as "no drift"
            raise ValueError(f"--samples must be a positive count, got {args.samples}")
        from .numcheck import drift  # off the import path of the exact commands

        F = _parse_arg_poly(system, args.poly)
        rng = random.Random(0)
        drifts = [
            drift(system, F, [rng.uniform(-1.0, 1.0) for _ in range(2 * system.m)], args.h, args.T)
            for _ in range(args.samples)
        ]
        # Python's max drops a NaN that is not first; a NaN drift is the verdict
        worst = math.nan if any(math.isnan(d) for d in drifts) else max(drifts)
        results.append(
            {
                "kind": "drift",
                "poly": format_poly(F),
                "verdict": worst,
                "evidence": {"h": args.h, "T": args.T, "samples": args.samples},
            }
        )

    elif command == "examples":
        all_ok = True
        for entry_name, label, passed, detail in run_corpus():
            all_ok = all_ok and passed
            results.append(
                {
                    "kind": "golden_check",
                    "poly": detail,
                    "verdict": passed,
                    "evidence": f"{entry_name}: {label}",
                }
            )
        if not all_ok:
            status = 1

    return status, _report(command, system, results, residuals)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    system: NaturalHamiltonian | None = None
    try:
        if args.command != "examples":
            system = _load(args)
        status, report = _run(args, system)
    except BranchCapExceededError as exc:
        print(f"error: {exc}; partial results follow", file=_sys.stderr)
        partial: SearchReport = exc.partial
        report = _report(
            args.command,
            system,
            [_cert_result(c) for c in partial.certificates],
            list(partial.residual_conditions),
        )
        _emit(report, args.output, int((time.monotonic() - start) * 1000))
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: an exact search that exhausts the machine's memory
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return 2
    _emit(report, args.output, int((time.monotonic() - start) * 1000))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
