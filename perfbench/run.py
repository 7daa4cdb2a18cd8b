"""Benchmark of hamdarboux: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Workloads: odd_suite, ext_search,
cli_short, rk4_drift (see workloads.py for what each one loads).

With --trace 0 the job list runs untraced and the end-to-end metrics are
reported.  With --trace 1 the job list runs three times: untraced, with every
layer wrapped, and untraced again; the per-layer metrics come from the
wrapped pass, and its wall time minus that of the last pass is the tracing
overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when any output fails its
oracle; `failed` counts items that raised, exited non-zero, hit the branch cap
or failed an oracle.  The line before it carries the non-gated information
(machine, versions, exact work counts, report digests, fail_ratio).  Full
details, including the spans of a traced run, go to .perfbench/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_ONLY, LAYERS, Recorder  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.search_darboux_s": "s",
    "search.self_s": "s",
    "search.branches": "count",
    "search.certificates": "count",
    "search.residuals": "count",
    "search.certs_per_branch": "ratio",
    "search.roots_in_field_s": "s",
    "search.roots_in_field.calls": "count",
    "search.roots_per_factor_call": "ratio",
    "field.q_add_per_s": "1/s",
    "field.q_mul_per_s": "1/s",
    "field.q_inv_per_s": "1/s",
    "field.ext_add_per_s": "1/s",
    "field.ext_mul_per_s": "1/s",
    "field.ext_inv_per_s": "1/s",
    "poly.mul_per_s": "1/s",
    "poly.diff_per_s": "1/s",
    "poly.divide_exact_per_s": "1/s",
    "hamsys.lie_derivative_s": "s",
    "hamsys.lie_derivative.calls": "count",
    "darboux.cofactor_of_s": "s",
    "darboux.cofactor_of.calls": "count",
    "cli.import_s": "s",
    "cli.import_sympy_s": "s",
    "cli.import_numpy_s": "s",
    "cli.main_s": "s",
    "parsing.load_system_s": "s",
    "parsing.parse_poly_s": "s",
    "parsing.format_poly_s": "s",
    "structure.check_theorem1_s": "s",
    "structure.sqrt_in_field.calls": "count",
    "structure.jacobian_independent_s": "s",
    "structure.is_irreducible_natural_H_s": "s",
    "corpus.run_corpus_s": "s",
    "numcheck.drift_s": "s",
    "numcheck.integrate_rk4_s": "s",
    "numcheck.rk4_steps": "count",
    "numcheck.rhs_evals_computed": "count",
    "numcheck.steps_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "search"},
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def import_program(in_process: bool) -> None:
    """Put ./src first on the path and make sure the package comes from it."""
    package = SRC / "hamdarboux"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hamdarboux sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    if in_process:
        import hamdarboux

        if Path(hamdarboux.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"error: imported {hamdarboux.__file__}, not the checkout's sources")


def measure_setup(args, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports hamdarboux and
    builds the workload's inputs."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", args.workload, str(args.seed), str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(workload, jobs, recorder: Recorder, names=None) -> tuple[list, float]:
    """Run every job once with the `names` wrappers installed (all when None),
    timing each; a job that raises is a failed item."""
    if workload.in_process:
        from sympy.core.cache import clear_cache

        clear_cache()  # sympy's cache starts empty in every pass, as in a fresh process
        recorder.install(names)
    elif names is None:
        workload.tracer = recorder
    outcomes = []
    recorder.active = True
    start = time.perf_counter()
    try:
        for job in jobs:
            recorder.item = job.id
            t0 = time.perf_counter()
            try:
                value, error = workload.run(job), None
            except Exception as exc:  # counted in `failed`; the run goes on
                value, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append(workloads.Outcome(job, time.perf_counter() - t0, value, error))
        wall = time.perf_counter() - start
    finally:
        recorder.active = False
        recorder.uninstall()
        workload.tracer = None
    workload.check(outcomes, recorder.reports)
    return outcomes, wall


def tail(times: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten items beyond it."""
    n = len(times)
    pct = max(50, math.floor(100 * (n - 10) / n))
    if n < 2:
        return times[0], pct
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1], pct


def peak_rss_mb(workload, outcomes) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return max((o.value[3] for o in outcomes if o.value is not None), default=0) / 1024


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(name: str) -> str | None:
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "src_loc": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def per_layer(recorder: Recorder, systems, overhead: float, import_costs: dict) -> dict:
    total, own, calls = recorder.summary()
    counts = recorder.counts
    steps = counts["numcheck.rk4_steps"]
    metrics = {
        "search.search_darboux_s": total["search.search_darboux"],
        "search.self_s": own["search.search_darboux"],
        "search.branches": counts["search.branches"],
        "search.certificates": counts["search.certificates"],
        "search.residuals": counts["search.residuals"],
        "search.certs_per_branch": _ratio(counts["search.certificates"], counts["search.branches"]),
        "search.roots_in_field_s": total["search.roots_in_field"],
        "search.roots_in_field.calls": calls["search.roots_in_field"],
        "search.roots_per_factor_call": _ratio(counts["search.roots_found"], calls["search.roots_in_field"]),
        **layers.field_rates(systems),
        **layers.poly_rates(systems),
        "hamsys.lie_derivative_s": total["hamsys.lie_derivative"],
        "hamsys.lie_derivative.calls": calls["hamsys.lie_derivative"],
        "darboux.cofactor_of_s": total["darboux.cofactor_of"],
        "darboux.cofactor_of.calls": calls["darboux.cofactor_of"],
        **import_costs,
        "cli.main_s": total["cli.main"],
        "parsing.load_system_s": total["parsing.load_system"],
        "parsing.parse_poly_s": total["parsing.parse_poly"],
        "parsing.format_poly_s": total["parsing.format_poly"],
        "structure.check_theorem1_s": total["structure.check_theorem1"],
        "structure.sqrt_in_field.calls": calls["structure.sqrt_in_field"],
        "structure.jacobian_independent_s": total["structure.jacobian_independent"],
        "structure.is_irreducible_natural_H_s": total["structure.is_irreducible_natural_H"],
        "corpus.run_corpus_s": total["corpus.run_corpus"],
        "numcheck.drift_s": total["numcheck.drift"],
        "numcheck.integrate_rk4_s": total["numcheck.integrate_rk4"],
        "numcheck.rk4_steps": steps,
        "numcheck.rhs_evals_computed": 4 * steps,
        "numcheck.steps_per_s": _ratio(steps, total["numcheck.integrate_rk4"]),
        "trace.overhead_s": overhead,
    }
    for layer in LAYERS:
        if layer != "search":
            metrics[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    return metrics


def exact_counts(recorder: Recorder) -> dict:
    counts = recorder.counts
    return {k: counts[k] for k in ("search.branches", "search.certificates", "search.residuals")}


def search_counts(reports) -> dict:
    if not reports:
        return {}
    return {
        "search.branches": sum(r.branches_explored for r in reports),
        "search.certificates": sum(len(r.certificates) for r in reports),
        "search.residuals": sum(len(r.residual_conditions) for r in reports),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, ROOT)
    import_program(workload.in_process)
    OUT.mkdir(exist_ok=True)
    repeats = 1 if args.smoke else 3
    traced = bool(args.trace)
    setup_s = None if traced else measure_setup(args, repeats)

    tracer = Recorder()
    if traced and workload.in_process:
        tracer.install()
        tracer.active = True  # set-up spans, under item "setup"
    jobs = workload.build(random.Random(args.seed), args.seconds, args.smoke)
    tracer.active = False
    tracer.uninstall()

    counter = Recorder()
    outcomes, wall = timed_pass(workload, jobs, counter, COUNT_ONLY)
    all_outcomes = list(outcomes)
    info = {"items": len(outcomes)}
    if traced:
        traced_outcomes, traced_wall = timed_pass(workload, jobs, tracer)
        # the overhead compares against an untraced pass run after the traced
        # one: the first pass also pays one-time costs (lazy imports, allocator
        # growth) that would make tracing look cheaper than it is
        warm_outcomes, warm_wall = timed_pass(workload, jobs, Recorder(), COUNT_ONLY)
        for later in (traced_outcomes, warm_outcomes):
            for out, first in zip(later, outcomes):
                if out.digest != first.digest:
                    out.problems.append("report differs from the first pass")
            all_outcomes += later
        systems = workload.systems(jobs) or [_load_corpus_system(name) for name in workloads.SYSTEMS]
        metrics = per_layer(tracer, systems, traced_wall - warm_wall, layers.import_costs(ROOT, repeats))
        units = PER_LAYER
    else:
        times = [o.seconds for o in outcomes]
        tail_s, info["item_tail_pct"] = tail(times)
        metrics = {
            "wall_s": wall,
            "item_p50_s": statistics.median(times),
            "item_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(workload, outcomes),
        }
        units = END_TO_END

    failed = sum(o.failed for o in all_outcomes)
    problems = [f"{o.job.id}: {p}" for o in all_outcomes for p in ([o.error] if o.error else []) + o.problems]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fail_ratio": failed / len(all_outcomes),
        **{k: counter.counts[k] for k in ("search.branches", "search.certificates", "search.residuals")},
        **workload.extra_info,
        "digest": workloads.digest_of(o.digest for o in outcomes),
        **environment(),
        "problems": problems[:20],
    })
    result = {
        "correct": not any(o.problems for o in all_outcomes),
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name] if unit == "count" else float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    details = {
        "info": info,
        "result": result,
        "items": [
            {"id": o.job.id, "seconds": o.seconds, "digest": o.digest, "error": o.error, "problems": o.problems,
             **search_counts(counter.reports.get(o.job.id, []))}
            for o in all_outcomes
        ],
    }
    if traced:
        details["spans"] = tracer.spans
        details["counts"] = dict(tracer.counts)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _load_corpus_system(name: str):
    import gen
    from hamdarboux import load_system

    return load_system(gen.system_text(*workloads.SYSTEMS[name]))


if __name__ == "__main__":
    raise SystemExit(main())
