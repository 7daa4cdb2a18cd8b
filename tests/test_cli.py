import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hamdarboux import ParseContext, load_system, parse_poly
from hamdarboux.cli import main
from hamdarboux.numcheck import drift

from conftest import check_residuals_against_leaves

S1_EXT = "m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^4\n"
S1_Q = "m = 2\nfield = Q\nmu = 1, 1\nV = q1^4\n"
S2 = "m = 2\nfield = Q\nmu = 1, 1\nV = (q1^2 + q2^2)^2\n"


@pytest.fixture
def s1_ext(tmp_path):
    path = tmp_path / "s1_ext.sys"
    path.write_text(S1_EXT)
    return str(path)


@pytest.fixture
def s1_q(tmp_path):
    path = tmp_path / "s1_q.sys"
    path.write_text(S1_Q)
    return str(path)


@pytest.fixture
def s2(tmp_path):
    path = tmp_path / "s2.sys"
    path.write_text(S2)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cofactor_json(capsys, s1_ext):
    code, report = run_json(
        capsys, ["cofactor", "--system", s1_ext, "--poly", "p1 + i*sqrt(2)*q1^2"]
    )
    assert code == 0
    assert report["command"] == "cofactor"
    assert report["system"]["m"] == 2
    assert report["system"]["field"] == "Q(i,sqrt2)"
    assert report["results"][0]["cofactor"] == "2*i*sqrt(2)*q1"
    assert report["timing_ms"] == 0


def test_cofactor_of_a_quadratic_potential(capsys, tmp_path):
    # deg V = 2 takes the cofactor check's q-only branch: the oscillator's
    # q1 + i*p1 is p1 - i*q1 in monic form, with the constant cofactor -i
    path = tmp_path / "oscillator.sys"
    path.write_text("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = 1/2*q1^2 + 1/2*q2^2\n")
    with pytest.warns(UserWarning, match="deg V = 2"):
        code, report = run_json(capsys, ["cofactor", "--system", str(path), "--poly", "q1 + i*p1"])
    assert code == 0
    want = {"kind": "darboux_certificate", "poly": "p1 - i*q1", "cofactor": "-i", "verdict": True}
    assert report["results"] == [want]


def test_verify_negative_result_is_exit_zero(capsys, s1_q, tmp_path):
    code, report = run_json(
        capsys, ["verify-integral", "--system", s1_q, "--poly", "p1"]
    )
    assert code == 0
    assert report["results"][0]["verdict"] is False
    path = tmp_path / "quartic.sys"
    path.write_text("m = 2\nfield = Q\nmu = 1, 1\nV = q1^4 + q2^4\n")
    code, report = run_json(capsys, ["cofactor", "--system", str(path), "--poly", "p1"])
    assert code == 0
    assert report["results"] == [{"kind": "not_darboux", "poly": "p1", "verdict": False}]


def test_search_reports_residuals(capsys, s1_q):
    code, report = run_json(
        capsys, ["search", "--system", s1_q, "--max-gamma-degree", "4"]
    )
    assert code == 0
    assert report["residual_conditions"] == ["l1^2 + 8"]
    certs = [r for r in report["results"] if r["kind"] == "darboux_certificate"]
    assert [c["poly"] for c in certs] == ["p2"]
    # the text report lists the same residual strings
    assert main(["search", "--system", s1_q, "--max-gamma-degree", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "residual conditions: " + "; ".join(report["residual_conditions"]) in lines


def test_search_extension_field(capsys, s1_ext):
    code, report = run_json(
        capsys, ["search", "--system", s1_ext, "--gamma-degree", "4"]
    )
    assert code == 0
    certs = [r for r in report["results"] if r["kind"] == "darboux_certificate"]
    assert len(certs) == 3
    assert report["residual_conditions"] == []


def test_branch_cap_error_keeps_system_block(capsys, tmp_path):
    path = tmp_path / "quartic.sys"
    path.write_text("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^4 + q2^4\n")
    code, report = run_json(
        capsys,
        ["search", "--system", str(path), "--max-gamma-degree", "8", "--branch-cap", "2"],
    )
    assert code == 1
    assert report["system"]["m"] == 2
    assert report["system"]["V"] == "q1^4 + q2^4"


def test_reversal_and_theorem2(capsys, tmp_path):
    path = tmp_path / "s3.sys"
    path.write_text("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^2 + q2^4\n")
    code, report = run_json(
        capsys, ["reversal", "--system", str(path), "--poly", "i*p2 + sqrt(2)*q2^2"]
    )
    assert code == 0
    assert report["results"][1]["poly"] == "p2^2 + 2*q2^4"
    assert report["results"][1]["cofactor"] == "0"
    code, report = run_json(
        capsys, ["theorem2", "--system", str(path), "--poly", "i*p2 + sqrt(2)*q2^2"]
    )
    assert code == 0
    (result,) = report["results"]
    assert result["verdict"] == "consistent-with-theorem"
    assert [(c["poly"], c["cofactor"]) for c in result["evidence"]] == [("p2^2 + 2*q2^4", "0")]
    # p1 is no Darboux polynomial here: a usage error, like reversal's
    assert main(["theorem2", "--system", str(path), "--poly", "p1", "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_independence(capsys, s2):
    code, report = run_json(
        capsys,
        [
            "independence",
            "--system",
            s2,
            "--poly",
            "1/2*p1^2 + 1/2*p2^2 + (q1^2 + q2^2)^2",
            "--poly",
            "q1*p2 - q2*p1",
        ],
    )
    assert code == 0
    assert report["results"][0]["verdict"] is True


def test_irreducible(capsys, tmp_path, s2):
    code, report = run_json(capsys, ["irreducible", "--system", s2])
    assert code == 0
    assert report["results"][0]["verdict"] is True
    path = tmp_path / "red.sys"
    path.write_text("m = 2\nfield = Q\nmu = 1, 0\nV = -1/2*q2^4\n")
    code, report = run_json(capsys, ["irreducible", "--system", str(path)])
    assert code == 0
    assert report["results"][0]["verdict"] is False
    assert "G1" in report["results"][0]["evidence"]
    # over Q(i, sqrt2) the factors need the square root of -2 in the field
    path.write_text("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 0\nV = q2^4\n")
    code, report = run_json(capsys, ["irreducible", "--system", str(path)])
    assert code == 0
    assert report["results"][0]["verdict"] is False
    assert report["results"][0]["evidence"] == {
        "G1": "p1 - i*sqrt(2)*q2^2",
        "G2": "p1 + i*sqrt(2)*q2^2",
    }


def test_theorem1(capsys, tmp_path):
    path = tmp_path / "cubic.sys"
    path.write_text("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 + q2^3\n")
    code, report = run_json(
        capsys, ["theorem1", "--system", str(path), "--max-gamma-degree", "6"]
    )
    assert code == 0
    assert report["results"][0]["verdict"] == "consistent-with-theorem"


@pytest.mark.parametrize(
    "command, options",
    [
        ("theorem1", ["--max-gamma-degree", "-3"]),
        ("search", ["--max-gamma-degree", "-3"]),
        ("search", ["--gamma-degree", "-1"]),
        ("search", ["--max-gamma-degree", "4", "--branch-cap", "0"]),
        ("search", ["--max-gamma-degree", "4", "--branch-cap", "-5"]),
        ("theorem1", ["--max-gamma-degree", "6", "--branch-cap", "0"]),
    ],
    ids=[
        "theorem1-degree", "search-degree", "search-exact-degree",
        "zero-cap", "negative-cap", "theorem1-cap",
    ],
)
def test_meaningless_search_bounds_are_usage_errors(capsys, tmp_path, command, options):
    # a negative degree used to report an empty search (theorem1: a verdict
    # with no evidence, exit 0) and a cap below 1 "branch cap exceeded"
    path = tmp_path / "cubic.sys"
    path.write_text("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 + q2^3 + q1^2\n")
    code = main([command, "--system", str(path), "--output", "json"] + options)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_numcheck(capsys, s2):
    code, report = run_json(
        capsys,
        [
            "numcheck", "--system", s2,
            "--poly", "q1*p2 - q2*p1",
            "--h", "1e-2", "--T", "0.5", "--samples", "4",
        ],
    )
    assert code == 0
    assert report["results"][0]["verdict"] <= 1e-6
    # the verdict is the worst drift of the Random(0) states
    system = load_system(S2)
    F = parse_poly("q1*p2 - q2*p1", ParseContext(system.varset, system.field))
    rng = random.Random(0)
    states = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(4)]
    assert report["results"][0]["verdict"] == max(drift(system, F, x0, 1e-2, 0.5) for x0 in states)


def test_numcheck_verdict_is_nan_when_any_drift_is(capsys, tmp_path):
    # from some Random(0) states the force 6*q1^5 of V = -q1^6 + q2^4 sends
    # H to inf - inf = NaN within T = 1.1; the fifth of eight drifts is NaN
    # after finite ones, and Python's max alone would drop it
    text = "m = 2\nfield = Q\nmu = 1, 1\nV = -q1^6 + q2^4\n"
    path = tmp_path / "sextic.sys"
    path.write_text(text)
    H = "1/2*p1^2 + 1/2*p2^2 - q1^6 + q2^4"
    system = load_system(text)
    F = parse_poly(H, ParseContext(system.varset, system.field))
    rng = random.Random(0)
    drifts = [drift(system, F, [rng.uniform(-1.0, 1.0) for _ in range(4)], 0.1, 1.1) for _ in range(8)]
    assert 0.08 < drifts[0] < 0.081 and math.isnan(drifts[4])
    assert max(drifts) == drifts[0]
    argv = ["numcheck", "--system", str(path), "--poly", H, "--h", "0.1", "--T", "1.1", "--samples", "8"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert math.isnan(report["results"][0]["verdict"])


@pytest.mark.parametrize(
    "options",
    [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--h", "0.3", "--T", "0.1"],
        ["--T", "inf"],
        ["--h", "nan"],
        ["--h", "1e-320"],
    ],
    ids=["no-samples", "negative-samples", "partial-step", "infinite-horizon", "nan-step", "overflowing-steps"],
)
def test_numcheck_usage_errors(capsys, s2, options):
    # p1 is not a first integral here: an empty or stepless run must not
    # report verdict 0.0 ("no drift"), and a step count T/h that cannot be
    # counted must not end in a traceback
    code = main(["numcheck", "--system", s2, "--poly", "p1", "--output", "json"] + options)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_examples_all_green(capsys):
    code, report = run_json(capsys, ["examples"])
    assert code == 0
    assert report["system"] is None
    assert all(r["verdict"] for r in report["results"])
    assert len(report["results"]) == 11


# sha256 of the whole `--output json` stdout; a change to any certificate,
# residual, count or ordering in these reports changes the bytes.  A search
# also checks its summary (the last value), and every report checks its
# residuals against the leaves of the searches it ran.  The anchor's 14
# certificates are the four linear Darboux polynomials p1 +- i*sqrt2*q1 and
# p2 +- i*sqrt2*q2^2 and the ten products of two of them, which weight 8
# admits (test_search.py checks their closure).
GOLDEN_JSON = [
    pytest.param(
        "m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^2 + q2^4\n",
        ["search", "--max-gamma-degree", "8"],
        "2b3e888ee13088566173b801220b63e140fc6546f665cda84568221e914c423e",
        {"branches_explored": 176, "certificates": 14},
        id="search-anchor",
    ),
    pytest.param(
        "m = 2\nfield = Q\nmu = 1, 1\n"
        "V = 2*q1^3 - 3*q1^2*q2 + 3*q1*q2^2 + 3*q1^2 + q1*q2 + 3*q2^2 - 3*q2\n",
        ["theorem1", "--max-gamma-degree", "10"],
        "2c920e2db9378c1a45d27501a4bab2c1d5b8bba528566f55b5abb715fb9b113a",
        None,
        id="theorem1-residual",
    ),
    pytest.param(
        "m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = q1^2 + q2^4\n",
        ["theorem2", "--poly", "i*p2 + sqrt(2)*q2^2"],
        "75abae1fe914039f1ff5c0d14994f69a9e482369c009503117fcd3a9ba4ec675",
        None,
        id="theorem2",
    ),
    pytest.param(
        None,
        ["examples"],
        "b659954efda6882b39c679853f4de1a746f9134527617fe178342c15e0997e08",
        None,
        id="examples",
    ),
]


@pytest.mark.parametrize("system, argv, digest, summary", GOLDEN_JSON)
def test_golden_json_bytes(capsys, tmp_path, leaf_log, system, argv, digest, summary):
    if system is not None:
        path = tmp_path / "golden.sys"
        path.write_text(system)
        argv = argv[:1] + ["--system", str(path)] + argv[1:]
    assert main(argv + ["--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    report = json.loads(out)
    if summary is not None:
        result = next(r for r in report["results"] if r["kind"] == "search_summary")
        assert result["evidence"] == summary
    check_residuals_against_leaves(report["residual_conditions"], leaf_log)


def test_json_byte_identical(capsys, s1_q):
    main(["search", "--system", s1_q, "--max-gamma-degree", "4", "--output", "json"])
    first = capsys.readouterr().out
    main(["search", "--system", s1_q, "--max-gamma-degree", "4", "--output", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_parse_error_exit_one(capsys, s1_q):
    assert main(["cofactor", "--system", s1_q, "--poly", "p1 +* q1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_deep_nesting_exit_one(capsys, s1_q, tmp_path):
    # a --poly or a V nested past the parser's depth of 100 is a usage error
    # with its position, not a crash; inside V the position is the 101st '('
    # in the system file
    nested = "(" * 200 + "q1" + ")" * 200
    path = tmp_path / "nested.sys"
    path.write_text(f"m = 2\nfield = Q\nmu = 1, 1\nV = {nested}^4\n")
    for argv, position in [
        (["cofactor", "--system", s1_q, "--poly", nested], "(line 1, column 101)"),
        (["irreducible", "--system", str(path)], "(line 4, column 105)"),
    ]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("(line ") == 1
        assert f"nesting deeper than 100 levels {position}" in err


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts int strings of any length",
)
def test_unprintable_coefficient_exit_one(capsys, s1_q):
    # (10*p2)^5000 parses, but its coefficient has more digits than the
    # interpreter converts to text: a usage error about the input, not
    # advice on an interpreter setting
    assert main(["verify-integral", "--system", s1_q, "--poly", "(10*p2)^5000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "set_int_max_str_digits" not in err
    assert "digits and cannot be printed" in err


def test_huge_field_parameter_is_a_parse_error(capsys, tmp_path):
    # trial division up to sqrt(d) on a 19-digit d ran for hours; past the
    # fixed bound the field line is rejected at once
    import time

    from hamdarboux.field import MAX_D
    from hamdarboux.parsing import ParseError

    text = "m = 2\nfield = Q(i,sqrt1000000000000000003)\nmu = 1, 1\nV = q1^4\n"
    path = tmp_path / "huge_d.sys"
    path.write_text(text)
    start = time.monotonic()
    assert main(["irreducible", "--system", str(path)]) == 1
    assert time.monotonic() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(MAX_D) in err and "(line 2, column 1)" in err
    with pytest.raises(ParseError):
        load_system(text)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts int strings of any length",
)
def test_overlong_field_parameter_exit_one(capsys, tmp_path):
    # a d with more digits than the interpreter converts: a usage error at
    # the field line, not advice on an interpreter setting
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long_d.sys"
    path.write_text(f"m = 2\nfield = Q(i,sqrt{digits})\nmu = 1, 1\nV = q1^4\n")
    assert main(["irreducible", "--system", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: number too long (line 2, column 1)\n"
    assert "set_int_max_str_digits" not in err


def test_missing_file_exit_one(capsys):
    assert main(["cofactor", "--system", "/nonexistent.sys", "--poly", "p1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_not_darboux_reversal_exit_one(capsys, s1_q):
    assert main(["reversal", "--system", s1_q, "--poly", "p1 + q1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_internal_error_exit_two(capsys, s1_q, monkeypatch):
    import hamdarboux.cli as cli_module
    from hamdarboux.darboux import InternalInvariantError

    def boom(system, F):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli_module, "cofactor_of", boom)
    assert main(["cofactor", "--system", s1_q, "--poly", "p1"]) == 2
    assert "internal error:" in capsys.readouterr().err


def test_text_output_smoke(capsys, s1_ext):
    code = main(["search", "--system", s1_ext, "--gamma-degree", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "darboux_certificate" in out
    assert "timing_ms:" in out


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_exact_commands_load_neither_sympy_nor_numpy(tmp_path):
    # the exact checks need no factoring and no floating point, and numcheck's
    # drift runs on Python floats: a CLI process that runs them must not pay
    # for importing sympy or numpy, and the exact commands run before numcheck
    # must not pay for compiling numcheck either; the library's records are
    # named tuples, so no process pays for dataclasses (and inspect) either
    script = f"""
import contextlib, io, sys
from pathlib import Path
from hamdarboux.cli import main
from hamdarboux.corpus import CORPUS

paths = []
for k, entry in enumerate(CORPUS):
    path = Path({str(tmp_path)!r}) / f"corpus{{k}}.sys"
    path.write_text(entry.definition)
    paths.append(str(path))
reducible = Path({str(tmp_path)!r}) / "reducible.sys"
reducible.write_text("m = 2\\nfield = Q(i,sqrt2)\\nmu = 1, 0\\nV = q2^4\\n")
runs = [
    ["cofactor", "--system", paths[2], "--poly", "i*p2 + sqrt(2)*q2^2"],
    ["verify-integral", "--system", paths[1], "--poly", "q1*p2 - q2*p1"],
    ["reversal", "--system", paths[2], "--poly", "i*p2 + sqrt(2)*q2^2"],
    ["independence", "--system", paths[1], "--poly", "q1*p2 - q2*p1", "--poly", "p1^2"],
    ["irreducible", "--system", paths[0]],
    ["irreducible", "--system", paths[2]],
    ["irreducible", "--system", str(reducible)],
    ["theorem2", "--system", paths[2], "--poly", "i*p2 + sqrt(2)*q2^2"],
    ["numcheck", "--system", paths[1], "--poly", "q1*p2 - q2*p1"],
    ["examples"],
]
for argv in runs:
    if argv[0] == "numcheck":
        # every exact command before it ran without compiling numcheck
        assert "hamdarboux.numcheck" not in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv + ["--output", "json"])
    assert status == 0, (argv, status)
print(sorted(name for name in ("sympy", "numpy", "dataclasses") if name in sys.modules))
"""
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numcheck_names_never_load_numpy():
    # drift and integrate_rk4 run on Python floats and need no numpy
    script = """
import sys
import hamdarboux
from hamdarboux import ParseContext, drift, load_system, parse_poly
from hamdarboux.numcheck import integrate_rk4
system = load_system("m = 2\\nfield = Q\\nmu = 1, 1\\nV = (q1^2 + q2^2)^2\\n")
F = parse_poly("q1*p2 - q2*p1", ParseContext(system.varset, system.field))
x0 = [0.1, 0.2, 0.3, 0.4]
assert drift(system, F, x0, 1e-2, 0.5) <= 1e-6
assert len(integrate_rk4(system, x0, 1e-2, 0.5)) == 50 + 1
assert "numpy" not in sys.modules
numcheck = sys.modules["hamdarboux.numcheck"]
names = {"NotRealEvaluableError", "drift"}
assert all(getattr(hamdarboux, name) is getattr(numcheck, name) for name in names)
assert names <= set(hamdarboux.__all__)
"""
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    # __all__ lists the lazily loaded numcheck names beside the eager ones;
    # a listed name that no module defines any more fails here, in a fresh
    # interpreter, rather than at a user's import
    script = """
import hamdarboux
missing = [name for name in hamdarboux.__all__ if not hasattr(hamdarboux, name)]
print(len(hamdarboux.__all__), missing)
"""
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    count, missing = proc.stdout.split(" ", 1)
    assert int(count) > 0 and missing.strip() == "[]"
