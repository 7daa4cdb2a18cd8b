"""Fresh-interpreter helpers started by run.py; `src/` is on PYTHONPATH.

    child.py setup WORKLOAD SEED SECONDS [--smoke]
        import hamdarboux and build the workload's inputs (timed by the parent
        as the set-up cost).
    child.py cli SPANS_FILE ARG...
        run `python -m hamdarboux.cli ARG...` in-process with every layer
        wrapped, and write the spans and counts to SPANS_FILE.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: str, seconds: str, smoke: bool) -> int:
    import hamdarboux  # noqa: F401  (the import is part of the set-up cost)
    import workloads

    workloads.make(workload, ROOT).build(random.Random(int(seed)), float(seconds), smoke)
    return 0


def cli(spans_file: str, argv: list[str]) -> int:
    import runpy

    from tracing import Recorder

    recorder = Recorder()
    recorder.active = True
    recorder.item = "cli"
    with recorder.region("import.hamdarboux"):
        import hamdarboux  # noqa: F401
    recorder.install()
    # run the CLI the way `python -m hamdarboux.cli` does; its module-level
    # imports pick up the wrappers installed in the other modules
    sys.argv = ["hamdarboux.cli", *argv]
    try:
        with recorder.region("cli.main"):
            runpy.run_module("hamdarboux.cli", run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exc:
        status = exc.code
    finally:
        recorder.active = False
        Path(spans_file).write_text(json.dumps({"spans": recorder.spans, "counts": recorder.counts}))
    return status


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        raise SystemExit(setup(*rest[:3], smoke="--smoke" in rest[3:]))
    raise SystemExit(cli(rest[0], rest[1:]))
