"""In-memory span recorder and the wrappers that feed it.

The benchmark measures each layer from outside: it replaces public
functions of `hamdarboux` modules with wrappers that open a span around the
call.  Modules import each other's functions by name (`search` holds its own
reference to `lie_derivative` and `cofactor_of`), so a wrapper replaces every
reference to the original function in every loaded `hamdarboux` module.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (module, attribute, span name).  The span name's first component is the
# layer the time is charged to; `load_system` lives in `hamsys` but is the
# system-file entry point, so it is charged to `parsing`.  The `cli` layer is
# a region around the CLI run in a traced child process (see child.py).
TARGETS = (
    ("hamdarboux.search", "search_darboux", "search.search_darboux"),
    ("hamdarboux.search", "roots_in_field", "search.roots_in_field"),
    ("hamdarboux.search", "sqrt_in_field", "structure.sqrt_in_field"),
    ("hamdarboux.hamsys", "lie_derivative", "hamsys.lie_derivative"),
    ("hamdarboux.hamsys", "load_system", "parsing.load_system"),
    ("hamdarboux.darboux", "cofactor_of", "darboux.cofactor_of"),
    ("hamdarboux.structure", "check_theorem1", "structure.check_theorem1"),
    ("hamdarboux.structure", "jacobian_independent", "structure.jacobian_independent"),
    ("hamdarboux.structure", "is_irreducible_natural_H", "structure.is_irreducible_natural_H"),
    ("hamdarboux.numcheck", "drift", "numcheck.drift"),
    ("hamdarboux.numcheck", "integrate_rk4", "numcheck.integrate_rk4"),
    ("hamdarboux.parsing", "parse_poly", "parsing.parse_poly"),
    ("hamdarboux.parsing", "format_poly", "parsing.format_poly"),
    ("hamdarboux.corpus", "run_corpus", "corpus.run_corpus"),
)

# An untraced run wraps only the search entry point, to read the exact work
# counts off each report; one wrapper call per search costs nothing measurable.
COUNT_ONLY = ("search.search_darboux",)

LAYERS = ("search", "hamsys", "darboux", "structure", "numcheck", "parsing", "corpus", "cli")


class Recorder:
    """Spans as [name, start, end, parent, item] lists, plus work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.reports: dict[str, list] = {}
        self.active = False
        self.item = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._t0 = time.perf_counter()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self._t0, None, parent, self.item])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter() - self._t0

    def note(self, name: str, result) -> None:
        """Work counts read off a wrapped call's result."""
        if name == "search.search_darboux":
            self.reports.setdefault(self.item, []).append(result)
            self.counts["search.branches"] += result.branches_explored
            self.counts["search.certificates"] += len(result.certificates)
            self.counts["search.residuals"] += len(result.residual_conditions)
        elif name == "search.roots_in_field":
            self.counts["search.roots_found"] += len(result[0])
        elif name == "numcheck.integrate_rk4":
            self.counts["numcheck.rk4_steps"] += len(result.samples) - 1

    def merge(self, spans: list[list], counts: dict, item: str) -> None:
        """Append spans a child process recorded, shifted to end now."""
        base = len(self.spans)
        offset = time.perf_counter() - self._t0 - max((s[2] for s in spans), default=0.0)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start + offset, end + offset, -1 if parent < 0 else base + parent, item])
        self.counts.update(counts)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "partial", None)
                if partial is not None:
                    self.note(name, partial)
                raise
            finally:
                self.close(index)
            self.note(name, result)
            return result

        return wrapper

    def install(self, names=None) -> None:
        """Replace every reference to each target function with a wrapper."""
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or (names is not None and name not in names):
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "hamdarboux" or mod_name.startswith("hamdarboux."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block that is not a wrapped call."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """(total seconds, self seconds, calls) per span name."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, item) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[index]
            calls[name] += 1
        return total, own, calls
