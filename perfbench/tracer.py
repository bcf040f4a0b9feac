"""Call tracer for the sabmis package, installed from outside the program.

Every public function defined in a `sabmis.<layer>` module is replaced by a
wrapper that records one span per call: name, parent span, operation id,
start and end. The wrapper is bound in every `sabmis.*` namespace that holds
the function, because several modules import functions by name and would
otherwise keep calling the original. Modules are looked up in `sys.modules`
rather than as package attributes: `sabmis.measure` as an attribute is the
function `measure`, not the module.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans partition the time spent inside traced
calls. Time spent in class constructors, methods and private helpers counts
toward the public function that called them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "sabmis"
_MARK = "__perfbench_traced__"


def _package_modules() -> dict:
    prefix = PACKAGE + "."
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(prefix))}


def public_functions() -> dict:
    """{'<layer>.<name>': function} for public functions defined in each submodule."""
    found = {}
    for modname, mod in _package_modules().items():
        if modname == PACKAGE:
            continue
        layer = modname[len(PACKAGE) + 1:]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname):
                found[f"{layer}.{attr}"] = obj
    return found


def installed_wrappers() -> list[str]:
    """'<module>.<attr>' for every tracer wrapper still bound in the package."""
    return [f"{modname}.{attr}"
            for modname, mod in _package_modules().items()
            for attr, obj in vars(mod).items() if getattr(obj, _MARK, False)]


class Tracer:
    """Records spans for calls into the package while installed.

    Spans are kept in memory as lists [id, parent_id, op, name, start, end,
    child_seconds]; `summary` reduces them, `write_spans` writes them out.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[list] = []  # open spans, innermost last
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[0] if parent else -1, self.op, name, clock(), 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
                if parent is not None:
                    parent[6] += span[5] - span[4]

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in public_functions().items()}
        for mod in _package_modules().values():
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict:
        """{'<layer>.<name>': {'calls', 'total_s', 'self_s'}} over all recorded spans."""
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            duration = span[5] - span[4]
            rec = out[span[3]]
            rec["calls"] += 1
            rec["total_s"] += duration
            rec["self_s"] += duration - span[6]
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, parent_id, op, name, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(f'[{s[0]},{s[1]},{s[2]},"{s[3]}",{s[4]!r},{s[5]!r}]\n')


def layer_self_seconds(summary: dict) -> dict:
    """Self seconds summed per layer (the part of the name before the first dot)."""
    out: dict = defaultdict(float)
    for name, rec in summary.items():
        out[name.split(".", 1)[0]] += rec["self_s"]
    return dict(out)
