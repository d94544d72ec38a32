"""In-memory spans around the package's public functions.

`Tracer.install` replaces every public function of the loaded `inputproc`
modules with a wrapper, under every module name that holds it: the call
`pias.enumerate_p1_models` goes through the same wrapper as
`principle1.enumerate_p1_models`, and both record a span named
`principle1.enumerate_p1_models` after the module that defines it. The
package's source is not touched; `uninstall` puts the originals back.

A span is (name, parent span, operation, start, end) and lives in flat
arrays until the run ends. A span's self time is its duration minus the
time its child spans cover. A few wrappers also count what the call did,
so ratios are measured where the work happens.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Order predicates and sort keys run O(candidates^2) times per sentence and
# cost less than a wrapper; spans around them would measure the tracer.
UNTRACED = frozenset({
    "is_ml_ctg_closed", "is_ml_pos_closed", "position_of", "atom_sort_key", "overhead",
})

# Callers that use only the canonical (first) P1 model of what they enumerate.
CANONICAL_USERS = frozenset({"principle2.interpret_paragraph", "pias.check_sentence"})


def package_modules() -> list:
    """The `inputproc` package and every submodule loaded so far."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "inputproc" or name.startswith("inputproc."))]


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.current_op = -1
        self.counters: Counter = Counter()
        self._wrappers: dict = {}
        self._patched: list = []

    # --- installing ---------------------------------------------------------

    def install(self, modules) -> None:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("inputproc.")):
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn):
        name = span_name(fn)
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = _OBSERVERS.get(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            outer = tracer.current
            tracer.current = index
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = outer
                starts[index] = t0
                ends[index] = t1
            if observe is not None:
                observe(tracer, outer, args, kwargs, result)
            return result

        return wrapper

    # --- reading ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; aggregate(first=mark) skips earlier ones."""
        return len(self.name)

    def parent_name(self, index: int) -> str | None:
        return self.names[self.name[index]] if index >= 0 else None

    def aggregate(self, first: int = 0) -> dict[str, list]:
        """name -> [calls, self seconds] over spans from index `first` on."""
        count = len(self.name)
        child_time = array("d", bytes(8 * (count - first)))
        for i in range(first, count):
            p = self.parent[i]
            if p >= first:
                child_time[p - first] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i in range(first, count):
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - child_time[i - first]
        return dict(out)


# --- counters ------------------------------------------------------------------

def _arg(args, kwargs, position, key):
    return args[position] if len(args) > position else kwargs[key]


def _entries_for(tracer, parent, args, kwargs, result):
    tracer.counters["entries_returned"] += len(result)
    tracer.counters["entries_scanned"] += len(_arg(args, kwargs, 1, "profile").lexicon)


def _candidate_meanings(tracer, parent, args, kwargs, result):
    tracer.counters["candidates"] += len(result)


def _enumerate_p1_models(tracer, parent, args, kwargs, result):
    tracer.counters["models"] += len(result)
    used = 1 if tracer.parent_name(parent) in CANONICAL_USERS else len(result)
    tracer.counters["models_used"] += used


def _check_sentence(tracer, parent, args, kwargs, result):
    tracer.counters["checked"] += 1
    tracer.counters["valuable"] += bool(result.valuable)


_OBSERVERS = {
    "lexicon.entries_for": _entries_for,
    "principle1.candidate_meanings": _candidate_meanings,
    "principle1.enumerate_p1_models": _enumerate_p1_models,
    "pias.check_sentence": _check_sentence,
}
