"""Span recorder for traced benchmark runs.

`SpanRecorder.install` wraps every public function of the signspectra
modules in each module namespace that holds it, so that `spectral.compound2`
and `exterior.compound2` both record spans, and calls that one module makes
into another (or into itself through its globals) become child spans.  No
file under `src/` is edited.  `restore` puts the original functions back and
checks that each slot holds its original again.

A span is (name, start, end, parent, input_id): `name` is
"<defining module>.<function>", times come from `time.perf_counter`,
`parent` is the index of the enclosing span or -1, and `input_id` is the id
of the benchmark input being processed (-1 during set-up).  Spans stay in
memory until `write` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("core", "exterior", "signsym", "digraph", "wsets", "spectral", "gen", "cli")

SETUP_INPUT = -1


def _compound_entries(result) -> dict:
    return {"exterior.compound2.entries_computed": int(result.size)}


def _w_candidate_counts(result) -> dict:
    return {
        "wsets.jxjt_combinations": result.j_count * result.jt_count,
        "wsets.unique_w_sets": len(result.candidates),
    }


# Exact counters read from return values, keyed by span name.
RESULT_COUNTERS = {
    "exterior.compound2": _compound_entries,
    "wsets.enumerate_w_candidates": _w_candidate_counts,
}


def public_functions(modules: dict) -> dict:
    """Map "<module>.<name>" to each plain function listed in a module's
    `__all__` and defined in that module."""
    found = {}
    for short, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{short}.{name}"] = obj
    return found


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.input_id = SETUP_INPUT
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = RESULT_COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.input_id)
            if count is not None and self.input_id != SETUP_INPUT:
                self.counters.update(count(result))
            return result

        return traced

    def install(self, modules: dict) -> None:
        if self._patched:
            raise RuntimeError("tracing is already installed")
        wrappers = {
            id(fn): (fn, self._wrap(name, fn))
            for name, fn in public_functions(modules).items()
        }
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        for mod, attr, original in self._patched:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")
        self._patched = []

    def self_times(self) -> dict:
        """Total self time in seconds per (name, is_setup).

        Calls run on one thread, so the children of a span never overlap and
        the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (name, start, end, _, input_id) in enumerate(self.spans):
            totals[name, input_id == SETUP_INPUT] += (end - start) - child[i]
        return totals

    def call_counts(self) -> Counter:
        """Calls per span name, set-up excluded."""
        return Counter(s[0] for s in self.spans if s[4] != SETUP_INPUT)

    def write(self, path) -> None:
        """Save every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "input_id"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
