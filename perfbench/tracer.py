"""Call tracing of shiftpat from outside the package.

``Tracer.install()`` replaces every public function of the six layer
modules, in every shiftpat namespace that binds it, by a wrapper that
counts calls and adds inclusive and self time. Self time comes from a
stack of open calls: a call's duration is charged to its caller as
child time. Generator functions are timed per resumption, so the work of
``marked_cycles`` lands on it and not on whoever iterates it. Spans are
recorded only around the benchmark's top-level steps. Everything stays in
memory until ``dump`` writes it as JSON.

Traced passes run at one worker, so no pool process ever runs a wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

import shiftpat
from shiftpat import cli, conjectures, enumeration, permutations, realization, words

LAYERS = (words, permutations, realization, enumeration, conjectures, cli)
NAMESPACES = (shiftpat,) + LAYERS
# Sweep entry points whose arguments are recorded: they give the computed
# work counters and the calls the fan-out comparison repeats.
SWEEPS = {
    "enumeration.enumerate_by_nmin",
    "enumeration.oracle_allowed",
    "enumeration.forbidden",
    "enumeration.minimal_forbidden",
}


def public_functions():
    """(qualified name, function) for each public function of each layer.

    A layer's public names are its ``__all__``; the CLI has none, and its
    one public entry point is ``main``.
    """
    out = []
    for module in LAYERS:
        short = module.__name__.rsplit(".", 1)[-1]
        for name in getattr(module, "__all__", ["main"]):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((f"{short}.{name}", obj))
    return out


def oracle_words(n: int, N: int) -> int:
    """Words oracle_allowed(n, N) scans: N^(n-1) bases, n-1 splits, 1 or 2 tails."""
    return N ** (n - 1) * (n - 1) * (1 if N == 1 else 2)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats = {}  # qualified name -> [calls, inclusive s, self s]
        self.check_in_nmin = 0  # check_permutation calls made while n_min is open
        self.sweeps = []  # {"fn", "args", "wall_s", "returned"}
        self.spans = []
        self._nmin_open = 0
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for key, fn in public_functions():
            self.stats.setdefault(key, [0, 0.0, 0.0])
            wrappers[id(fn)] = self._wrap(key, fn)
        for ns in NAMESPACES:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, key, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        is_nmin = key == "realization.n_min"
        is_check = key == "permutations.check_permutation"
        sweep_sig = inspect.signature(fn) if key in SWEEPS else None

        def pop(frame):
            dt = clock() - frame[1]
            stack.pop()
            stats[1] += dt
            stats[2] += dt - frame[0]
            if stack:
                stack[-1][0] += dt
            return dt

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.enabled:
                    return (yield from fn(*args, **kwargs))
                it = fn(*args, **kwargs)
                stats[0] += 1
                while True:
                    frame = [0.0, clock()]
                    stack.append(frame)
                    try:
                        value = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        pop(frame)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stats[0] += 1
            if is_check and self._nmin_open:
                self.check_in_nmin += 1
            if is_nmin:
                self._nmin_open += 1
            frame = [0.0, clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pop(frame)
                if is_nmin:
                    self._nmin_open -= 1
            if sweep_sig is not None:
                bound = sweep_sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.sweeps.append(
                    {"fn": key, "args": dict(bound.arguments), "wall_s": dt,
                     "returned": _size(result)}
                )
            return result

        return wrapper

    # -- spans and output ----------------------------------------------

    def span(self, name, start, end, parent=None) -> dict:
        """Record a span (seconds from the run's origin); returns it so the
        caller can set an end it does not know yet."""
        span = {"id": len(self.spans), "parent": parent, "name": name, "start": start, "end": end}
        self.spans.append(span)
        return span

    def snapshot(self) -> dict:
        """Counts so far, to tell one pass's calls from the next."""
        return {key: s[0] for key, s in self.stats.items()}

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["functions"] = {
            key: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
            for key, s in sorted(self.stats.items())
            if s[0]
        }
        doc["check_permutation_in_n_min"] = self.check_in_nmin
        doc["sweep_calls"] = self.sweeps
        doc["spans"] = self.spans
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)
            fh.write("\n")


def _size(result):
    """What a sweep returned: permutations classified (a PatternRow) or patterns in a set."""
    if hasattr(result, "counts") and isinstance(result.counts, dict):
        return sum(result.counts.values())
    try:
        return len(result)
    except TypeError:
        return None

