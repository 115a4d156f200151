"""Call tracing for the benchmark's traced run.

The wrappers are installed from outside the package, around every public
function of each module, so the program's source is untouched.  Each call
(or, for a generator function, each iteration) adds to one aggregated entry
per ``(function, parent)``: call count, total time and self time, where self
time is total time minus the time of the traced calls made inside it.  Only
the per-operation roots keep full spans.  Everything stays in memory until
:meth:`Tracer.report`.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = ("weyl", "grassmann", "levi", "toroidal", "bp", "classify", "sweeps", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack: list[list] = []          # [key, time spent in traced children]
        self.table: dict[tuple, list] = {}   # (key, parent key) -> [calls, total, self]
        self.spans: list[dict] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the eight modules, and the sweep
        table entries, which ``cli`` reaches by reference."""
        wrapped = {}
        for modname in MODULES:
            mod = getattr(self.package, modname)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{modname}.{name}"
                wrapper = (self._wrap_generator(fn, key) if inspect.isgeneratorfunction(fn)
                           else self._wrap(fn, key))
                wrapped[fn] = wrapper
                self._saved.append((mod, name, fn))
                setattr(mod, name, wrapper)
        table = self.package.sweeps.SWEEPS
        self._saved_sweeps = dict(table)
        for check, (fn, bound, is_rank) in list(table.items()):
            table[check] = (wrapped.get(fn, fn), bound, is_rank)

    def uninstall(self) -> None:
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)
        self.package.sweeps.SWEEPS.update(self._saved_sweeps)
        self._saved.clear()

    # -- recording ----------------------------------------------------------

    def _finish(self, frame: list, key: str, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        parent = None
        if stack:
            stack[-1][1] += elapsed
            parent = stack[-1][0]
        entry = self.table.get((key, parent))
        if entry is None:
            self.table[(key, parent)] = [1, elapsed, elapsed - frame[1]]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]

    def _wrap(self, fn, key):
        clock, stack, finish = time.perf_counter, self.stack, self._finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(frame, key, clock() - start)
        return wrapper

    def _wrap_generator(self, fn, key):
        """Time each ``next`` on the generator, not the call creating it, so
        the consumer's work between items is not charged to ``fn``."""
        clock, stack, finish = time.perf_counter, self.stack, self._finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = [key, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    finish(frame, key, clock() - start)
                yield item
        return wrapper

    # -- per-operation roots ------------------------------------------------

    def begin(self, name: str) -> None:
        """Open the root span of one operation."""
        self._root_totals = self.totals()
        self.stack.append([name, 0.0])
        self._root_start = time.perf_counter()

    def end(self, index: int) -> None:
        start = self._root_start
        end = time.perf_counter()
        frame = self.stack[-1]
        self._finish(frame, frame[0], end - start)
        before, after = self._root_totals, self.totals()
        self.spans.append({
            "op": index, "name": frame[0], "start": start, "end": end,
            "time_s": {k: v - before.get(k, 0.0) for k, v in after.items()
                       if v != before.get(k, 0.0)},
        })

    def totals(self) -> dict[str, float]:
        """Self time so far per module, plus the inclusive time of
        ``levi.heads_below``, whose Bruhat scans are the query tail."""
        out: dict[str, float] = {}
        for (key, _), (_, total, self_s) in self.table.items():
            mod = key.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self_s
            if key == "levi.heads_below":
                out[key] = out.get(key, 0.0) + total
        return out

    def report(self) -> dict:
        return {
            "table": [[key, parent, *entry] for (key, parent), entry in self.table.items()],
            "spans": self.spans,
        }
