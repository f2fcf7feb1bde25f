"""In-process span tracer for the benchmark's traced runs.

Each traced function is wrapped once, and the wrapper is bound to *every*
module global that referred to the original, because the package uses
from-imports (``dp.belief_step``, ``falsify.belief_step`` and
``cli.bayes_oracle_belief`` are separate names for one function).
Self time comes from a span stack: a span's duration minus the time its
traced children covered. Exceptions propagate unchanged; the DP and the
filter chain rely on catching ``UnreachableError`` from ``belief_step``.

Counts and times are aggregated per function in memory. Spans of entry
points (with their parent span) are kept in a list and written out when
the run ends, so the leaf functions called millions of times cost no
memory per call.
"""

from __future__ import annotations

import functools
import sys
import time


class Record:
    """Per-function accumulators for the current phase."""

    __slots__ = ("name", "module", "entry", "calls", "self_s", "incl_s",
                 "unreachable", "extra", "by_op", "depth")

    def __init__(self, name: str, module: str, entry: bool):
        self.name, self.module, self.entry = name, module, entry
        self.depth = 0
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.unreachable = 0
        self.extra: dict[str, int] = {}
        self.by_op: dict[str, dict[str, float]] = {}

    def snapshot(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s,
                "unreachable": self.unreachable, "extra": dict(self.extra),
                "by_op": {op: dict(v) for op, v in self.by_op.items()}}


class Tracer:
    """Wraps package functions; one instance per traced run.

    ``targets`` maps "module.function" of the package to (entry point?,
    work count). A work count is None or (name, function of the return
    value), e.g. the number of value-table rows a solve built.
    """

    def __init__(self, prefix: str, targets: dict, unreachable_error: type,
                 extra_modules=()):
        self.clock = time.perf_counter
        self.op = ""
        self.phase = ""
        self.records: dict[str, Record] = {}
        self.module_depth: dict[str, int] = {}
        self.module_s: dict[str, float] = {}
        self.spans: list[list] = []   # [name, phase, op, parent, start, end]
        self.missing: list[str] = []
        self._stack: list[list] = []   # [child seconds, span index or None]
        self._patched: list[tuple] = []
        self._unreachable = unreachable_error
        self._install(prefix, targets, extra_modules)

    # -- installation ---------------------------------------------------

    def _install(self, prefix: str, targets, extra_modules) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        modules.extend(extra_modules)
        wrappers = {}
        for qual, (entry, work) in targets.items():
            mod_name, fn_name = qual.rsplit(".", 1)
            mod = sys.modules.get(f"{prefix}.{mod_name}")
            fn = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(fn):
                self.missing.append(qual)
                continue
            rec = Record(qual, mod_name, entry)
            self.records[qual] = rec
            self.module_depth.setdefault(mod_name, 0)
            self.module_s.setdefault(mod_name, 0.0)
            wrappers[id(fn)] = (fn, self._wrap(fn, rec, work))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        for mod in modules:
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{mod.__name__}.{attr} escaped the tracer")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, rec: Record, work):
        clock, stack = self.clock, self._stack
        module_depth, module_s = self.module_depth, self.module_s
        mod = rec.module
        unreachable = self._unreachable

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = None
            if rec.entry:
                span = len(self.spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                self.spans.append([rec.name, self.phase, self.op, parent, 0.0, 0.0])
            frame = [0.0, span]
            stack.append(frame)
            rec.depth += 1
            module_depth[mod] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except unreachable:
                rec.unreachable += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rec.calls += 1
                rec.self_s += dur - frame[0]
                rec.depth -= 1
                module_depth[mod] -= 1
                if rec.depth == 0:
                    rec.incl_s += dur
                    if span is not None:
                        per_op = rec.by_op.setdefault(self.op, {"calls": 0, "incl_s": 0.0})
                        per_op["calls"] += 1
                        per_op["incl_s"] += dur
                if module_depth[mod] == 0:
                    module_s[mod] += dur
                if stack:
                    stack[-1][0] += dur
                if span is not None:
                    self.spans[span][4:6] = [start, end]
            if work is not None:
                key, count = work[0], work[1](result)
                rec.extra[key] = rec.extra.get(key, 0) + count
                per_op = rec.by_op.setdefault(self.op, {"calls": 0, "incl_s": 0.0})
                per_op[key] = per_op.get(key, 0) + count
            return result

        return traced

    # -- phases ---------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Zero the accumulators; spans keep accumulating across phases."""
        self.phase = phase
        for rec in self.records.values():
            rec.reset()
        for mod in self.module_s:
            self.module_s[mod] = 0.0

    def end(self) -> dict:
        """Snapshot of the accumulators since the last begin()."""
        return {"functions": {q: r.snapshot() for q, r in self.records.items()},
                "module_s": dict(self.module_s)}
