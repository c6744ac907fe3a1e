"""Outside-in span tracer: wraps functions of an unmodified package.

`Tracer.patch` replaces a public function in every namespace of the package
that holds it (including names bound by `from ... import ...`, under any
alias), or wraps a class's `__init__` so that construction is measured.
Spans are kept in memory as (name id, parent index, start, end) tuples and
aggregated after the traced call; `unpatch` restores every original object.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self, package: str, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay valid."""
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[object, Counter], None] | None = None) -> Callable:
        """Return `fn` recording one span per call under `name`. `observe`
        sees each successful result and may add to `counters`."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, counters)
                return result
            finally:
                spans[idx] = (nid, parent, t0, clock())
                stack.pop()

        return traced

    def patch(self, target: str, observe=None) -> bool:
        """Wrap `<module>.<attr>` of the package; a missing module or
        attribute is recorded in `absent` and leaves everything untouched."""
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(target)
            return False
        if isinstance(original, type):
            init = original.__dict__.get("__init__", original.__init__)
            self._set(original, "__init__", self.wrap(target, init, observe))
            return True
        wrapped = self.wrap(target, original, observe)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
        return True

    def _set(self, owner, key: str, value) -> None:
        had = key in vars(owner)
        self._restore.append((owner, key, vars(owner).get(key), had))
        setattr(owner, key, value)

    def unpatch(self) -> None:
        while self._restore:
            owner, key, value, had = self._restore.pop()
            if had:
                setattr(owner, key, value)
            else:
                delattr(owner, key)

    def summary(self, stage_of: dict[str, str], default_stage: str) -> dict:
        """Per-name calls / self / total seconds, per-stage self seconds and
        the wall time of the root spans.

        A span's self time is its duration minus its children's durations.
        Its stage is that of its nearest classified ancestor, so a classified
        span claims its whole subtree; a span with no classified ancestor
        takes its own entry in `stage_of`, else `default_stage`. The stage
        totals add up to the root spans' wall time.
        """
        n = len(self.spans)
        child = [0.0] * n
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: dict[str, list[float]] = {}
        total_s: dict[str, list[float]] = {}
        stages: dict[str, list[float]] = {}
        stage_idx: list[str | None] = [None] * n  # None: no classified ancestor
        wall = []
        for i, (nid, parent, t0, t1) in enumerate(self.spans):
            name = self.names[nid]
            dur = t1 - t0
            claimed = stage_idx[parent] if parent >= 0 else None
            stage_idx[i] = claimed or stage_of.get(name)
            stage = stage_idx[i] or default_stage
            calls[name] += 1
            self_s.setdefault(name, []).append(dur - child[i])
            total_s.setdefault(name, []).append(dur)
            stages.setdefault(stage, []).append(dur - child[i])
            if parent < 0:
                wall.append(dur)
        return {
            "calls": dict(calls),
            "self_s": {k: math.fsum(v) for k, v in self_s.items()},
            "total_s": {k: math.fsum(v) for k, v in total_s.items()},
            "stages": {k: math.fsum(v) for k, v in stages.items()},
            "wall_s": math.fsum(wall),
        }
