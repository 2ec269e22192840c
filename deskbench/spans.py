"""In-memory span tracing of cmpad's public functions, from outside the package.

`Tracer.active()` replaces every traced function by a timing wrapper in
each `cmpad` module namespace that holds it. `harness` and `cli` import
`train`, `backward`, `forward` and others by value, so patching only the
defining module would miss those calls; patching every reference means a
call is traced wherever its caller looks the name up. Leaving the block
restores the originals.

A span is (name, start, end, parent). Spans stay in lists until the run
ends. A sizer, where one is registered for a name, turns the call's
arguments and result into a number of work items (samples, bytes,
FLOP) that is stored with the span; it runs after the span has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable

# The layers of the program, in dependency order.
LAYERS = (
    "datagen", "datasets", "preprocessing", "network",
    "losses", "metrics", "harness", "cli",
)


def public_functions(package: str = "cmpad") -> dict[str, Callable]:
    """'<module>.<fn>' -> function, for the public functions each layer defines."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                found[f"{layer}.{attr}"] = value
    return found


class Tracer:
    """Records spans for the functions named in `targets` while active."""

    def __init__(self, targets: dict[str, Callable],
                 sizers: dict[str, Callable] | None = None,
                 package: str = "cmpad"):
        self.targets = targets
        self.sizers = sizers or {}
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: dict[int, object] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sizer = self.sizers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if sizer is not None:
                self.items[idx] = sizer(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        by_id = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.targets.items()}
        patched = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def spans(self) -> Iterable[tuple[str, float, float, int]]:
        return zip(self.names, self.starts, self.ends, self.parents)

    def indices(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - union_length(children[i]) for i in range(len(starts))
    ]


def busy_time(tracer: Tracer, names: Iterable[str]) -> float:
    """Wall time during which at least one span of the given names was open."""
    wanted = set(names)
    return union_length((s, e) for n, s, e, _ in tracer.spans() if n in wanted)


# ---------------------------------------------------------------------------
# percentiles


MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
        )
    return sorted(values)[max(math.ceil(q / 100.0 * n), 1) - 1]
