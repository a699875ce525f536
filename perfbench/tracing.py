"""Span tracing of the cdam package from outside it.

`Tracer.install` replaces every public function and public method of the
cdam modules with a wrapper that records a span (name, parent, start, end)
in memory, at every module that imports the function by name, so calls
through `cdam.experiments.retrieval_vector` and `cdam.dynamics.retrieval_vector`
land in the same span name.  `Tracer.uninstall` puts every original object
back.  No file of the package is changed.

A few wrappers also keep exact counters computed from argument shapes and
written files; `layer_metrics` turns spans and counters into the per-layer
metrics named `<module>.<function>.<measure>`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

TRACED_MODULES = ("automata", "cli", "dynamics", "experiments", "graphs", "ingest", "reports", "stats")

ROOT_SPAN = "bench.pass"
RETRIEVAL = "dynamics.retrieval_vector"
SETTLE = "experiments.AutomatonRunner.settle_from"


def _count_retrieval(counts, args, result):
    """Work of one `retrieval_vector` call on an (n, B) state stack.

    Flops: similarity Xi^T s 2npB, softmax 6pB, mixing M^T s 2p^2 B, blend
    a*s + h*(.) 3pB, projection Xi @ mixed 2npB, mean-load correction
    pB + 2nB.  Bytes: every float64 operand of those kernels read once and
    every result written once (Xi twice, M, the state in and out, three
    p x B intermediates, the mean load); a computed count, not a
    measurement of memory traffic.
    """
    sigma, patterns, coupling = args[0], args[1], args[2]
    n, p = patterns.values.shape
    b = 1 if sigma.ndim == 1 else sigma.shape[1]
    counts["dynamics.column_updates"] += b
    counts["dynamics.flops"] += 4 * n * p * b + 2 * p * p * b + 10 * p * b + 2 * n * b
    counts["dynamics.bytes"] += 8 * (2 * n * p + p * p + 2 * n * b + 3 * p * b + n)
    counts["mixing.flops"] += 2 * p * p * b
    counts["mixing.useful_flops"] += 2 * int((coupling.matrix != 0).sum()) * b


def _count_steps(counts, args, result):
    counts["dynamics.run.steps"] += result.steps


def _count_read(counts, args, result):
    counts["ingest.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, result):
    counts["reports.bytes_written"] += os.path.getsize(args[1])
    counts["reports.files_written"] += 1


HOOKS = {
    RETRIEVAL: _count_retrieval,
    "dynamics.run": _count_steps,
    "ingest.read_pnm": _count_read,
    "reports.trace_to_csv": _count_written,
    "reports.matrix_to_csv": _count_written,
    "reports.matrix_to_pgm": _count_written,
    "reports.write_manifest": _count_written,
}

# Counters that must repeat exactly from run to run of one seed.  Those in
# REFERENCE_COUNTS follow from shapes, step counts and file sizes of
# integer data, and must also equal the stored reference.  The size of the
# written reports follows from the repr of every float in them, so a change
# of one ulp in any output moves it: it is checked only for repetition
# across the passes of one run.
REFERENCE_COUNTS = (
    "dynamics.column_updates", "dynamics.flops", "dynamics.bytes", "graphs.coupling_density",
    "dynamics.run.steps", "experiments.automaton.iterations", "ingest.bytes_read",
)
EXACT_COUNTS = (*REFERENCE_COUNTS, "reports.bytes_written")


class Tracer:
    """Installs span-recording wrappers over the cdam package and removes them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"cdam.{m}") for m in TRACED_MODULES]
        owners = [importlib.import_module("cdam"), *modules]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{name}", obj)
                    for owner in owners:
                        for attr, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, attr, obj, wrapper)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, fn, self._wrap(f"{short}.{name}.{attr}", fn))

    def uninstall(self) -> bool:
        """Restore every patched name; True when each is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block: the benchmark's own root span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, parent, start, end) in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][1]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-name `calls`, `self_s` and `total_s`, the exact counters, and the
    ratios derived from them."""
    out: dict[str, float] = defaultdict(int)
    for (name, parent, start, end), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name}.total_s"] += end - start
    out.update(counts)
    roots = [end - start for name, parent, start, end in spans if parent is None]
    out["trace.root_s"] = sum(roots)
    out["trace.self_remainder_s"] = out["trace.root_s"] - sum(
        v for k, v in out.items() if k.endswith(".self_s")
    )
    settles = out.get(f"{SETTLE}.calls", 0)
    if settles:
        inside = sum(
            1 for i, span in enumerate(spans) if span[0] == RETRIEVAL and _has_ancestor(spans, i, SETTLE)
        )
        out["experiments.automaton.iterations"] = inside / settles
    flops, moved = out.get("dynamics.flops", 0), out.get("dynamics.bytes", 0)
    rv_time = out.get(f"{RETRIEVAL}.total_s", 0)
    out["dynamics.flops_per_byte"] = flops / moved if moved else 0.0
    out["dynamics.gflops"] = flops / rv_time / 1e9 if rv_time else 0.0
    mixing = out.get("mixing.flops", 0)
    out["graphs.coupling_density"] = out.get("mixing.useful_flops", 0) / mixing if mixing else 0.0
    return dict(out)
