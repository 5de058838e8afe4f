"""Span tracing of the lkcds layers, from outside the package.

The package imports its helpers with `from .x import y`, so patching only
the defining module would miss every caller.  `Tracer.patched()` instead
rebinds each traced function in every lkcds module that holds it, then
restores the originals.  Spans are kept in flat arrays in memory and turned
into per-layer metrics when the run ends.  A layer's self time is its span
time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from lkcds import closure, cores, domination, graphs, kernel, oracles, projections, steiner

Observe = Optional[Callable[[Counter, object], None]]


def _solve_status(counts: Counter, res) -> None:
    if res.status == oracles.BUDGET_EXHAUSTED:
        counts["oracles.budget_exhausted"] += 1


def _connect(counts: Counter, res) -> None:
    counts["domination.merges"] += len(res.merge_paths)
    counts["domination.added_vertices"] += len(res.added)


def _core(key: str) -> Callable[[Counter, object], None]:
    def observe(counts: Counter, res) -> None:
        if isinstance(res, cores.DominationCore):
            counts[key] += len(res.vertices)

    return observe


def _classify(counts: Counter, res) -> None:
    counts["projections.classes"] += len(res)


def _build_closure(counts: Counter, res) -> None:
    for stat in ("candidate_subsets", "kept_trees", "pruned_pairs", "terminals"):
        counts[f"closure.{stat}"] += res.stats[stat]


# (defining module, function, span name, result observer)
TRACED: Tuple[Tuple[object, str, str, Observe], ...] = (
    (graphs, "bfs_layers", "graphs.bfs_layers", None),
    (oracles, "exact_ds", "oracles.exact_ds", _solve_status),
    (oracles, "cover_exists", "oracles.cover_exists", None),
    (oracles, "exact_cds", "oracles.exact_cds", _solve_status),
    (oracles, "exact_acds", "oracles.exact_acds", _solve_status),
    (steiner, "steiner_exact", "steiner.exact", None),
    (steiner, "steiner_size", "steiner.size", None),
    (domination, "connect", "domination.connect", _connect),
    (domination, "covering_family", "domination.covering_family", None),
    (projections, "classify", "projections.classify", _classify),
    (cores, "find_core", "cores.find_core", _core("cores.core_vertices")),
    (cores, "core_verify", "cores.core_verify", None),
    (cores, "connected_core", "cores.connected_core", _core("cores.stitched_vertices")),
    (closure, "build_closure", "closure.build", _build_closure),
    (closure, "avoiding_path_tree", "closure.path_tree", None),
    (closure, "verify_closure", "closure.verify", None),
    (kernel, "kernelize", "kernel.kernelize", None),
    (kernel, "lift", "kernel.lift", None),
    (kernel, "certify_ratio", "kernel.certify_ratio", None),
)

ORACLES = ("oracles.exact_ds", "oracles.cover_exists", "oracles.exact_cds", "oracles.exact_acds")
KERNELIZE = "kernel.kernelize"
VERDICT = "bench.verdict"


class Tracer:
    """Records nested spans of one thread; parents precede their children."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.kind = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str, observe: Observe) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Rebind every traced function wherever an lkcds module holds it."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for home, attr, name, observe in TRACED:
                original = getattr(home, attr)
                traced = self.wrap(original, name, observe)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "lkcds":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, traced)
            yield
        finally:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

    def summary(self) -> Dict[str, float]:
        """Total and self seconds per span name, plus the root-scoped sums."""
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        out: Dict[str, float] = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.kind[i]]
            rname = self.names[self.kind[root[i]]]
            out[f"{name}_s"] += dur[i]
            out[f"{name}_self_s"] += dur[i] - child[i]
            out[f"{name}@{rname}_s"] += dur[i]
            calls[f"{name}_calls"] += 1
            calls[f"{name}@{rname}_calls"] += 1
        out.update(calls)
        return out

    def span_rows(self) -> Iterator[str]:
        """One tab-separated line per span: id, parent, name, start, end."""
        for i in range(len(self.kind)):
            yield (
                f"{i}\t{self.parent[i]}\t{self.names[self.kind[i]]}\t"
                f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
            )
