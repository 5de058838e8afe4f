"""The benchmark's host families on the test path, the whole-graph Steiner
DP twin and the session-wide kernelization sweep.

Tier-1 and the benchmark share one copy of the hosts: the generators, the
suite graphs and the suite instances live in `bench/workloads.py`, which
this file puts on `sys.path` for every test module."""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Union

import pytest
from hypothesis import settings

from lkcds.closure import ClosureResult, build_closure
from lkcds.cores import Rejection
from lkcds.graphs import Graph, Tree, mask_of
from lkcds.kernel import KernelInstance, KernelParams, kernelize
from lkcds.oracles import FOUND, INFEASIBLE, NONE_WITHIN_BUDGET

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from workloads import SUITE_SEED, build_suite, path_graph, suite_hosts  # noqa: E402

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

SUITE_GRAPHS = suite_hosts(SUITE_SEED)


def whole_graph_dp(g, groups, size_cap):
    """The subset DP with a heap and back pointers over every vertex of g:
    (status, vertices, edges).

    An independent twin of `steiner.SteinerLattice`, kept for cross-checks.
    A merge keeps the first strict improvement in descending submask order
    and growth the first heap pop, which are the trees the lattice's
    tie-breaks rebuild."""
    groups = [sorted(set(grp)) for grp in groups]
    gc = len(groups)
    full = (1 << gc) - 1
    cap_edges = None if size_cap is None else size_cap - 1
    unset = g.n
    dp = [[unset] * g.n for _ in range(full + 1)]
    back = {}
    for i, grp in enumerate(groups):
        for x in grp:
            dp[1 << i][x] = 0
            back[(1 << i, x)] = ("seed",)
    for mask in range(1, full + 1):
        row = dp[mask]
        if mask & (mask - 1):
            sub = (mask - 1) & mask
            while sub:
                a, b = dp[sub], dp[mask ^ sub]
                for v in range(g.n):
                    cand = a[v] + b[v]
                    if cand < row[v] and (cap_edges is None or cand <= cap_edges):
                        row[v] = cand
                        back[(mask, v)] = ("merge", sub)
                sub = (sub - 1) & mask
        heap = [(d, v) for v, d in enumerate(row) if d < unset]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > row[v] or (cap_edges is not None and d + 1 > cap_edges):
                continue
            for w in g.adj[v]:
                if d + 1 < row[w]:
                    row[w] = d + 1
                    back[(mask, w)] = ("grow", v)
                    heapq.heappush(heap, (d + 1, w))
    best = None
    for v in range(g.n):
        if dp[full][v] < unset and (best is None or dp[full][v] < dp[full][best]):
            best = v
    if best is None:
        gms = [mask_of(grp) for grp in groups]
        feasible = any(all(c & gm for gm in gms) for c in g.component_masks())
        return (NONE_WITHIN_BUDGET if feasible else INFEASIBLE), None, None
    vertices, edges = set(), set()
    todo = [(full, best)]
    while todo:
        mask, v = todo.pop()
        vertices.add(v)
        op = back[(mask, v)]
        if op[0] == "grow":
            edges.add((min(op[1], v), max(op[1], v)))
            todo.append((mask, op[1]))
        elif op[0] == "merge":
            todo += [(op[1], v), (mask ^ op[1], v)]
    return FOUND, tuple(sorted(vertices)), tuple(sorted(edges))


def tampered_path5_closure() -> ClosureResult:
    """Closure of path-5 around vertex 2 whose kept tree on (0, 1, 2) lists
    the edge (0, 1) twice: right edge count, host edges only, disconnected."""
    clo = build_closure(path_graph(5), [2], 1, 2)
    assert clo.kept[(0, 1, 2)].vertices == (0, 1, 2)
    kept = dict(clo.kept)
    kept[(0, 1, 2)] = Tree((0, 1, 2), ((0, 1), (0, 1)))
    return replace(clo, kept=kept)


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    graph: Graph
    params: KernelParams
    outcome: Union[KernelInstance, Rejection]

    @property
    def instance(self) -> KernelInstance:
        assert isinstance(self.outcome, KernelInstance)
        return self.outcome


@pytest.fixture(scope="session")
def pipeline_suite() -> List[SuiteRecord]:
    return [
        SuiteRecord(item.name, item.graph, item.params,
                    kernelize(item.graph, item.params, core_mode=item.core_mode))
        for item in build_suite(SUITE_SEED)
    ]
