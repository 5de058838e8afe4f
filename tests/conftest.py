"""Shared graph builders, the whole-graph Steiner DP twin and the
session-wide kernelization sweep."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Tuple, Union

import pytest
from hypothesis import settings

from lkcds.closure import ClosureResult, build_closure
from lkcds.cores import Rejection
from lkcds.graphs import Graph, Tree, mask_of, r_subdivision
from lkcds.kernel import KernelInstance, KernelParams, kernelize, params_from
from lkcds.oracles import FOUND, INFEASIBLE, NONE_WITHIN_BUDGET

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider_graph(legs: int, length: int) -> Graph:
    # center 0, leg i occupies 1 + i*length .. (i+1)*length
    edges = []
    for i in range(legs):
        prev = 0
        for j in range(length):
            v = 1 + i * length + j
            edges.append((prev, v))
            prev = v
    return Graph.from_edges(1 + legs * length, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def binary_tree(depth: int) -> Graph:
    n = 2 ** (depth + 1) - 1
    edges = []
    for v in range(n):
        for c in (2 * v + 1, 2 * v + 2):
            if c < n:
                edges.append((v, c))
    return Graph.from_edges(n, edges)


def caterpillar(spine: int, hairs: int = 1) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(hairs):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def lollipop(clique: int, tail: int) -> Graph:
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    prev = clique - 1
    for t in range(tail):
        edges.append((prev, clique + t))
        prev = clique + t
    return Graph.from_edges(clique + tail, edges)


def theta_graph(strands: int = 3, inner: int = 2) -> Graph:
    # two hubs joined by `strands` disjoint paths with `inner` interior each
    edges = []
    nxt = 2
    for _ in range(strands):
        prev = 0
        for _ in range(inner):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(nxt, edges)


def cube_graph() -> Graph:
    edges = []
    for v in range(8):
        for b in range(3):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return Graph.from_edges(8, edges)


def wheel_graph(rim: int) -> Graph:
    edges = [(0, i) for i in range(1, rim + 1)]
    for i in range(1, rim + 1):
        edges.append((i, i % rim + 1))
    return Graph.from_edges(rim + 1, edges)


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def random_connected(n: int, extra: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    tries = 0
    while extra > 0 and tries < 50 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        tries += 1
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e not in edges:
            edges.add(e)
            extra -= 1
    return Graph.from_edges(n, sorted(edges))


SUITE_GRAPHS: List[Tuple[str, Graph]] = [
    ("path-5", path_graph(5)),
    ("path-9", path_graph(9)),
    ("path-12", path_graph(12)),
    ("cycle-6", cycle_graph(6)),
    ("cycle-9", cycle_graph(9)),
    ("cycle-12", cycle_graph(12)),
    ("grid-2x3", grid_graph(2, 3)),
    ("grid-3x3", grid_graph(3, 3)),
    ("grid-3x4", grid_graph(3, 4)),
    ("grid-4x4", grid_graph(4, 4)),
    ("grid-5x5", grid_graph(5, 5)),
    ("star-5", star_graph(5)),
    ("star-8", star_graph(8)),
    ("spider-3x2", spider_graph(3, 2)),
    ("spider-4x3", spider_graph(4, 3)),
    ("caterpillar-6", caterpillar(6)),
    ("btree-2", binary_tree(2)),
    ("btree-3", binary_tree(3)),
    ("lollipop-4-4", lollipop(4, 4)),
    ("theta-3x2", theta_graph()),
    ("cube", cube_graph()),
    ("wheel-7", wheel_graph(7)),
    ("rtree-10", random_tree(10, 1)),
    ("rtree-12", random_tree(12, 2)),
    ("rtree-14", random_tree(14, 3)),
    ("sparse-10", random_connected(10, 2, 4)),
    ("sparse-12", random_connected(12, 2, 5)),
    ("sparse-14", random_connected(14, 2, 6)),
    # cliques with two fresh vertices on every edge
    ("k5-subdiv2", r_subdivision(complete_graph(5), 3)[0]),
    ("k6-subdiv2", r_subdivision(complete_graph(6), 3)[0]),
    ("k7-subdiv2", r_subdivision(complete_graph(7), 3)[0]),
]


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


def suite_settings(r: int) -> List[Fraction]:
    base = 4 * r + 3
    return [Fraction(base), Fraction(2 * base)]


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
    records = []
    for name, g in SUITE_GRAPHS:
        for r in (1, 2):
            for alpha in suite_settings(r):
                for k in (1, 4):
                    params = params_from(k, r, alpha=alpha)
                    outcome = kernelize(g, params, core_mode="heuristic")
                    records.append(SuiteRecord(name, g, params, outcome))
    assert len(records) >= 200
    return records
