"""Exact group Steiner trees by dynamic programming over group subsets.

Costs count tree vertices, not edges: a tree on one shared vertex scores 1.
The classic subset DP runs over masks of groups with unit edge weights, so
the vertex count is the edge optimum plus one.  Group count is capped
because the work grows as 2^groups times the vertices searched: under a
size cap that is the region within reach of every group, not the whole
graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .domination import ContractViolation
from .graphs import Graph, iter_bits, mask_of, tree_problem
from .oracles import FOUND, INFEASIBLE, NONE_WITHIN_BUDGET

GROUP_LIMIT = 8


@dataclass(frozen=True)
class SteinerTree:
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class SteinerResult:
    status: str
    tree: Optional[SteinerTree] = None

    @property
    def value(self) -> Optional[int]:
        return None if self.tree is None else self.tree.size


def steiner_exact(
    g: Graph, groups: Sequence[Iterable[int]], size_cap: Optional[int] = None
) -> SteinerResult:
    """Minimum-vertex tree meeting every group, with full reconstruction.

    Groups are read as vertex sets: nonempty, pairwise disjoint, at most
    GROUP_LIMIT of them.  A tree of more than `size_cap` vertices does not
    count; when only such trees exist the status is NONE_WITHIN_BUDGET,
    and INFEASIBLE when no tree exists at all.

    Runs the subset DP: dp[mask][v] is the fewest edges of a tree that
    contains v and meets all groups in mask, built by pairwise merges at v
    and unit-weight Dijkstra growth.  All tie-breaking is deterministic.

    Under a size cap below n the DP only visits the region within cap - 1
    of every group (an AND over groups of ORs of balls).  A tree of at
    most cap vertices lies in that region, since each of its vertices is
    at most cap - 1 tree edges from each group it meets; so do the
    subtrees it is merged from, which keeps every value and tie-break on
    the way to the answer, and the rebuilt tree, as over the whole graph.
    Uncapped calls, and caps of n or more, scan every vertex.
    """
    groups = tuple(tuple(sorted(set(grp))) for grp in groups)
    if not groups:
        raise ValueError("at least one group is required")
    if len(groups) > GROUP_LIMIT:
        raise ValueError(f"{len(groups)} groups exceed the limit {GROUP_LIMIT}")
    seen: set = set()
    for grp in groups:
        if not grp:
            raise ValueError("groups must be nonempty")
        for v in grp:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two groups")
            seen.add(v)
    if size_cap is not None and size_cap < 1:
        raise ValueError("size cap must be at least 1")
    for grp in groups:
        for v in grp:
            if not 0 <= v < g.n:
                raise ValueError(f"group vertex {v} out of range")
    gc = len(groups)
    full = (1 << gc) - 1
    cap_edges = None if size_cap is None else size_cap - 1
    order: Sequence[int] = range(g.n)
    adj: Sequence[Sequence[int]] = g.adj
    inside: Optional[bytearray] = None  # region membership; None: everywhere
    if cap_edges is not None and cap_edges < g.n - 1:
        region = -1
        for grp in groups:
            region &= g.ball_of(grp, cap_edges)
        order = list(iter_bits(region))
        inside = bytearray(g.n)
        for v in order:
            inside[v] = 1
        near_adj: List[Sequence[int]] = [()] * g.n
        for v in order:
            near_adj[v] = [w for w in g.adj[v] if inside[w]]
        adj = near_adj
    # a tree has at most n - 1 edges, so n marks "no tree yet"
    unset = g.n
    dp: List[List[int]] = [[unset] * g.n for _ in range(full + 1)]
    back: Dict[Tuple[int, int], Tuple] = {}
    for i, grp in enumerate(groups):
        for x in grp:
            if inside is None or inside[x]:
                dp[1 << i][x] = 0
                back[(1 << i, x)] = ("seed",)
    for mask in range(1, full + 1):
        row = dp[mask]
        if mask & (mask - 1):
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                a, b = dp[sub], dp[other]
                for v in order:
                    cand = a[v] + b[v]
                    if cand < row[v] and (cap_edges is None or cand <= cap_edges):
                        row[v] = cand
                        back[(mask, v)] = ("merge", sub)
                sub = (sub - 1) & mask
        heap = [(row[v], v) for v in order if row[v] < unset]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > row[v]:
                continue
            nd = d + 1
            if cap_edges is not None and nd > cap_edges:
                continue
            for w in adj[v]:
                if nd < row[w]:
                    row[w] = nd
                    back[(mask, w)] = ("grow", v)
                    heapq.heappush(heap, (nd, w))
    best_v = None
    for v in order:
        if dp[full][v] < unset and (best_v is None or dp[full][v] < dp[full][best_v]):
            best_v = v
    if best_v is None:
        group_masks = [mask_of(grp) for grp in groups]
        feasible = any(
            all(c & gm for gm in group_masks) for c in g.component_masks()
        )
        return SteinerResult(NONE_WITHIN_BUDGET if feasible else INFEASIBLE)

    vertices: set = set()
    edges: set = set()

    def collect(mask: int, v: int) -> None:
        vertices.add(v)
        op = back[(mask, v)]
        if op[0] == "seed":
            return
        if op[0] == "grow":
            u = op[1]
            edges.add((min(u, v), max(u, v)))
            collect(mask, u)
            return
        collect(op[1], v)
        collect(mask ^ op[1], v)

    collect(full, best_v)
    tree = SteinerTree(tuple(sorted(vertices)), tuple(sorted(edges)))
    problem = tree_problem(g, tree.vertices, tree.edges)
    if problem is not None:
        raise ContractViolation(f"reconstructed tree {problem}")
    if tree.size != dp[full][best_v] + 1:
        raise ContractViolation("value and reconstruction disagree")
    for grp in groups:
        if not vertices.intersection(grp):
            raise ContractViolation(f"tree misses group {grp}")
    return SteinerResult(FOUND, tree)


def steiner_size(g: Graph, groups: Sequence[Iterable[int]]) -> Optional[int]:
    """Vertex count of an optimum tree, or None when no tree exists."""
    return steiner_exact(g, groups).value
