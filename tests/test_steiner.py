"""Group Steiner trees measured in vertices, against brute force."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, grid_graph, path_graph, random_connected
from lkcds.graphs import Graph, mask_of
from lkcds.oracles import FOUND, INFEASIBLE, NONE_WITHIN_BUDGET, brute_steiner
from lkcds.steiner import steiner_exact, steiner_size


def test_query_validation():
    g = grid_graph(3, 3)
    for groups, cap, message in [
        ([], None, "at least one group"),
        ([[0], []], None, "nonempty"),
        ([[0], [0, 1]], None, "vertex 0 appears in two groups"),
        ([[i] for i in range(9)], None, "9 groups exceed the limit 8"),
        ([[0], [1]], 0, "size cap must be at least 1"),
        ([[0], [9]], None, "group vertex 9 out of range"),
    ]:
        with pytest.raises(ValueError, match=message):
            steiner_exact(g, groups, size_cap=cap)
    # groups are vertex sets: member order and repeats do not matter
    plain = steiner_exact(g, [[1, 2], [6]], size_cap=4)
    assert plain.status == FOUND
    assert steiner_exact(g, [(2, 1, 2), [6, 6]], size_cap=4) == plain


def test_frozen_cycle_values():
    c6 = cycle_graph(6)
    res = steiner_exact(c6, [[0], [2], [4]])
    assert res.status == FOUND and res.value == 5
    assert steiner_size(c6, [[0], [1]]) == 2
    assert steiner_size(c6, [[0, 3], [1, 4]]) == 2
    assert steiner_size(c6, [[0], [3]]) == 4


def test_single_group_is_one_vertex():
    g = grid_graph(3, 3)
    res = steiner_exact(g, [[4, 8]])
    assert res.value == 1
    assert res.tree.vertices == (4,)


def test_tree_is_consistent():
    g = grid_graph(3, 4)
    res = steiner_exact(g, [[0], [3], [8]])
    assert res.status == FOUND
    tree = res.tree
    assert len(tree.edges) == len(tree.vertices) - 1
    vs = set(tree.vertices)
    for a, b in tree.edges:
        assert a in vs and b in vs
        assert b in g.adj[a]


def test_cap_and_infeasible_statuses():
    p5 = path_graph(5)
    assert steiner_exact(p5, [[0], [4]], size_cap=4).status == NONE_WITHIN_BUDGET
    assert steiner_exact(p5, [[0], [4]], size_cap=5).status == FOUND
    disc = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert steiner_exact(disc, [[0], [3]]).status == INFEASIBLE
    # a cap never masks infeasibility
    assert steiner_exact(disc, [[0], [3]], size_cap=1).status == INFEASIBLE


def test_group_choice_allows_cheaper_tree():
    # picking the right representatives matters: {5} with either end of the path
    p6 = path_graph(6)
    assert steiner_size(p6, [[0, 4], [5]]) == 2
    assert steiner_size(p6, [[0], [5]]) == 6


@given(st.integers(0, 4_000))
@settings(max_examples=80)
def test_matches_brute_force_value(seed):
    g = random_connected(9, 3, seed)
    groups = [[0, 1], [4], [7, 8]]
    res = steiner_exact(g, groups)
    br = brute_steiner(g, [set(grp) for grp in groups], g.n)
    assert res.status == FOUND and br.found
    assert res.value == br.value


@given(st.integers(0, 4_000))
@settings(max_examples=40)
def test_cap_matches_uncapped_value(seed):
    g = random_connected(8, 2, seed)
    groups = [[0], [5], [7]]
    free = steiner_exact(g, groups)
    assert free.status == FOUND
    at = steiner_exact(g, groups, size_cap=free.value)
    below = steiner_exact(g, groups, size_cap=free.value - 1)
    assert at.status == FOUND and at.value == free.value
    assert below.status == NONE_WITHIN_BUDGET


def test_deterministic_reconstruction():
    g = grid_graph(3, 3)
    groups = [[0], [2], [6]]
    first = steiner_exact(g, groups)
    second = steiner_exact(g, groups)
    assert first.tree == second.tree


def whole_graph_dp(g, groups, size_cap):
    """The subset DP over every vertex of g, as it ran before the region
    confinement: (status, vertices, edges), with the same tie-breaks."""
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


@st.composite
def group_systems(draw):
    """A random graph, possibly disconnected, 1-5 disjoint groups and a cap."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.integers(0, 9)) < 3]
    g = Graph.from_edges(n, edges)
    order = draw(st.permutations(range(n)))
    gc = draw(st.integers(1, min(5, n)))
    groups = [[v] for v in order[:gc]]
    for v in order[gc:]:
        slot = draw(st.integers(-1, gc - 1))  # -1: in no group
        if slot >= 0:
            groups[slot].append(v)
    cap = draw(st.sampled_from([None, 1, 2, 3, 4, n, n + 3]))
    return g, groups, cap


@given(group_systems())
@settings(max_examples=400)
def test_matches_whole_graph_dp(case):
    g, groups, cap = case
    res = steiner_exact(g, groups, size_cap=cap)
    status, vertices, edges = whole_graph_dp(g, groups, cap)
    assert res.status == status
    if status == FOUND:
        assert (res.tree.vertices, res.tree.edges) == (vertices, edges)


@given(group_systems())
@settings(max_examples=200)
def test_capped_status_matches_brute_force(case):
    g, groups, cap = case
    res = steiner_exact(g, groups, size_cap=cap)
    br = brute_steiner(g, groups, cap)
    assert res.status == br.status
    assert res.value == br.value
