"""Vertex orders, weak reachability, and the separation certificate."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcds.graphs import Graph
from lkcds.orders import (
    OrderedGraph,
    check_separation,
    exact_wcol,
    heuristic_order,
    wreach_report,
)
from workloads import cycle_graph, grid_graph, path_graph, random_connected, star_graph


def test_ordered_graph_validates_permutation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        OrderedGraph(g, [0, 1])
    with pytest.raises(ValueError):
        OrderedGraph(g, [0, 0, 2])
    og = OrderedGraph(g, [2, 0, 1])
    assert og.pos[2] == 0 and og.pos[1] == 2


def test_wreach_identity_order_on_path():
    # with the identity order, a vertex weakly reaches the s ids before it
    p5 = path_graph(5)
    og = OrderedGraph(p5, range(5))
    sets = og.wreach(2)
    assert sets[0] == (0,)
    assert sets[2] == (0, 1, 2)
    assert sets[4] == (2, 3, 4)
    assert wreach_report(og, 2).value == 3


def test_wreach_zero_is_self_only():
    g = grid_graph(2, 3)
    og = heuristic_order(g)
    assert all(w == (v,) for v, w in enumerate(og.wreach(0)))


def test_wreach_monotone_in_radius():
    g = random_connected(10, 3, 11)
    og = heuristic_order(g)
    for s in (1, 2, 3):
        small = og.wreach(s - 1)
        large = og.wreach(s)
        for v in range(g.n):
            assert set(small[v]) <= set(large[v])


def _wreach_by_paths(og, s):
    # the definition: v weakly s-reaches u when a simple path of at most s
    # edges runs from v to u and u is leftmost on it
    g, pos = og.graph, og.pos
    sets = [set() for _ in range(g.n)]

    def extend(path):
        v = path[-1]
        if min(path, key=pos.__getitem__) == v:
            sets[path[0]].add(v)
        if len(path) <= s:
            for w in g.adj[v]:
                if w not in path:
                    extend(path + [w])

    for v in range(g.n):
        extend([v])
    return tuple(tuple(sorted(w)) for w in sets)


@given(st.data())
@settings(max_examples=60)
def test_wreach_matches_the_path_definition(data):
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    og = OrderedGraph(Graph.from_edges(8, edges), data.draw(st.permutations(range(8))))
    for s in range(4):
        assert og.wreach(s) == _wreach_by_paths(og, s)


def test_exact_wcol_on_known_graphs():
    assert exact_wcol(path_graph(5), 1)[0] == 2
    assert exact_wcol(cycle_graph(6), 2)[0] == 3
    value, order = exact_wcol(star_graph(5), 3)
    assert value == 2
    # the optimum puts the hub first
    assert order[0] == 0
    with pytest.raises(ValueError):
        exact_wcol(path_graph(9), 1)


@pytest.mark.parametrize("s", [-1, -2])
def test_exact_wcol_refuses_a_negative_radius(s):
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        exact_wcol(path_graph(4), s)


@given(st.data())
@settings(max_examples=60)
def test_exact_wcol_matches_a_permutation_scan(data):
    # the reference scans every order and keeps the first strictly better one
    n = data.draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    s = data.draw(st.integers(0, 3))
    best = None
    for perm in permutations(range(n)):
        value = wreach_report(OrderedGraph(g, perm), s).value
        if best is None or value < best[0]:
            best = (value, perm)
    assert exact_wcol(g, s) == best


@given(st.integers(0, 2_000))
@settings(max_examples=30)
def test_heuristics_never_beat_exact(seed):
    g = random_connected(7, 2, seed)
    best, _ = exact_wcol(g, 2)
    for kind in ("degeneracy", "bfs", "random"):
        og = heuristic_order(g, kind=kind, seed=0)
        assert wreach_report(og, 2).value >= best


def test_random_order_is_reproducible_by_default():
    g = random_connected(12, 3, 5)
    assert heuristic_order(g, "random").seq == heuristic_order(g, "random", seed=0).seq


def test_wreach_report_witness():
    og = OrderedGraph(path_graph(5), range(5))
    rep = wreach_report(og, 2)
    assert rep.value == 3
    assert rep.sizes[rep.witness] == 3


def test_check_separation_accepts_real_paths():
    g = cycle_graph(8)
    og = heuristic_order(g)
    z = check_separation(og, [0], 2, [0, 1, 2], 2)
    assert z in (0, 1, 2)


def test_check_separation_validates_input():
    g = path_graph(6)
    og = OrderedGraph(g, range(6))
    with pytest.raises(ValueError):
        check_separation(og, [0], 3, [0, 1, 2, 3], 2)  # too long for r=2
    with pytest.raises(ValueError):
        check_separation(og, [5], 2, [0, 1, 2], 2)  # starts outside blockers
    with pytest.raises(ValueError):
        check_separation(og, [0], 4, [0, 1, 2], 2)  # wrong endpoint
    with pytest.raises(ValueError):
        check_separation(og, [0], 1, [0, 2, 1], 2)  # not a path
    # -1 would alias vertex 5, which is adjacent to 4
    with pytest.raises(ValueError, match="path vertex -1 out of range"):
        check_separation(og, [-1], 4, [-1, 4], 2)
    with pytest.raises(ValueError, match="path vertex 9 out of range"):
        check_separation(og, [9], 4, [9, 4], 2)


@given(st.integers(0, 3_000))
@settings(max_examples=60)
def test_separator_exists_on_every_short_path(seed):
    # leftmost vertex of any <=r-path is weakly r-reachable from both ends
    g = random_connected(9, 3, seed)
    og = heuristic_order(g, kind="bfs")
    r = 3
    from lkcds.graphs import bfs_layers

    res = bfs_layers(g, [0], depth_cap=r)
    for v, d in res.dist.items():
        if v == 0 or d > r:
            continue
        path = res.path_to(v)
        z = check_separation(og, [0], v, path, r)
        assert z in path
