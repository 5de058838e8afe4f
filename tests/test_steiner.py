"""Group Steiner trees measured in vertices, against brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected,
    whole_graph_dp,
)
from lkcds.graphs import Graph
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
