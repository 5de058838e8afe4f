"""Group Steiner trees measured in vertices, against brute force.

`steiner_exact` searches uncapped; the capped lattice is checked through
the kept trees of `build_closure`, the search that runs it, where every
blocker is a group of its own at caps of 3 and more.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import whole_graph_dp
from lkcds.closure import build_closure
from lkcds.graphs import Graph
from lkcds.oracles import FOUND, INFEASIBLE, brute_steiner
from lkcds.steiner import steiner_exact, steiner_size
from workloads import cycle_graph, grid_graph, path_graph, random_connected


def blocker_bundle(clo):
    # the key of the bundle of every blocker group, which follow the classes
    return tuple(range(clo.class_count, len(clo.groups)))


def test_query_validation():
    g = grid_graph(3, 3)
    for groups, message in [
        ([], "at least one group"),
        ([[0], []], "nonempty"),
        ([[0], [0, 1]], "vertex 0 appears in two groups"),
        ([[i] for i in range(9)], "9 groups exceed the limit 8"),
        ([[0], [9]], "group vertex 9 out of range"),
    ]:
        with pytest.raises(ValueError, match=message):
            steiner_exact(g, groups)
    # groups are vertex sets: member order and repeats do not matter
    plain = steiner_exact(g, [[1, 2], [6]])
    assert plain is not None
    assert steiner_exact(g, [(2, 1, 2), [6, 6]]) == plain


def test_frozen_cycle_values():
    c6 = cycle_graph(6)
    assert steiner_exact(c6, [[0], [2], [4]]).size == 5
    assert steiner_size(c6, [[0], [1]]) == 2
    assert steiner_size(c6, [[0, 3], [1, 4]]) == 2
    assert steiner_size(c6, [[0], [3]]) == 4


def test_single_group_is_one_vertex():
    g = grid_graph(3, 3)
    tree = steiner_exact(g, [[4, 8]])
    assert tree.size == 1
    assert tree.vertices == (4,)


def test_tree_is_consistent():
    g = grid_graph(3, 4)
    tree = steiner_exact(g, [[0], [3], [8]])
    assert tree is not None
    assert len(tree.edges) == len(tree.vertices) - 1
    vs = set(tree.vertices)
    for a, b in tree.edges:
        assert a in vs and b in vs
        assert b in g.adj[a]


def test_cap_and_infeasible_statuses():
    # the ends of path-5 need 5 vertices: no tree within cap 4, the
    # uncapped one within cap 5
    p5 = path_graph(5)
    under = build_closure(p5, [0, 4], 1, 2)
    at = build_closure(p5, [0, 4], 1, Fraction(5, 2))
    assert (under.cap, at.cap) == (4, 5)
    assert blocker_bundle(under) not in under.kept
    assert at.kept[blocker_bundle(at)] == steiner_exact(p5, [[0], [4]])
    disc = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert steiner_exact(disc, [[0], [3]]) is None
    # no cap, however large, keeps a tree across components
    wide = build_closure(disc, [0, 3], 1, 3)
    assert wide.cap > disc.n and blocker_bundle(wide) not in wide.kept


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
    tree = steiner_exact(g, groups)
    br = brute_steiner(g, [set(grp) for grp in groups], g.n)
    assert tree is not None and br.found
    assert tree.size == br.value


@given(st.integers(0, 4_000))
@settings(max_examples=40)
def test_cap_matches_uncapped_value(seed):
    # the blockers' bundle keeps the uncapped tree at the cap of its size
    # when that tree holds a free vertex, and has no tree one below
    g = random_connected(8, 2, seed)
    blockers = [0, 5, 7]
    free = steiner_exact(g, [[x] for x in blockers])
    assert free is not None
    at = build_closure(g, blockers, 1, Fraction(free.size, 2))
    below = build_closure(g, blockers, 1, Fraction(free.size - 1, 2))
    assert (at.cap, below.cap) == (free.size, free.size - 1)
    if set(blockers).issuperset(free.vertices):
        assert blocker_bundle(at) not in at.kept
    else:
        assert at.kept[blocker_bundle(at)] == free
    assert blocker_bundle(below) not in below.kept


def test_deterministic_reconstruction():
    g = grid_graph(3, 3)
    groups = [[0], [2], [6]]
    first = steiner_exact(g, groups)
    second = steiner_exact(g, groups)
    assert first == second


@st.composite
def group_systems(draw):
    """A random graph, possibly disconnected, and 1-5 disjoint groups."""
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
    return g, groups


@given(group_systems())
@settings(max_examples=400)
def test_matches_whole_graph_dp(case):
    g, groups = case
    tree = steiner_exact(g, groups)
    status, vertices, edges = whole_graph_dp(g, groups, None)
    assert status == (INFEASIBLE if tree is None else FOUND)
    if tree is not None:
        assert (tree.vertices, tree.edges) == (vertices, edges)
    assert steiner_size(g, groups) == brute_steiner(g, groups).value
