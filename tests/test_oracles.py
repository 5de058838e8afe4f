"""Exact solvers, brute-force cross-checks, budgets, and set cover io."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, grid_graph, path_graph, random_connected, star_graph
from lkcds.graphs import Graph, GraphFormatError, mask_of
from lkcds.hardness import random_setcover
from lkcds.oracles import (
    BUDGET_EXHAUSTED,
    FOUND,
    INFEASIBLE,
    NONE_WITHIN_BUDGET,
    SetCoverInstance,
    brute_cds,
    brute_ds,
    brute_steiner,
    connected_vertex_sets,
    exact_acds,
    exact_cds,
    exact_ds,
    exact_setcover,
    parse_setcover,
    serialize_setcover,
    split_avoiding_distances,
)


def test_cds_frozen_values():
    c6 = cycle_graph(6)
    res = exact_cds(c6, 1, 6)
    assert res.status == FOUND
    assert res.value == 4
    assert res.solution == (0, 1, 2, 3)
    p5 = path_graph(5)
    res = exact_cds(p5, 1, 5)
    assert res.value == 3 and res.solution == (1, 2, 3)
    res2 = exact_cds(p5, 2, 5)
    assert res2.value == 1 and res2.solution == (2,)


def test_ds_frozen_values():
    c6 = cycle_graph(6)
    res = exact_ds(c6, 1, 6)
    assert res.value == 2 and res.solution == (0, 3)
    g33 = grid_graph(3, 3)
    res = exact_ds(g33, 1, 9)
    assert res.value == 3


def test_acds_frozen_values():
    p5 = path_graph(5)
    res = exact_acds(p5, [0, 4], 1, 5)
    assert res.value == 3 and res.solution == (1, 2, 3)
    res = exact_acds(p5, [0], 1, 5)
    assert res.value == 1 and res.solution == (0,)
    res = exact_acds(p5, [], 1, 5)
    assert res.status == FOUND and res.solution == () and res.value == 0


def test_statuses():
    disc = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert exact_cds(disc, 1, 4).status == INFEASIBLE
    assert exact_acds(disc, [0, 3], 1, 4).status == INFEASIBLE
    assert exact_acds(disc, [0, 1], 1, 4).status == FOUND
    p9 = path_graph(9)
    assert exact_cds(p9, 1, 2).status == NONE_WITHIN_BUDGET
    assert exact_cds(p9, 1, 7, budget_nodes=1).status == BUDGET_EXHAUSTED
    assert exact_ds(p9, 1, 9, budget_nodes=1).status == BUDGET_EXHAUSTED


def test_solutions_are_lex_minimal():
    # ties resolved towards the smallest vertex tuple
    c4 = cycle_graph(4)
    assert exact_ds(c4, 1, 4).solution == (0, 1)
    assert exact_cds(c4, 1, 4).solution == (0, 1)
    k13 = star_graph(3)
    assert exact_ds(k13, 1, 4).solution == (0,)
    assert exact_cds(cycle_graph(5), 1, 5).solution == (0, 1, 2)


def test_connected_vertex_sets_on_path():
    p4 = path_graph(4)
    got = set(connected_vertex_sets(p4, 4))
    # contiguous intervals only
    want = {
        mask_of(range(i, j + 1)) for i in range(4) for j in range(i, 4)
    }
    assert got == want


def test_connected_vertex_sets_respects_within():
    c5 = cycle_graph(5)
    allowed = mask_of([0, 1, 3])
    for m in connected_vertex_sets(c5, 3, within=allowed):
        assert m & ~allowed == 0


@given(st.integers(0, 2_000))
@settings(max_examples=60)
def test_exact_matches_brute_on_small_graphs(seed):
    g = random_connected(7, 2, seed)
    for r in (1, 2):
        for k in (1, 2, 3):
            ex = exact_ds(g, r, k)
            br = brute_ds(g, r, k)
            assert ex.status == br.status
            assert ex.solution == br.solution
            exc = exact_cds(g, r, k)
            brc = brute_cds(g, r, k)
            assert exc.status == brc.status
            assert exc.solution == brc.solution


@given(st.integers(0, 2_000))
@settings(max_examples=40)
def test_acds_is_never_larger_than_cds(seed):
    g = random_connected(8, 2, seed)
    full = exact_cds(g, 1, 8)
    sub = exact_acds(g, [0, g.n - 1], 1, 8)
    assert sub.found and full.found
    assert sub.value <= full.value


def test_split_avoiding_distances_leaf_copies():
    # blocking the middle of a path cuts everything behind it
    p5 = path_graph(5)
    dist = split_avoiding_distances(p5, [2], 0)
    assert dist.get(1) == 1
    assert dist.get(2) == 2  # the blocker itself is reachable as an endpoint
    assert dist.get(3) is None and dist.get(4) is None
    # around a cycle the far side stays reachable
    c6 = cycle_graph(6)
    dist = split_avoiding_distances(c6, [1], 0)
    assert dist.get(2) == 4
    assert dist.get(1) == 1


def test_split_avoiding_source_must_be_free():
    with pytest.raises(ValueError):
        split_avoiding_distances(path_graph(3), [1], 1)


def test_steiner_brute_frozen():
    c6 = cycle_graph(6)
    res = brute_steiner(c6, [{0}, {2}, {4}], 6)
    assert res.value == 5
    res2 = brute_steiner(c6, [{0}, {1}], 6)
    assert res2.value == 2
    res3 = brute_steiner(c6, [{0, 3}, {1, 4}], 6)
    assert res3.value == 2


def test_setcover_roundtrip_and_solution():
    sc = SetCoverInstance(4, ((0, 1), (1, 2, 3), (0, 3), ()), 2)
    text = serialize_setcover(sc)
    back = parse_setcover(text)
    assert back == sc
    res = exact_setcover(sc)
    assert res.found and res.solution == (0, 1)
    hard = SetCoverInstance(3, ((0,), (1,)), 2)
    assert exact_setcover(hard).status == INFEASIBLE


def brute_setcover(inst):
    """(status, solution) by a plain scan: the lexicographically first
    combination of set indices, smallest size first, covering the universe."""
    universe = set(range(inst.universe_size))
    for size in range(inst.k + 1):
        for combo in itertools.combinations(range(len(inst.sets)), size):
            if universe <= set().union(*(inst.sets[i] for i in combo)):
                return FOUND, combo
    if universe <= set().union(*inst.sets):
        return NONE_WITHIN_BUDGET, None
    return INFEASIBLE, None


@given(st.integers(0, 100_000))
@settings(max_examples=300)
def test_setcover_matches_brute_scan(seed):
    sc = random_setcover(seed)
    res = exact_setcover(sc)
    assert (res.status, res.solution) == brute_setcover(sc)


def test_setcover_parse_errors():
    with pytest.raises(ValueError):
        parse_setcover("u 3 1\n0 1\n")  # header needs four fields
    with pytest.raises(ValueError):
        parse_setcover("u 3 1 1\n0 7\n")  # element out of range
    with pytest.raises(ValueError):
        parse_setcover("u 3 2 1\n0\n")  # missing a set line


def test_budget_is_deterministic():
    g = grid_graph(3, 3)
    res1 = exact_cds(g, 1, 4, budget_nodes=50)
    res2 = exact_cds(g, 1, 4, budget_nodes=50)
    assert res1.status == res2.status
    assert res1.solution == res2.solution


def test_budget_binds_per_connected_set():
    # a budget of 1000 stops the search long before the connected sets of
    # up to 8 vertices of grid-6x6 are all listed
    assert exact_cds(grid_graph(6, 6), 1, 8, budget_nodes=1000).status == BUDGET_EXHAUSTED
