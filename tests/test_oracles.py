"""Exact solvers, brute-force cross-checks, budgets, and set cover io."""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lkcds import oracles
from lkcds.cores import Rejection
from lkcds.graphs import Graph, iter_bits, mask_of, r_subdivision
from lkcds.hardness import random_setcover
from lkcds.kernel import certify_ratio, kernelize, params_from
from lkcds.oracles import (
    BUDGET_EXHAUSTED,
    FOUND,
    INFEASIBLE,
    NONE_WITHIN_BUDGET,
    SetCoverInstance,
    SolveResult,
    brute_cds,
    brute_ds,
    brute_steiner,
    connected_vertex_sets,
    cover_exists,
    exact_acds,
    exact_cds,
    exact_ds,
    exact_setcover,
    parse_setcover,
    serialize_setcover,
    split_avoiding_distances,
)
from workloads import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    planted_hosts,
    random_connected,
    spider_graph,
    star_graph,
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


def test_planted_optima_hold():
    # the planted workload's verdict takes these optima as ground truth
    for name, g, r, opt in planted_hosts():
        res = exact_cds(g, r, opt)
        assert res.status == FOUND and len(res.solution) == opt, name
        if opt > 1:
            assert exact_cds(g, r, opt - 1).status == NONE_WITHIN_BUDGET, name


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
    got = sorted(connected_vertex_sets(p4, 4))
    # contiguous intervals only, each once
    want = sorted(
        mask_of(range(i, j + 1)) for i in range(4) for j in range(i, 4)
    )
    assert got == want


def test_connected_vertex_sets_lists_each_set_once():
    # grown from root 1, the set {0, 1, 2} must not reach back below it
    g = Graph.from_edges(3, [(0, 2), (1, 2)])
    got = sorted(connected_vertex_sets(g, 3))
    assert got == [0b001, 0b010, 0b100, 0b101, 0b110, 0b111]


@st.composite
def forest_graphs(draw, max_n):
    # a random forest plus a few chords; about one vertex in eight starts a
    # new tree, so many of these graphs are disconnected
    n = draw(st.integers(0, max_n))
    edges = set()
    for v in range(1, n):
        if draw(st.integers(0, 7)):
            edges.add((draw(st.integers(0, v - 1)), v))
    if n >= 2:
        ends = st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(ends, ends), max_size=n)):
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, edges)


def flood_connected(g, m):
    # plain BFS inside the mask, independent of the enumerator
    if m == 0:
        return False
    seen = {min(iter_bits(m))}
    todo = list(seen)
    while todo:
        u = todo.pop()
        for w in g.adj[u]:
            if (m >> w) & 1 and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == m.bit_count()


@given(forest_graphs(9), st.integers(0, 9))
@settings(max_examples=100)
def test_connected_vertex_sets_match_brute_subsets(g, max_size):
    got = list(connected_vertex_sets(g, max_size))
    assert len(got) == len(set(got))
    want = {
        m
        for m in range(1, 1 << g.n)
        if m.bit_count() <= max_size and flood_connected(g, m)
    }
    assert set(got) == want


def scan_connected_cover(g, targets, r, k):
    """(status, solution, value) by the plain scan: the least (size, sorted
    vertices) among the listed connected sets of at most k vertices whose
    r-balls cover the targets mask."""
    if targets == 0:
        return FOUND, (), 0
    if sum(1 for c in g.component_masks() if c & targets) != 1:
        return INFEASIBLE, None, None
    balls = g.balls(r)
    best = None
    for m in connected_vertex_sets(g, k):
        got = 0
        for v in iter_bits(m):
            got |= balls[v]
        if targets & ~got == 0:
            key = (m.bit_count(), tuple(iter_bits(m)))
            if best is None or key < best:
                best = key
    if best is None:
        return NONE_WITHIN_BUDGET, None, None
    return FOUND, best[1], best[0]


@given(
    forest_graphs(12),
    st.integers(1, 3),
    st.integers(0, 12),
    st.integers(0, 4095),
    st.booleans(),
)
# the search from root 0 meets the hit {0, 3, 4} before the lex-smaller {0, 2, 4}
@example(
    Graph.from_edges(7, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (2, 6), (3, 6), (4, 5)]),
    1, 7, 0, True,
)
# path-9 at r = 1: the distance bound 7 exceeds k = 6, and at k = 7 it is
# the optimum
@example(path_graph(9), 1, 6, 0, True)
@example(path_graph(9), 1, 7, 0, True)
# spider-3x2 at r = 1: k = n leaves room above the distance bound 3, so the
# peel caps the first probe at the optimum 4; the bound fails, and the
# lex-least search runs at 4
@example(spider_graph(3, 2), 1, 7, 0, True)
# path-9 at r = 1 with k = 8: the probe at 8 runs above the optimum 7, which
# is the bound, so the lex-least search runs there
@example(path_graph(9), 1, 8, 0, True)
# here the peel leaves 4 vertices where 2 do: probes at 4, 3 and 2 hit, the
# bound 1 fails, and the lex-least search runs at 2 from the last root
@example(
    Graph.from_edges(8, [(0, 1), (0, 3), (1, 2), (2, 6), (3, 4), (4, 5), (4, 6), (6, 7)]),
    2, 8, 0, True,
)
# spider-4x2 at r = 1 needs 5 vertices: k = 4 is one failed probe
@example(spider_graph(4, 2), 1, 4, 0, True)
# targets 0 and 2 of a 4-cycle beside path-6 at r = 0: the probe runs at the
# component's 4, not at k = 10, and meets a 3-vertex cover
@example(
    Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]),
    0, 10, 0b101, False,
)
# targets 0 and 6 of the 6-cycle 0-3-2-6-1-5 at r = 0, k = 4: the bound 4 is
# the optimum, where the first covering set met, {0, 2, 3, 6}, is not the
# lex-least {0, 1, 5, 6}
@example(
    Graph.from_edges(7, [(0, 3), (2, 3), (2, 6), (1, 6), (1, 5), (0, 5)]),
    0, 4, 0b1000001, False,
)
@settings(max_examples=120)
def test_connected_cover_matches_plain_scan(g, r, k, annotated, whole):
    k = min(k, g.n)
    if whole:
        got = exact_cds(g, r, k)
        targets = (1 << g.n) - 1
    else:
        targets = annotated & ((1 << g.n) - 1)
        got = exact_acds(g, iter_bits(targets), r, k)
    assert (got.status, got.solution, got.value) == scan_connected_cover(g, targets, r, k)


@given(forest_graphs(10), st.integers(0, 3), st.integers(0, 9), st.integers(0, 1023))
@settings(max_examples=120)
def test_the_peeled_cover_is_a_connected_cover_inside_the_home(g, r, pick, annotated):
    # the size of the peel caps the first probe, so a peel that lost a
    # target or its connection would hide the answer
    comps = g.component_masks()
    if not comps:
        return
    home = comps[pick % len(comps)]
    targets = annotated & home or home
    peel = oracles._peeled_cover(g, targets, r, home)
    got = 0
    for v in iter_bits(peel):
        got |= g.balls(r)[v]
    assert peel & ~home == 0
    assert targets & ~got == 0
    assert flood_connected(g, peel)


def test_a_large_k_far_above_a_small_optimum_searches_near_the_optimum():
    # the peel caps the first probe: the star needs its centre alone, and
    # path-1200 at r = 500 its middle 200 vertices, which the distance
    # bound already proves, so neither search goes k deep
    assert exact_cds(star_graph(1200), 1, 1200, budget_nodes=1) == SolveResult(FOUND, (0,), 1)
    assert exact_cds(path_graph(1200), 500, 1200) == SolveResult(
        FOUND, tuple(range(500, 700)), 200
    )


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("# only a comment\n", "missing 'u <universe> <num_sets> <k>' header"),
        ("u 3 x 1\n0\n", "non-integer field in header"),
        ("u 3 1 1\n0 x\n", "non-integer element in set line '0 x'"),
    ],
)
def test_setcover_parse_refusals_name_the_fault(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_setcover(text)


def test_budget_is_deterministic():
    g = grid_graph(3, 3)
    res1 = exact_cds(g, 1, 4, budget_nodes=50)
    res2 = exact_cds(g, 1, 4, budget_nodes=50)
    assert res1.status == res2.status
    assert res1.solution == res2.solution


def test_budget_binds_per_connected_set():
    # grid-6x6 has diameter 10, so no connected set of 8 vertices
    # 1-dominates it and the distance bound settles k = 8 before any search;
    # at k = 9 the search for 9 vertices visits more than 1000 connected
    # sets, so a budget of 1000 stops it
    assert exact_cds(grid_graph(6, 6), 1, 8, budget_nodes=0).status == NONE_WITHIN_BUDGET
    assert exact_cds(grid_graph(6, 6), 1, 9, budget_nodes=1000).status == BUDGET_EXHAUSTED


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 13))
def test_distance_bound_is_tight_on_paths(n, r):
    # path-n needs max(1, n - 2r) vertices, and the distance bound D - 2r + 1
    # with D = n - 1 equals that; every smaller k is settled with no node
    p, opt = path_graph(n), max(1, n - 2 * r)
    assert exact_cds(p, r, n).value == opt
    for k in range(opt):
        assert exact_cds(p, r, k, budget_nodes=0).status == NONE_WITHIN_BUDGET


def test_set_cover_budget_threshold():
    # the lex refinement's last pick is checked without a search node, so
    # this query needs exactly 254 nodes
    g = grid_graph(4, 4)
    assert exact_ds(g, 1, 4, budget_nodes=254).solution == (1, 7, 8, 14)
    assert exact_ds(g, 1, 4, budget_nodes=253).status == BUDGET_EXHAUSTED


@pytest.mark.parametrize(
    "query, nodes, expected",
    [
        (lambda b: exact_cds(r_subdivision(complete_graph(5), 3)[0], 2, 9, b), 2388,
         SolveResult(FOUND, (0, 5, 6, 7, 8, 9, 10, 11, 12), 9)),
        (lambda b: exact_cds(grid_graph(4, 4), 1, 6, b), 449,
         SolveResult(NONE_WITHIN_BUDGET)),
        (lambda b: exact_acds(grid_graph(4, 4), [0, 3, 12, 15], 1, 6, b), 341,
         SolveResult(FOUND, (1, 2, 5, 9, 13, 14), 6)),
    ],
    ids=["k5-subdivided", "grid-none", "grid-corners"],
)
def test_connected_cover_budget_threshold(query, nodes, expected):
    # the connected cover search charges one node per set it visits, probes
    # included; each query needs exactly `nodes` of them, so a change in
    # what is visited or charged moves a threshold
    assert query(nodes) == expected
    assert query(nodes - 1) == SolveResult(BUDGET_EXHAUSTED)


@st.composite
def cover_queries(draw):
    # a graph of at most 10 vertices, radius 1-2, random universe and
    # allowed masks over its vertices, and a cover budget of 0-4
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 3)) == 0])
    full = (1 << n) - 1
    r = draw(st.integers(1, 2))
    universe = draw(st.integers(0, full))
    allowed = draw(st.integers(0, full))
    return g.balls(r), universe, draw(st.integers(0, 4)), allowed


@given(cover_queries())
@settings(max_examples=200)
def test_cover_exists_matches_combination_scan(query):
    balls, universe, k, allowed = query
    expected = False
    for s in range(k + 1):
        for combo in itertools.combinations(iter_bits(allowed), s):
            got = 0
            for v in combo:
                got |= balls[v]
            expected = expected or universe & ~got == 0
    assert cover_exists(balls, universe, k, allowed) == expected


def test_negative_budgets_are_refused():
    p5 = path_graph(5)
    for call in (
        lambda: exact_cds(p5, 1, -1),
        lambda: exact_acds(p5, [0], 1, -1),
        lambda: exact_ds(p5, 1, -1),
        lambda: exact_cds(p5, 1, 3, budget_nodes=-3),
        lambda: exact_ds(p5, 1, 3, budget_nodes=-3),
        # a negative radius is refused before the early returns that need
        # no ball: the distance bound settling k = 2, and an empty target set
        lambda: exact_cds(p5, -1, 2),
        lambda: exact_cds(p5, -1, 10),
        lambda: exact_acds(p5, [], -1, 1),
        lambda: exact_ds(p5, -1, 2),
    ):
        with pytest.raises(ValueError, match="must be nonnegative"):
            call()
    with pytest.raises(ValueError, match="out of range"):
        exact_acds(p5, [-1], 1, 3)


@given(
    forest_graphs(10),
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 10), st.integers(0, 1023), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=80)
def test_cached_answers_match_a_fresh_graph_and_the_plain_scan(g, queries):
    # every query is asked twice on g, whose cache fills as it goes, once on
    # an equal graph with an empty cache, and once of the scan twin
    for r, k, annotated, whole in queries * 2:
        k = min(k, g.n)
        targets = (1 << g.n) - 1 if whole else annotated & ((1 << g.n) - 1)
        fresh = Graph.from_edges(g.n, g.edges())
        if whole:
            got, cold = exact_cds(g, r, k), exact_cds(fresh, r, k)
        else:
            got = exact_acds(g, iter_bits(targets), r, k)
            cold = exact_acds(fresh, iter_bits(targets), r, k)
        assert got == cold
        assert (got.status, got.solution, got.value) == scan_connected_cover(g, targets, r, k)


def test_a_cached_answer_leaves_a_budgeted_call_alone():
    # grid-none's threshold from test_connected_cover_budget_threshold holds
    # on a graph that already holds the unbudgeted answer
    g = grid_graph(4, 4)
    assert exact_cds(g, 1, 6) == SolveResult(NONE_WITHIN_BUDGET)
    assert exact_cds(g, 1, 6, budget_nodes=448) == SolveResult(BUDGET_EXHAUSTED)
    assert exact_cds(g, 1, 6, budget_nodes=449) == SolveResult(NONE_WITHIN_BUDGET)


def test_certify_searches_only_the_host_of_a_kernel_that_is_not_its_host(monkeypatch):
    # the kernel solver's exact_acds within k leaves its answer on the kernel
    # graph, so certify_ratio searches nothing more on a kernel that is its
    # host: the very host object, every vertex annotated.  On any other it
    # searches only the host, once.  At alpha 4r + 3 kernelize makes no
    # shortcut search, and each k asks the host a question it has not been
    # asked
    searches = []
    search = oracles._search_cover
    monkeypatch.setattr(
        oracles, "_search_cover", lambda h, *rest: searches.append(h) or search(h, *rest)
    )
    seen = set()
    for _, g, r, opt in planted_hosts():
        for k in (opt - 1, opt, opt + 1):
            inst = kernelize(g, params_from(k, r, alpha=4 * r + 3), core_mode="exact")
            if isinstance(inst, Rejection):
                continue
            res = exact_acds(inst.graph, inst.annotated, r, k)
            if not res.found:
                res = exact_acds(inst.graph, inst.annotated, r, inst.graph.n)
            is_host = inst.graph is g and inst.annotated == tuple(range(g.n))
            del searches[:]
            assert certify_ratio(g, inst, res.solution).ok
            assert len(searches) == (0 if is_host else 1)
            assert all(s is g for s in searches)
            seen.add(is_host)
    assert seen == {True, False}
