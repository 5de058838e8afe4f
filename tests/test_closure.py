"""Profile-preserving closure and the subdivided translation gadget."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SUITE_GRAPHS,
    clique_level_search,
    tampered_path5_closure,
    verify_closure_per_bundle,
    whole_graph_dp,
)
from kernel_digest import tamper_closure
from lkcds import closure as closure_module
from lkcds.closure import (
    avoiding_path_tree,
    build_closure,
    build_translation,
    check_translation,
    verify_closure,
)
from lkcds.domination import ContractViolation, greedy_rdom
from lkcds.graphs import Graph, Tree
from lkcds.kernel import KernelParams, kernelize
from lkcds.oracles import FOUND, brute_steiner
from lkcds.projections import classify, profile
from lkcds.steiner import SteinerLattice, steiner_size
from workloads import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected,
    random_tree,
    spider_graph,
)


def test_avoiding_path_tree_on_cycle():
    c6 = cycle_graph(6)
    # 2 reaches 0 via 1 and 4 via 3; both paths are kept
    cls = classify(c6, [0, 4], 2)
    vs, es = avoiding_path_tree(c6, cls, [(2, 0, 2), (2, 4, 2)])
    assert vs == {0, 1, 2, 3, 4}
    assert es == {(0, 1), (1, 2), (2, 3), (3, 4)}
    # 3 reaches 0 through 2 or through 4; the least path steps to 2
    cls = classify(c6, [0], 3)
    vs, es = avoiding_path_tree(c6, cls, [(3, 0, 3)])
    assert (vs, es) == ({0, 1, 2, 3}, {(0, 1), (1, 2), (2, 3)})
    assert avoiding_path_tree(c6, cls, []) == (set(), set())


def test_closure_is_subgraph_of_host():
    g = grid_graph(3, 4)
    clo = build_closure(g, [0, 5, 11], 1, 1)
    for v in range(clo.graph.n):
        host = clo.vertex_map[v]
        assert 0 <= host < g.n
    hosts = [clo.vertex_map[v] for v in range(clo.graph.n)]
    assert len(set(hosts)) == len(hosts)
    for a, b in clo.graph.edges():
        assert clo.vertex_map[b] in g.adj[clo.vertex_map[a]]


def test_verify_closure_names_the_failed_item():
    g = path_graph(5)
    assert verify_closure(g, build_closure(g, [2], 1, 2)).ok
    rep = verify_closure(g, tampered_path5_closure())
    assert not rep.ok
    assert rep.problems == ("item3: kept tree (0, 1, 2) is disconnected",)


def test_verify_closure_reports_a_changed_profile():
    # an extra closure edge from 0 to the blocker 2 moves only 0's profile
    g = path_graph(5)
    clo = build_closure(g, [2], 1, 2)
    assert clo.vertex_map == (0, 1, 2) and clo.terminals == (0, 1)
    bent = replace(clo, graph=Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    rep = verify_closure(g, bent)
    assert rep.problems == ("item2: profile of vertex 0 changed: () -> ((2, 1),)",)


@pytest.mark.parametrize(
    "tamper, problems",
    [
        (
            lambda clo: replace(clo, blockers_old=(4,)),
            (
                "item1: blocker 4 missing from the closure",
                "item1: blocker relabeling is inconsistent",
            ),
        ),
        (
            lambda clo: replace(clo, terminals=(0,)),
            ("item2: class representatives [1] were not protected",),
        ),
        (
            # 3 is a free host vertex that the closure dropped
            lambda clo: replace(clo, terminals=(0, 1, 3)),
            ("item2: terminal 3 is not a closure vertex",),
        ),
        (
            # 2 is the blocker, which has no profile class
            lambda clo: replace(clo, terminals=(0, 1, 2)),
            ("item2: terminal 2 is a blocker, not a free vertex",),
        ),
        (
            # a real host tree for bundle (0, 1), one vertex larger than needed
            lambda clo: replace(
                clo, kept={**clo.kept, (0, 1): Tree((0, 1, 2), ((0, 1), (1, 2)))}
            ),
            ("item3: bundle (0, 1): host tree has 3 vertices but the closure needs 2",),
        ),
    ],
)
def test_verify_closure_reports_each_tampered_item(tamper, problems):
    # path-5 around blocker 2: classes {0, 4} and {1, 3}, kept on 0, 1, 2
    g = path_graph(5)
    rep = verify_closure(g, tamper(build_closure(g, [2], 1, 2)))
    assert rep.problems == problems


def lost_edge(trees, edge):
    return tuple(f"item3: kept tree {key} edge {edge} is not a closure edge" for key in trees)


@pytest.mark.parametrize(
    "host, blockers, t, edge, problems",
    [
        # path-5 around 2, cap 2: without the edge (0, 1) of the kept pair
        # tree the classes {0, 4} and {1, 3} meet in no component
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), [2], 1, (0, 1),
         lost_edge([(0, 1)], (0, 1))),
        # a triangle 0, 1, 2 with 3 hung off 2, around 1 and 3, cap 2:
        # without the edge (0, 2) the classes {0} and {2} still meet, in a
        # longer tree through blocker 1
        (Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), [1, 3], 1, (0, 2),
         lost_edge([(0, 1)], (0, 2))),
        # grid-2x3 around blockers 1 and 4: the edge between them lies in
        # trees of bundles that hold a blocker group, whose closure values
        # are never compared
        (grid_graph(2, 3), [1, 4], Fraction(3, 2), (1, 4),
         lost_edge([(0, 2, 3), (0, 3), (1, 2, 3)], (1, 4))),
        (grid_graph(2, 3), [1, 4], 2, (1, 4),
         lost_edge([(0, 1, 2, 3), (0, 2, 3), (0, 3), (1, 2, 3)], (1, 4))),
    ],
    ids=["no-tree", "longer-tree", "blocker-edge-cap3", "blocker-edge-cap4"],
)
def test_verify_closure_names_each_kept_tree_that_lost_an_edge(host, blockers, t, edge, problems):
    # a closure that loses one host edge of some kept trees fails item 3
    # once per such tree, before any Steiner value is compared
    clo = build_closure(host, blockers, 1, t)
    old2new = {old: new for new, old in enumerate(clo.vertex_map)}
    cut = tuple(sorted(old2new[v] for v in edge))
    edges = [e for e in clo.graph.edges() if e != cut]
    bent = replace(clo, graph=Graph.from_edges(clo.graph.n, edges))
    assert verify_closure(host, bent).problems == problems


def test_a_passing_verify_makes_no_uncapped_steiner_search():
    # a thousand-vertex host: every kept all-class bundle is proved by the
    # capped lattice alone
    g = random_connected(1000, 100, 1000)
    out = kernelize(g, KernelParams(len(greedy_rdom(g, 2)), 2, 11))
    assert out.closure is not None and len(out.closure.kept) > 100

    def refuse(*args):
        raise AssertionError("uncapped Steiner search on a closure that verifies")

    with mock.patch.object(closure_module, "steiner_size", refuse):
        assert verify_closure(g, out.closure).ok


@st.composite
def tampered_closure_cases(draw):
    """A random graph of at most 12 vertices, often disconnected, with up
    to 4 blockers, a radius, a t whose cap is 2 to 5, and a seed for the
    tamperings."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < 3])
    blockers = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    r = draw(st.integers(1, 2))
    t = draw(st.sampled_from([1, Fraction(3, 2), 2, Fraction(5, 2)]))
    return g, blockers, r, t, draw(st.randoms(use_true_random=False))


@given(tampered_closure_cases())
@settings(max_examples=200)
def test_verify_closure_matches_the_per_bundle_twin(case):
    # the capped lattice and the shared blocker set give the report of one
    # uncapped search per bundle, field for field, and run an uncapped
    # search only to word a bundle's problem
    g, blockers, r, t, rng = case
    clo = tamper_closure(g, build_closure(g, blockers, r, t), rng)
    calls = []

    def counted(graph, groups):
        calls.append(groups)
        return steiner_size(graph, groups)

    with mock.patch.object(closure_module, "steiner_size", counted):
        report = verify_closure(g, clo)
    assert report == verify_closure_per_bundle(g, clo)
    assert len(calls) == sum("the closure needs" in p for p in report.problems)


def test_closure_contains_blockers_and_reps():
    g = cycle_graph(9)
    blockers = [0, 3, 6]
    clo = build_closure(g, blockers, 1, 1)
    new_hosts = set(clo.vertex_map)
    assert set(blockers) <= new_hosts
    cls = classify(g, blockers, 1)
    for c in cls.classes:
        # at least one member of each class survives
        assert new_hosts & set(c.members)


def test_closure_verifier_passes_small_batch():
    cases = [
        (path_graph(9), [0, 4, 8], 1, 1),
        (cycle_graph(8), [0, 4], 1, 1),
        (grid_graph(3, 3), [0, 8], 2, 1),
        (spider_graph(3, 2), [0], 1, Fraction(13, 6)),
        (random_tree(12, 9), [0, 6], 2, 2),
    ]
    for g, xs, r, t in cases:
        clo = build_closure(g, xs, r, t)
        rep = verify_closure(g, clo)
        assert rep.ok, rep.problems


def test_closure_profiles_preserved_exactly():
    # item 2 by hand: recompute profiles in the closure for terminals
    g = grid_graph(3, 4)
    blockers = [0, 11]
    clo = build_closure(g, blockers, 2, 1)
    old2new = {h: i for i, h in enumerate(clo.vertex_map)}
    for term in clo.terminals:
        host_prof = profile(g, term, blockers, 2)
        new_prof = profile(clo.graph, old2new[term], clo.blockers_new, 2)
        mapped = tuple(sorted((clo.vertex_map[x], d) for x, d in new_prof))
        assert mapped == host_prof


def test_closure_stats_accounting():
    g = cycle_graph(9)
    clo = build_closure(g, [0, 3, 6], 1, 1)
    st_ = clo.stats
    assert st_["host_vertices"] == 9
    assert st_["closure_vertices"] == clo.graph.n
    assert st_["blockers"] == 3
    assert st_["kept_trees"] == st_["candidate_subsets"]


def _compatible_bundles(g, groups, cap):
    # pruned pairs, and the bundles of at most cap pairwise compatible
    # groups under "some members lie within cap - 1", from distance rows
    # rather than balls
    def gap(i, j):
        ds = [g.dist_row(x)[y] for x in groups[i] for y in groups[j]]
        return min((d for d in ds if d >= 0), default=None)

    gn = len(groups)
    ok = [[False] * gn for _ in range(gn)]
    pruned = 0
    for i, j in combinations(range(gn), 2):
        d = gap(i, j)
        ok[i][j] = ok[j][i] = d is not None and d <= cap - 1
        pruned += not ok[i][j]
    bundles = [
        key
        for size in range(1, cap + 1)
        for key in combinations(range(gn), size)
        if all(ok[i][j] for i, j in combinations(key, 2))
    ]
    return pruned, bundles


@pytest.mark.parametrize("t", [1, 2])
def test_compatibility_matches_group_distances(t):
    for name, g in SUITE_GRAPHS:
        clo = build_closure(g, greedy_rdom(g, 1), 1, t)
        assert clo.cap == 2 * t
        pruned, bundles = _compatible_bundles(g, clo.groups, clo.cap)
        assert clo.stats["pruned_pairs"] == pruned, name
        # at t = 2 blocker groups exist, and a tree of blockers alone is not kept
        assert clo.stats["kept_trees"] <= clo.stats["candidate_subsets"], name
        assert set(clo.kept) <= set(bundles), name


@st.composite
def closure_cases(draw):
    """A random graph of at most 9 vertices, blockers, a radius and a t
    whose cap is 2 to 8."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < 4])
    blockers = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    r = draw(st.integers(1, 2))
    t = draw(st.sampled_from([1, Fraction(3, 2), 2, Fraction(5, 2), 3, 4]))
    return g, blockers, r, t


@given(closure_cases())
@settings(max_examples=150)
def test_kept_bundles_match_brute_force(case):
    # every bundle of at most cap groups with a tree of at most cap
    # vertices is kept, with a tree of the optimum size, unless the tree
    # holds blockers alone; every bundle that holds a class is kept
    g, blockers, r, t = case
    clo = build_closure(g, blockers, r, t)
    want = {}
    for size in range(1, clo.cap + 1):
        for key in combinations(range(len(clo.groups)), size):
            res = brute_steiner(g, [clo.groups[i] for i in key], clo.cap)
            if res.found:
                want[key] = res.value
    assert {key: tree.size for key, tree in clo.kept.items()}.items() <= want.items()
    # keys ascend and classes come first, so a key of blocker groups alone
    # is one whose least index is no class
    missing = want.keys() - clo.kept.keys()
    assert all(key[0] >= clo.class_count for key in missing), missing
    _, bundles = _compatible_bundles(g, clo.groups, clo.cap)
    assert set(want) <= set(bundles)
    assert clo.stats["candidate_subsets"] == len(want)
    assert clo.stats["kept_trees"] == len(clo.kept)


@st.composite
def lattice_cases(draw):
    """A random graph of at most 10 vertices, often disconnected, with up
    to 3 blockers, a radius and a t whose cap is 2 to 6."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < 3])
    blockers = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    r = draw(st.integers(1, 2))
    t = draw(st.sampled_from([1, Fraction(3, 2), 2, Fraction(5, 2), 3]))
    return g, blockers, r, t


@given(lattice_cases())
@settings(max_examples=150)
def test_shared_lattice_matches_whole_graph_dp(case):
    # one lattice serves every bundle of the closure; each kept tree is the
    # tree a search of its bundle alone over the whole graph rebuilds, and
    # a found tree is kept exactly when it holds a vertex outside the blockers
    g, blockers, r, t = case
    clo = build_closure(g, blockers, r, t)
    _, bundles = _compatible_bundles(g, clo.groups, clo.cap)
    found = with_free = 0
    for key in bundles:
        status, vertices, edges = whole_graph_dp(
            g, [clo.groups[i] for i in key], clo.cap
        )
        if status == FOUND and not set(blockers).issuperset(vertices):
            assert key in clo.kept, key
            tree = clo.kept[key]
            assert (tree.vertices, tree.edges) == (vertices, edges), key
            with_free += 1
        else:
            assert key not in clo.kept, key
        found += status == FOUND
    assert len(clo.kept) == with_free == clo.stats["kept_trees"]
    assert clo.stats["candidate_subsets"] == found


@st.composite
def bundle_search_cases(draw):
    """A random graph of at most 12 vertices, often disconnected, with up
    to 4 blockers, a radius and a t whose cap is 2 to 8."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < 3])
    blockers = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    r = draw(st.integers(1, 2))
    t = draw(st.sampled_from([1, Fraction(3, 2), 2, Fraction(5, 2), 3, 4]))
    return g, blockers, r, t


@given(bundle_search_cases())
@settings(max_examples=200)
def test_bundle_search_matches_clique_levels(case):
    # growing only bundles with a tree, with shared walks, rebuilds the
    # trees that every pairwise compatible clique gave, and keeps those
    # that hold a vertex outside the blockers
    g, blockers, r, t = case
    clo = build_closure(g, blockers, r, t)
    want = clique_level_search(g, clo.groups, clo.cap)
    xs = set(blockers)
    assert {key: (tree.vertices, tree.edges) for key, tree in clo.kept.items()} == {
        key: tree for key, tree in want.items() if not xs.issuperset(tree[0])
    }
    assert clo.stats["candidate_subsets"] == len(want)
    assert clo.stats["kept_trees"] == len(clo.kept)


@given(bundle_search_cases())
@settings(max_examples=200)
def test_a_tree_left_out_of_kept_lies_in_the_closure(case):
    # a tree the search found but did not keep holds blockers alone, and
    # the closure keeps every blocker and every edge between two of them
    g, blockers, r, t = case
    clo = build_closure(g, blockers, r, t)
    xs = set(blockers)
    old2new = {old: new for new, old in enumerate(clo.vertex_map)}
    for key, (vertices, edges) in clique_level_search(g, clo.groups, clo.cap).items():
        if key in clo.kept:
            assert not xs.issuperset(vertices), key
            continue
        assert xs.issuperset(vertices), key
        for u, v in edges:
            assert old2new[v] in clo.graph.adj[old2new[u]], (key, u, v)
    assert all(not xs.issuperset(tree.vertices) for tree in clo.kept.values())


def corrupt_walk(monkeypatch, bundle, extra_span, extra_edges):
    # every walk of the bundle gains the vertices and edges given
    walk = SteinerLattice._walk

    def corrupted(self, b, row, v, d):
        span, edges = walk(self, b, row, v, d)
        if b == bundle:
            return span | extra_span, edges + extra_edges
        return span, edges

    monkeypatch.setattr(SteinerLattice, "_walk", corrupted)


@pytest.mark.parametrize(
    "extra_span, extra_edges",
    [
        (1 << 3, ((0, 3),)),
        # listed first, the dangling edge (3, 5) would be named; sorted,
        # the non-edge (0, 3) comes first, as in the walk's `Tree`
        (1 << 3 | 1 << 4, ((3, 5), (0, 3))),
    ],
    ids=["non-edge", "dangling-edge-listed-first"],
)
def test_a_walk_the_closure_throws_away_is_still_checked(
    monkeypatch, extra_span, extra_edges
):
    # every vertex of the 6-cycle is a blocker, so every bundle is one of
    # blocker groups alone and no tree is kept, yet every walk is checked
    g = cycle_graph(6)
    clo = build_closure(g, range(6), 1, 2)
    assert (clo.cap, len(clo.groups), clo.class_count) == (4, 6, 0)
    assert (clo.stats["candidate_subsets"], clo.kept) == (45, {})
    corrupt_walk(monkeypatch, 0b11, extra_span, extra_edges)
    with pytest.raises(
        ContractViolation, match=r"^reconstructed tree uses a non-edge \(0, 3\)$"
    ):
        build_closure(g, range(6), 1, 2)


def test_a_walk_that_repeats_an_edge_is_checked_on_its_edge_set(monkeypatch):
    # a tree's edges are the walk's without repeats, and so is the check
    g = cycle_graph(6)
    clo = build_closure(g, range(6), 1, 2)
    corrupt_walk(monkeypatch, 0b11, 0, ((0, 1),))
    again = build_closure(g, range(6), 1, 2)
    assert (again.stats, again.kept, again.graph) == (clo.stats, clo.kept, clo.graph)


@st.composite
def cap2_cases(draw):
    """A random graph of at most 10 vertices, often disconnected, a blocker
    set that may be empty or the whole host, and a radius."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < 3])
    blockers = draw(
        st.one_of(
            st.just(list(range(n))),
            st.lists(st.integers(0, n - 1), max_size=n, unique=True),
        )
    )
    r = draw(st.integers(1, 2))
    return g, blockers, r


@given(cap2_cases())
@settings(max_examples=150)
def test_cap2_closure_keeps_blocker_bundles_without_blocker_groups(case):
    # at cap 2 the groups are the classes alone, yet every bundle of at most
    # 2 classes and single blockers with a host tree of at most 2 vertices
    # has one of the same size in the closure; at cap 3 the blockers return
    g, blockers, r = case
    clo = build_closure(g, blockers, r, 1)
    assert set(blockers).isdisjoint(v for grp in clo.groups for v in grp)
    groups = list(clo.groups) + [(x,) for x in clo.blockers_old]
    old2new = {old: new for new, old in enumerate(clo.vertex_map)}
    for size in (1, 2):
        for key in combinations(range(len(groups)), size):
            host = brute_steiner(g, [groups[i] for i in key], 2)
            if host.found:
                mapped = [[old2new[v] for v in groups[i] if v in old2new] for i in key]
                assert steiner_size(clo.graph, mapped) == host.value, key
    wide = build_closure(g, blockers, r, Fraction(3, 2))
    assert len(wide.groups) == wide.class_count + len(set(blockers))


@pytest.mark.parametrize("r", [1, 2])
def test_closure_around_the_whole_host_is_the_host(r):
    hosts = [
        ("grid-3x4", grid_graph(3, 4)),
        ("tree-9", random_tree(9, 4)),
        ("two-edges-and-a-point", Graph.from_edges(5, [(0, 1), (2, 3)])),
    ]
    for name, g in hosts:
        clo = build_closure(g, range(g.n), r, 1)
        assert clo.groups == () and clo.kept == {}, name
        assert clo.graph == g and clo.vertex_map == tuple(range(g.n)), name


def test_closure_rejects_bad_blockers():
    with pytest.raises(ValueError):
        build_closure(path_graph(4), [7], 1, 1)
    with pytest.raises(ValueError):
        build_closure(path_graph(4), [0], 1, Fraction(1, 4))


def test_closure_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        build_closure(path_graph(4), [1], -1, 2)


@given(st.integers(0, 2_000))
@settings(max_examples=25)
def test_closure_verify_on_random_graphs(seed):
    g = random_connected(10, 2, seed)
    clo = build_closure(g, [0, 5], 1, 1)
    rep = verify_closure(g, clo)
    assert rep.ok, rep.problems


def test_kept_trees_respect_cap():
    g = grid_graph(3, 4)
    clo = build_closure(g, [0, 11], 1, Fraction(2))
    for key, tree in clo.kept.items():
        assert tree.size <= clo.cap


def test_translation_costs():
    p7 = path_graph(7)
    blockers = [3]
    cls = classify(p7, blockers, 2)
    nonempty = [i for i, c in enumerate(cls.classes) if c.profile]
    tg = build_translation(p7, cls, nonempty)
    assert len(tg.roots) == len(nonempty)
    assert tg.added_cost == sum(tg.class_costs)
    for slot, i in enumerate(nonempty):
        ell = min(d for _, d in cls.classes[i].profile)
        assert tg.class_costs[slot] == (2 * 2 + 1) * ell


def test_translation_rejects_empty_projection():
    # vertex 4 on P5 with blocker 0 and r=1 sees nothing
    p5 = path_graph(5)
    cls = classify(p5, [0], 1)
    empty = [i for i, c in enumerate(cls.classes) if not c.profile]
    assert empty
    with pytest.raises(ValueError):
        build_translation(p5, cls, empty)


def test_translation_shift_identity_small():
    # exact Steiner values through the roots equal host values plus cost
    cases = [
        (cycle_graph(8), [0, 4], 1),
        (path_graph(8), [0, 7], 2),
        (grid_graph(3, 3), [0, 8], 1),
    ]
    for g, xs, r in cases:
        cls = classify(g, xs, r)
        nonempty = [i for i, c in enumerate(cls.classes) if c.profile]
        for size in (2, 3):
            for subset in combinations(nonempty, size):
                chk = check_translation(g, cls, list(subset))
                assert chk.ok, (subset, chk)


def test_translation_check_refuses_singletons():
    g = cycle_graph(8)
    cls = classify(g, [0], 1)
    nonempty = [i for i, c in enumerate(cls.classes) if c.profile]
    with pytest.raises(ValueError):
        check_translation(g, cls, nonempty[:1])
