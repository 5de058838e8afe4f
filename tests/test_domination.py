"""Domination predicates, greedy cover, stitching, and subtree covers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcds.cores import find_core
from lkcds.domination import (
    ContractViolation,
    check_covering_family,
    connect,
    covering_family,
    dominates,
    greedy_rdom,
)
from lkcds.graphs import (
    Graph,
    Tree,
    induced_components,
    induced_subgraph,
    iter_bits,
    mask_connected,
    mask_of,
)
from lkcds.oracles import exact_ds
from workloads import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected,
    random_tree,
    relabeled,
    spider_graph,
    star_graph,
)


def test_dominates_basic():
    p5 = path_graph(5)
    assert dominates(p5, [2], 2)
    assert not dominates(p5, [2], 1)
    assert dominates(p5, [2], 1, targets=[1, 2, 3])
    assert dominates(p5, [], 1, targets=[])
    with pytest.raises(ValueError):
        dominates(p5, [9], 1)


def test_greedy_is_valid_and_bounded():
    for g, r in [(grid_graph(3, 4), 1), (cycle_graph(9), 2), (random_tree(14, 3), 1)]:
        sol = greedy_rdom(g, r)
        assert dominates(g, sol, r)
        # never worse than n and at least the exact optimum
        opt = exact_ds(g, r, g.n)
        assert opt.value <= len(sol) <= g.n


def test_greedy_targets_subset():
    p9 = path_graph(9)
    sol = greedy_rdom(p9, 1, targets=[0, 1])
    assert dominates(p9, sol, 1, targets=[0, 1])
    assert len(sol) == 1


def rescan_greedy(g, r, targets=None):
    # the plain form: rescan every vertex's gain for every pick
    want = (1 << g.n) - 1 if targets is None else mask_of(targets)
    balls = g.balls(r)
    chosen = []
    while want:
        best_v, best_gain = -1, 0
        for v in range(g.n):
            gain = (balls[v] & want).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen.append(best_v)
        want &= ~balls[best_v]
    return tuple(chosen)


@given(st.integers(1, 30), st.integers(0, 40), st.integers(1, 3), st.data())
@settings(max_examples=150)
def test_lazy_greedy_matches_rescan(n, extra, r, data):
    g = random_connected(n, extra, data.draw(st.integers(0, 10_000)))
    targets = data.draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1))))
    assert greedy_rdom(g, r, targets) == rescan_greedy(g, r, targets)


def test_greedy_refuses_targets_outside_the_graph():
    with pytest.raises(ValueError, match="target vertex 4 out of range"):
        greedy_rdom(path_graph(4), 1, targets=[4])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: dominates(g, [0], 1, targets=[-1]), "target vertex -1 out of range"),
        (lambda g: dominates(g, [-1], 1), "vertex -1 out of range"),
        (lambda g: greedy_rdom(g, 1, targets=[-1]), "target vertex -1 out of range"),
        (lambda g: connect(g, [0, 4], 4), "vertex 4 out of range"),
    ],
)
def test_vertex_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(path_graph(4))


def test_connect_path_counts_interiors():
    p7 = path_graph(7)
    res = connect(p7, [0, 6], 6)
    assert res.connected == tuple(range(7))
    assert res.added == (1, 2, 3, 4, 5)
    assert len(res.merge_paths) == 1
    res_one = connect(p7, [0], 3)
    assert res_one.connected == (0,) and res_one.added == ()


def test_connect_respects_stretch():
    p7 = path_graph(7)
    with pytest.raises(ContractViolation):
        connect(p7, [0, 6], 4)


def test_connect_prefers_globally_closest_pair():
    # components {0}, {3}, {9}; 0-3 merges first, then {0..3} reaches 9
    p10 = path_graph(10)
    res = connect(p10, [0, 3, 9], 9)
    assert res.merge_paths[0] == (0, 1, 2, 3)
    assert res.merge_paths[1][0] == 3 and res.merge_paths[1][-1] == 9


@given(st.integers(0, 3_000))
@settings(max_examples=60)
def test_connect_total_interior_bound(seed):
    g = random_connected(10, 2, seed)
    seeds = [0, g.n // 2, g.n - 1]
    res = connect(g, seeds, g.n)
    pieces = len({*seeds})
    interiors = len(res.added)
    assert interiors <= g.n * (pieces - 1)
    sub = set(res.connected)
    assert set(seeds) <= sub
    # result really is connected
    gsub, _ = induced_subgraph(g, sub)
    assert gsub.is_connected()


def _replay(g, seeds, res):
    # brute force, merge by merge: each path is a host path between seeds of
    # two current components, as long as the least distance between two
    # components that an all-pairs dist_row scan finds on the current seeds,
    # and adds exactly its interior vertices
    current = set(seeds)
    added = []
    for path in res.merge_paths:
        assert len(set(path)) == len(path)
        assert all(b in g.adj[a] for a, b in zip(path, path[1:]))
        comps = induced_components(g, mask_of(current))
        comp_of = {v: i for i, c in enumerate(comps) for v in iter_bits(c)}
        u, v = path[0], path[-1]
        assert u in current and v in current and comp_of[u] != comp_of[v]
        least = min(
            d
            for a in current
            for b, d in enumerate(g.dist_row(a))
            if d > 0 and b in current and comp_of[a] != comp_of[b]
        )
        assert len(path) - 1 == least
        interior = path[1:-1]
        assert not current & set(interior)
        added += interior
        current |= set(interior)
    assert res.added == tuple(added)
    assert res.connected == tuple(sorted(current))
    assert set(seeds) <= current
    assert mask_connected(g, mask_of(current))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ContractViolation) as exc:
        return type(exc).__name__, str(exc)


def _check_connect(g, seeds, stretch):
    # connect(g, seeds, stretch) against connect(g, seeds, g.n): stretch
    # changes nothing but raising at the first merge with more than
    # `stretch` interior vertices; a seed set that spans two graph parts
    # raises
    got = _outcome(connect, g, seeds, stretch)
    full = _outcome(connect, g, seeds, g.n)
    parts = sum(1 for c in g.component_masks() if c & mask_of(seeds))
    if parts > 1:
        gap = ("ContractViolation", "seed components lie in different graph parts")
        assert full == gap
        assert got == gap or got[1].startswith("merge from")
        return got
    _replay(g, seeds, full)
    want = full
    for path in full.merge_paths:
        if len(path) - 2 > stretch:
            want = (
                "ContractViolation",
                f"merge from {path[0]} to {path[-1]} needs {len(path) - 2} "
                f"interior vertices, allowed {stretch}",
            )
            break
    assert got == want
    return got


@given(
    st.integers(2, 24),
    st.integers(0, 10),
    st.integers(0, 10_000),
    st.integers(0, 6),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_connect_matches_all_pairs_scan(n, extra, seed, drop, data):
    host = random_connected(n, extra, seed)
    edges = list(host.edges())
    # dropping edges leaves some hosts disconnected
    for _ in range(min(drop, len(edges))):
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    g = Graph.from_edges(n, edges)
    seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    stretch = data.draw(st.sampled_from((1, 2, 4, n)))
    _check_connect(g, seeds, stretch)


@given(
    st.integers(4, 32),
    st.integers(0, 10),
    st.integers(0, 10_000),
    st.integers(0, 8),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_connect_matches_all_pairs_scan_on_dense_seed_sets(n, extra, seed, drop, data):
    # balls around a few centres hold many seeds with no neighbour outside
    # the seed set, next to scattered single seeds
    host = random_connected(n, extra, seed)
    edges = list(host.edges())
    for _ in range(min(drop, len(edges))):
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    g = Graph.from_edges(n, edges)
    seeds = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n // 4)))
    for centre in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        seeds |= set(iter_bits(g.balls(data.draw(st.integers(1, 2)))[centre]))
    stretch = data.draw(st.sampled_from((0, 1, 2, 4, n)))
    _check_connect(g, seeds, stretch)


@pytest.mark.parametrize(
    "n, edges, seeds, expected",
    [
        # the merge 1-3-5 leaves seed 1 with one neighbour outside the
        # seeds, 2, and the next merge runs through it
        (8, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 7)], [0, 1, 5, 7],
         ((1, 3, 5), (1, 2, 4, 7))),
        # the merge 2-0-5 makes 0 a seed with one neighbour outside the
        # seeds, 1, which the merge brought nearer; the next merge starts
        # from it
        (7, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5), (2, 4), (4, 6), (5, 6)], [2, 3, 5, 6],
         ((2, 0, 5), (0, 1, 3))),
    ],
)
def test_connect_keeps_flooding_a_seed_with_one_outside_neighbour(n, edges, seeds, expected):
    g = Graph.from_edges(n, edges)
    res = connect(g, seeds, 2)
    assert res.merge_paths == expected
    _check_connect(g, seeds, 2)


def test_connect_finds_an_odd_gap_seen_after_an_even_one():
    # the path 0-3-5-4-1-7-6-2 with seeds 0, 1, 2: the flood from all seeds
    # meets the gap 4 between 0 and 1 before the gap 3 between 1 and 2
    g = Graph.from_edges(8, [(0, 3), (3, 5), (5, 4), (4, 1), (1, 7), (7, 6), (6, 2)])
    res = connect(g, [0, 1, 2], 3)
    assert res.merge_paths == ((1, 7, 6, 2), (0, 3, 5, 4, 1))
    _check_connect(g, [0, 1, 2], 3)


def test_connect_matches_all_pairs_scan_on_a_heuristic_core():
    g = random_connected(200, 20, 200)
    core = find_core(g, 1, 1, mode="heuristic").vertices
    got = _check_connect(g, core, 2)
    assert len(got.merge_paths) > 10


def test_connect_orients_each_path_from_its_smaller_end():
    # the merge 6-3-9 makes 3 a seed; the next merge runs from it to 4, and
    # the last from 1 to 14, each read from the smaller end
    g = Graph.from_edges(
        15,
        [(0, 1), (0, 8), (1, 2), (1, 4), (1, 7), (2, 3), (3, 5), (3, 6),
         (3, 9), (4, 11), (6, 13), (7, 12), (7, 14), (8, 10)],
    )
    res = connect(g, [14, 6, 9, 4], 2)
    assert res.merge_paths == ((6, 3, 9), (3, 2, 1, 4), (1, 7, 14))
    _check_connect(g, [14, 6, 9, 4], 2)


@pytest.mark.parametrize(
    "stretch, expected",
    [
        (2, ((7, 0, 8), (0, 4, 1, 2))),
        (1, ("ContractViolation", "merge from 0 to 2 needs 2 interior vertices, allowed 1")),
    ],
)
def test_connect_merges_from_a_new_interior_vertex(stretch, expected):
    # the interior vertex 0 of the first merge becomes a seed and the start
    # of the second merge
    g = Graph.from_edges(
        9, [(0, 4), (0, 7), (0, 8), (1, 2), (1, 4), (3, 5), (3, 6), (4, 5), (5, 7), (6, 7)]
    )
    seeds = [7, 3, 2, 8, 6]
    got = _check_connect(g, seeds, stretch)
    assert getattr(got, "merge_paths", got) == expected


@pytest.mark.parametrize("n", [100, 200])
def test_connect_matches_all_pairs_scan_at_ladder_scale(n):
    # ladder-like hosts: merges over distances 3 and 4, whose interior
    # vertices become seeds and bring their surroundings nearer
    g = relabeled(random_connected(n, n // 10, n + 1), random.Random(n))
    runs = [(find_core(g, 1, r, mode="heuristic").vertices, 2 * r) for r in (1, 2)]
    runs += [(greedy_rdom(g, r), g.n) for r in (1, 2)]
    lengths = []
    for seeds, stretch in runs:
        got = _check_connect(g, seeds, stretch)
        lengths += [len(p) for p in got.merge_paths]
    assert max(lengths) >= 4


def test_connect_refuses_a_disconnected_seed_spread():
    # no merge is possible, so every stretch gives the same refusal
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    gap = "^seed components lie in different graph parts$"
    for stretch in (0, 1, g.n):
        with pytest.raises(ContractViolation, match=gap):
            connect(g, [0, 1, 4], stretch)


def test_covering_family_singletons_when_t_small():
    g = grid_graph(3, 3)
    fam = covering_family(g, 1)
    assert all(p.size == 1 for p in fam.pieces)
    assert len(fam.pieces) == g.n
    fam_half = covering_family(path_graph(4), Fraction(1, 2))
    assert len(fam_half.pieces) == 4


def test_covering_family_integer_t():
    for g in [path_graph(12), random_tree(13, 5), grid_graph(3, 4), spider_graph(4, 3)]:
        for t in (2, 3):
            fam = covering_family(g, t)
            assert check_covering_family(g, fam) is None
            assert all(p.size <= 2 * t for p in fam.pieces)
            assert len(fam.pieces) <= g.n / t + 1


def test_covering_family_half_fractions():
    for g in [path_graph(11), random_tree(12, 8), cycle_graph(10)]:
        for t in (Fraction(3, 2), Fraction(5, 2)):
            fam = covering_family(g, t)
            assert check_covering_family(g, fam) is None


def test_covering_family_infeasible_fraction_raises():
    # wide stars defeat small fractional widths; the builder must notice
    star19 = star_graph(19)
    with pytest.raises(ContractViolation):
        covering_family(star19, Fraction(6, 5))


def test_covering_family_rejects_bad_input():
    with pytest.raises(ValueError):
        covering_family(path_graph(4), Fraction(1, 4))
    with pytest.raises(ValueError):
        covering_family(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
    with pytest.raises(TypeError):
        covering_family(path_graph(3), 1.5)


def test_check_covering_family_catches_tampering():
    from lkcds.domination import CoveringFamily

    g = path_graph(6)
    fam = covering_family(g, 2)
    # drop a piece: union no longer covers
    broken = CoveringFamily(fam.t, fam.pieces[1:])
    assert check_covering_family(g, broken) is not None
    # oversize piece
    fat = CoveringFamily(
        Fraction(1), (Tree(tuple(range(6)), tuple((i, i + 1) for i in range(5))),)
    )
    assert check_covering_family(g, fat) is not None


@given(st.integers(0, 5_000))
@settings(max_examples=80)
def test_covering_family_bounds_on_random_trees(seed):
    g = random_tree(11, seed)
    for t in (1, 2, Fraction(3, 2)):
        fam = covering_family(g, t)
        assert check_covering_family(g, fam) is None
        cover = set()
        for p in fam.pieces:
            cover.update(p.vertices)
        assert cover == set(range(g.n))
