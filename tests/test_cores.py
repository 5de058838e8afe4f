"""Domination cores: extraction modes, verification, stitching, rejection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcds.cores import (
    DISCONNECTED,
    DominationCore,
    Rejection,
    _containment_prune,
    connected_core,
    core_verify,
    find_core,
)
from lkcds.domination import connect
from lkcds.graphs import (
    Graph,
    bfs_layers,
    induced_components,
    induced_subgraph,
    mask_connected,
    mask_of,
)
from lkcds.oracles import FOUND, cover_exists, exact_ds
from workloads import grid_graph, path_graph, random_connected, star_graph


def test_heuristic_prunes_star_hub():
    # the hub ball contains each leaf ball, so only the leaves remain
    g = star_graph(6)
    core = find_core(g, 1, 1, mode="heuristic")
    assert core.vertices == tuple(range(1, 7))
    assert core.certified == "heuristic-sound"
    assert core_verify(g, core.vertices, 1, 1)


def test_exact_mode_rejects_impossible_budget():
    out = find_core(path_graph(9), 1, 1, mode="exact")
    assert isinstance(out, Rejection)
    assert "dominated" in out.reason


def test_exact_core_is_verified_and_small():
    g = grid_graph(3, 3)
    core = find_core(g, 3, 1, mode="exact")
    assert isinstance(core, DominationCore)
    assert core.certified == "exhaustive"
    assert core_verify(g, core.vertices, 3, 1)
    assert len(core.vertices) <= g.n


def test_core_verify_names_a_vertex_outside_the_graph():
    with pytest.raises(ValueError, match="^core vertex -1 out of range$"):
        core_verify(path_graph(5), [-1], 1, 1)


def test_core_verify_fails_for_too_small_sets():
    # {0} is not a core of P5 at k=1: covering 0 does not force covering 4
    p5 = path_graph(5)
    assert not core_verify(p5, [0], 1, 1)
    assert core_verify(p5, [0, 4], 1, 1)


@given(st.integers(0, 3_000))
@settings(max_examples=40)
def test_heuristic_core_property_holds(seed):
    # soundness: every budget-k cover of Z covers the whole graph
    g = random_connected(9, 2, seed)
    for r in (1, 2):
        core = find_core(g, 3, r, mode="heuristic")
        assert core_verify(g, core.vertices, 3, r)


def rescan_containment_prune(g, r):
    """The containment prune as a rescan loop: drop v, scanning from the top
    id, while some other remaining w has ball(w) inside ball(v)."""
    balls = g.balls(r)
    z = set(range(g.n))
    changed = True
    while changed:
        changed = False
        for v in sorted(z, reverse=True):
            if any(balls[w] & ~balls[v] == 0 for w in z if w != v):
                z.remove(v)
                changed = True
    return z


@st.composite
def small_graphs(draw, max_n=12):
    """A graph on at most max_n vertices, possibly disconnected."""
    n = draw(st.integers(0, max_n))
    density = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < density])


@given(small_graphs(), st.sampled_from([1, 2, 3]))
@settings(max_examples=200)
def test_containment_prune_matches_rescan_loop(g, r):
    assert _containment_prune(g, r) == rescan_containment_prune(g, r)


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("r", [1, 2])
def test_containment_prune_matches_rescan_loop_at_ladder_scale(n, r):
    g = random_connected(n, n // 10, 1)
    assert _containment_prune(g, r) == rescan_containment_prune(g, r)


def rescan_exact_core(g, k, r):
    """The exact core as a rescan loop: reject a disconnected host, and
    otherwise unless `exact_ds` finds a dominating set, then repeat the
    removal pass until it removes nothing."""
    if not g.is_connected():
        return Rejection(DISCONNECTED)
    if exact_ds(g, r, k).status != FOUND:
        return Rejection(f"graph cannot be {r}-dominated by at most {k} vertices")
    balls = g.balls(r)
    full = (1 << g.n) - 1
    z = _containment_prune(g, r)
    changed = True
    while changed:
        changed = False
        for v in sorted(z, reverse=True):
            if not cover_exists(balls, mask_of(z - {v}), k, full & ~balls[v]):
                z.remove(v)
                changed = True
    return DominationCore(tuple(sorted(z)), k, r, "exhaustive")


@given(small_graphs(11), st.sampled_from([1, 2, 3]), st.integers(0, 4))
@settings(max_examples=150)
def test_exact_core_matches_rescan_loop(g, r, k):
    if g.n == 0:
        with pytest.raises(ValueError, match="empty graph"):
            find_core(g, k, r, mode="exact")
        return
    assert find_core(g, k, r, mode="exact") == rescan_exact_core(g, k, r)


@given(st.integers(0, 3_000))
@settings(max_examples=30)
def test_exact_core_within_heuristic(seed):
    g = random_connected(8, 2, seed)
    exact = find_core(g, 3, 1, mode="exact")
    heur = find_core(g, 3, 1, mode="heuristic")
    if isinstance(exact, DominationCore):
        assert set(exact.vertices) <= set(heur.vertices)


def test_connected_core_stitches_grid():
    g = grid_graph(3, 4)
    core = find_core(g, 4, 1, mode="heuristic")
    out = connected_core(g, core)
    assert isinstance(out, DominationCore)
    assert set(core.vertices) <= set(out.vertices)
    sub, _ = induced_subgraph(g, out.vertices)
    assert sub.is_connected()


@st.composite
def connected_graphs(draw):
    """A connected graph on 1..12 vertices: a random tree plus extra edges."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


@given(
    connected_graphs(),
    st.sampled_from([1, 2]),
    st.integers(0, 3),
    st.sampled_from(["exact", "heuristic"]),
)
@settings(max_examples=150)
def test_connected_core_stitches_every_core(g, r, k, mode):
    # every vertex lies within 2r of a core (within r of a heuristic one),
    # so stitching never needs to reject a connected host
    core = find_core(g, k, r, mode=mode)
    if isinstance(core, Rejection):
        return
    dist = bfs_layers(g, core.vertices).dist
    near = r if mode == "heuristic" else 2 * r
    assert all(v in dist and dist[v] <= near for v in range(g.n))
    out = connected_core(g, core)
    assert isinstance(out, DominationCore)
    assert set(core.vertices) <= set(out.vertices)
    assert mask_connected(g, mask_of(out.vertices))


@given(
    st.integers(60, 300), st.integers(0, 40), st.integers(0, 10_000), st.sampled_from([1, 2])
)
@settings(max_examples=40, deadline=None)
def test_stitching_a_heuristic_core_meets_the_2r_bounds(n, extra, seed, r):
    # connect at stretch n, so that the bounds are checked here, not by
    # connect's own contract
    g = random_connected(n, extra, seed)
    core = find_core(g, 1, r, mode="heuristic").vertices
    p0 = len(induced_components(g, mask_of(core)))
    res = connect(g, core, g.n)
    assert set(core) <= set(res.connected)
    assert mask_connected(g, mask_of(res.connected))
    assert all(len(path) - 2 <= 2 * r for path in res.merge_paths)
    assert len(res.added) <= 2 * r * (p0 - 1)


def test_find_core_rejects_disconnected_host():
    # before either mode runs: at k = 1 the exact cover test would
    # otherwise give its own reason
    g = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6)])
    for mode in ("exact", "heuristic"):
        for k in (1, 3):
            assert find_core(g, k, 1, mode=mode) == Rejection(DISCONNECTED)
