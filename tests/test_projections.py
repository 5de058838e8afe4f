"""Distance profiles towards a blocker set and their equivalence classes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcds.graphs import Graph, bfs_layers, least_path
from lkcds.oracles import split_avoiding_distances
from lkcds.projections import classify, profile
from workloads import cycle_graph, grid_graph, path_graph, random_connected


def test_profile_on_path():
    p5 = path_graph(5)
    prof = profile(p5, 2, [0, 4], 2)
    assert prof == ((0, 2), (4, 2))
    assert tuple(x for x, _ in prof) == (0, 4)
    assert dict(prof).get(0) == 2
    assert dict(prof).get(3) is None


def test_profile_interior_must_avoid_blockers():
    # 1 sees 0 directly but 4 only through the blocker 2, so 4 drops out
    p5 = path_graph(5)
    prof = profile(p5, 1, [0, 2], 2)
    assert prof == ((0, 1), (2, 1))


def test_profile_rejects_blocked_vertex():
    with pytest.raises(ValueError):
        profile(path_graph(3), 1, [1], 1)


def test_classify_groups_symmetric_vertices():
    c6 = cycle_graph(6)
    cls = classify(c6, [0, 3], 1)
    # 1 and 5 see 0 at distance one, 2 and 4 see 3 at distance one
    assert len(cls) == 2
    members = sorted(tuple(c.members) for c in cls.classes)
    assert members == [(1, 5), (2, 4)]
    for c in cls.classes:
        assert c.representative == c.members[0]


def test_classify_matches_per_vertex_profiles():
    g = grid_graph(3, 4)
    blockers = [0, 5, 11]
    cls = classify(g, blockers, 2)
    for c in cls.classes:
        for v in c.members:
            assert profile(g, v, blockers, 2) == c.profile
    assert sum(len(c.members) for c in cls.classes) == g.n - len(blockers)


def test_classify_refuses_a_negative_radius():
    # without blockers there is no flood, so classify checks r itself
    for blockers in ([], [0]):
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            classify(cycle_graph(6), blockers, -1)


@pytest.mark.parametrize("r", [0, 1, 3])
def test_classify_edge_blocker_sets(r):
    g = grid_graph(2, 3)
    assert classify(g, range(g.n), r).classes == ()
    (only,) = classify(g, [], r).classes
    assert only.profile == () and only.members == tuple(range(g.n))


@st.composite
def hosts_with_blockers(draw):
    n = draw(st.integers(1, 14))
    # sparse draws leave most hosts disconnected
    density = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
    rng = random.Random(draw(st.integers(0, 10_000)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    blockers = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return Graph.from_edges(n, edges), sorted(blockers), draw(st.integers(0, 3))


@given(hosts_with_blockers())
@settings(max_examples=100, deadline=None)
def test_classify_groups_free_vertices_by_profile(case):
    # the classes are the free vertices grouped by their per-vertex
    # profiles, which agree with the split-graph oracle's distances
    g, blockers, r = case
    free = [u for u in range(g.n) if u not in blockers]
    by_profile = {}
    for u in free:
        prof = profile(g, u, blockers, r)
        dist = split_avoiding_distances(g, blockers, u)
        assert prof == tuple((x, dist[x]) for x in blockers if dist.get(x, r + 1) <= r)
        by_profile.setdefault(prof, []).append(u)
    cls = classify(g, blockers, r)
    assert cls.blockers == tuple(blockers) and cls.r == r
    assert [(c.profile, c.members) for c in cls.classes] == [
        (prof, tuple(members)) for prof, members in sorted(by_profile.items())
    ]
    assert cls.class_of == {u: i for i, c in enumerate(cls.classes) for u in c.members}


@given(hosts_with_blockers())
@settings(max_examples=100, deadline=None)
def test_least_path_off_a_blocker_flood_is_the_queue_bfs_path(case):
    # every path the closure retains, read off a blocker's flood from the
    # profiled vertex's end, is the twin queue BFS's path from that vertex
    g, blockers, r = case
    cls = classify(g, blockers, r)
    assert sorted(cls.rings) == blockers
    for x in blockers:
        assert cls.rings[x][0] == 1 << x and len(cls.rings[x]) <= r + 1
    nbr = g.neighbor_masks()
    for u, i in cls.class_of.items():
        res = bfs_layers(g, [u], depth_cap=r, forbidden=blockers)
        for x, d in cls.classes[i].profile:
            assert least_path(nbr, u, cls.rings[x][:d]) == res.path_to(x)


@given(st.integers(0, 3_000))
@settings(max_examples=80)
def test_flood_direction_agrees_with_split_oracle(seed):
    # classification flood distances equal avoiding-path distances
    g = random_connected(9, 3, seed)
    blockers = [0, 4]
    r = 2
    for u in range(g.n):
        if u in blockers:
            continue
        prof = profile(g, u, blockers, r)
        dist = split_avoiding_distances(g, blockers, u)
        for x in blockers:
            d = dist.get(x)
            want = d if d is not None and d <= r else None
            assert dict(prof).get(x) == want


@given(st.integers(0, 3_000))
@settings(max_examples=60)
def test_equal_profiles_cover_equal_targets(seed):
    # a shortest path to a blocker splits at its first blocker, so the
    # profile decides which blockers lie within r, through blockers or not
    g = random_connected(12, 3, seed)
    blockers = [0, 6]
    r = 2
    cls = classify(g, blockers, r)
    # ten free vertices and at most nine profiles: some class has two members
    assert max(len(c.members) for c in cls.classes) >= 2
    for c in cls.classes:
        covered = {
            tuple(x for x in blockers if 0 <= g.dist_row(v)[x] <= r)
            for v in c.members
        }
        assert len(covered) == 1, (c.profile, covered)
