"""Graph container, traversal, subdivision, and file formats."""

import random
import re
from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcds.graphs import (
    Graph,
    GraphFormatError,
    bfs_layers,
    flood,
    induced_components,
    induced_subgraph,
    iter_bits,
    mask_connected,
    mask_of,
    parse_graph,
    r_subdivision,
    serialize_graph,
    sniff_format,
    subgraph,
    tree_mask_problem,
    tree_problem,
    vertex_mask,
)
from lkcds.orders import heuristic_order
from workloads import cycle_graph, grid_graph, path_graph, random_connected, star_graph


def test_from_edges_normalizes():
    g = Graph.from_edges(4, [(2, 1), (0, 1), (3, 0)])
    assert g.adj[1] == (0, 2)
    assert g.m == 3
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_distances_and_balls():
    g = path_graph(5)
    assert g.dist_row(0)[4] == 4
    assert g.dist_row(0)[3] == 3
    assert g.balls(1)[2] == mask_of([1, 2, 3])
    assert g.balls(2)[0] == mask_of([0, 1, 2])
    disc = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert disc.dist_row(0)[3] == -1  # unreachable
    assert not disc.is_connected()
    assert len(disc.component_masks()) == 2


@given(st.integers(1, 12), st.integers(0, 2_000))
def test_balls_match_distance_rows(n, seed):
    # sparse and often disconnected; radii past the diameter keep the component
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if rng.random() < 0.2]
    for r in list(range(n + 2)) + [10**6]:
        g = Graph.from_edges(n, edges)
        want = tuple(
            mask_of(u for u, d in enumerate(g.dist_row(v)) if 0 <= d <= r)
            for v in range(n)
        )
        assert g.balls(r) == want


def plain_bfs_order(g):
    # breadth-first discovery from each vertex not yet found, by a deque
    seen = set()
    seq = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            seq.append(v)
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seq


@given(st.integers(0, 14), st.sampled_from((0.1, 0.2, 0.4)), st.data())
@settings(max_examples=150)
def test_mask_primitives_match_the_queue_bfs(n, density, data):
    # the mask routines (neighborhood, layers, flood and what is built on them)
    # against bfs_layers, the one queue BFS, on sparse and often
    # disconnected graphs
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
    full = (1 << n) - 1
    for _ in range(4):
        m = data.draw(st.integers(0, full))
        want = 0
        for v in iter_bits(m):
            want |= mask_of(g.adj[v])
        assert g.neighborhood(m) == want
    for v in range(n):
        # a graph has at most n layers, so a flood that never stops shows
        # up as one too many
        dist = bfs_layers(g, [v]).dist
        depth = max(dist.values())
        assert list(islice(g.layers(1 << v), n + 1)) == [
            mask_of(u for u, d in dist.items() if d == i) for i in range(depth + 1)
        ]
        assert g.dist_row(v) == tuple(dist.get(u, -1) for u in range(n))
    for r in range(4):
        want = tuple(mask_of(bfs_layers(g, [v], depth_cap=r).dist) for v in range(n))
        assert g.balls(r) == want
        assert tuple(flood(g, 1 << v, depth=r) for v in range(n)) == want
    for _ in range(4):
        m = data.draw(st.integers(0, full))
        sub, parents = induced_subgraph(g, iter_bits(m))
        comps = []
        left = set(range(sub.n))
        while left:
            reached = bfs_layers(sub, [min(left)]).dist
            comps.append(mask_of(parents[i] for i in reached))
            left.difference_update(reached)
        assert induced_components(g, m) == tuple(comps)
        if m:
            # layers confined to m are the queue BFS of the induced subgraph
            start = parents[0]
            dist = bfs_layers(sub, [0]).dist
            depth = max(dist.values())
            assert list(islice(g.layers(1 << start, m), n + 1)) == [
                mask_of(parents[i] for i, d in dist.items() if d == j)
                for j in range(depth + 1)
            ]
            for r in range(4):
                reached = bfs_layers(sub, [0], depth_cap=r).dist
                assert flood(g, 1 << start, m, r) == mask_of(parents[i] for i in reached)
    assert list(heuristic_order(g, "bfs").seq) == plain_bfs_order(g)


def test_vertex_mask_names_the_first_vertex_outside():
    g = path_graph(3)
    assert vertex_mask(g, [2, 0, 2], "vertex") == 0b101
    with pytest.raises(ValueError, match="^blocker 3 out of range$"):
        vertex_mask(g, [0, 3, -1], "blocker")
    with pytest.raises(ValueError, match="^source -1 out of range$"):
        bfs_layers(g, [-1, 5])


def test_mask_connected():
    g = cycle_graph(6)
    assert mask_connected(g, mask_of([0, 1, 2]))
    assert not mask_connected(g, mask_of([0, 3]))
    assert not mask_connected(g, 0)  # empty mask counts as disconnected


def test_tree_problem_names_each_fault():
    g = path_graph(5)
    assert tree_problem(g, (1, 2, 3), ((1, 2), (2, 3))) is None
    assert tree_problem(g, (4,), ()) is None
    assert tree_problem(g, (), ()) == "is empty"
    assert tree_problem(g, (0, 0, 1), ((0, 1),)) == "repeats a vertex"
    assert tree_problem(g, (5,), ()) == "has a vertex outside the host"
    assert tree_problem(g, (0, 1, 2), ((0, 1),)) == "is not a tree"
    assert tree_problem(g, (0, 1, 2), ((0, 1), (0, 2))) == "uses a non-edge (0, 2)"
    assert tree_problem(g, (0, 1, 3), ((0, 1), (1, 2))) == "has a dangling edge (1, 2)"
    assert tree_problem(g, (0, 1, 2), ((0, 1), (0, 1))) == "is disconnected"


@st.composite
def tree_candidates(draw):
    """A graph of at most 9 vertices, a vertex list that may be empty, hold
    an id outside the graph or repeat one, and an edge list: a random tree
    over the list, preferring host edges, in which one edge may become a
    dangling edge, a non-edge or a chord (often a cycle), or which may
    gain a chord (one edge too many) or lose an edge (one too few)."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from((2, 5, 8)))
    g = Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < density])
    size = draw(st.integers(0, n)) if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, n))
    vertices = draw(st.permutations(range(n)))[:size]
    if draw(st.integers(0, 9)) == 0:
        vertices.insert(draw(st.integers(0, len(vertices))), draw(st.integers(n, n + 2)))
    if vertices and draw(st.integers(0, 9)) == 0:
        vertices.append(draw(st.sampled_from(vertices)))
    edges = []
    for i in range(1, len(vertices)):
        v, earlier = vertices[i], vertices[:i]
        near = [u for u in earlier if v < n and u < n and u in g.adj[v]]
        u = draw(st.sampled_from(near or earlier))
        edges.append((u, v) if u < v else (v, u))
    fault = draw(st.sampled_from(("none", "dangling", "non-edge", "cycle", "extra", "drop")))
    missing = [e for e in pairs if e[1] not in g.adj[e[0]]]
    if fault == "dangling":
        edge = tuple(sorted(draw(st.lists(st.integers(-1, n + 2), min_size=2, max_size=2))))
    elif fault == "non-edge" and missing:
        edge = draw(st.sampled_from(missing))
    elif fault in ("cycle", "extra") and vertices:
        # a host edge inside the list, when there is one
        inside = [e for e in pairs if e[1] in g.adj[e[0]] and set(e) <= set(vertices)]
        edge = draw(st.sampled_from(inside or [(vertices[0], vertices[-1])]))
    else:
        edge = None
    if fault == "drop" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif edge is not None and fault != "extra" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = edge
    elif edge is not None:
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return g, vertices, edges


@given(tree_candidates())
@settings(max_examples=400)
def test_tree_mask_problem_is_tree_problem_on_the_vertex_mask(case):
    # the one validator: the vertex-list form is the mask form after the
    # checks that need the list, with the same verdict and message
    g, vertices, edges = case
    problem = tree_problem(g, vertices, edges)
    if len(set(vertices)) != len(vertices):
        assert problem == "repeats a vertex"
        return
    assert tree_mask_problem(g, mask_of(vertices), edges) == problem


def test_bfs_layers_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        bfs_layers(path_graph(3), [0], depth_cap=-1)


def test_bfs_layers_blocked_vertices_are_reached_not_expanded():
    g = path_graph(5)
    res = bfs_layers(g, [0], forbidden=[2])
    assert res.dist[2] == 2
    assert 3 not in res.dist
    # a forbidden source still expands at depth zero
    res2 = bfs_layers(g, [2], forbidden=[2])
    assert res2.dist[4] == 2


def test_bfs_path_reconstruction():
    g = grid_graph(3, 3)
    res = bfs_layers(g, [0])
    p = res.path_to(8)
    assert p[0] == 0 and p[-1] == 8 and len(p) == 5
    for a, b in zip(p, p[1:]):
        assert b in g.adj[a]


def least_avoiding_paths(g, sources, depth_cap, forbidden):
    # brute force over every simple path from a source whose interior
    # avoids `forbidden`: per end vertex, the shortest such paths within
    # the depth cap, and of those the lexicographically least
    best = {}

    def grow(path):
        v = path[-1]
        if v not in best or (len(path), path) < (len(best[v]), best[v]):
            best[v] = path
        if depth_cap is not None and len(path) > depth_cap:
            return
        if len(path) > 1 and v in forbidden:
            return
        for w in g.adj[v]:
            if w not in path:
                grow(path + [w])

    for s in sources:
        grow([s])
    return best


@given(st.integers(1, 9), st.sampled_from((0.2, 0.35, 0.5)), st.data())
@settings(max_examples=150)
def test_path_to_is_the_least_shortest_avoiding_path(n, density, data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
    sources = rng.sample(range(n), rng.randint(1, min(3, n)))
    forbidden = {v for v in range(n) if rng.random() < 0.3}
    depth_cap = data.draw(st.sampled_from((None, 0, 1, 2, 3)))
    res = bfs_layers(g, sources, depth_cap=depth_cap, forbidden=forbidden)
    want = least_avoiding_paths(g, sources, depth_cap, forbidden)
    assert res.dist == {v: len(p) - 1 for v, p in want.items()}
    for v, path in want.items():
        assert res.path_to(v) == path


def test_induced_subgraph_keeps_labels():
    g = cycle_graph(6)
    sub, parents = induced_subgraph(g, [1, 2, 4])
    assert sub.n == 3
    assert parents == (1, 2, 4)
    assert list(sub.edges()) == [(0, 1)]


def relabel_then_from_edges(vertices, edges):
    """The subgraph route that reads no host rows: dedupe the edges, relabel
    them, sort, then `Graph.from_edges`.  It checks the edges in ascending
    order and names a self-loop by its vertex in the input, as `subgraph`
    does, so each refusal names the same edge."""
    parents = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(parents)}
    keys = sorted({(min(e), max(e)) for e in edges})
    for u, v in keys:
        if u not in index or v not in index:
            raise ValueError(f"edge ({u},{v}) leaves the vertex set")
    for u, v in keys:
        if u == v:
            raise ValueError(f"self-loop at {u}")
    relabeled = [(index[u], index[v]) for u, v in keys]
    return Graph.from_edges(len(parents), relabeled), parents


def built(build):
    """The rows and parents a builder returns, or its refusal message."""
    try:
        sub, parents = build()
    except ValueError as exc:
        return str(exc)
    return sub.adj, sub.m, parents


def seeded_host(rnd):
    """A graph on at most 20 vertices, possibly disconnected."""
    n = rnd.randint(0, 20)
    density = rnd.choice((0.1, 0.25, 0.5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if rnd.random() < density])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_subgraph_builders_match_relabel_then_from_edges(seed):
    rnd = random.Random(seed)
    g = seeded_host(rnd)
    inside = set(rnd.sample(range(g.n), rnd.randint(0, g.n)))
    induced = [(u, v) for u, v in g.edges() if u in inside and v in inside]
    want = built(lambda: relabel_then_from_edges(inside, induced))
    assert built(lambda: induced_subgraph(g, inside)) == want

    # a few stray pairs: self-loops, edges that leave the subset (some to
    # ids past the host) and pairs inside that are no host edge; half the
    # time all lie inside, so that no leaving edge hides a self-loop.
    # subgraph reads rows only inside, so its leaving edges may end
    # anywhere, but a pair inside that is no host edge breaks its contract
    edges = [e for e in induced if rnd.random() < 0.7]
    ids = rnd.choice((sorted(inside) or [0], range(g.n + 3)))
    stray = [(rnd.choice(ids), rnd.choice(ids)) for _ in range(rnd.randint(0, 3))]
    off = [(u, v) for u, v in stray if u == v or u not in inside or v not in inside]
    keys = {(min(e), max(e)) for e in edges + off}
    want = built(lambda: relabel_then_from_edges(inside, keys))
    assert built(lambda: subgraph(g, inside, keys)) == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_a_subgraph_that_keeps_everything_is_the_host(seed):
    # half the time every vertex is kept, and then most draws keep every edge
    rnd = random.Random(seed)
    g = seeded_host(rnd)
    every = set(range(g.n))
    inside = set(rnd.sample(range(g.n), rnd.randint(0, g.n)))
    if rnd.random() < 0.5:
        inside = every
    induced = {(u, v) for u, v in g.edges() if u in inside and v in inside}
    edges = {e for e in induced if rnd.random() < 0.95}
    for kept, build in (
        (induced, lambda: induced_subgraph(g, inside)),
        (edges, lambda: subgraph(g, inside, edges)),
    ):
        sub, parents = build()
        assert (sub is g) == (inside == every and len(kept) == g.m)
        want, want_parents = relabel_then_from_edges(inside, kept)
        assert (sub.adj, sub.m, parents) == (want.adj, want.m, want_parents)


def test_a_whole_edge_count_with_a_non_edge_is_refused():
    # g.m edges, one of them no edge of g: refused before the host is returned
    g = cycle_graph(5)
    edges = set(g.edges()) - {(0, 1)} | {(0, 2)}
    assert len(edges) == g.m
    with pytest.raises(ValueError, match=re.escape("edge (0,2) is not a host edge")):
        subgraph(g, range(5), edges)
    assert subgraph(g, range(5), set(g.edges()))[0] is g


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, 0), "edge (1,0) is not a host edge, low end first"),
        ((3, 3), "self-loop at 3"),
        ((-1, 0), "edge (-1,0) leaves the vertex set"),
        ((4, 5), "edge (4,5) leaves the vertex set"),
    ],
)
def test_a_whole_edge_count_with_a_bad_edge_keeps_its_message(bad, message):
    # the whole-host check passes such a set on to the row build, whose
    # validation names the edge as for any other subgraph
    g = cycle_graph(5)
    edges = set(g.edges()) - {(0, 1)} | {bad}
    assert len(edges) == g.m
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        subgraph(g, range(5), edges)


class _ProbedEdges(set):
    # an edge set that counts the membership questions the row build asks
    asked = 0

    def __contains__(self, edge):
        self.asked += 1
        return super().__contains__(edge)


def test_a_whole_host_subgraph_builds_no_rows():
    g = grid_graph(4, 5)
    edges = _ProbedEdges(g.edges())
    assert subgraph(g, range(g.n), edges) == (g, tuple(range(g.n)))
    assert subgraph(g, range(g.n), edges)[0] is g
    assert edges.asked == 0
    # one edge short, the rows are built, each asking about its host edges
    fewer = _ProbedEdges(set(g.edges()) - {(0, 1)})
    sub, _ = subgraph(g, range(g.n), fewer)
    assert sub is not g and sub.m == g.m - 1 and fewer.asked == 2 * g.m


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_graph_from_shuffled_rows_matches_from_edges(seed):
    rnd = random.Random(seed)
    g = seeded_host(rnd)
    rows = [list(row) + rnd.sample(row, len(row) // 2) for row in g.adj]
    for row in rows:
        rnd.shuffle(row)
    rebuilt = Graph(rows)
    want = Graph.from_edges(g.n, list(g.edges()))
    assert (rebuilt.adj, rebuilt.n, rebuilt.m) == (want.adj, want.n, want.m)


def test_r_subdivision_counts():
    g = path_graph(3)
    s1, int1 = r_subdivision(g, 1)
    assert s1 == g
    assert int1 == {(0, 1): (), (1, 2): ()}
    s2, int2 = r_subdivision(g, 2)
    assert s2.n == 3 + 2 * 1
    assert s2.m == 2 * 2
    chain = int2[(0, 1)]
    assert len(chain) == 1
    assert s2.dist_row(0)[1] == 2


def test_r_subdivision_scales_distances():
    g = cycle_graph(5)
    s, _ = r_subdivision(g, 3)
    for u in range(5):
        for v in range(5):
            assert s.dist_row(u)[v] == 3 * g.dist_row(u)[v]


@given(st.integers(0, 10_000))
def test_random_graphs_roundtrip_both_formats(seed):
    g = random_connected(8, 3, seed)
    for fmt in ("edgelist", "dimacs"):
        text = serialize_graph(g, fmt=fmt)
        back = parse_graph(text, fmt=fmt)
        assert back == g
        assert sniff_format(text) == fmt


def test_parse_edgelist_details():
    g = parse_graph("# comment\np 4 2\n0 1\n2 3\n")
    assert g.n == 4 and g.m == 2
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 1\n0 1\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 5\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("0 x\n")


def test_parse_dimacs_details():
    text = "c demo\np gr 3 2\n1 2\n2 3\n"
    g = parse_graph(text, fmt="dimacs")
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert parse_graph(text, fmt=None) == g
    with pytest.raises(GraphFormatError):
        parse_graph("p gr 2 1\n0 1\n", fmt="dimacs")  # vertices are 1-based


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Graph([[1]]), ValueError, "neighbor 1 of 0 out of range"),
        (lambda: Graph([[0]]), ValueError, "self-loop at 0"),
        (lambda: Graph([[1], []]), ValueError, "asymmetric adjacency 0->1"),
        (
            lambda: subgraph(path_graph(6), [3, 5], {(5, 5)}),
            ValueError,
            "self-loop at 5",
        ),
        (
            lambda: subgraph(path_graph(6), [3, 5], {(3, 7)}),
            ValueError,
            "edge (3,7) leaves the vertex set",
        ),
        (
            lambda: subgraph(path_graph(6), [3, 5], {(3, 5)}),
            ValueError,
            "edge (3,5) is not a host edge, low end first",
        ),
        (
            lambda: parse_graph("p 3\n"),
            GraphFormatError,
            "line 1: header needs 'p <n> <m>'",
        ),
        (lambda: parse_graph("0 -1\n"), GraphFormatError, "line 1: negative vertex id"),
        (
            lambda: parse_graph("p 2 1\n0 2\n"),
            GraphFormatError,
            "edge (0,2) exceeds n=2",
        ),
        (lambda: parse_graph("0 1\n1 0\n"), GraphFormatError, "duplicate edge (0, 1)"),
        (
            lambda: parse_graph("p 10001 0\n"),
            GraphFormatError,
            "graph has 10001 vertices, more than the 10000 this tool accepts",
        ),
        (
            lambda: parse_graph("0 10000\n"),
            GraphFormatError,
            "graph has 10001 vertices, more than the 10000 this tool accepts",
        ),
        (
            lambda: parse_graph("p gr 10001 0\n", fmt="dimacs"),
            GraphFormatError,
            "graph has 10001 vertices, more than the 10000 this tool accepts",
        ),
        (
            lambda: parse_graph("p gr 2 1\np gr 2 1\n", fmt="dimacs"),
            GraphFormatError,
            "line 2: duplicate header",
        ),
        (
            lambda: parse_graph("p gr 2\n", fmt="dimacs"),
            GraphFormatError,
            "line 1: header needs 'p <desc> <n> <m>'",
        ),
        (
            lambda: parse_graph("1 2\np gr 2 1\n", fmt="dimacs"),
            GraphFormatError,
            "line 1: edge before header",
        ),
        (
            lambda: parse_graph("p gr 2 1\n1 2 3\n", fmt="dimacs"),
            GraphFormatError,
            "line 2: expected two endpoints",
        ),
        (
            lambda: parse_graph("c no header\n", fmt="dimacs"),
            GraphFormatError,
            "missing 'p' header",
        ),
        (
            lambda: parse_graph("p gr 2 2\n1 2\n", fmt="dimacs"),
            GraphFormatError,
            "header announces 2 edges but 1 were given",
        ),
        (
            lambda: parse_graph("", fmt="xml"),
            GraphFormatError,
            "unknown graph format 'xml'",
        ),
        (
            lambda: serialize_graph(path_graph(2), fmt="xml"),
            GraphFormatError,
            "unknown graph format 'xml'",
        ),
    ],
)
def test_malformed_graph_input_is_refused(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_serialize_is_deterministic():
    g = random_connected(9, 2, 7)
    assert serialize_graph(g) == serialize_graph(Graph.from_edges(g.n, list(g.edges())))


@given(st.integers(0, 5_000))
def test_bfs_agrees_with_dist_rows(seed):
    g = random_connected(7, 2, seed)
    res = bfs_layers(g, [0])
    row = g.dist_row(0)
    for v in range(g.n):
        assert res.dist.get(v, -1) == row[v]


def test_star_ball_covers_everything():
    g = star_graph(6)
    assert g.balls(1)[0] == (1 << g.n) - 1
