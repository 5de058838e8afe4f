"""Graph primitives shared by the kernelization pipeline.

Vertices are always 0..n-1.  Adjacency is stored as sorted tuples, and each
graph keeps lazy bitmask caches (neighborhoods, closed balls, distance rows,
components) because nearly everything downstream manipulates vertex subsets
as integers.  One more lazy cache holds the exact connected cover answers
that `oracles` found without a node budget, keyed by (targets mask, r, k).
Graphs never change and the caches depend on the rows alone, so `subgraph`
returns the host itself, caches and all, when it keeps every vertex and edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from .oracles import SolveResult


class GraphFormatError(ValueError):
    """Raised when a graph text payload cannot be parsed."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_mask(g: Graph, vertices: Iterable[int], what: str) -> int:
    """The mask of vertices of g; the first one outside g is refused by name.

    The message reads f"{what} {v} out of range", so `what` names the role
    the caller gives its input, as in "target vertex" or "blocker".
    """
    n = g.n
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"{what} {v} out of range")
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("adj", "n", "m", "_masks", "_balls", "_dist", "_comps", "_covers")

    def __init__(self, adj: Sequence[Iterable[int]]):
        rows = []
        for v, ns in enumerate(adj):
            row = tuple(sorted(set(ns)))
            for u in row:
                if not 0 <= u < len(adj):
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at {v}")
            rows.append(row)
        for v, row in enumerate(rows):
            for u in row:
                if v not in rows[u]:
                    raise ValueError(f"asymmetric adjacency {v}->{u}")
        self._set_rows(tuple(rows))

    def _set_rows(self, rows: Tuple[Tuple[int, ...], ...]) -> None:
        """Adopt rows that are already sorted, symmetric and loop-free."""
        self.adj = rows
        self.n = len(rows)
        self.m = sum(map(len, rows)) // 2
        self._masks: Optional[Tuple[int, ...]] = None
        self._balls: Dict[int, Tuple[int, ...]] = {}
        self._dist: Dict[int, Tuple[int, ...]] = {}
        self._comps: Optional[Tuple[int, ...]] = None
        self._covers: Dict[Tuple[int, int, int], SolveResult] = {}

    @classmethod
    def _of_rows(cls, rows: Tuple[Tuple[int, ...], ...]) -> "Graph":
        """A graph on checked rows, without `__init__` checking them again."""
        g = cls.__new__(cls)
        g._set_rows(rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        return cls._of_rows(tuple(tuple(sorted(row)) for row in adj))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically ascending."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def neighbor_masks(self) -> Tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(mask_of(row) for row in self.adj)
        return self._masks

    def neighborhood(self, mask: int) -> int:
        """The OR of the neighbour masks of the mask's vertices."""
        masks = self.neighbor_masks()
        out = 0
        while mask:
            low = mask & -mask
            out |= masks[low.bit_length() - 1]
            mask ^= low
        return out

    def layers(self, start: int, within: int = -1) -> Iterator[int]:
        """BFS layers from the `start` mask through the `within` mask.

        Layer 0 is `start`; layer d holds the vertices of `within` at
        distance d from it in the subgraph induced by `within` and `start`.
        """
        seen = layer = start
        while layer:
            yield layer
            layer = self.neighborhood(layer) & within & ~seen
            seen |= layer

    def balls(self, r: int) -> Tuple[int, ...]:
        """Closed r-ball of every vertex, as bitmasks."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        out = self._balls.get(r)
        if out is None:
            balls = [1 << v for v in range(self.n)]
            if r:
                balls = [m | b for m, b in zip(self.neighbor_masks(), balls)]
            for _ in range(r - 1):
                # a ball one wider is the union of the neighbours' balls
                grown = []
                for b, row in zip(balls, self.adj):
                    for u in row:
                        b |= balls[u]
                    grown.append(b)
                if grown == balls:
                    break  # every ball holds its whole component
                balls = grown
            out = self._balls[r] = tuple(balls)
        return out

    def dist_row(self, v: int) -> Tuple[int, ...]:
        """BFS distances from v; unreachable vertices get -1."""
        row = self._dist.get(v)
        if row is None:
            dist = [-1] * self.n
            for d, layer in enumerate(self.layers(1 << v)):
                for u in iter_bits(layer):
                    dist[u] = d
            row = tuple(dist)
            self._dist[v] = row
        return row

    def component_masks(self) -> Tuple[int, ...]:
        """Connected components as bitmasks, ordered by smallest member."""
        if self._comps is None:
            self._comps = induced_components(self, (1 << self.n) - 1)
        return self._comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class BFSResult:
    """Layered BFS record: sparse distance and parent maps."""

    __slots__ = ("dist", "parent")

    def __init__(self, dist: Dict[int, int], parent: Dict[int, Optional[int]]):
        self.dist = dist
        self.parent = parent

    def path_to(self, v: int) -> List[int]:
        """The lexicographically least shortest path from a source to v whose
        interior avoids the forbidden set (the queue visits layers in that order)."""
        if v not in self.dist:
            raise KeyError(f"vertex {v} was not reached")
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path


def bfs_layers(
    g: Graph,
    sources: Iterable[int],
    depth_cap: Optional[int] = None,
    forbidden: Container[int] = (),
) -> BFSResult:
    """Multi-source BFS that refuses to expand through forbidden vertices.

    Forbidden vertices may still be reached (they get a distance and parent)
    and a forbidden source still expands at depth 0.  This is exactly the
    reachability notion for paths whose interior avoids a blocker set while
    either endpoint may belong to it.  The forbidden vertices are only
    tested for membership, never copied.
    """
    if depth_cap is not None and depth_cap < 0:
        raise ValueError("radius must be nonnegative")
    srcs = sorted(set(sources))
    if not srcs:
        raise ValueError("bfs_layers needs at least one source")
    vertex_mask(g, srcs, "source")
    dist: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    queue: deque = deque()
    for s in srcs:
        dist[s] = 0
        parent[s] = None
        queue.append(s)
    while queue:
        u = queue.popleft()
        d = dist[u]
        if depth_cap is not None and d >= depth_cap:
            continue
        if u in forbidden and d > 0:
            continue
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = d + 1
                parent[w] = u
                queue.append(w)
    return BFSResult(dist, parent)


def least_path(nbr: Sequence[int], u: int, rings: Sequence[int]) -> List[int]:
    """The lexicographically least shortest path from u to t, given the
    neighbour masks and t's BFS rings 0 to d - 1, with u in ring d.

    Each step takes the least neighbour one ring nearer.  A shortest path
    steps through the rings in turn and every ring vertex continues to t,
    so the least choice, first step first, is the least path.  Rings of a
    flood where only vertices outside X expand (t in X, u not) give the
    least path whose interior avoids X, the twin `bfs_layers` route's.
    """
    path = [u]
    for ring in reversed(rings):
        step = nbr[path[-1]] & ring
        path.append((step & -step).bit_length() - 1)
    return path


def flood(g: Graph, start: int, within: int = -1, depth: Optional[int] = None) -> int:
    """The OR of layers 0 to `depth` (nonnegative; callers check it) of
    `g.layers(start, within)`, or of every layer when no depth is given."""
    reach = 0
    for d, layer in enumerate(g.layers(start, within)):
        reach |= layer
        if d == depth:
            break
    return reach


def induced_components(g: Graph, m: int) -> Tuple[int, ...]:
    """Components induced by a bitmask, ordered by smallest member."""
    comps = []
    while m:
        comp = flood(g, m & -m, m)
        comps.append(comp)
        m &= ~comp
    return tuple(comps)


def mask_connected(g: Graph, m: int) -> bool:
    """Whether the vertices of a bitmask induce a connected subgraph."""
    return m != 0 and flood(g, m & -m, m) == m


@dataclass(frozen=True)
class Tree:
    """A tree of a host graph: sorted vertices, and sorted edges (u, v) with u < v."""

    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def tree_problem(
    g: Graph, vertices: Sequence[int], edges: Sequence[Tuple[int, int]]
) -> Optional[str]:
    """None when the vertices and edges form a tree of g, else what is wrong.

    The message completes a sentence whose subject the caller names, as in
    f"piece {i} {problem}".  After the checks that need the vertex list,
    the rest is `tree_mask_problem` on the vertices' mask.
    """
    vset = set(vertices)
    if not vset:
        return "is empty"
    if len(vset) != len(vertices):
        return "repeats a vertex"
    if min(vset) < 0 or max(vset) >= g.n:
        return "has a vertex outside the host"
    return tree_mask_problem(g, mask_of(vset), edges)


def tree_mask_problem(
    g: Graph, span: int, edges: Sequence[Tuple[int, int]]
) -> Optional[str]:
    """`tree_problem` for the vertices of the `span` mask, with its messages.

    Edges are checked in the order given, so the first bad one is named.
    Whether a problem is found does not depend on that order: the count
    and each edge's own check do not, and neither does whether the edges
    hold a cycle.
    """
    if not span:
        return "is empty"
    if span >> g.n:
        return "has a vertex outside the host"
    if len(edges) != span.bit_count() - 1:
        return "is not a tree"
    masks = g.neighbor_masks()
    # |V| - 1 edges inside V connect V exactly when none closes a cycle,
    # which a union-find over the edges (with path halving) detects
    parent: Dict[int, int] = {}
    for u, v in edges:
        if u < 0 or v < 0 or not (span >> u) & (span >> v) & 1:
            return f"has a dangling edge {(u, v)}"
        if not (masks[u] >> v) & 1:
            return f"uses a non-edge {(u, v)}"
        while u in parent:
            parent[u] = parent.get(parent[u], parent[u])
            u = parent[u]
        while v in parent:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        if u == v:
            return "is disconnected"
        parent[u] = v
    return None


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Tuple[Graph, Tuple[int, ...]]:
    """Induced subgraph plus the parent id of each new vertex."""
    inside = set(vertices)
    vertex_mask(g, sorted(inside), "vertex")  # names the least vertex outside g
    edges = {(u, v) for u in inside for v in g.adj[u] if u < v and v in inside}
    return subgraph(g, inside, edges)


def subgraph(
    g: Graph, vertices: Iterable[int], edges: Set[Tuple[int, int]]
) -> Tuple[Graph, Tuple[int, ...]]:
    """The subgraph of g on vertices of g and edges of g, each listed once
    with its low end first, plus the parent id of each new vertex.

    New ids follow the sorted order of the old ones, and each row keeps
    the neighbours joined to it by a listed edge, in g's order, so rows
    come out sorted.  A kept edge counts twice, once in each row, and an
    edge that leaves the vertices, loops or is not in g counts less, so
    the row lengths sum to twice the edge count exactly when every edge
    is kept.  Otherwise the least edge that leaves is named, or else the
    least loop or edge not in g.  Host edges, low end first, that number
    g.m are all of g's edges, so a subgraph that also keeps every vertex is
    g, caches and all; that is checked first, before any row is built.
    """
    parents = tuple(sorted(set(vertices)))
    if len(edges) == g.m and parents == tuple(range(g.n)):
        nbr = g.neighbor_masks()
        if all(0 <= u < v < g.n and nbr[u] >> v & 1 for u, v in edges):
            return g, parents
    index = {v: i for i, v in enumerate(parents)}
    adj = tuple(
        [
            tuple(
                [
                    index[u]
                    for u in g.adj[v]
                    if ((v, u) if v < u else (u, v)) in edges and u in index
                ]
            )
            for v in parents
        ]
    )
    if sum(map(len, adj)) != 2 * len(edges):
        bad = sorted(edges)
        for u, v in bad:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u},{v}) leaves the vertex set")
        for u, v in bad:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v or v not in g.adj[u]:
                raise ValueError(f"edge ({u},{v}) is not a host edge, low end first")
    return Graph._of_rows(adj), parents


def r_subdivision(
    g: Graph, r: int
) -> Tuple[Graph, Dict[Tuple[int, int], Tuple[int, ...]]]:
    """Replace every edge by a path with r-1 fresh interior vertices.

    Original ids are preserved; interior ids are allocated edge by edge in
    lexicographic edge order, running from the smaller endpoint towards the
    larger.  Returns the new graph and the interior vertices of each edge.
    """
    if r < 1:
        raise ValueError("subdivision order must be at least 1")
    edges = list(g.edges())
    internals: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    new_edges: List[Tuple[int, int]] = []
    nxt = g.n
    for u, v in edges:
        chain = tuple(range(nxt, nxt + r - 1))
        nxt += r - 1
        internals[(u, v)] = chain
        walk = [u, *chain, v]
        for a, b in zip(walk, walk[1:]):
            new_edges.append((a, b))
    return Graph.from_edges(nxt, new_edges), internals


MAX_VERTICES = 10_000  # the largest graph a text payload may describe


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad {what} {token!r}") from None


def sniff_format(text: str) -> str:
    """Guess the serialization from the first meaningful line.

    DIMACS files mark comments with 'c' and carry a descriptor token in
    the problem line, so their headers have four tokens; edgelist headers
    have three and comments start with '#'.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            return "edgelist"
        tokens = line.split()
        if tokens[0] == "c":
            return "dimacs"
        if tokens[0] == "p":
            return "dimacs" if len(tokens) == 4 else "edgelist"
        return "edgelist"
    return "edgelist"


def parse_graph(text: str, fmt: Optional[str] = "edgelist") -> Graph:
    if fmt is None:
        fmt = sniff_format(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise GraphFormatError(f"unknown graph format {fmt!r}")


def _parse_edgelist(text: str) -> Graph:
    header: Optional[Tuple[int, int]] = None
    edges: List[Tuple[int, int]] = []
    saw_line = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not saw_line and tokens[0] == "p":
            if len(tokens) != 3:
                raise GraphFormatError(f"line {lineno}: header needs 'p <n> <m>'")
            header = (
                _parse_int(tokens[1], "vertex count", lineno),
                _parse_int(tokens[2], "edge count", lineno),
            )
            saw_line = True
            continue
        saw_line = True
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        u = _parse_int(tokens[0], "endpoint", lineno)
        v = _parse_int(tokens[1], "endpoint", lineno)
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    if header is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    else:
        n, m = header
        if len(edges) != m:
            raise GraphFormatError(
                f"header announces {m} edges but {len(edges)} were given"
            )
        for u, v in edges:
            if u >= n or v >= n:
                raise GraphFormatError(f"edge ({u},{v}) exceeds n={n}")
    return _graph_of(n, edges)


def _parse_dimacs(text: str) -> Graph:
    header: Optional[Tuple[int, int]] = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if len(tokens) != 4:
                raise GraphFormatError(
                    f"line {lineno}: header needs 'p <desc> <n> <m>'"
                )
            header = (
                _parse_int(tokens[2], "vertex count", lineno),
                _parse_int(tokens[3], "edge count", lineno),
            )
            continue
        if header is None:
            raise GraphFormatError(f"line {lineno}: edge before header")
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected two endpoints")
        u = _parse_int(tokens[0], "endpoint", lineno)
        v = _parse_int(tokens[1], "endpoint", lineno)
        n = header[0]
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"line {lineno}: vertex outside 1..{n}")
        edges.append((u - 1, v - 1))
    if header is None:
        raise GraphFormatError("missing 'p' header")
    if len(edges) != header[1]:
        raise GraphFormatError(
            f"header announces {header[1]} edges but {len(edges)} were given"
        )
    return _graph_of(header[0], edges)


def _graph_of(n: int, edges: List[Tuple[int, int]]) -> Graph:
    # the shared tail of both parsers; the cap comes first, since Graph
    # allocates n rows and its caches grow as n^2 bits
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"graph has {n} vertices, more than the {MAX_VERTICES} this tool accepts"
        )
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        lines = [f"p {g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return "\n".join(lines) + "\n"
    if fmt == "dimacs":
        lines = [f"p gr {g.n} {g.m}"]
        lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
        return "\n".join(lines) + "\n"
    raise GraphFormatError(f"unknown graph format {fmt!r}")
