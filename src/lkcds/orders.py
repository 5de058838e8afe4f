"""Vertex orders, weak reachability sets, and weak coloring numbers.

A vertex u weakly s-reaches v when some path of length at most s joins
them and u is the leftmost path vertex in the order.  The flood below runs
from each u through strictly later vertices, which enumerates exactly those
paths.  Orders are kept as explicit sequences so reports stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .domination import ContractViolation
from .graphs import Graph, bfs_layers, flood, iter_bits, vertex_mask


class OrderedGraph:
    """A graph together with a left-to-right vertex order."""

    __slots__ = ("graph", "seq", "pos", "_wreach")

    def __init__(self, graph: Graph, seq: Sequence[int]):
        order = tuple(seq)
        if sorted(order) != list(range(graph.n)):
            raise ValueError("order must be a permutation of the vertices")
        self.graph = graph
        self.seq = order
        pos = [0] * graph.n
        for i, v in enumerate(order):
            pos[v] = i
        self.pos = tuple(pos)
        self._wreach: Dict[int, Tuple[Tuple[int, ...], ...]] = {}

    def wreach(self, s: int) -> Tuple[Tuple[int, ...], ...]:
        """Weak s-reachability set of every vertex, ascending ids."""
        if s < 0:
            raise ValueError("radius must be nonnegative")
        got = self._wreach.get(s)
        if got is None:
            got = tuple(tuple(sorted(w)) for w in _wreach_sets(self.graph, self.seq, s))
            self._wreach[s] = got
        return got


def _wreach_sets(g: Graph, seq: Sequence[int], s: int) -> List[List[int]]:
    # from the back of the order, so `later` holds the vertices after u and
    # the s-step flood from u through it finds exactly the sets that hold u;
    # each set lists its members from right to left in the order
    sets: List[List[int]] = [[] for _ in range(g.n)]
    later = 0
    for u in reversed(seq):
        for v in iter_bits(flood(g, 1 << u, later, s)):
            sets[v].append(u)
        later |= 1 << u
    return sets


@dataclass(frozen=True)
class WReachReport:
    s: int
    value: int
    witness: int
    sizes: Tuple[int, ...]


def wreach_report(og: OrderedGraph, s: int) -> WReachReport:
    sets = og.wreach(s)
    sizes = tuple(len(w) for w in sets)
    if not sizes:
        return WReachReport(s, 0, -1, ())
    value = max(sizes)
    witness = sizes.index(value)
    return WReachReport(s, value, witness, sizes)


def heuristic_order(g: Graph, kind: str = "degeneracy", seed: int = 0) -> OrderedGraph:
    """Cheap wcol-friendly orders.

    degeneracy: reverse of min-degree removal, so core vertices come first.
    bfs: breadth-first discovery from vertex 0, then from the least
    vertex not yet found.
    random: seeded shuffle, for baselines.
    """
    if kind == "degeneracy":
        deg = [g.degree(v) for v in range(g.n)]
        alive = set(range(g.n))
        removal: List[int] = []
        for _ in range(g.n):
            v = min(alive, key=lambda w: (deg[w], w))
            removal.append(v)
            alive.remove(v)
            for w in g.adj[v]:
                if w in alive:
                    deg[w] -= 1
        return OrderedGraph(g, tuple(reversed(removal)))
    if kind == "bfs":
        # a BFS record's distance map holds the vertices in queue order
        seen: set = set()
        seq: List[int] = []
        for start in range(g.n):
            if start not in seen:
                found = bfs_layers(g, [start]).dist
                seq.extend(found)
                seen.update(found)
        return OrderedGraph(g, seq)
    if kind == "random":
        rng = random.Random(seed)
        seq = list(range(g.n))
        rng.shuffle(seq)
        return OrderedGraph(g, seq)
    raise ValueError(f"unknown order heuristic {kind!r}")


_EXACT_LIMIT = 8


def exact_wcol(g: Graph, s: int) -> Tuple[int, Tuple[int, ...]]:
    """Optimum weak s-coloring number and the first optimal order; tiny graphs only.

    Orders grow left to right in lexicographic order.  The vertices after a
    placed u are the unplaced ones, so the sets u joins are known at once,
    and a prefix whose largest set already reaches the best value is cut.
    """
    if s < 0:
        raise ValueError("radius must be nonnegative")
    if g.n > _EXACT_LIMIT:
        raise ValueError(f"exact search is limited to {_EXACT_LIMIT} vertices")
    best = (g.n + 1, tuple(range(g.n)))  # no set holds more than n vertices

    def extend(prefix: Tuple[int, ...], unplaced: int, sizes: List[int]) -> None:
        nonlocal best
        if not unplaced:
            best = (max(sizes, default=0), prefix)
        for u in iter_bits(unplaced):
            later = unplaced & ~(1 << u)
            grown = list(sizes)
            for v in iter_bits(flood(g, 1 << u, later, s)):
                grown[v] += 1
            if max(grown) < best[0]:
                extend(prefix + (u,), later, grown)

    extend((), (1 << g.n) - 1, [0] * g.n)
    return best


def check_separation(
    og: OrderedGraph,
    blockers: Iterable[int],
    y: int,
    path: Sequence[int],
    r: int,
) -> int:
    """Certify that a short path from a blocker set to y is separated.

    Validates the path, locates its leftmost vertex z, and confirms z is
    weakly r-reachable from both endpoints, which is forced because z stays
    leftmost on each subpath.  Returns z.
    """
    p = list(path)
    xs = set(blockers)
    if len(p) < 2:
        raise ValueError("path needs at least two vertices")
    if len(set(p)) != len(p):
        raise ValueError("path repeats a vertex")
    if len(p) - 1 > r:
        raise ValueError(f"path has {len(p) - 1} edges, allowed {r}")
    if p[0] not in xs:
        raise ValueError("path must start inside the blocker set")
    if p[-1] != y:
        raise ValueError("path must end at y")
    vertex_mask(og.graph, p, "path vertex")
    for a, b in zip(p, p[1:]):
        if b not in og.graph.adj[a]:
            raise ValueError(f"{a} and {b} are not adjacent")
    z = min(p, key=lambda v: og.pos[v])
    sets = og.wreach(r)
    if z not in sets[p[0]]:
        raise ContractViolation(f"separator {z} not weakly reachable from {p[0]}")
    if z not in sets[y]:
        raise ContractViolation(f"separator {z} not weakly reachable from {y}")
    return z
