"""Domination checks, component stitching, and subtree covering families.

Stitching is one labelled multi-source flood plus Kruskal over the edges
whose ends lie nearest to different components, with each merge's
interior flooded again as new seeds.  The two constructive routines here
carry proof obligations: `connect` may add at most a fixed number of
interior vertices per merge, and `covering_family` must hit all four of
its advertised bounds.  Both raise ContractViolation instead of returning
a structure that breaks its guarantee.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .graphs import (
    Graph,
    Tree,
    bfs_layers,
    iter_bits,
    mask_of,
    tree_problem,
    vertex_mask,
)

Rational = Union[int, Fraction]


class ContractViolation(RuntimeError):
    """A structural guarantee failed at runtime."""


def dominates(
    g: Graph, dset: Iterable[int], r: int, targets: Optional[Iterable[int]] = None
) -> bool:
    """Whether every target lies within distance r of the set."""
    want = (1 << g.n) - 1
    if targets is not None:
        want = vertex_mask(g, targets, "target vertex")
    balls = g.balls(r)
    got = 0
    for v in iter_bits(vertex_mask(g, dset, "vertex")):
        got |= balls[v]
    return want & ~got == 0


def greedy_rdom(
    g: Graph, r: int, targets: Optional[Iterable[int]] = None
) -> Tuple[int, ...]:
    """Max-coverage greedy r-dominating set; ties go to the smallest id.

    Gains only shrink as targets get covered, so a heap of possibly stale
    gains suffices: the top entry is recomputed, and it is the pick when
    its gain was still current.
    """
    want = (1 << g.n) - 1
    if targets is not None:
        want = vertex_mask(g, targets, "target vertex")
    balls = g.balls(r)
    heap = [(-(ball & want).bit_count(), v) for v, ball in enumerate(balls)]
    heapq.heapify(heap)
    chosen: List[int] = []
    while want:
        stale, v = heap[0]
        gain = (balls[v] & want).bit_count()
        if gain == -stale:
            heapq.heappop(heap)
            chosen.append(v)
            want &= ~balls[v]
        else:
            heapq.heapreplace(heap, (-gain, v))
    return tuple(chosen)


@dataclass(frozen=True)
class ConnectResult:
    connected: Tuple[int, ...]
    added: Tuple[int, ...]
    merge_paths: Tuple[Tuple[int, ...], ...]


def connect(g: Graph, seeds: Iterable[int], stretch: int) -> ConnectResult:
    """Stitch the components induced by `seeds` into one, closest pair first.

    One multi-source BFS, seeded in ascending order, gives every vertex its
    distance to the seeds, a label (the seed whose search reached it first)
    and a parent one step nearer that seed.  The components of the seed set
    start from adjacent seeds and merge by relabelling the smaller one.  A
    host edge (x, y), x < y, whose labels lie in different components is a
    cut edge with key (dist[x] + 1 + dist[y], x, y), kept in a heap.  Each
    round pops the least key, drops it if its labels now share a component,
    and merges along the parent chains from the two ends to their labels,
    read from the smaller label to the larger.  A merge needing more than
    `stretch` interior vertices violates the contract this routine is used
    under and raises.  The interior vertices become seeds at distance 0 and
    join every component they touch.  A flood from them lowers distance,
    label and parent wherever the new distance is strictly shorter, and
    pushes the cut edges of every vertex it changed.  This is Mehlhorn's
    one-flood construction (Information Processing Letters 27(3), 1988),
    with each merge's interior seeded again.

    Every merge joins a closest pair of components.  Distances stay exact
    distances to the current seeds, and a parent chain reaches its label in
    dist steps: a vertex whose parent comes nearer comes nearer too.  So a
    cut edge of length L closes a walk of length L between seeds of two
    components, and the heap holds every cut edge under its current length.
    A key goes out of date when an end comes nearer.  Then either its labels
    already shared a component, or a copy with a smaller key was pushed,
    which pops first and joins the two components or finds them joined; so a
    key that pops live is current.  Conversely, let p_0, ..., p_d be a
    shortest path between two components, d the least such distance.  Its
    labels start in one and end in the other, so some edge p_i p_(i+1) is a
    cut edge, of length at most i + 1 + (d - i - 1) = d.  So the least live
    key is d, the merge path is a shortest path between seeds of two
    components, and its interior, all at distance above 0, holds no seed.
    Each merge joins at least two components, so there are at most
    components - 1 of them, and at most stretch * (components - 1) vertices
    are added in all.
    """
    seed_tuple = tuple(sorted(set(seeds)))
    if not seed_tuple:
        raise ValueError("cannot connect an empty set")
    vertex_mask(g, seed_tuple, "vertex")
    adj = g.adj
    dist = [g.n + 1] * g.n  # above every distance until a flood comes by
    label = list(range(g.n))
    parent = list(range(g.n))
    comp = list(range(g.n))  # component id per seed
    members = {s: [s] for s in seed_tuple}

    def join(a: int, b: int) -> None:
        ca, cb = comp[a], comp[b]
        if len(members[ca]) < len(members[cb]):
            ca, cb = cb, ca
        for x in members[cb]:
            comp[x] = ca
        members[ca] += members.pop(cb)

    def plant(vs: Sequence[int]) -> None:
        # the new seeds join every seed next to them
        for v in vs:
            dist[v], label[v] = 0, v
        for v in vs:
            for x in adj[v]:
                if dist[x] == 0 and comp[x] != comp[v]:
                    join(v, x)

    def flood(vs: Sequence[int]) -> List[int]:
        # every vertex brought nearer by the new seeds vs
        changed = list(vs)
        for x in changed:  # the loop reads what it appends
            near = dist[x] + 1
            for y in adj[x]:
                if near < dist[y]:
                    dist[y], label[y], parent[y] = near, label[x], x
                    changed.append(y)
        return changed

    def chain(v: int) -> List[int]:
        out = [v]
        while dist[v]:
            v = parent[v]
            out.append(v)
        return out

    plant(seed_tuple)
    if len(members) == 1:
        return ConnectResult(seed_tuple, (), ())
    heap = [
        (dist[x] + 1 + dist[y], x, y)
        for x in flood(seed_tuple)
        for y in adj[x]
        if x < y and comp[label[x]] != comp[label[y]]
    ]
    heapq.heapify(heap)
    added: List[int] = []
    paths: List[Tuple[int, ...]] = []
    while len(members) > 1:
        if not heap:
            raise ContractViolation("seed components lie in different graph parts")
        d, x, y = heapq.heappop(heap)
        if comp[label[x]] == comp[label[y]]:
            continue
        if label[x] > label[y]:
            x, y = y, x
        path = chain(x)[::-1] + chain(y)
        if d - 1 > stretch:
            raise ContractViolation(
                f"merge from {path[0]} to {path[-1]} needs {d - 1} interior "
                f"vertices, allowed {stretch}"
            )
        interior = path[1:-1]
        added += interior
        paths.append(tuple(path))
        home = comp[path[0]]
        for v in interior:
            comp[v] = home
        members[home] += interior
        plant(interior)  # the last interior vertex joins path[-1]
        for x in flood(interior):
            cx = comp[label[x]]
            for y in adj[x]:
                if comp[label[y]] != cx:
                    key = dist[x] + 1 + dist[y]
                    heapq.heappush(heap, (key, x, y) if x < y else (key, y, x))
    connected = tuple(sorted(seed_tuple + tuple(added)))
    return ConnectResult(connected, tuple(added), tuple(paths))


# ---------------------------------------------------------------------------
# covering families


@dataclass(frozen=True)
class CoveringFamily:
    t: Fraction
    pieces: Tuple[Tree, ...]

    @property
    def total_size(self) -> int:
        return sum(p.size for p in self.pieces)


class _Residue:
    __slots__ = ("root", "vertices", "edges")

    def __init__(self, root: int, items: Sequence["_Residue"] = ()):
        self.root = root
        self.vertices: List[int] = [root]
        self.edges: List[Tuple[int, int]] = []
        for it in items:
            self.vertices.extend(it.vertices)
            self.edges.extend(it.edges)
            self.edges.append((min(root, it.root), max(root, it.root)))

    def piece(self) -> Tree:
        return Tree(tuple(sorted(self.vertices)), tuple(sorted(self.edges)))


def piece_cap(t: Rational) -> Tuple[Fraction, int]:
    """t as an exact fraction, and the piece size cap floor(2t).

    Floats are refused: a rounded t would silently move the cap.
    """
    if isinstance(t, float):
        raise TypeError("t must be an int or Fraction, not float")
    tf = Fraction(t)
    return tf, math.floor(2 * tf)


def covering_family(g: Graph, t: Rational) -> CoveringFamily:
    """Cover a connected graph by subtrees of a spanning tree.

    Guarantees, checked on every call: each piece has at most floor(2t)
    vertices, the pieces jointly cover the graph, there are at most
    n/t + 1 of them, and their sizes sum to at most (1 + 1/t) n + 1.
    Fails cleanly when t makes those bounds unattainable; values of t
    that are at most 1, integral, or have fractional part at least one
    half are always fine.
    """
    tf, cap = piece_cap(t)
    if tf < Fraction(1, 2):
        raise ValueError("t must be at least 1/2")
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if not g.is_connected():
        raise ValueError("covering families need a connected graph")
    pieces: List[Tree] = []

    if tf <= 1:
        pieces = [Tree((v,), ()) for v in range(g.n)]
        return _checked_family(g, tf, pieces)

    need = math.ceil(tf)  # minimum consumption per non-final piece
    k_res = cap - 1

    res = bfs_layers(g, [0])
    children: Dict[int, List[int]] = {v: [] for v in range(g.n)}
    for v, p in res.parent.items():
        if p is not None:
            children[p].append(v)
    order = sorted(range(g.n), key=lambda v: (-res.dist[v], v))

    residue: Dict[int, _Residue] = {}
    for v in order:
        items = sorted(
            (residue.pop(c) for c in children[v]),
            key=lambda it: (-len(it.vertices), it.root),
        )
        load = 1 + sum(len(it.vertices) for it in items)
        if load <= k_res:
            residue[v] = _Residue(v, items)
            continue
        bundle: List[_Residue] = []
        bl = 0
        for it in items:
            size = len(it.vertices)
            if bundle and 1 + bl + size > cap:
                pieces.append(_Residue(v, bundle).piece())
                bundle, bl = [], 0
            bundle.append(it)
            bl += size
            if bl >= need:
                pieces.append(_Residue(v, bundle).piece())
                bundle, bl = [], 0
        if bundle and 1 + bl > k_res:
            pieces.append(_Residue(v, bundle).piece())
            bundle = []
        residue[v] = _Residue(v, bundle)
    pieces.append(residue.pop(0).piece())
    return _checked_family(g, tf, pieces)


def _checked_family(
    g: Graph, tf: Fraction, pieces: List[Tree]
) -> CoveringFamily:
    fam = CoveringFamily(tf, tuple(pieces))
    problem = check_covering_family(g, fam)
    if problem is not None:
        raise ContractViolation(problem)
    return fam


def check_covering_family(g: Graph, fam: CoveringFamily) -> Optional[str]:
    """None when the family meets its contract, else a description."""
    _, cap = piece_cap(fam.t)
    covered = 0
    for i, piece in enumerate(fam.pieces):
        problem = tree_problem(g, piece.vertices, piece.edges)
        if problem is not None:
            return f"piece {i} {problem}"
        if len(piece.vertices) > cap:
            return f"piece {i} has {len(piece.vertices)} vertices, cap {cap}"
        covered |= mask_of(piece.vertices)
    if covered != (1 << g.n) - 1:
        return "pieces do not cover the graph"
    if Fraction(len(fam.pieces)) > Fraction(g.n) / fam.t + 1:
        return (
            f"{len(fam.pieces)} pieces exceed the count bound "
            f"{float(Fraction(g.n) / fam.t + 1):.3f}"
        )
    if Fraction(fam.total_size) > (1 + 1 / fam.t) * g.n + 1:
        return (
            f"total size {fam.total_size} exceeds the bound "
            f"{float((1 + 1 / fam.t) * g.n + 1):.3f}"
        )
    return None
