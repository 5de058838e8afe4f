"""Domination checks, component stitching, and subtree covering families.

The two constructive routines here carry proof obligations: `connect` may
add at most a fixed number of interior vertices per merge, and
`covering_family` must hit all four of its advertised bounds.  Both raise
ContractViolation instead of returning a structure that breaks its
guarantee.
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
    induced_components,
    iter_bits,
    least_path,
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
    """Stitch the components induced by `seeds` into one, greedily.

    Components are ordered by their smallest member.  Each round merges along
    the least key (d, u, v) over seed vertices u and v, where u lies in an
    earlier component than v and d is their host distance; the path is the
    lexicographically least shortest one, `bfs_layers(g, [u]).path_to(v)`, and
    its interior vertices become seeds.  The path is read off v's own BFS
    rings by `least_path`.  A merge needing more than `stretch` interior
    vertices, or a total beyond stretch * (components - 1), violates the
    contract this routine is used under and raises.

    Host distances never change, so the rounds share one pass over seed
    pairs in key order.  A key is live while its ends lie in different
    components, the first end's component first.  Every seed keeps its
    own BFS as masks, the vertices seen and one ring per radius, and all
    of them advance together one radius at a time.  A ring pushes the
    least seed it meets of each other component: any other seed of that
    component gives a larger key, and components only merge.  A seed
    added by a merge first catches up to the current radius, pushing
    every boundary seed it meets in both orientations.  Popped pairs
    that now share a component are dropped, and pairs pointing from a
    later component to an earlier one are held back until the round's
    merge, which may turn them round.  A merge relabels the seeds of all
    but the largest component it joins.

    Only boundary seeds, those with a neighbour outside the seed set,
    flood, and only pairs of them are pushed.  No interior seed ends the
    least live key:
    - Take seeds s and b in different components at distance d, s
      interior, and a shortest path s = p_0, ..., p_d = b.  Let p_j be
      its last vertex in s's component, and p_i the first seed after p_j.
    - j >= 1, as p_1 is a seed next to s.  The vertex after p_j and the
      one before p_i are not seeds, so both are boundary seeds.  They
      lie in different components at distance at most i - j < d, so one
      orientation of them is a live key below (d, s, b).  An interior b
      is the mirror case.
    - So both ends of the least live key are boundary seeds.  The seed
      set only grows, so a seed that becomes interior stays interior,
      and its rings are never read again: not to find pairs, and not to
      read a path, which uses the far end's rings.
    By the same argument no seed lies inside a merge path: it would be
    closer than d to u or to v, in another component than that end.  So
    every interior vertex of a merge path is added.
    One call costs one depth-d BFS per boundary seed, with d the largest
    merge distance, plus a few heap operations per seed pair met.
    """
    seed_tuple = tuple(sorted(set(seeds)))
    if not seed_tuple:
        raise ValueError("cannot connect an empty set")
    current = vertex_mask(g, seed_tuple, "vertex")
    members = list(induced_components(g, current))  # seed mask per component id
    p0 = live = len(members)
    if p0 == 1:
        return ConnectResult(seed_tuple, (), ())
    least = [c & -c for c in members]  # the order of the components
    comp = [0] * g.n  # component id per seed vertex
    for i, c in enumerate(members):
        for v in iter_bits(c):
            comp[v] = i
    nbr = g.neighbor_masks()
    # each boundary seed's BFS: the vertices seen so far, and its rings up
    # to the radius; other slots stay unused
    seen = [0] * g.n
    rings: List[List[int]] = [[] for _ in range(g.n)]
    boundary = 0
    for v in seed_tuple:
        if nbr[v] & ~current:
            boundary |= 1 << v
            seen[v] = 1 << v
            rings[v] = [1 << v]
    radius = 0
    heap: List[Tuple[int, int, int]] = []
    added: List[int] = []
    paths: List[Tuple[int, ...]] = []
    while live > 1:
        held = []
        while True:
            if not heap:
                radius += 1
                grown = 0
                for s in iter_bits(boundary):
                    ring = g.neighborhood(rings[s][-1]) & ~seen[s]
                    seen[s] |= ring
                    rings[s].append(ring)
                    grown |= ring
                    # the heap was empty and entries come in key order,
                    # so the list is a heap
                    met = ring & boundary & ~members[comp[s]]
                    while met:
                        b = (met & -met).bit_length() - 1
                        heap.append((radius, s, b))
                        met &= ~members[comp[b]]
                if not (heap or grown):
                    raise ContractViolation(
                        "seed components lie in different graph parts"
                    )
                continue
            d, u, v = heapq.heappop(heap)
            if comp[u] == comp[v]:
                continue
            if least[comp[u]] > least[comp[v]]:
                held.append((d, u, v))
                continue
            break
        if d - 1 > stretch:
            raise ContractViolation(
                f"merge from {u} to {v} needs {d - 1} interior vertices, "
                f"allowed {stretch}"
            )
        # v is a boundary seed, so it has read its rings up to the radius,
        # and d <= radius
        path = least_path(nbr, u, rings[v][:d])
        interior = path[1:-1]
        added.extend(interior)
        paths.append(tuple(path))
        inner = mask_of(interior)
        near = g.neighborhood(inner)
        # the path joins every component it touches; the others stay apart
        ids = {comp[x] for x in iter_bits(near & current)}
        keep = max(ids, key=lambda i: members[i].bit_count())
        merged = inner
        for i in ids:
            merged |= members[i]
            if i != keep:
                for x in iter_bits(members[i]):
                    comp[x] = keep
        members[keep] = merged
        least[keep] = merged & -merged  # the new interior vertices count too
        live -= len(ids) - 1
        current |= inner
        # the new seeds may make their seed neighbours interior
        for x in iter_bits(boundary & near):
            if not nbr[x] & ~current:
                boundary ^= 1 << x
        for entry in held:
            heapq.heappush(heap, entry)
        for x in interior:
            comp[x] = keep
            if not nbr[x] & ~current:
                continue
            boundary |= 1 << x
            seen[x] = ring = 1 << x
            rings[x] = [ring]
            for dist in range(1, radius + 1):
                ring = g.neighborhood(ring) & ~seen[x]
                seen[x] |= ring
                rings[x].append(ring)
                for b in iter_bits(ring & boundary & ~merged):
                    heapq.heappush(heap, (dist, x, b))
                    heapq.heappush(heap, (dist, b, x))
    if len(added) > stretch * (p0 - 1):
        raise ContractViolation(
            f"added {len(added)} vertices, allowed {stretch * (p0 - 1)}"
        )
    return ConnectResult(tuple(iter_bits(current)), tuple(added), tuple(paths))


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
