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
    bfs_layers,
    induced_components,
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
    """Stitch the components induced by `seeds` into one, greedily.

    Components are ordered by their smallest member.  Each round merges
    along the least key (d, u, v) over seed vertices u and v, where u lies
    in an earlier component than v and d is their host distance; the path
    is `bfs_layers(g, [u]).path_to(v)`.  A round costs one labelled
    multi-source BFS, O(n + m), which finds d, then depth-d bitmask floods
    through non-seed vertices from each u in ascending order, until one
    reaches a later component.  A merge needing more than `stretch`
    interior vertices, or a total beyond stretch * (components - 1),
    violates the contract this routine is used under and raises.
    """
    seed_tuple = tuple(sorted(set(seeds)))
    if not seed_tuple:
        raise ValueError("cannot connect an empty set")
    current = vertex_mask(g, seed_tuple, "vertex")
    comps = list(induced_components(g, current))
    p0 = len(comps)
    added: List[int] = []
    paths: List[Tuple[int, ...]] = []
    while len(comps) > 1:
        best = _closest_pair(g, comps)
        if best is None:
            raise ContractViolation("seed components lie in different graph parts")
        d, u, v = best
        if d - 1 > stretch:
            raise ContractViolation(
                f"merge from {u} to {v} needs {d - 1} interior vertices, "
                f"allowed {stretch}"
            )
        # capped at depth d, the BFS still reaches v by the same parents
        path = bfs_layers(g, [u], depth_cap=d).path_to(v)
        interior = path[1:-1]
        for w in interior:
            if not (current >> w) & 1:
                added.append(w)
        inner = mask_of(interior)
        current |= inner
        paths.append(tuple(path))
        # the path joins every component it touches; the others stay apart
        joined = mask_of(path)
        reach = joined | g.neighborhood(inner)
        for c in comps:
            if c & reach:
                joined |= c
        comps = sorted(
            [c for c in comps if not c & reach] + [joined], key=lambda c: c & -c
        )
    if len(added) > stretch * (p0 - 1):
        raise ContractViolation(
            f"added {len(added)} vertices, allowed {stretch * (p0 - 1)}"
        )
    return ConnectResult(tuple(iter_bits(current)), tuple(added), tuple(paths))


def _closest_pair(
    g: Graph, comps: Sequence[int]
) -> Optional[Tuple[int, int, int]]:
    # The least (d, u, v) with u in an earlier component than v, or None
    # when no two components share a graph part.  A BFS from all of them at
    # once labels each vertex by a nearest component; a shortest path
    # between two components changes label along some edge (x, y), so the
    # least gap is the least dist[x] + 1 + dist[y] over such edges.
    label = [-1] * g.n
    dist = [0] * g.n
    queue: List[int] = []
    for i, c in enumerate(comps):
        for v in iter_bits(c):
            label[v] = i
            queue.append(v)
    gap = None
    for x in queue:  # the loop also visits what it appends
        dx = dist[x]
        # an edge not yet seen has both ends at depth >= dx, so it gives
        # at least 2 * dx + 1
        if gap is not None and 2 * dx + 1 >= gap:
            break
        lx = label[x]
        for y in g.adj[x]:
            ly = label[y]
            if ly < 0:
                label[y] = lx
                dist[y] = dx + 1
                queue.append(y)
            elif ly != lx and (gap is None or dx + 1 + dist[y] < gap):
                gap = dx + 1 + dist[y]
    if gap is None:
        return None
    masks = g.neighbor_masks()
    later = [0] * len(comps)
    for i in range(len(comps) - 2, -1, -1):
        later[i] = later[i + 1] | comps[i + 1]
    seeds = later[0] | comps[0]
    free = ((1 << g.n) - 1) & ~seeds
    # No pair is closer than gap, so the first u whose depth-gap layer
    # meets a later component gives the least key.  A shortest path
    # between closest components has no seed vertex inside, so the
    # flood only crosses free vertices.
    for u in iter_bits(seeds):
        targets = later[label[u]]
        layer = masks[u] & free  # gap >= 2: no target is adjacent
        if not (targets and layer):
            continue
        within = free | targets
        seen = layer | 1 << u
        for _ in range(gap - 1):
            layer = g.neighborhood(layer) & within & ~seen
            seen |= layer
        hit = layer & targets
        if hit:
            return gap, u, (hit & -hit).bit_length() - 1
    raise ContractViolation("no seed pair realises the closest gap")


# ---------------------------------------------------------------------------
# covering families


@dataclass(frozen=True)
class SubtreePiece:
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CoveringFamily:
    t: Fraction
    pieces: Tuple[SubtreePiece, ...]

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

    def piece(self) -> SubtreePiece:
        return SubtreePiece(tuple(sorted(self.vertices)), tuple(sorted(self.edges)))


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
    pieces: List[SubtreePiece] = []

    if tf <= 1:
        pieces = [SubtreePiece((v,), ()) for v in range(g.n)]
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
    g: Graph, tf: Fraction, pieces: List[SubtreePiece]
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
