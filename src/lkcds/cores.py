"""Domination cores: target sets that stand in for the whole graph.

A core Z for budget k and radius r has the property that any set of at
most k vertices r-dominating Z automatically r-dominates the graph.  The
heuristic mode shrinks the vertex set by a containment rule that is sound
for every budget; the exhaustive mode also runs a per-vertex cover search
and certifies the result.  Cores are found only for connected hosts:
`find_core`, the only routine that rejects an instance, rejects any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple, Union

from .domination import ContractViolation, connect
from .graphs import Graph, iter_bits, mask_of, vertex_mask
from .oracles import cover_exists

DISCONNECTED = "graph is disconnected; no connected dominating set exists"
CORE_MODES = ("exact", "heuristic")


def check_core_mode(mode: str) -> None:
    if mode not in CORE_MODES:
        raise ValueError(f"unknown core mode {mode!r}")


@dataclass(frozen=True)
class Rejection:
    """Certified negative answer for the whole instance."""

    reason: str


@dataclass(frozen=True)
class DominationCore:
    vertices: Tuple[int, ...]
    k: int
    r: int
    certified: str  # exhaustive | heuristic-sound


CoreOutcome = Union[DominationCore, Rejection]


def _containment_prune(g: Graph, r: int) -> Set[int]:
    # keep v unless some w has ball(w) strictly inside ball(v), or the same
    # ball and w < v: covering w then forces covering v, for any budget.
    # Dropping such vertices one at a time, from the top id down, until
    # none is left to drop ends at this same set.  Such a w lies in its own
    # ball, so in v's: only the other members of v's ball need a look.
    balls = g.balls(r)
    keep = set()
    for v, b in enumerate(balls):
        out = ~b
        rest = b & ~(1 << v)
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            bw = balls[w]
            if not bw & out and (bw != b or w < v):
                break
            rest ^= low
        else:
            keep.add(v)
    return keep


def find_core(g: Graph, k: int, r: int, mode: str = "heuristic") -> CoreOutcome:
    if k < 0 or r < 1:
        raise ValueError("need k >= 0 and r >= 1")
    if g.n == 0:
        raise ValueError("cannot find a core of the empty graph")
    check_core_mode(mode)
    if not g.is_connected():
        return Rejection(DISCONNECTED)
    if mode == "heuristic":
        z = _containment_prune(g, r)
        return DominationCore(tuple(sorted(z)), k, r, "heuristic-sound")

    balls = g.balls(r)
    full = (1 << g.n) - 1
    if not cover_exists(balls, full, k, full):
        return Rejection(f"graph cannot be {r}-dominated by at most {k} vertices")
    zmask = mask_of(_containment_prune(g, r))
    # one pass suffices: a budget-k set that covers the rest of Z while
    # avoiding v's ball still does so once Z shrinks, so a kept v stays kept
    for v in reversed(list(iter_bits(zmask))):
        if not cover_exists(balls, zmask & ~(1 << v), k, full & ~balls[v]):
            # every budget-k cover of the rest must enter v's ball
            zmask &= ~(1 << v)
    core = DominationCore(tuple(iter_bits(zmask)), k, r, "exhaustive")
    if not core_verify(g, core.vertices, k, r):
        raise ContractViolation("core extraction produced a non-core")
    return core


def core_verify(g: Graph, z: Iterable[int], k: int, r: int) -> bool:
    """Exhaustively confirm the core property.

    Fails exactly when some budget-k set covers Z while leaving a vertex u
    uncovered, which a cover search restricted outside u's ball detects.
    """
    zmask = vertex_mask(g, z, "core vertex")
    balls = g.balls(r)
    full = (1 << g.n) - 1
    return not any(cover_exists(balls, zmask, k, full & ~b) for b in balls)


def connected_core(g: Graph, core: DominationCore) -> DominationCore:
    """Stitch a core that `find_core` returned into one piece.

    `connect` merges a closest pair of components each round, at stretch 2r.
    On a heuristic core no merge needs more than 2r interior vertices.
    Every vertex v lies within r of the core: v is dropped only for a w
    whose ball lies inside v's (strictly, or equal with w < v), so a chain
    of drops ends at a kept w whose ball lies inside v's, and w is within r
    of v.  Seeds only grow, so every vertex stays within r of them.  Give
    each vertex a nearest seed and walk a host path between seeds of two
    components: each end is its own nearest seed, so on some edge (x, y) the
    nearest seeds of x and y lie in different components, at most r + 1 + r
    apart.  So the closest pair is at most 2r + 1 apart: at most 2r interior
    vertices per merge, and at most 2r(components - 1) in all.  An exact
    core only puts every vertex within 2r of itself (if v were farther, a
    budget-k dominating set without its dominators within r of v would still
    cover the core and miss v), which bounds a merge by 4r, not 2r.  There
    the 2r bound is not proved: `connect`'s runtime check enforces it, and
    it also refuses a hand-made core that spans components of the host.
    """
    stitched = connect(g, core.vertices, 2 * core.r)
    return DominationCore(stitched.connected, core.k, core.r, core.certified)
