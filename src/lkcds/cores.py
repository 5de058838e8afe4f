"""Domination cores: target sets that stand in for the whole graph.

A core Z for budget k and radius r has the property that any set of at
most k vertices r-dominating Z automatically r-dominates the graph.  The
heuristic mode shrinks the vertex set by a containment rule that is sound
for every budget; the exhaustive mode also runs a per-vertex cover search
and certifies the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple, Union

from .domination import ContractViolation, connect
from .graphs import Graph, bfs_layers, mask_of
from .oracles import cover_exists


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
    connected: bool = False


CoreOutcome = Union[DominationCore, Rejection]


def _containment_prune(g: Graph, r: int) -> Set[int]:
    # keep v unless some w has ball(w) strictly inside ball(v), or the same
    # ball and w < v: covering w then forces covering v, for any budget.
    # Dropping such vertices one at a time, from the top id down, until
    # none is left to drop ends at this same set.
    balls = g.balls(r)
    first: Dict[int, int] = {}
    for v in range(g.n):
        first.setdefault(balls[v], v)
    # a ball strictly inside another has fewer vertices, and it is enough
    # to compare against minimal balls, since containment is transitive
    minimal: List[int] = []
    for b in sorted(first, key=int.bit_count):
        if all(m & ~b for m in minimal):
            minimal.append(b)
    return {first[b] for b in minimal}


def find_core(g: Graph, k: int, r: int, mode: str = "exact") -> CoreOutcome:
    if k < 0 or r < 1:
        raise ValueError("need k >= 0 and r >= 1")
    if mode == "heuristic":
        z = _containment_prune(g, r)
        return DominationCore(tuple(sorted(z)), k, r, "heuristic-sound")
    if mode != "exact":
        raise ValueError(f"unknown core mode {mode!r}")

    balls = g.balls(r)
    if not cover_exists(balls, (1 << g.n) - 1, k):
        return Rejection(f"graph cannot be {r}-dominated by at most {k} vertices")
    z = _containment_prune(g, r)
    # one pass suffices: a budget-k set that covers the rest of Z while
    # avoiding v's ball still does so once Z shrinks, so a kept v stays kept
    for v in sorted(z, reverse=True):
        rest = mask_of(z - {v})
        outside = [u for u in range(g.n) if not (balls[v] >> u) & 1]
        if not cover_exists(balls, rest, k, outside):
            # every budget-k cover of the rest must enter v's ball
            z.remove(v)
    core = DominationCore(tuple(sorted(z)), k, r, "exhaustive")
    if not core_verify(g, core.vertices, k, r):
        raise ContractViolation("core extraction produced a non-core")
    return core


def core_verify(g: Graph, z: Iterable[int], k: int, r: int) -> bool:
    """Exhaustively confirm the core property.

    Fails exactly when some budget-k set covers Z while leaving a vertex u
    uncovered, which a cover search restricted outside u's ball detects.
    """
    zmask = mask_of(z)
    if zmask >> g.n:
        raise ValueError("core vertex out of range")
    balls = g.balls(r)
    for u in range(g.n):
        outside = [v for v in range(g.n) if not (balls[u] >> v) & 1]
        if cover_exists(balls, zmask, k, outside):
            return False
    return True


def connected_core(g: Graph, core: DominationCore) -> CoreOutcome:
    """Stitch a core into one piece, or certify a rejection.

    A vertex farther than 2r from the core contradicts the core property
    for any budget-k dominating set, so the instance is rejected outright.
    Otherwise shortest-path merges need at most 2r interior vertices each.
    """
    if not core.vertices:
        return Rejection(
            f"graph cannot be {core.r}-dominated by at most {core.k} vertices"
        )
    res = bfs_layers(g, core.vertices)
    for v in range(g.n):
        if v not in res.dist or res.dist[v] > 2 * core.r:
            return Rejection(
                f"graph cannot be {core.r}-dominated by at most {core.k} "
                f"vertices: vertex {v} is farther than {2 * core.r} from the core"
            )
    stitched = connect(g, core.vertices, 2 * core.r)
    return DominationCore(
        stitched.connected, core.k, core.r, core.certified, connected=True
    )
