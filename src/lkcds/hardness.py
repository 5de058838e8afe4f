"""Set cover reductions that make small domination instances hard.

The construction wires a bipartite incidence graph to a guard adjacent to
every set vertex, hangs a pendant off the guard, and then subdivides
every edge r-fold.  At radius 1 the reduction is tight in both
directions with budget offset one.  For larger radii only the backward
direction survives: a cheap connected dominating set still yields a
cover, but covers can fail to produce dominating sets within any fixed
offset, so those instances are flagged accordingly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .graphs import MAX_VERTICES, Graph, r_subdivision
from .oracles import SetCoverInstance, exact_cds, exact_setcover

IFF_VERIFIED = "iff-verified"
BACKWARD_ONLY = "backward-only"

# the dimensions `random_setcover` draws from, each from 1 up to its bound
MAX_UNIVERSE = 8
MAX_SETS = 8
MAX_K = 3


@dataclass(frozen=True)
class HardnessInstance:
    graph: Graph
    pre_graph: Graph
    roles: Dict[int, str]
    r: int
    k_out: int
    offset: int
    regime: str


def hardness_instance(sc: SetCoverInstance, r: int) -> HardnessInstance:
    """Encode a set cover instance as a connected r-domination question.

    Vertices 0..len(sets)-1 are the sets, the next universe_size ids the
    elements, then the guard and its pendant.  The answer budget is the
    cover budget plus one; the extra unit pays for the guard zone.  An
    instance of more than `MAX_VERTICES` vertices is refused before any
    is allocated.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    m = len(sc.sets)
    n = sc.universe_size
    # incidences, guard edges and the pendant edge; each edge gains r - 1
    # subdivision vertices
    pre_edges = sum(map(len, sc.sets)) + m + 1
    size = m + n + 2 + (r - 1) * pre_edges
    if size > MAX_VERTICES:
        raise ValueError(
            f"hardness instance has {size} vertices, "
            f"more than the {MAX_VERTICES} this tool accepts"
        )
    guard = m + n
    pendant = guard + 1
    edges: List[Tuple[int, int]] = []
    for i, s in enumerate(sc.sets):
        for e in s:
            edges.append((i, m + e))
    for i in range(m):
        edges.append((i, guard))
    edges.append((guard, pendant))
    pre = Graph.from_edges(pendant + 1, edges)
    g, internals = r_subdivision(pre, r)
    roles: Dict[int, str] = {}
    for i in range(m):
        roles[i] = "set"
    for e in range(n):
        roles[m + e] = "element"
    roles[guard] = "guard"
    roles[pendant] = "pendant"
    for chain in internals.values():
        for v in chain:
            roles[v] = "subdivision"
    return HardnessInstance(
        graph=g,
        pre_graph=pre,
        roles=roles,
        r=r,
        k_out=sc.k + 1,
        offset=1,
        regime=IFF_VERIFIED if r == 1 else BACKWARD_ONLY,
    )


def random_setcover(seed: int) -> SetCoverInstance:
    """Seeded instance with bounded dimensions; not guaranteed coverable."""
    rng = random.Random(seed)
    n = rng.randint(1, MAX_UNIVERSE)
    m = rng.randint(1, MAX_SETS)
    k = rng.randint(1, MAX_K)
    sets = []
    for _ in range(m):
        size = rng.randint(1, n)
        sets.append(tuple(sorted(rng.sample(range(n), size))))
    return SetCoverInstance(n, tuple(sets), k)


@dataclass(frozen=True)
class SweepRow:
    seed: int
    universe: int
    sets: int
    k: int
    cover_found: bool
    domset_found: bool
    forward_ok: bool
    backward_ok: bool


def hardness_sweep(seeds: Iterable[int], r: int) -> List[SweepRow]:
    """Compare cover feasibility against the reduced domination answer.

    forward_ok means a cheap cover forced a cheap dominating set, and
    backward_ok the converse; at radius 1 both must hold on every row.
    """
    rows: List[SweepRow] = []
    for seed in seeds:
        sc = random_setcover(seed)
        hi = hardness_instance(sc, r)
        cover = exact_setcover(sc).found
        dom = exact_cds(hi.graph, r, hi.k_out).found
        rows.append(
            SweepRow(
                seed=seed,
                universe=sc.universe_size,
                sets=len(sc.sets),
                k=sc.k,
                cover_found=cover,
                domset_found=dom,
                forward_ok=(not cover) or dom,
                backward_ok=(not dom) or cover,
            )
        )
    return rows
