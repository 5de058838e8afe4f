"""Distance profiles of vertices relative to a blocker set.

For a vertex u outside a set X, the r-projection of u onto X collects the
X-vertices reachable within r steps along paths whose interior avoids X,
and the profile records those avoidance distances.  Vertices with equal
profiles are interchangeable for r-domination of X, which is what the
closure construction exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, Iterable, List, Tuple

from .graphs import Graph, bfs_layers, iter_bits, vertex_mask

# sorted (x, distance) pairs with distance <= r, interior avoiding X
Profile = Tuple[Tuple[int, int], ...]


def profile(g: Graph, u: int, blockers: Container[int], r: int) -> Profile:
    """Profile of a single vertex, computed by flooding outward from u.

    The blockers are only tested for membership, never copied, so a caller
    that profiles many vertices builds one set of them and passes it to
    every call.
    """
    if u in blockers:
        raise ValueError("profiled vertex must lie outside the blocker set")
    res = bfs_layers(g, [u], depth_cap=r, forbidden=blockers)
    return tuple(sorted((v, d) for v, d in res.dist.items() if v in blockers))


@dataclass(frozen=True)
class ProfileClass:
    profile: Profile
    members: Tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]


@dataclass(frozen=True, eq=False)
class ProfileClassification:
    """Partition of the free vertices by projection profile.

    Classes are ordered by their profiles, members ascending,
    and the representative of a class is its smallest member.
    """

    blockers: Tuple[int, ...]
    r: int
    classes: Tuple[ProfileClass, ...]
    class_of: Dict[int, int]  # free vertex -> index of its class
    # blocker x -> its flood as masks: x, then its free layers up to r,
    # where layer d holds the vertices with (x, d) in their profile
    rings: Dict[int, List[int]]

    @property
    def representatives(self) -> Tuple[int, ...]:
        return tuple(cls.representative for cls in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def classify(g: Graph, blockers: Iterable[int], r: int) -> ProfileClassification:
    """Group free vertices by profile, flooding once from each blocker.

    The flood direction is opposite to the one `profile` uses; paths with
    X-free interiors reverse cleanly, so both give the same distances.
    Each flood is a layered mask search in which only free vertices
    expand, so a blocker reached at depth > 0 stops it.  Blockers are
    flooded in ascending order, so every vertex collects its pairs
    already sorted.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    xs = tuple(sorted(set(blockers)))
    free = ((1 << g.n) - 1) & ~vertex_mask(g, xs, "blocker")
    pairs: List[List[Tuple[int, int]]] = [[] for _ in range(g.n)]
    rings: Dict[int, List[int]] = {}
    nbr = g.neighbor_masks()
    for x in xs:
        # an inline flood, not g.layers(1 << x, free): the generator cost
        # about 10% of ladder kernelize and verdict throughput
        seen = layer = 1 << x
        rings[x] = flood = [layer]
        if not nbr[x] & free:
            continue  # only free vertices expand, so the flood ends at x
        for d in range(1, r + 1):
            layer = g.neighborhood(layer) & free & ~seen
            if not layer:
                break
            seen |= layer
            flood.append(layer)
            for v in iter_bits(layer):
                pairs[v].append((x, d))
    by_profile: Dict[Profile, List[int]] = {}
    for u in iter_bits(free):  # ascending, so each member list is too
        by_profile.setdefault(tuple(pairs[u]), []).append(u)
    classes = tuple(
        ProfileClass(prof, tuple(members)) for prof, members in sorted(by_profile.items())
    )
    class_of = {v: i for i, c in enumerate(classes) for v in c.members}
    return ProfileClassification(xs, r, classes, class_of, rings)
