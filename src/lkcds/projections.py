"""Distance profiles of vertices relative to a blocker set.

For a vertex u outside a set X, the r-projection of u onto X collects the
X-vertices reachable within r steps along paths whose interior avoids X,
and the profile records those avoidance distances.  Vertices with equal
profiles are interchangeable for r-domination of X, which is what the
closure construction exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .graphs import Graph, bfs_layers, vertex_mask


@dataclass(frozen=True)
class ProjectionProfile:
    """Sorted (x, distance) pairs with distance <= r, interior avoiding X."""

    r: int
    entries: Tuple[Tuple[int, int], ...]

    @property
    def projection(self) -> Tuple[int, ...]:
        return tuple(x for x, _ in self.entries)

    def distance_to(self, x: int) -> Optional[int]:
        for y, d in self.entries:
            if y == x:
                return d
        return None

    def relabel(self, mapping: Dict[int, int]) -> "ProjectionProfile":
        return ProjectionProfile(
            self.r, tuple(sorted((mapping[x], d) for x, d in self.entries))
        )


def profile(g: Graph, u: int, blockers: Iterable[int], r: int) -> ProjectionProfile:
    """Profile of a single vertex, computed by flooding outward from u."""
    xs = set(blockers)
    if u in xs:
        raise ValueError("profiled vertex must lie outside the blocker set")
    res = bfs_layers(g, [u], depth_cap=r, forbidden=xs)
    entries = sorted((v, d) for v, d in res.dist.items() if v in xs and d <= r)
    return ProjectionProfile(r, tuple(entries))


@dataclass(frozen=True)
class ProfileClass:
    profile: ProjectionProfile
    members: Tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]


class ProfileClassification:
    """Partition of the free vertices by projection profile.

    Classes are ordered by their profile entry tuples, members ascending,
    and the representative of a class is its smallest member.
    """

    __slots__ = ("blockers", "r", "classes", "class_of")

    def __init__(self, blockers: Tuple[int, ...], r: int, classes: Tuple[ProfileClass, ...]):
        self.blockers = blockers
        self.r = r
        self.classes = classes
        self.class_of: Dict[int, int] = {}
        for i, cls in enumerate(classes):
            for v in cls.members:
                self.class_of[v] = i

    @property
    def representatives(self) -> Tuple[int, ...]:
        return tuple(cls.representative for cls in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def classify(g: Graph, blockers: Iterable[int], r: int) -> ProfileClassification:
    """Group free vertices by profile, flooding once from each blocker.

    The flood direction is opposite to the one `profile` uses; paths with
    X-free interiors reverse cleanly, so both give the same distances.
    """
    xs = tuple(sorted(set(blockers)))
    vertex_mask(g, xs, "blocker")
    xset = set(xs)
    free_ids = [v for v in range(g.n) if v not in xset]
    pairs: Dict[int, List[Tuple[int, int]]] = {u: [] for u in free_ids}
    for x in xs:
        res = bfs_layers(g, [x], depth_cap=r, forbidden=xset)
        for v, d in res.dist.items():
            if v in pairs and 0 < d <= r:
                pairs[v].append((x, d))
    by_profile: Dict[ProjectionProfile, List[int]] = {}
    for u in free_ids:
        prof = ProjectionProfile(r, tuple(sorted(pairs[u])))
        by_profile.setdefault(prof, []).append(u)
    classes = tuple(
        ProfileClass(prof, tuple(sorted(members)))
        for prof, members in sorted(by_profile.items(), key=lambda kv: kv[0].entries)
    )
    return ProfileClassification(xs, r, classes)

