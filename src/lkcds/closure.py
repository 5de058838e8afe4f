"""Profile-preserving closure of a graph around a blocker set.

The closure keeps the blocker set X, one exact Steiner tree for every
small bundle of profile classes that admits one and holds a vertex
outside X, and the least avoiding paths, read off the blocker floods,
that realize each kept tree vertex's projection distances.  Because the
result is a subgraph of the host, distances can only grow, and the
retained paths pin them back down to their original values; that is
what the verifier checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .domination import ContractViolation, Rational, piece_cap
from .graphs import (
    Graph,
    Tree,
    iter_bits,
    least_path,
    mask_of,
    subgraph,
    tree_problem,
)
from .projections import ProfileClassification, classify, profile
from .steiner import Row, SteinerLattice, steiner_size, walk_tree


def avoiding_path_tree(
    g: Graph, cls: ProfileClassification, ends: Iterable[Tuple[int, int, int]]
) -> Tuple[Set[int], Set[Tuple[int, int]]]:
    """Vertices and edges, each edge low end first, of the listed paths.

    Each end (u, x, d) names a free vertex u with (x, d) in its profile in
    g; its path, the least shortest one from u to x whose interior avoids
    the blockers, is read off x's flood by `least_path`.
    """
    nbr = g.neighbor_masks()
    vs: Set[int] = set()
    es: Set[Tuple[int, int]] = set()
    for u, x, d in ends:
        path = least_path(nbr, u, cls.rings[x][:d])
        vs.update(path)
        es.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return vs, es


@dataclass(eq=False)
class ClosureResult:
    graph: Graph
    vertex_map: Tuple[int, ...]  # closure id -> host id
    blockers_old: Tuple[int, ...]
    blockers_new: Tuple[int, ...]
    r: int
    cap: int
    # host ids; classes first, then one per blocker when cap >= 3
    groups: Tuple[Tuple[int, ...], ...]
    class_count: int
    kept: Dict[Tuple[int, ...], Tree]  # the trees that hold a free vertex
    terminals: Tuple[int, ...]  # host ids of protected free vertices
    stats: Dict[str, int] = field(default_factory=dict)


def build_closure(
    g: Graph, blockers: Iterable[int], r: int, t: Rational
) -> ClosureResult:
    """Closure of g around the blockers, keeping bundles of at most cap groups.

    The groups are the profile classes of the free vertices and, when
    cap >= 3, one group per blocker after them; no vertex lies in two.
    Bundles are visited by size in one `SteinerLattice`, so each bundle's
    row is computed once and read by every larger bundle, and the optimum
    tree of every bundle that has one within the cap is found.  The last
    level of a bundle B's row is the set of vertices on some tree of at
    most cap vertices that meets every group of B.  So B plus a later
    group j has such a tree exactly when group j meets that level:
    - a tree of at most cap vertices meeting B and j also meets B, so its
      vertex in group j lies in B's last level;
    - a vertex of group j in that level lies on a tree of at most cap
      vertices meeting B, and that tree meets j too.
    Every bundle with a tree has its prefix without its last group as a
    bundle with a tree, so extending only such bundles this way builds
    exactly the bundles that have a tree.  A single group's last level is
    its radius cap - 1 ball; the groups that ball meets are the group's
    compatible ones, the same rule at size 1, and serve as a cheap
    prefilter for every bundle holding it.  Rows of cap groups are read by
    no larger bundle and are not stored.

    `kept` holds the trees that have a free vertex, one outside the
    blockers; the stat `candidate_subsets` counts every bundle with a
    tree and `kept_trees` the kept ones.  Leaving out the other trees
    changes nothing in the closure graph, its vertex map, its blockers or
    its terminals:
    - A bundle holding a class meets that class, whose members are free,
      so its tree is always kept.  Only a bundle of blocker groups alone,
      which exist at cap >= 3, can have a tree of blockers alone.
    - Such a tree adds only blockers and edges between two blockers, and
      the closure keeps every blocker and every such edge.
    - It has no free vertex, so it adds no terminal.
    Each such tree is still walked and checked, as only the walk tells
    whether it runs through a free vertex, and larger bundles reuse its
    walks; but it is not sorted into a `Tree`, as only kept walks are.

    Below cap 3 the blocker groups would add nothing to the closure graph,
    for r >= 1, the radius every kernel runs at:
    - A tree has at most 2 vertices, and each lies in a group of its bundle.
    - So a tree of blockers alone is a blocker or an edge between two
      blockers, and the closure keeps every blocker and every such edge.
    - A tree of a class c and a blocker x is an edge from a member of c to
      x, so (x, 1) is in the profile of c, and every member of c is
      adjacent to x.  The tie-breaks then pick the edge from c's least
      member m0 to x.  m0 is a terminal, as the tree of c alone is m0, and
      its retained path to x is that same edge.
    At r = 0 profiles are empty, and such an edge is kept only at cap >= 3.
    """
    _, cap = piece_cap(t)
    if cap < 1:
        raise ValueError("t is too small for any tree to fit")
    xs = tuple(sorted(set(blockers)))
    xset = set(xs)
    cls = classify(g, xs, r)  # refuses a negative r and a blocker outside g
    groups: List[Tuple[int, ...]] = [c.members for c in cls.classes]
    class_count = len(groups)
    if cap >= 3:
        groups.extend((x,) for x in xs)

    grouped = 0  # below cap 3 a blocker lies in no group, not in group 0
    group_of = [0] * g.n
    for i, grp in enumerate(groups):
        for v in grp:
            group_of[v] = i
            grouped |= 1 << v
    masks = [mask_of(grp) for grp in groups]
    lattice = SteinerLattice(g, masks, cap)
    free = ((1 << g.n) - 1) ^ mask_of(xs)
    kept: Dict[Tuple[int, ...], Tree] = {}  # by bundle key, in visiting order

    def search(key: Tuple[int, ...], bundle: int, row: Row) -> None:
        # every walk is checked; only one with a free vertex becomes a tree
        span, edges = lattice.walk(bundle, row)
        if span & free:
            kept[key] = walk_tree(span, edges)

    compat = []
    # each level holds the bundles of one size that have a tree, in
    # ascending order, with their rows and the groups that may still join
    # them: compatible with every member and past the last one
    level = []
    for i in range(len(groups)):
        row = lattice.row(1 << i, keep=cap > 1)
        search((i,), 1 << i, row)
        near = 0
        for v in iter_bits(row[-1] & grouped):
            near |= 1 << group_of[v]
        compat.append(near & ~(1 << i))
        level.append(((i,), 1 << i, row, near & -(2 << i)))
    pairs = len(groups) * (len(groups) - 1) // 2
    pruned_pairs = pairs - sum(c.bit_count() for c in compat) // 2

    searched = len(level)  # the bundles with a tree, each walked once
    for size in range(2, min(cap, len(groups)) + 1):
        grown = []
        for key, bundle, row, cand in level:
            # j joins when its group meets the last level of the row
            for j in iter_bits(cand):
                if masks[j] & row[-1]:
                    bigger = bundle | 1 << j
                    bigger_row = lattice.row(bigger, keep=size < cap)
                    if not bigger_row:
                        raise ContractViolation(f"bundle {key + (j,)} has no tree")
                    search(key + (j,), bigger, bigger_row)
                    cand_j = cand & compat[j] & -(2 << j)
                    grown.append((key + (j,), bigger, bigger_row, cand_j))
        level = grown
        searched += len(level)
    kept = dict(sorted(kept.items()))  # by key, not by the visiting order

    terminals = tuple(
        sorted({v for tree in kept.values() for v in tree.vertices if v not in xset})
    )

    ends = [
        (u, x, d) for u in terminals for x, d in cls.classes[cls.class_of[u]].profile
    ]
    vertices, edges = avoiding_path_tree(g, cls, ends)
    vertices.update(xs)
    for tree in kept.values():
        vertices.update(tree.vertices)
        edges.update(tree.edges)
    edges.update((x, y) for x in xs for y in g.adj[x] if x < y and y in xset)
    gprime, vmap = subgraph(g, vertices, edges)
    old2new = {old: new for new, old in enumerate(vmap)}
    stats = {
        "host_vertices": g.n,
        "closure_vertices": gprime.n,
        "closure_edges": gprime.m,
        "blockers": len(xs),
        "classes": class_count,
        "groups": len(groups),
        "pruned_pairs": pruned_pairs,
        "candidate_subsets": searched,
        "kept_trees": len(kept),
        "terminals": len(terminals),
    }
    return ClosureResult(
        graph=gprime,
        vertex_map=vmap,
        blockers_old=xs,
        blockers_new=tuple(old2new[x] for x in xs),
        r=r,
        cap=cap,
        groups=tuple(groups),
        class_count=class_count,
        kept=kept,
        terminals=terminals,
        stats=stats,
    )


@dataclass(frozen=True)
class ClosureReport:
    items: Tuple[Tuple[str, ...], ...]  # the problems of items 1, 2 and 3

    @property
    def ok(self) -> bool:
        return not any(self.items)

    @property
    def problems(self) -> Tuple[str, ...]:  # in item order, named "itemN: ..."
        return tuple(f"item{i}: {p}" for i, ps in enumerate(self.items, 1) for p in ps)


def verify_closure(g: Graph, closure: ClosureResult) -> ClosureReport:
    """Recheck the three closure guarantees from scratch.

    1. Every blocker survives into the closure graph.
    2. Profiles of protected vertices are preserved exactly, and every
       host profile class is still represented.  Host profiles come from
       the host classification (one flood per blocker), closure profiles
       from a flood per vertex, so the two sides take independent routes.
    3. Every kept tree is a real tree of the host meeting its groups
       within the size cap, and each of its edges, mapped through the
       vertex map, is an edge of the closure graph.  Only trees that hold
       a free vertex are kept; one of blockers alone is not, as
       `build_closure` keeps every blocker and every edge between two.
       For each kept all-class bundle the group Steiner value in the
       closure matches the host value, the size of the kept tree.  One
       `SteinerLattice` over the closure graph, with the classes in
       closure ids as its groups and the closure's cap, builds the
       bundles' rows by size, so every sub-bundle's row is there first;
       a bundle's value is its first nonempty level + 1.
       A capped row is exact up to the cap, and the kept tree has at
       most cap vertices, so a row whose value is the tree's size proves
       the bundle.  On a closure that keeps its guarantee the row always
       does: the closure is a subgraph of the host, so its value is at
       least the host's, and the kept tree lies in the closure, so it is
       at most the tree's size.  Once the edge check holds a row is never
       empty, and only one below the tree's size runs the uncapped
       `steiner_size`, to word the problem with the closure's value.
    Item 2 is checked only if item 1 holds, the Steiner values only if all else does.
    """
    item1: List[str] = []  # the problems found under each item
    item2: List[str] = []
    item3: List[str] = []
    xs = closure.blockers_old
    old2new = {old: new for new, old in enumerate(closure.vertex_map)}

    for x in xs:
        if x not in old2new:
            item1.append(f"blocker {x} missing from the closure")
    if tuple(old2new.get(x, -1) for x in xs) != closure.blockers_new:
        item1.append("blocker relabeling is inconsistent")

    if not item1:
        cls_host = classify(g, xs, closure.r)
        blockers_new = set(closure.blockers_new)  # read by every profile flood
        for u in closure.terminals:
            if u not in old2new:
                item2.append(f"terminal {u} is not a closure vertex")
                continue
            if u not in cls_host.class_of:
                item2.append(f"terminal {u} is a blocker, not a free vertex")
                continue
            want = cls_host.classes[cls_host.class_of[u]].profile
            got = profile(closure.graph, old2new[u], blockers_new, closure.r)
            got = tuple(sorted((closure.vertex_map[x], d) for x, d in got))
            if want != got:
                item2.append(f"profile of vertex {u} changed: {want} -> {got}")
        missing = set(cls_host.representatives).difference(closure.terminals)
        if missing:
            item2.append(f"class representatives {sorted(missing)} were not protected")

    nbrs = closure.graph.neighbor_masks()
    # the kept trees' host edges that are no closure edge; trees share
    # their edges, so each distinct edge is looked up once
    lost = {
        (u, v)
        for u, v in set().union(*(tree.edges for tree in closure.kept.values()))
        if u not in old2new or v not in old2new or not nbrs[old2new[u]] >> old2new[v] & 1
    }
    all_class = []  # kept bundles of classes only, for the Steiner check
    for key, tree in closure.kept.items():
        if len(tree.vertices) > closure.cap:
            item3.append(f"kept tree {key} exceeds the size cap")
        problem = tree_problem(g, tree.vertices, tree.edges)
        if problem is not None:
            item3.append(f"kept tree {key} {problem}")
        if lost and not lost.isdisjoint(tree.edges):
            edge = next(e for e in tree.edges if e in lost)
            item3.append(f"kept tree {key} edge {edge} is not a closure edge")
        vs = set(tree.vertices)
        for i in key:
            if vs.isdisjoint(closure.groups[i]):
                item3.append(f"kept tree {key} misses group {i}")
        if max(key) < closure.class_count:
            all_class.append((key, tree))
    if not (item1 or item2 or item3):
        # each class's surviving members as a mask of closure ids
        prime = [
            mask_of(old2new[v] for v in grp if v in old2new)
            for grp in closure.groups[: closure.class_count]
        ]
        lattice = SteinerLattice(closure.graph, prime, closure.cap)
        rows = {}  # by key; built by size, so every sub-bundle's row is there first
        for key, _ in sorted(all_class, key=lambda item: len(item[0])):
            rows[key] = lattice.row(mask_of(key), keep=len(key) < closure.cap)
        for key, tree in all_class:
            vanished = [i for i in key if not prime[i]]
            if vanished:
                item3.append(f"group {vanished[0]} vanished from the closure")
                continue
            row = rows[key]  # its first nonempty level d: a tree of d + 1 vertices
            size = len(tree.vertices)
            if row and next(d for d, lv in enumerate(row) if lv) + 1 == size:
                continue
            prime_groups = [list(iter_bits(prime[i])) for i in key]
            prime_value = steiner_size(closure.graph, prime_groups)
            if prime_value != size:
                item3.append(
                    f"bundle {key}: host tree has {size} "
                    f"vertices but the closure needs {prime_value}"
                )

    return ClosureReport((tuple(item1), tuple(item2), tuple(item3)))


# ---------------------------------------------------------------------------
# translation to an analysis graph with one root per class


@dataclass(frozen=True)
class TranslationGraph:
    graph: Graph
    roots: Tuple[int, ...]
    added_cost: int
    class_costs: Tuple[int, ...]


def build_translation(
    g: Graph, classification: ProfileClassification, class_subset: Sequence[int]
) -> TranslationGraph:
    """Attach a subdivided access tree per class and expose one root each.

    The blockers and r are those of the classification.  For a class with
    common nearest projection distance ell, the access tree joins the
    members' least avoiding paths to the least blocker at that distance,
    its root, which hangs (2r+1) * ell vertices away from the members, so
    an exact tree through the roots decomposes into a host tree plus fixed
    access costs.  Classes with empty projections are rejected.
    """
    r = classification.r
    edges: List[Tuple[int, int]] = list(g.edges())
    nxt = g.n
    roots: List[int] = []
    costs: List[int] = []
    for idx in class_subset:
        pc = classification.classes[idx]
        if not pc.profile:
            raise ValueError(f"class {idx} has an empty projection")
        ell, anchor = min((d, x) for x, d in pc.profile)
        tree_vertices, tree_edges = avoiding_path_tree(
            g, classification, [(m, anchor, ell) for m in pc.members]
        )
        copy: Dict[int, int] = {}
        members = set(pc.members)
        for v in sorted(tree_vertices):
            if v in members:
                copy[v] = v  # glue leaves onto the host
            else:
                copy[v] = nxt
                nxt += 1
        roots.append(copy[anchor])
        costs.append((2 * r + 1) * ell)
        for a, b in sorted(tree_edges):
            walk = [copy[a]]
            for _ in range(2 * r):
                walk.append(nxt)
                nxt += 1
            walk.append(copy[b])
            for p, q in zip(walk, walk[1:]):
                edges.append((min(p, q), max(p, q)))
    return TranslationGraph(
        Graph.from_edges(nxt, edges), tuple(roots), sum(costs), tuple(costs)
    )


@dataclass(frozen=True)
class TranslationCheck:
    host_value: Optional[int]  # None: no tree exists
    analysis_value: Optional[int]
    added_cost: int
    ok: bool


def check_translation(
    g: Graph, classification: ProfileClassification, class_subset: Sequence[int]
) -> TranslationCheck:
    """Confirm that root Steiner values shift host values by the access cost.

    The identity speaks about trees that connect several classes; a lone
    root is its own optimal tree and never enters its access path, so
    subsets of fewer than two classes are refused.
    """
    if len(class_subset) < 2:
        raise ValueError("the shift identity needs at least two classes")
    tg = build_translation(g, classification, class_subset)
    host = steiner_size(g, [classification.classes[i].members for i in class_subset])
    analysis = steiner_size(tg.graph, [[v] for v in tg.roots])
    if host is None or analysis is None:
        ok = host == analysis
    else:
        ok = analysis == host + tg.added_cost
    return TranslationCheck(host, analysis, tg.added_cost, ok)
