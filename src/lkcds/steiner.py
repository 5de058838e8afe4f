"""Exact group Steiner trees from a lattice of level bitmasks.

Costs count tree vertices, not edges: a tree on one shared vertex scores 1.
The subset DP (Dreyfus and Wagner) runs over bundles, that is masks of
groups, with unit edge weights, so the vertex count is the edge optimum
plus one.  A bundle's row holds one vertex mask per level: level d is the
set of vertices v that lie on a tree of at most d edges meeting every group
of the bundle.  Level d is level d - 1, its neighbour shell, and the OR
over the splits of the bundle into two sub-bundles A and B of the masks
A[i] & B[d - i].  A row ends at cap - 1 edges, or earlier once it stops
growing and holds every vertex a split can add.  A `SteinerLattice` keeps
the rows it is asked to keep, so one lattice per closure computes each
bundle's row once and shares it with every larger bundle, and the closure
verifier reads every kept bundle's value in the closure graph off one
more; `steiner_exact` caps its own lattice at n vertices, which no tree
exceeds.

Trees are rebuilt by fixed tie-breaks.  Start from the least vertex at the
least level.  There take the first split, in descending submask order over
the splits that hold the bundle's top group, whose two levels at the vertex
sum to its level; if none does, step to the least neighbour one level down.
These are the choices of the heap-and-back-pointer form of the same DP over
the whole graph.  Every split or step that adds up to the optimum yields a
tree of at most cap vertices, which lies within cap - 1 of each group it
meets, so a row shared from a sub-bundle gives the same tree as a search of
that bundle alone.  Group count is capped because the work grows as
3^groups: every split of every bundle.

A rebuild is a walk over states (bundle, vertex, level): a split moves to
the two sides' states at the same vertex, a step to the neighbour's state
one level down, and the tree is the union of the vertices and edges the
walk visits from its start.  Which moves a state makes depends only on the
state and on the rows of its bundle and sub-bundles, and a stored row never
changes, so every walk through a state of a stored row visits the same
vertices and edges below it.  The lattice therefore keeps, by state, the
walk below each state of a stored row that a rebuild starts from or a split
enters, and rebuilds a larger bundle's tree from its sub-bundles' kept
walks; the union, and with it the tree, is the one a fresh walk would pick.
The states a walk steps through are not kept, so a kept walk costs memory
in proportion to its own length.

`walk` checks every walk it rebuilds, on its vertex mask and the edges as
the walk lists them, and returns them; `tree` is `walk` plus sorting the
walk into a `Tree`.  So a caller that keeps only some trees, as the closure
does, checks every walk but sorts only the ones it keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .domination import ContractViolation
from .graphs import Graph, Tree, iter_bits, tree_mask_problem, vertex_mask

GROUP_LIMIT = 8

Row = Tuple[int, ...]  # vertex masks by level; a short row repeats its last level
Edges = Tuple[Tuple[int, int], ...]  # each low end first
Walk = Tuple[int, Edges]  # vertex mask, edges
Side = Tuple[int, Row, int]  # sub-bundle, its row, a level


class SteinerLattice:
    """Rows of the subset DP for one graph, one list of groups and one cap.

    Groups are disjoint nonempty vertex masks and bundles are masks over
    their indices.  `row` builds a bundle's row from the kept rows of its
    sub-bundles, so callers offer every sub-bundle first.  A sub-bundle
    without a kept row has no tree within the cap, and neither does any
    bundle that contains it.  `walk` keeps the walks from the states of
    kept rows that it starts from or splits into, so walks of larger
    bundles reuse them.
    """

    def __init__(self, g: Graph, groups: Sequence[int], cap: int):
        self.g = g
        self.groups = groups
        self.nbr = g.neighbor_masks()
        # a tree has at most n - 1 edges
        self.top = min(cap, g.n) - 1
        self.rows: Dict[int, Row] = {}
        self.walks: Dict[Tuple[int, int, int], Walk] = {}  # by (bundle, v, d)

    def row(self, bundle: int, keep: bool) -> Row:
        """The bundle's row, or () when no tree of it fits the cap.

        A kept row runs to the cap, or until it stops growing, and is
        stored for larger bundles.  A row that is not kept stops at its
        first nonempty level, the last one `walk` reads.
        """
        if bundle & (bundle - 1):
            sides = self._sides(bundle)
            if sides is None:
                return ()
            cur = reach = 0
            for a, b in sides:
                reach |= a[-1] & b[-1]
        else:
            sides = []
            cur = reach = self.groups[bundle.bit_length() - 1]
        # reach: every vertex some split can ever add; once the row holds
        # it, splits add nothing and the row ends when it stops growing
        neighborhood = self.g.neighborhood
        levels = [cur]
        prev = 0
        for d in range(1, self.top + 1):
            if cur and not keep:
                break
            grown = cur | neighborhood(cur & ~prev)
            if reach & ~grown:
                # past its end a row repeats its last level, so a term with
                # an index past the end is one with both indices inside,
                # at a lower level that the row already holds
                for a, b in sides:
                    la, lb = len(a), len(b)
                    first = d - lb + 1 if d >= lb else 0
                    for i in range(first, d + 1 if d < la else la):
                        grown |= a[i] & b[d - i]
            elif grown == cur:
                break
            prev, cur = cur, grown
            levels.append(cur)
        if not cur:
            return ()
        row = tuple(levels)
        if keep:
            self.rows[bundle] = row
        return row

    def _sides(self, bundle: int) -> Optional[List[Tuple[Row, Row]]]:
        # the rows of the two sides of every split, or None when a side
        # has no row; level 0 of a split is empty, as groups are disjoint
        rows = self.rows
        rest = bundle & ~(1 << (bundle.bit_length() - 1))
        sides = []
        part = rest
        while part:
            a = rows.get(bundle ^ part)
            b = rows.get(part)
            if a is None or b is None:
                return None
            sides.append((a, b))
            part = (part - 1) & rest
        return sides

    def walk(self, bundle: int, row: Row) -> Walk:
        """The vertex mask and edges of the walk the tie-breaks pick from
        the bundle's nonempty row.

        Checks it: a tree of the graph, of value + 1 vertices, meeting every
        group of the bundle.  The edges are checked as the walk lists them
        and, only when that finds a problem, again sorted and without
        repeats, the order and edge set of the walk's `Tree`, to word it.
        """
        value = 0
        while not row[value]:
            value += 1
        start = (row[value] & -row[value]).bit_length() - 1
        span, edges = self._walk(bundle, row, start, value)
        if tree_mask_problem(self.g, span, edges) is not None:
            problem = tree_mask_problem(self.g, span, sorted(set(edges)))
            if problem is not None:
                raise ContractViolation(f"reconstructed tree {problem}")
        if span.bit_count() != value + 1:
            raise ContractViolation("value and reconstruction disagree")
        for i in iter_bits(bundle):
            if not span & self.groups[i]:
                members = tuple(iter_bits(self.groups[i]))
                raise ContractViolation(f"tree misses group {members}")
        return span, edges

    def tree(self, bundle: int, row: Row) -> Tree:
        """The checked walk of `walk`, sorted into a `Tree`."""
        return walk_tree(*self.walk(bundle, row))

    def _walk(self, bundle: int, row: Row, v: int, d: int) -> Walk:
        # the vertex mask and edges the tie-breaks pick from v at level d of
        # the bundle's row: steps to the least neighbour one level down
        # until level 0 or a split, whose two sides are walked in turn
        key = (bundle, v, d)
        stored = self.rows.get(bundle) is row
        if stored and key in self.walks:
            return self.walks[key]
        span, edges = 0, []
        while True:
            span |= 1 << v
            split = self._split_at(bundle, v, d) if bundle & (bundle - 1) else None
            if split:
                (a, ra, i), (b, rb, j) = split
                span_a, edges_a = self._walk(a, ra, v, i)
                span_b, edges_b = self._walk(b, rb, v, j)
                span |= span_a | span_b
                edges += edges_a
                edges += edges_b
                break
            if not d:
                break
            near = self.nbr[v] & row[d - 1]
            w = (near & -near).bit_length() - 1
            edges.append((v, w) if v < w else (w, v))
            v, d = w, d - 1
        walk = (span, tuple(edges))
        if stored:
            self.walks[key] = walk
        return walk

    def _split_at(self, bundle: int, v: int, d: int) -> Optional[Tuple[Side, Side]]:
        # the first split, by descending side holding the top group, whose
        # two levels at v sum to d; None when v got its level by growth
        rows = self.rows
        rest = bundle & ~(1 << (bundle.bit_length() - 1))
        part = rest & -rest
        while part:
            a = rows[bundle ^ part]
            b = rows[part]
            for i in range(min(d, len(a) - 1) + 1):
                if (a[i] >> v) & 1:
                    if (b[min(d - i, len(b) - 1)] >> v) & 1:
                        return (bundle ^ part, a, i), (part, b, d - i)
                    break
            part = (part - rest) & rest
        return None


def walk_tree(span: int, edges: Edges) -> Tree:
    """The tree of a walk's vertex mask and edges: sorted, without repeats."""
    return Tree(tuple(iter_bits(span)), tuple(sorted(set(edges))))


def steiner_exact(g: Graph, groups: Sequence[Iterable[int]]) -> Optional[Tree]:
    """Minimum-vertex tree meeting every group, or None when none exists.

    Groups are read as vertex sets: nonempty, pairwise disjoint, at most
    GROUP_LIMIT of them.  One query of a fresh `SteinerLattice` capped at
    n vertices: every proper sub-bundle's row in increasing mask order,
    then the whole bundle's row and its tree.
    """
    groups = tuple(tuple(sorted(set(grp))) for grp in groups)
    if not groups:
        raise ValueError("at least one group is required")
    if len(groups) > GROUP_LIMIT:
        raise ValueError(f"{len(groups)} groups exceed the limit {GROUP_LIMIT}")
    seen: set = set()
    for grp in groups:
        if not grp:
            raise ValueError("groups must be nonempty")
        for v in grp:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two groups")
            seen.add(v)
    group_masks = [vertex_mask(g, grp, "group vertex") for grp in groups]
    lattice = SteinerLattice(g, group_masks, g.n)
    full = (1 << len(groups)) - 1
    for bundle in range(1, full):
        lattice.row(bundle, keep=True)
    row = lattice.row(full, keep=False)
    return lattice.tree(full, row) if row else None


def steiner_size(g: Graph, groups: Sequence[Iterable[int]]) -> Optional[int]:
    """Vertex count of an optimum tree, or None when no tree exists."""
    tree = steiner_exact(g, groups)
    return None if tree is None else tree.size
