"""Exact group Steiner trees from a lattice of level bitmasks.

Costs count tree vertices, not edges: a tree on one shared vertex scores 1.
The subset DP (Dreyfus and Wagner) runs over bundles, that is masks of
groups, with unit edge weights, so the vertex count is the edge optimum
plus one.  A bundle's row holds one vertex mask per level: level d is the
set of vertices v that lie on a tree of at most d edges meeting every group
of the bundle.  Level d is level d - 1, its neighbour shell, and the OR
over the splits of the bundle into two sub-bundles A and B of the masks
A[i] & B[d - i].  A row ends at cap - 1 edges, or earlier once it stops
growing and holds every vertex a split can add.

No work is spent below the level where a tree can first exist.  A tree
that meets s disjoint groups holds a vertex of each, so it has at least s
vertices and s - 1 edges: the levels below s - 1 of a bundle of s groups
are empty.  So `row` sets those levels down without computing them, a
split term A[i] & B[d - i] is formed only for i at least |A| - 1 and
d - i at least |B| - 1, and a walk, which looks for each state's split
inline, scans a bundle's and a side's levels from there.  Rows, walks and
trees are those the same DP gives with every level and term computed.

A `SteinerLattice` keeps the rows it is asked to keep, so one lattice per
closure computes each bundle's row once and shares it with every larger
bundle, and the closure verifier reads every kept bundle's value in the
closure graph off one more; `steiner_exact` caps its own lattice at n
vertices, which no tree exceeds.

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
enters.  A split's sides are stored rows, so a walk reads each side's
kept walk before it walks that side afresh; the union, and with it the
tree, is the one a fresh walk would pick.  The states a walk steps through
are not kept, so a kept walk costs memory in proportion to its length.

`walk` checks every walk it rebuilds, on its vertex mask and the edges as
the walk lists them, and returns them; `tree` is `walk` plus sorting the
walk into a `Tree`.  So a caller that keeps only some trees, as the closure
does, checks every walk but sorts only the ones it keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .domination import ContractViolation
from .graphs import Graph, Tree, iter_bits, tree_mask_problem, vertex_mask

GROUP_LIMIT = 8

Row = Tuple[int, ...]  # vertex masks by level; a short row repeats its last level
Edges = Tuple[Tuple[int, int], ...]  # each low end first
Walk = Tuple[int, Edges]  # vertex mask, edges


class SteinerLattice:
    """Rows of the subset DP for one graph, one list of groups and one cap.

    Groups are disjoint vertex masks and bundles are masks over their
    indices; a bundle that holds an empty group has no tree.  `row` builds
    a bundle's row from the kept rows of its sub-bundles, so callers offer
    every sub-bundle first.  A sub-bundle without a kept row has no tree
    within the cap, and neither does any bundle that contains it.  `walk`
    keeps the walks from the states of kept rows that it starts from or
    splits into, and a larger bundle's walk reads its sides' walks there.
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
        # sides: each split's two rows, each with its low, its side's group
        # count less one.  reach: every vertex some split can ever add; once
        # the row holds it, splits add nothing and it ends when it stops growing
        nbr = self.nbr
        size = bundle.bit_count()
        sides = []
        if size > 1:
            rows = self.rows
            cur = reach = 0
            rest = bundle & ~(1 << (bundle.bit_length() - 1))
            part = rest
            while part:
                a = rows.get(bundle ^ part)
                b = rows.get(part)
                if a is None or b is None:
                    return ()
                reach |= a[-1] & b[-1]
                low_b = part.bit_count() - 1
                sides.append((a, b, size - 2 - low_b, low_b))
                part = (part - 1) & rest
        else:
            cur = reach = self.groups[bundle.bit_length() - 1]
        # The levels below the bundle's group count less one are empty
        # (module docstring), so they are set down without being computed
        levels = [cur] * max(size - 1, 1)
        prev = 0
        for d in range(len(levels), self.top + 1):
            if cur and not keep:
                break
            grown, shell = cur, cur & ~prev  # shell: joined at level d - 1
            while shell:
                low = shell & -shell
                grown |= nbr[low.bit_length() - 1]
                shell ^= low
            if reach & ~grown:
                # i and d - i start at their sides' lows, below which a
                # side's levels are empty; past its end a row repeats its
                # last level, so a term with an index past the end is one
                # with both indices inside, at a lower level that the row
                # already holds
                for a, b, low_a, low_b in sides:
                    first = d - len(b) + 1
                    if first < low_a:
                        first = low_a
                    end = d - low_b + 1
                    if end > len(a):
                        end = len(a)
                    for i in range(first, end):
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

    def walk(self, bundle: int, row: Row) -> Walk:
        """The vertex mask and edges of the walk the tie-breaks pick from
        the bundle's nonempty row.

        Checks it: a tree of the graph, of value + 1 vertices, meeting every
        group of the bundle.  The edges are checked as the walk lists them
        and, only when that finds a problem, again sorted and without
        repeats, the order and edge set of the walk's `Tree`, to word it.
        """
        value = bundle.bit_count() - 1  # no level below it is nonempty
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
        rest = bundle
        while rest:
            group = self.groups[(rest & -rest).bit_length() - 1]
            if not span & group:
                members = tuple(iter_bits(group))
                raise ContractViolation(f"tree misses group {members}")
            rest &= rest - 1
        return span, edges

    def tree(self, bundle: int, row: Row) -> Tree:
        """The checked walk of `walk`, sorted into a `Tree`."""
        return walk_tree(*self.walk(bundle, row))

    def _walk(self, bundle: int, row: Row, v: int, d: int) -> Walk:
        # the vertex mask and edges the tie-breaks pick from v at level d of
        # the bundle's row: steps to the least neighbour one level down
        # until level 0 or a split, whose two sides are walked in turn
        walks, rows, nbr = self.walks, self.rows, self.nbr
        key = (bundle, v, d)
        stored = rows.get(bundle) is row
        if stored and key in walks:
            return walks[key]
        rest = bundle & ~(1 << (bundle.bit_length() - 1))  # 0: no split
        span, edges = 0, []
        while True:
            span |= 1 << v
            # the first split, by descending side a holding the top group,
            # whose two levels at v sum to d (a's least level at v, from its
            # group count less one); part ends 0 when v got its level by growth
            part = rest & -rest
            while part:
                side = bundle ^ part
                a = rows[side]
                i = side.bit_count() - 1
                last = min(d, len(a) - 1)
                while i <= last and not a[i] >> v & 1:
                    i += 1
                if i <= last:
                    b = rows[part]
                    j = d - i
                    if (b[j] if j < len(b) else b[-1]) >> v & 1:
                        break
                part = (part - rest) & rest
            if part:
                # a side's walk is kept, since its row is stored
                span_a, edges_a = walks.get((side, v, i)) or self._walk(side, a, v, i)
                span_b, edges_b = walks.get((part, v, j)) or self._walk(part, b, v, j)
                span |= span_a | span_b
                edges += edges_a
                edges += edges_b
                break
            if not d:
                break
            near = nbr[v] & row[d - 1]
            w = (near & -near).bit_length() - 1
            edges.append((v, w) if v < w else (w, v))
            v, d = w, d - 1
        walk = (span, tuple(edges))
        if stored:
            walks[key] = walk
        return walk


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
