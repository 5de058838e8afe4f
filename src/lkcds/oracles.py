"""Exact reference solvers for desk-scale instances.

Every search here is exhaustive.  These routines back the test suite and
the ratio certificate: constructive algorithms elsewhere in the package are
checked against them on small graphs, so they must stay simple enough to be
obviously correct.  The connected cover search prunes only what cannot hold
its lex-min answer, and the tests check it against a plain scan over
`connected_vertex_sets`.  It probes sizes from the top down to a
double-sweep distance bound.  A probe at size s grows, from each root in
turn, the connected sets of at most s vertices whose least vertex is that
root, and stops at the first that covers the targets.  So a probe that
meets none proves that no cover of at most s vertices exists, and one
that meets a cover of c vertices from root v proves that none of at most
s vertices has a least vertex below v: the next probe asks for c - 1
vertices from v on, and the lex-least search runs once, at the last size
met, from the last root.  The top is min(k, |home|), home being the
component that holds the targets, lowered to the size of a connected
cover peeled from home when it lies two or more above the bound.  The
bound: a connected set r-dominating two targets D apart holds a vertex
within r of each, so two vertices at least D - 2r apart and a path between
them inside the set, hence at least D - 2r + 1 vertices.  The bound never
overstates the optimum, and its sweeps visit no set and charge no budget
node.  Balls are symmetric, so the last vertex w of a set covers the
missing targets exactly when their mask lies inside w's ball.  Two
deliberately independent routes exist for several quantities (smart
enumerator vs. raw subset scan, BFS flood vs. split-vertex rebuild); keep
both.  A connected cover answer found without a node budget is cached on
its graph, keyed by (targets mask, r, k), and asking again returns it; this
is safe because a `Graph` never changes and the lex-least answer is
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graphs import Graph, iter_bits, mask_of, vertex_mask

FOUND = "found"
NONE_WITHIN_BUDGET = "none-within-budget"
INFEASIBLE = "infeasible"
BUDGET_EXHAUSTED = "budget-exhausted"


class BudgetExceededError(RuntimeError):
    """Raised internally when a node budget runs out."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, nodes: Optional[int]):
        if nodes is not None and nodes < 0:
            raise ValueError("node budget must be nonnegative")
        self.remaining = nodes

    def spend(self) -> None:
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining < 0:
                raise BudgetExceededError("search node budget exhausted")


@dataclass(frozen=True)
class SolveResult:
    status: str
    solution: Optional[Tuple[int, ...]] = None
    value: Optional[int] = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


# ---------------------------------------------------------------------------
# set cover core


def _covers(
    sets: Sequence[int],
    holders: Sequence[int],
    universe: int,
    k: int,
    allowed: int,
    budget: _Budget,
) -> bool:
    # whether <= k of the allowed sets cover universe; holders[e] is the mask
    # of the sets that hold element e
    budget.spend()
    if universe == 0 or k <= 0:
        return universe == 0
    # branch on the uncovered element with the fewest candidate sets; bits
    # are walked inline, which is cheaper than an iter_bits generator per
    # search node
    pick, fewest = 0, 0
    rest = universe
    while rest:
        low = rest & -rest
        cands = holders[low.bit_length() - 1] & allowed
        count = cands.bit_count()
        if count == 0:
            return False
        if not pick or count < fewest:
            pick, fewest = cands, count
            if count == 1:
                break
        rest ^= low
    while pick:
        low = pick & -pick
        if _covers(sets, holders, universe & ~sets[low.bit_length() - 1], k - 1, allowed, budget):
            return True
        pick ^= low
    return False


def cover_exists(ball_masks: Sequence[int], universe: int, k: int, allowed: int) -> bool:
    """Whether <= k balls with ids in the allowed mask cover the universe mask."""
    # balls are symmetric, so the balls are their own holder table
    return _covers(ball_masks, ball_masks, universe, k, allowed, _Budget(None))


def _lex_min_cover(
    masks: Sequence[int], holders: Sequence[int], rest: int, size: int, budget: _Budget
) -> Tuple[int, ...]:
    # smallest sorted index tuple of exactly `size` masks covering rest; a
    # cover of that size must exist, and none smaller does
    chosen: List[int] = []
    for idx, m in enumerate(masks):
        left = rest & ~m
        need = size - len(chosen) - 1
        # the last pick must finish the cover, a check that costs no node
        if need == 0 and left == 0:
            return (*chosen, idx)
        if need and _covers(masks, holders, left, need, -1 << (idx + 1), budget):
            chosen.append(idx)
            rest = left
    raise AssertionError("lex refinement lost a known-feasible cover")


def _min_cover(
    masks: Sequence[int], universe: int, k: int, budget_nodes: Optional[int]
) -> SolveResult:
    # lexicographically smallest minimum cover of universe by at most k of
    # the masks, named by their sorted indices
    if k < 0:
        raise ValueError("budget k must be nonnegative")
    budget = _Budget(budget_nodes)
    holders = [0] * universe.bit_length()
    for i, m in enumerate(masks):
        for e in iter_bits(m & universe):
            holders[e] |= 1 << i
    if not all(holders[e] for e in iter_bits(universe)):
        return SolveResult(INFEASIBLE)
    if universe == 0:
        return SolveResult(FOUND, (), 0)
    try:
        for s in range(1, k + 1):
            if _covers(masks, holders, universe, s, -1, budget):
                sol = _lex_min_cover(masks, holders, universe, s, budget)
                return SolveResult(FOUND, sol, s)
    except BudgetExceededError:
        return SolveResult(BUDGET_EXHAUSTED)
    return SolveResult(NONE_WITHIN_BUDGET)


# ---------------------------------------------------------------------------
# domination


def exact_ds(
    g: Graph, r: int, k: int, budget_nodes: Optional[int] = None
) -> SolveResult:
    """Lexicographically smallest minimum r-dominating set, capped at k."""
    return _min_cover(g.balls(r), (1 << g.n) - 1, k, budget_nodes)


def connected_vertex_sets(g: Graph, max_size: int) -> Iterator[int]:
    """All nonempty connected vertex sets of size <= max_size, as bitmasks.

    Enumeration is exhaustive and duplicate free: each set is grown from its
    least vertex through vertices above it only.  Order is deterministic but
    not size sorted.
    """
    masks = g.neighbor_masks()
    full = (1 << g.n) - 1

    def grow(cur: int, size: int, cand: int, banned: int, above: int) -> Iterator[int]:
        yield cur
        if size == max_size:
            return
        tried = 0
        for u in list(iter_bits(cand)):
            u_bit = 1 << u
            child_cand = (cand & ~u_bit & ~tried) | (
                masks[u] & above & ~cur & ~u_bit & ~banned & ~tried
            )
            yield from grow(cur | u_bit, size + 1, child_cand, banned | tried, above)
            tried |= u_bit

    if max_size < 1:
        return
    for v in range(g.n):
        above = full & -(2 << v)
        yield from grow(1 << v, 1, masks[v] & above, 0, above)


def _distance_bound(g: Graph, targets: int, r: int) -> int:
    # a double sweep: flood from the least target, then again from the least
    # target in its farthest layer that holds targets.  The second sweep's
    # farthest such layer D is the distance between two targets, so every
    # connected set r-dominating the targets has at least D - 2r + 1
    # vertices (see the module docstring)
    far = targets & -targets
    for layer in g.layers(far):
        if layer & targets:
            far = layer & targets
    reach = 0
    for d, layer in enumerate(g.layers(far & -far)):
        if layer & targets:
            reach = d
    return max(1, reach - 2 * r + 1)


def _peeled_cover(g: Graph, targets: int, r: int, home: int) -> int:
    # a connected set r-dominating the targets inside their connected home
    # component: two bottom-up passes over a BFS tree of the kept vertices
    # drop a vertex with no kept child, or the root with at most one, when
    # the balls of the kept vertices before it in BFS order and of the kept
    # ones after it still cover the targets.  The second tree is rooted at
    # the first's last kept vertex, so the first root's side peels too
    masks = g.neighbor_masks()
    balls = g.balls(r)
    kept = home
    root = (home & -home).bit_length() - 1
    up = [0] * g.n  # BFS parents
    for _ in range(2):
        order = [root]
        seen = 1 << root
        for v in order:
            fresh = masks[v] & kept & ~seen
            seen |= fresh
            while fresh:
                u_bit = fresh & -fresh
                fresh ^= u_bit
                u = u_bit.bit_length() - 1
                up[u] = v
                order.append(u)
        before = []
        got = 0
        for v in order:
            before.append(got)
            got |= balls[v]
        got = held = 0  # the balls of the kept vertices after v; their parents
        for i in range(len(order) - 1, 0, -1):
            v = order[i]
            if not held >> v & 1 and targets & balls[v] & ~(before[i] | got) == 0:
                kept ^= 1 << v
            else:
                got |= balls[v]
                held |= 1 << up[v]
        # the root's kept neighbours are its kept children
        if (masks[root] & kept).bit_count() <= 1 and targets & balls[root] & ~got == 0:
            kept ^= 1 << root
        root = next(v for v in reversed(order) if kept >> v & 1)
    return kept


def _connected_cover(
    g: Graph, targets: int, r: int, k: int, budget_nodes: Optional[int]
) -> SolveResult:
    # the refusals come first, so a cached answer never skips one.  An
    # answer without a node budget is kept on the graph; a call with a
    # budget searches afresh, since its answer depends on the budget
    if k < 0:
        raise ValueError("budget k must be nonnegative")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    budget = _Budget(budget_nodes)
    if budget_nodes is not None:
        return _search_cover(g, targets, r, k, budget)
    key = (targets, r, k)
    res = g._covers.get(key)
    if res is None:
        res = g._covers[key] = _search_cover(g, targets, r, k, budget)
    return res


def _search_cover(g: Graph, targets: int, r: int, k: int, budget: _Budget) -> SolveResult:
    # lexicographically smallest minimum connected set r-dominating the
    # targets mask, capped at k; it lies in the one component holding them.
    # Probes run from the top down to _distance_bound, which never
    # overstates the optimum, and a bound above k settles the call before
    # any search.  A probe stops at the first covering set it meets, of at
    # most its size; the roots then start at the hit's root, and the next
    # probe asks for one vertex fewer than the hit holds (see the module
    # docstring).  A probe with no hit ends the probes, and the lex-least
    # search runs once, at the size of the last hit, from its root.  A
    # probe at the bound is itself the lex-least search.  The top is
    # min(k, |home|); when that lies two or more above the bound, the
    # _peeled_cover size lowers it, so a first probe on a large home is
    # about as deep as the optimum, and an optimum far below k costs no
    # probe per size in between.  At most one above the bound, the peel
    # could save one probe and costs about as much.  Each search per root
    # grows connected sets through vertices above the root only, as
    # connected_vertex_sets does, and carries the union of their balls
    # down.  Balls are symmetric, so a last vertex w covers the missing
    # targets exactly when missing & ~balls[w] == 0, and the least such
    # candidate gives the branch's least hit; a parent draws its children's
    # last vertices itself.  A hit's least vertex is its root, so the first
    # root with a hit holds the answer.  The budget charges one node per set
    # a probe or the search visits; the sweeps and the peel visit none.
    # Candidate bits are walked inline, with no iter_bits generator per node.
    if targets == 0:
        return SolveResult(FOUND, (), 0)
    home = [c for c in g.component_masks() if c & targets]
    if len(home) != 1:
        return SolveResult(INFEASIBLE)
    lb = _distance_bound(g, targets, r)
    if lb > k:
        return SolveResult(NONE_WITHIN_BUDGET)
    masks = g.neighbor_masks()
    balls = g.balls(r)
    probing = False  # whether grow returns the first covering set it meets

    def draw(cand: int, missing: int) -> int:
        # the least candidate whose ball holds every missing target, or 0
        while cand:
            w_bit = cand & -cand
            if missing & ~balls[w_bit.bit_length() - 1] == 0:
                budget.spend()  # the drawn set
                return w_bit
            cand ^= w_bit
        return 0

    def grow(cur: int, left: int, cand: int, banned: int, got: int, above: int) -> int:
        # while probing, the first covering set met that adds at most `left`
        # vertices to cur; else the lex-least that adds exactly `left`; or 0
        budget.spend()
        missing = targets & ~got
        if left == 0 or probing and not missing:
            return 0 if missing else cur
        if left == 1:
            w_bit = draw(cand, missing)
            return cur | w_bit if w_bit else 0
        best = 0
        tried = 0
        rest = cand
        while rest:
            u_bit = rest & -rest
            rest ^= u_bit
            u = u_bit.bit_length() - 1
            # rest is cand less u and the candidates tried before it
            child_cand = rest | (masks[u] & above & ~cur & ~u_bit & ~banned & ~tried)
            if left == 2:
                budget.spend()  # the child set
                child_missing = missing & ~balls[u]
                if probing and not child_missing:
                    return cur | u_bit
                w_bit = draw(child_cand, child_missing)
                hit = cur | u_bit | w_bit if w_bit else 0
            else:
                hit = grow(
                    cur | u_bit, left - 1, child_cand, banned | tried, got | balls[u], above
                )
            if hit:
                if probing:
                    return hit
                # of two equal-size sets the lex-smaller holds their least
                # differing vertex; any hit beats best == 0
                d = hit ^ best
                if hit & d & -d:
                    best = hit
            tried |= u_bit
        return best

    def first_hit(s: int, roots: int) -> int:
        # grow's answer for s vertices from the least root in the mask that
        # has one, or 0
        while roots:
            v_bit = roots & -roots
            roots ^= v_bit
            v = v_bit.bit_length() - 1
            above = roots  # the home vertices above v
            hit = grow(v_bit, s - 1, masks[v] & above, 0, balls[v], above)
            if hit:
                return hit
        return 0

    roots = home[0]
    size = 0
    s = min(k, roots.bit_count())
    if s > lb + 1:
        s = min(s, _peeled_cover(g, targets, r, roots).bit_count())
    try:
        while s >= lb:
            probing = s > lb
            hit = first_hit(s, roots)
            if not hit:
                break
            if not probing:
                return SolveResult(FOUND, tuple(iter_bits(hit)), s)
            size = hit.bit_count()
            roots &= -(hit & -hit)  # a hit's least vertex is its root
            s = size - 1
        if not size:
            return SolveResult(NONE_WITHIN_BUDGET)
        probing = False
        hit = first_hit(size, roots)
    except BudgetExceededError:
        return SolveResult(BUDGET_EXHAUSTED)
    return SolveResult(FOUND, tuple(iter_bits(hit)), size)


def exact_cds(
    g: Graph, r: int, k: int, budget_nodes: Optional[int] = None
) -> SolveResult:
    """Minimum connected r-dominating set of the whole graph, capped at k."""
    return _connected_cover(g, (1 << g.n) - 1, r, k, budget_nodes)


def exact_acds(
    g: Graph,
    annotated: Iterable[int],
    r: int,
    k: int,
    budget_nodes: Optional[int] = None,
) -> SolveResult:
    """Minimum connected set r-dominating an annotated subset, capped at k."""
    targets = vertex_mask(g, annotated, "target vertex")
    return _connected_cover(g, targets, r, k, budget_nodes)


# ---------------------------------------------------------------------------
# raw subset-scan routes, kept maximally dumb on purpose


def _combo_covers(balls: Sequence[int], combo: Tuple[int, ...], universe: int) -> bool:
    got = 0
    for v in combo:
        got |= balls[v]
    return universe & ~got == 0


def brute_ds(g: Graph, r: int, k: int) -> SolveResult:
    universe = (1 << g.n) - 1
    if universe == 0:
        return SolveResult(FOUND, (), 0)
    balls = g.balls(r)
    for s in range(1, k + 1):
        for combo in itertools.combinations(range(g.n), s):
            if _combo_covers(balls, combo, universe):
                return SolveResult(FOUND, combo, s)
    if not _combo_covers(balls, tuple(range(g.n)), universe):
        return SolveResult(INFEASIBLE)
    return SolveResult(NONE_WITHIN_BUDGET)


def _mask_connected(g: Graph, m: int) -> bool:
    if m == 0:
        return False
    masks = g.neighbor_masks()
    start = m & -m
    comp = start
    frontier = start
    while frontier:
        grown = 0
        for u in iter_bits(frontier):
            grown |= masks[u] & m
        grown &= ~comp
        comp |= grown
        frontier = grown
    return comp == m


def brute_cds(g: Graph, r: int, k: int) -> SolveResult:
    if g.n == 0:
        return SolveResult(FOUND, (), 0)
    if not g.is_connected():
        return SolveResult(INFEASIBLE)
    balls = g.balls(r)
    full = (1 << g.n) - 1
    for s in range(1, k + 1):
        for combo in itertools.combinations(range(g.n), s):
            m = mask_of(combo)
            if _combo_covers(balls, combo, full) and _mask_connected(g, m):
                return SolveResult(FOUND, combo, s)
    return SolveResult(NONE_WITHIN_BUDGET)


def brute_steiner(
    g: Graph, groups: Sequence[Iterable[int]], cap: Optional[int] = None
) -> SolveResult:
    """Minimum vertex count of a connected subgraph meeting every group.

    The value counts vertices, so a single shared vertex scores 1.  Scans all
    vertex subsets in ascending size; intended only for cross-validation.
    """
    gs = [mask_of(grp) for grp in groups]
    if not gs or any(m == 0 for m in gs):
        raise ValueError("groups must be nonempty")
    limit = cap if cap is not None else g.n
    for s in range(1, limit + 1):
        for combo in itertools.combinations(range(g.n), s):
            m = mask_of(combo)
            if all(m & grp for grp in gs) and _mask_connected(g, m):
                return SolveResult(FOUND, combo, s)
    # either genuinely infeasible or only feasible above the cap
    feasible = any(all(c & grp for grp in gs) for c in g.component_masks())
    return SolveResult(NONE_WITHIN_BUDGET if feasible else INFEASIBLE)


def split_avoiding_distances(g: Graph, blockers: Iterable[int], source: int) -> Dict[int, int]:
    """Distances from `source` over paths whose interior avoids `blockers`.

    Independent route: rebuild the graph with every blocker split into one
    leaf copy per outside neighbor, then run a plain BFS.  Targets inside the
    blocker set get the minimum over their copies.  The source must lie
    outside the blocker set.
    """
    blocked = set(blockers)
    if source in blocked:
        raise ValueError("source must avoid the blocker set")
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    free = [v for v in range(g.n) if v not in blocked]
    index = {v: i for i, v in enumerate(free)}
    nxt = len(free)
    copy_owner: List[int] = []
    edges: List[Tuple[int, int]] = []
    for u, v in g.edges():
        if u in blocked and v in blocked:
            continue
        if u in blocked or v in blocked:
            a, w = (u, v) if u in blocked else (v, u)
            edges.append((index[w], nxt))
            copy_owner.append(a)
            nxt += 1
        else:
            edges.append((index[u], index[v]))
    h = Graph.from_edges(nxt, edges)
    row = h.dist_row(index[source])
    out: Dict[int, int] = {}
    for v in free:
        d = row[index[v]]
        if d >= 0:
            out[v] = d
    for i, owner in enumerate(copy_owner):
        d = row[len(free) + i]
        if d >= 0 and (owner not in out or d < out[owner]):
            out[owner] = d
    return out


# ---------------------------------------------------------------------------
# set cover instances


@dataclass(frozen=True)
class SetCoverInstance:
    universe_size: int
    sets: Tuple[Tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        if self.universe_size < 0 or self.k < 0:
            raise ValueError("universe size and k must be nonnegative")
        for i, s in enumerate(self.sets):
            for e in s:
                if not 0 <= e < self.universe_size:
                    raise ValueError(f"set {i} holds out-of-range element {e}")
            if len(set(s)) != len(s):
                raise ValueError(f"set {i} repeats an element")

    def set_masks(self) -> List[int]:
        return [mask_of(s) for s in self.sets]


def parse_setcover(text: str) -> SetCoverInstance:
    header, rows = None, []  # rows: the non-comment lines after the header
    for ln in map(str.strip, text.splitlines()):
        if ln.startswith("#"):
            continue
        if header is not None:
            rows.append(ln)  # a set may be empty, so blank lines count as sets
        elif ln:
            header = ln
    if header is None:
        raise ValueError("missing 'u <universe> <num_sets> <k>' header")
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "u":
        raise ValueError("header must read 'u <universe> <num_sets> <k>'")
    try:
        universe, num_sets, k = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError("non-integer field in header") from None
    # only surplus blank lines are padding; within the declared count they
    # denote empty sets
    while len(rows) > num_sets and not rows[-1]:
        rows.pop()
    if len(rows) != num_sets:
        raise ValueError(f"expected {num_sets} set lines, found {len(rows)}")
    sets = []
    for ln in rows:
        try:
            sets.append(tuple(sorted(int(t) for t in ln.split())))
        except ValueError:
            raise ValueError(f"non-integer element in set line {ln!r}") from None
    return SetCoverInstance(universe, tuple(sets), k)


def serialize_setcover(inst: SetCoverInstance) -> str:
    lines = [f"u {inst.universe_size} {len(inst.sets)} {inst.k}"]
    lines.extend(" ".join(str(e) for e in s) for s in inst.sets)
    return "\n".join(lines) + "\n"


def exact_setcover(
    inst: SetCoverInstance, budget_nodes: Optional[int] = None
) -> SolveResult:
    """Lexicographically smallest minimum cover by set indices, capped at k."""
    universe = (1 << inst.universe_size) - 1
    return _min_cover(inst.set_masks(), universe, inst.k, budget_nodes)
