"""The benchmark's host families on the test path, the whole-graph Steiner
DP twin, the plain lattice twin, the clique-level bundle search twin, the
per-bundle closure verifier twin, the translation gadget of the paper's size
argument and the session-wide kernelization sweep.

Tier-1 and the benchmark share one copy of the hosts: the generators, the
suite graphs and the suite instances live in `bench/workloads.py`, which
this file puts on `sys.path` for every test module.  It puts `tools/` there
too, so the closure tests draw the tamperings the kernel digest draws."""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path
from typing import List, Union

import pytest
from hypothesis import settings

from lkcds.closure import (
    ClosureReport,
    ClosureResult,
    avoiding_path_tree,
    build_closure,
)
from lkcds.cores import Rejection
from lkcds.graphs import (
    Graph,
    Tree,
    iter_bits,
    mask_of,
    r_subdivision,
    subgraph,
    tree_problem,
)
from lkcds.kernel import KernelInstance, KernelParams, kernelize
from lkcds.oracles import FOUND, INFEASIBLE, NONE_WITHIN_BUDGET
from lkcds.projections import classify, profile
from lkcds.steiner import SteinerLattice, steiner_size

ROOT = Path(__file__).resolve().parent.parent
for folder in ("bench", "tools"):
    if str(ROOT / folder) not in sys.path:
        sys.path.insert(0, str(ROOT / folder))

from workloads import (  # noqa: E402
    SUITE_SEED,
    build_suite,
    cycle_graph,
    grid_graph,
    path_graph,
    spider_graph,
    suite_hosts,
)

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

SUITE_GRAPHS = suite_hosts(SUITE_SEED)


def whole_graph_dp(g, groups, size_cap):
    """The subset DP with a heap and back pointers over every vertex of g:
    (status, vertices, edges).

    An independent twin of `steiner.SteinerLattice`, kept for cross-checks.
    A merge keeps the first strict improvement in descending submask order
    and growth the first heap pop, which are the trees the lattice's
    tie-breaks rebuild."""
    groups = [sorted(set(grp)) for grp in groups]
    gc = len(groups)
    full = (1 << gc) - 1
    cap_edges = None if size_cap is None else size_cap - 1
    unset = g.n
    dp = [[unset] * g.n for _ in range(full + 1)]
    back = {}
    for i, grp in enumerate(groups):
        for x in grp:
            dp[1 << i][x] = 0
            back[(1 << i, x)] = ("seed",)
    for mask in range(1, full + 1):
        row = dp[mask]
        if mask & (mask - 1):
            sub = (mask - 1) & mask
            while sub:
                a, b = dp[sub], dp[mask ^ sub]
                for v in range(g.n):
                    cand = a[v] + b[v]
                    if cand < row[v] and (cap_edges is None or cand <= cap_edges):
                        row[v] = cand
                        back[(mask, v)] = ("merge", sub)
                sub = (sub - 1) & mask
        heap = [(d, v) for v, d in enumerate(row) if d < unset]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > row[v] or (cap_edges is not None and d + 1 > cap_edges):
                continue
            for w in g.adj[v]:
                if d + 1 < row[w]:
                    row[w] = d + 1
                    back[(mask, w)] = ("grow", v)
                    heapq.heappush(heap, (d + 1, w))
    best = None
    for v in range(g.n):
        if dp[full][v] < unset and (best is None or dp[full][v] < dp[full][best]):
            best = v
    if best is None:
        gms = [mask_of(grp) for grp in groups]
        feasible = any(all(c & gm for gm in gms) for c in g.component_masks())
        return (NONE_WITHIN_BUDGET if feasible else INFEASIBLE), None, None
    vertices, edges = set(), set()
    todo = [(full, best)]
    while todo:
        mask, v = todo.pop()
        vertices.add(v)
        op = back[(mask, v)]
        if op[0] == "grow":
            edges.add((min(op[1], v), max(op[1], v)))
            todo.append((mask, op[1]))
        elif op[0] == "merge":
            todo += [(op[1], v), (mask ^ op[1], v)]
    return FOUND, tuple(sorted(vertices)), tuple(sorted(edges))


class PlainLattice(SteinerLattice):
    """The lattice's DP with every level from 1 and every split term at
    each level computed, and every level scanned from 0 by a walk that
    keeps no walks.

    A test-only twin kept for cross-checks: `SteinerLattice` skips the
    levels below a bundle's group count less one and the terms that read
    them, which are empty, and reads the walks it keeps instead of walking
    again, so its rows and walks must be these."""

    def row(self, bundle, keep):
        sides = []
        if bundle & (bundle - 1):
            rest = bundle & ~(1 << (bundle.bit_length() - 1))
            part = rest
            while part:
                a, b = self.rows.get(bundle ^ part), self.rows.get(part)
                if a is None or b is None:
                    return ()
                sides.append((a, b))
                part = (part - 1) & rest
            cur = reach = 0
            for a, b in sides:
                reach |= a[-1] & b[-1]
        else:
            cur = reach = self.groups[bundle.bit_length() - 1]
        levels = [cur]
        prev = 0
        for d in range(1, self.top + 1):
            if cur and not keep:
                break
            grown = cur | self.g.neighborhood(cur & ~prev)
            if reach & ~grown:
                # a short row repeats its last level
                for a, b in sides:
                    for i in range(d + 1):
                        grown |= a[min(i, len(a) - 1)] & b[min(d - i, len(b) - 1)]
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

    def walk(self, bundle, row):
        # unchecked: the vertex mask and edges alone
        value = next(d for d, level in enumerate(row) if level)
        start = (row[value] & -row[value]).bit_length() - 1
        return self._walk(bundle, row, start, value)

    def _walk(self, bundle, row, v, d):
        # steps to the least neighbour one level down until level 0 or the
        # split `_dfs_split` finds, whose two sides are walked in turn; no
        # walk is kept, so each is walked afresh
        span, edges = 0, []
        while True:
            span |= 1 << v
            halves = _dfs_split(self.rows, bundle, v, d) if bundle & (bundle - 1) else []
            if halves:
                for side, side_row, _, level in halves:
                    side_span, side_edges = self._walk(side, side_row, v, level)
                    span |= side_span
                    edges += side_edges
                break
            if not d:
                break
            near = self.nbr[v] & row[d - 1]
            w = (near & -near).bit_length() - 1
            edges.append((min(v, w), max(v, w)))
            v, d = w, d - 1
        return span, tuple(edges)


def clique_level_search(g, groups, cap):
    """Kept trees by bundle key, each as (vertices, edges), from the bundle
    search `build_closure` ran before it grew only kept bundles.

    A test-only copy kept for cross-checks: it builds a row for every
    bundle of at most cap pairwise compatible groups, level by level, keeps
    the bundles whose row is nonempty and rebuilds each tree by an explicit
    depth-first walk over the lattice's rows, with no shared walks."""
    lattice = SteinerLattice(g, [mask_of(grp) for grp in groups], cap)
    group_of = {v: i for i, grp in enumerate(groups) for v in grp}
    kept, compat = {}, []
    for i in range(len(groups)):
        row = lattice.row(1 << i, keep=cap > 1)
        kept[(i,)] = _dfs_tree(lattice, 1 << i, row)
        near = 0
        for v in iter_bits(row[-1]):
            if v in group_of:
                near |= 1 << group_of[v]
        compat.append(near & ~(1 << i))
    level = [((i,), 1 << i, c & -(2 << i)) for i, c in enumerate(compat)]
    for size in range(2, min(cap, len(groups)) + 1):
        level = [
            (key + (j,), bundle | 1 << j, cand & compat[j] & -(2 << j))
            for key, bundle, cand in level
            for j in iter_bits(cand)
        ]
        for key, bundle, _ in level:
            row = lattice.row(bundle, keep=size < cap)
            if row:
                kept[key] = _dfs_tree(lattice, bundle, row)
    return kept


def _dfs_tree(lattice, bundle, row):
    # the tie-breaks of `SteinerLattice.tree`, one explicit stack per tree
    value = next(d for d, level in enumerate(row) if level)
    start = (row[value] & -row[value]).bit_length() - 1
    vertices, edges = set(), set()
    todo = [(bundle, row, start, value)]
    while todo:
        b, lv, v, d = todo.pop()
        vertices.add(v)
        if b & (b - 1):
            halves = _dfs_split(lattice.rows, b, v, d)
            if halves:
                todo.extend(halves)
                continue
        if d:
            near = lattice.nbr[v] & lv[d - 1]
            w = (near & -near).bit_length() - 1
            edges.add((min(v, w), max(v, w)))
            todo.append((b, lv, w, d - 1))
    return tuple(sorted(vertices)), tuple(sorted(edges))


def _dfs_split(rows, bundle, v, d):
    # the first split, by descending side holding the top group, whose two
    # levels at v sum to d; [] when v got its level by growth
    rest = bundle & ~(1 << (bundle.bit_length() - 1))
    part = rest & -rest
    while part:
        a, b = rows[bundle ^ part], rows[part]
        for i in range(min(d, len(a) - 1) + 1):
            if (a[i] >> v) & 1:
                if (b[min(d - i, len(b) - 1)] >> v) & 1:
                    return [(bundle ^ part, a, v, i), (part, b, v, d - i)]
                break
        part = (part - rest) & rest
    return []


def verify_closure_per_bundle(g: Graph, closure: ClosureResult) -> ClosureReport:
    """The report `verify_closure` gave when item 2 copied the blocker set
    for every terminal and item 3 ran one uncapped Steiner search per kept
    all-class bundle.

    A test-only copy kept for cross-checks: the reports must agree field
    for field, on tampered closures too."""
    item1, item2, item3 = [], [], []
    xs = closure.blockers_old
    old2new = {old: new for new, old in enumerate(closure.vertex_map)}
    for x in xs:
        if x not in old2new:
            item1.append(f"blocker {x} missing from the closure")
    if tuple(old2new.get(x, -1) for x in xs) != closure.blockers_new:
        item1.append("blocker relabeling is inconsistent")
    if not item1:
        cls_host = classify(g, xs, closure.r)
        for u in closure.terminals:
            if u not in old2new:
                item2.append(f"terminal {u} is not a closure vertex")
                continue
            if u not in cls_host.class_of:
                item2.append(f"terminal {u} is a blocker, not a free vertex")
                continue
            want = cls_host.classes[cls_host.class_of[u]].profile
            blockers_new = set(closure.blockers_new)  # a copy per terminal
            got = profile(closure.graph, old2new[u], blockers_new, closure.r)
            got = tuple(sorted((closure.vertex_map[x], d) for x, d in got))
            if want != got:
                item2.append(f"profile of vertex {u} changed: {want} -> {got}")
        missing = set(cls_host.representatives).difference(closure.terminals)
        if missing:
            item2.append(f"class representatives {sorted(missing)} were not protected")

    def in_closure(u, v):
        return u in old2new and v in old2new and old2new[v] in closure.graph.adj[old2new[u]]

    all_class = []
    for key, tree in closure.kept.items():
        if len(tree.vertices) > closure.cap:
            item3.append(f"kept tree {key} exceeds the size cap")
        problem = tree_problem(g, tree.vertices, tree.edges)
        if problem is not None:
            item3.append(f"kept tree {key} {problem}")
        lost = [e for e in tree.edges if not in_closure(*e)]
        if lost:
            item3.append(f"kept tree {key} edge {lost[0]} is not a closure edge")
        vs = set(tree.vertices)
        for i in key:
            if vs.isdisjoint(closure.groups[i]):
                item3.append(f"kept tree {key} misses group {i}")
        if max(key) < closure.class_count:
            all_class.append((key, tree))
    if not (item1 or item2 or item3):
        for key, tree in all_class:
            prime_groups = []
            for i in key:
                members = [old2new[v] for v in closure.groups[i] if v in old2new]
                if not members:
                    item3.append(f"group {i} vanished from the closure")
                    break
                prime_groups.append(members)
            else:
                prime_value = steiner_size(closure.graph, prime_groups)
                if prime_value != len(tree.vertices):
                    item3.append(
                        f"bundle {key}: host tree has {len(tree.vertices)} "
                        f"vertices but the closure needs {prime_value}"
                    )
    return ClosureReport((tuple(item1), tuple(item2), tuple(item3)))


# (host, blockers, r): the hosts criterion 5 translates
TRANSLATION_HOSTS = [
    (cycle_graph(8), [0, 4], 1),
    (cycle_graph(12), [0, 6], 1),
    (grid_graph(3, 4), [0, 11], 1),
    (path_graph(12), [0, 5, 11], 1),
    (spider_graph(3, 3), [0], 2),
    (grid_graph(4, 4), [0, 15], 2),
]


def translation(g, cls, subset):
    """The analysis graph of the paper's size argument for the classes in
    subset: (graph, roots, added access cost).

    A class whose nearest projection distance is ell gets as root the least
    blocker at that distance.  Its access tree, the members' least avoiding
    paths to the root, is cut out of g, every edge becomes a path of 2r+1
    edges, and the tree is glued back onto g at the members, so the root
    hangs (2r+1)*ell away from each of them and an exact tree through the
    roots decomposes into a host tree plus the access costs.  Every vertex
    but a member gets the next fresh id, tree by tree in sorted order.  A
    class with an empty projection has no root and is refused."""
    fresh = count(g.n)
    edges = list(g.edges())
    roots, cost = [], 0
    for idx in subset:
        pc = cls.classes[idx]
        if not pc.profile:
            raise ValueError(f"class {idx} has an empty projection")
        ell, root = min((d, x) for x, d in pc.profile)
        ends = [(m, root, ell) for m in pc.members]
        tree, parents = subgraph(g, *avoiding_path_tree(g, cls, ends))
        access, _ = r_subdivision(tree, 2 * cls.r + 1)
        ids = [v if v in pc.members else next(fresh) for v in parents]
        ids += [next(fresh) for _ in range(tree.n, access.n)]
        roots.append(ids[parents.index(root)])
        cost += (2 * cls.r + 1) * ell
        edges += [(ids[a], ids[b]) for a, b in access.edges()]
    return Graph.from_edges(next(fresh), edges), tuple(roots), cost


def shift_identity(g, cls, subset):
    """(host value, root value, added cost): the exact Steiner value of the
    classes in g and of their roots in the translation, which should be the
    host value plus the cost.

    The identity speaks about trees that connect several classes; a lone
    root is its own optimal tree and never enters its access path, so
    subsets of fewer than two classes are refused."""
    if len(subset) < 2:
        raise ValueError("the shift identity needs at least two classes")
    graph, roots, cost = translation(g, cls, subset)
    host = steiner_size(g, [cls.classes[i].members for i in subset])
    return host, steiner_size(graph, [[v] for v in roots]), cost


def tampered_path5_closure() -> ClosureResult:
    """Closure of path-5 around vertex 2 whose kept tree on (0, 1, 2) lists
    the edge (0, 1) twice: right edge count, host edges only, disconnected."""
    clo = build_closure(path_graph(5), [2], 1, 2)
    assert clo.kept[(0, 1, 2)].vertices == (0, 1, 2)
    kept = dict(clo.kept)
    kept[(0, 1, 2)] = Tree((0, 1, 2), ((0, 1), (0, 1)))
    return replace(clo, kept=kept)


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    graph: Graph
    params: KernelParams
    outcome: Union[KernelInstance, Rejection]

    @property
    def instance(self) -> KernelInstance:
        assert isinstance(self.outcome, KernelInstance)
        return self.outcome


@pytest.fixture(scope="session")
def pipeline_suite() -> List[SuiteRecord]:
    return [
        SuiteRecord(item.name, item.graph, item.params,
                    kernelize(item.graph, item.params, core_mode=item.core_mode))
        for item in build_suite(SUITE_SEED)
    ]
