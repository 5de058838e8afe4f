"""The benchmark's host families on the test path, the whole-graph Steiner
DP twin, the clique-level bundle search twin, the per-bundle closure
verifier twin and the session-wide kernelization sweep.

Tier-1 and the benchmark share one copy of the hosts: the generators, the
suite graphs and the suite instances live in `bench/workloads.py`, which
this file puts on `sys.path` for every test module.  It puts `tools/` there
too, so the closure tests draw the tamperings the kernel digest draws."""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Union

import pytest
from hypothesis import settings

from lkcds.closure import ClosureReport, ClosureResult, build_closure
from lkcds.cores import Rejection
from lkcds.graphs import Graph, Tree, iter_bits, mask_of, tree_problem
from lkcds.kernel import KernelInstance, KernelParams, kernelize
from lkcds.oracles import FOUND, INFEASIBLE, NONE_WITHIN_BUDGET
from lkcds.projections import classify, profile
from lkcds.steiner import SteinerLattice, steiner_size

ROOT = Path(__file__).resolve().parent.parent
for folder in ("bench", "tools"):
    if str(ROOT / folder) not in sys.path:
        sys.path.insert(0, str(ROOT / folder))

from workloads import SUITE_SEED, build_suite, path_graph, suite_hosts  # noqa: E402

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
    all_class = []
    for key, tree in closure.kept.items():
        if len(tree.vertices) > closure.cap:
            item3.append(f"kept tree {key} exceeds the size cap")
        problem = tree_problem(g, tree.vertices, tree.edges)
        if problem is not None:
            item3.append(f"kept tree {key} {problem}")
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
