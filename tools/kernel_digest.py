"""Digest every kernel the benchmark workloads produce, to compare two checkouts.

    python3 tools/kernel_digest.py <checkout> [seeds...]
    python3 tools/kernel_digest.py --check

`reports/kernel_digest.txt` holds this repository's digest at seeds 1 2 3,
as `python3 tools/kernel_digest.py . > reports/kernel_digest.txt` writes
it.  `--check` reruns the digest on this repository at those seeds, names
each line that moved with its expected and current text, and exits 1 if
any did, 0 otherwise.  A change that moves a line rewrites the file, so
the move shows in its diff.  It takes about half a minute.

Imports `<checkout>/src`, `<checkout>/bench/workloads.py` and
`<checkout>/bench/run.py` (none is edited) and kernelizes every instance
of every workload at each seed (default 1 2 3).  For each workload it
prints four lines, each with the instance count and a sha256:

- `kernel`: per instance, the `find_core` result in the workload's core
  mode (the core vertices or the rejection reason), `serialize_kernel` or
  the rejection reason, and, on the workloads whose verdict certifies, the
  results of the exact oracles the verdict reads: `exact_cds` on every
  host of at most `EXACT_N_LIMIT` vertices (the size up to which
  `bench/run.py` re-solves rejections) and `exact_acds` on every accepted
  kernel;
- `closure-trees`: per accepted closure kernel, the closure stats but
  the search counts, the kept trees and the `verify_closure` result;
- `closure-counts`: per accepted closure kernel, the search counts alone,
  the stats named in `SEARCH_STATS` that the closure reports;
- `lift`: per accepted kernel, the `lift` result on the kernel solution
  the bench's lift verdict builds (greedy, stitched by `connect`), and, on
  the workloads whose verdict certifies, the `certify_ratio` values
  (lifted and optimal host values, kernel values, both sides and the
  verdict) on the kernel solution that verdict submits.

A `cover` line hashes the set-cover oracles alone: `exact_ds`,
`exact_setcover` and `cover_exists` on seeded random graphs and set
systems, with no budget and with node budgets small enough to run out.
A `cds` line hashes the connected-cover oracles alone: the status,
solution and value of `exact_cds` and `exact_acds` (on a random target
subset) on seeded random forests with chords of 1 to 14 vertices, some
disconnected, with r from 1 to 3 and k from 0 to n, with no budget and
with node budgets small enough to run out; it reads only names that
older checkouts have.
A `steiner` line hashes, on seeded random group systems of up to 8
groups, some on disconnected hosts, the uncapped `steiner_size` and, for
every cap from 1 to 5, the tree (or None) that a `SteinerLattice` of that
cap rebuilds for the whole bundle after keeping the row of every proper
sub-bundle, as `build_closure` keeps them.  A `graphs` line
hashes the graph primitives the other lines reach only in part, on
seeded random graphs of 0 to 16 vertices, often disconnected: the
`dist_row` of every vertex, `balls` at radius 0 to 3, `component_masks`,
the `heuristic_order` of each kind with its `wreach` sets at radius 0 to
3, `connect` on random seed sets, the rows and parents of
`induced_subgraph` on a random vertex subset, and the rows of `Graph`
built from the graph's rows shuffled, with repeated neighbours; it reads
only names that older checkouts have.  A `bundle-trees` line hashes the
stats but the search counts and the kept trees of `build_closure` on
seeded random hosts of at most 12 vertices, often disconnected, with 0 to
4 blockers, r = 1 and 2 and t = 5/2, 3 or 4, so that bundles of 5 to 8
groups, which no workload reaches, are searched; a `bundle-counts` line
hashes the search counts of the same closures.  A `profiles` line hashes
the classes (profile and members) and the class map of `classify` on
seeded random hosts of 1 to 40 vertices, often disconnected, with
blocker sets from empty to every vertex and r from 0 to 3.  It reads
only `classify`, `classes` and `class_of`, which checkouts from before
the line was added have too.  A `closures` line hashes the edges, the vertex map and
`blockers_new` of `build_closure` on seeded random hosts of 1 to 40
vertices, often disconnected, with 5% to 90% of the vertices blocked,
r from 1 to 3 and t = 1 or 3/2, so that it reads the retained paths at
radii and blocker densities the workloads barely reach; it too reads
only names that older checkouts have.  A `verify` line hashes the
`verify_closure` problems on closures of seeded random hosts of 1 to 20
vertices, often disconnected, with up to half of the vertices blocked,
r = 1 and 2 and t from 1 to 5/2, each tampered by `tamper_closure`, so
that it pins the verifier's failure messages, which no workload reaches;
it reads only names that older checkouts have.  A `pipeline` line hashes each
serialized kernel or rejection reason of `kernelize` on seeded random
forests with chords of 1 to 12 vertices, about half of them
disconnected, in both core modes, at k from 0 to 3, r = 1 and 2 and
alpha = 4r+3 and 2(4r+3), so that it reaches the rejection of a
disconnected host, which no workload does; it reads only `kernelize`,
`KernelParams`, `serialize_kernel` and `Rejection`.  A `connect` line
hashes `connect` on ladder-scale hosts, sparse random graphs of 100 to
300 vertices relabelled as the `ladder` workload builds them: the
heuristic core at r = 1 and 2 stitched with stretch 2r, and the greedy
r-dominating set at r = 1 and 2 stitched with stretch n.  A `demos`
line, printed once whatever the seeds, hashes the name, exit code and
stdout of every `<checkout>/demos/*.py`, each run in a child
interpreter with `<checkout>/src` on `PYTHONPATH`.

Two checkouts that print the same `kernel` lines produce identical cores,
byte-identical kernels and identical oracle answers on those instances;
the `closure-trees` lines add the closures and the verifier verdicts,
which a change to the kept trees or to the stats may move while every
kernel stays the same, and the `lift` lines the lifted solutions and the
certificates.  A change to how the bundle search visits bundles that
keeps the same trees, such as which candidates it builds rows for, moves
only the `closure-counts` and `bundle-counts` lines, and the `demos` line,
as `closure_anatomy.py` prints every closure stat.  The `cover` line
moves when a change to the set-cover search changes an answer or where a
budget runs out, the `cds` line when a change to the connected-cover
search changes an answer or where a budget runs out, and the `steiner`
line when a change to the Steiner search changes a status or a tree.
The `graphs` line moves when a distance, ball, component, order, weak
reachability set, stitching result or subgraph changes, the `bundle-trees`
line when a kept tree or a closure stat at a cap of 5 to 8 changes, the
`profiles` line when a profile class or a vertex's class changes, the
`closures` line when a closure graph, its vertex map or its blocker ids
change, the `verify` line when a verifier problem or its wording changes,
the `pipeline` line when a kernel or a rejection reason on a
small host changes, and the `connect` line when a stitching result on
hosts of ladder size changes.
The `demos` line moves when a demo is added, removed or prints anything
different.

Every tree, a kept tree of a closure or the tree of a capped lattice, is
hashed as its `(vertices, edges)` tuple rather than as the `repr` of its
record, so renaming the record class moves no line.
Standard library only.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, List, Optional, Tuple


REPO = Path(__file__).resolve().parents[1]
EXPECTED = REPO / "reports" / "kernel_digest.txt"  # the digest of REPO at CHECK_SEEDS
CHECK_SEEDS = [1, 2, 3]


def load_bench_module(checkout: Path, name: str):
    path = checkout / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    module = load_bench_module(checkout, "workloads")
    import lkcds

    if Path(lkcds.__file__).resolve().parents[1] != checkout / "src":
        raise SystemExit(f"imported {lkcds.__file__}, not the checkout's lkcds")
    return module


CERT_FIELDS = (  # the certificate values, not its alpha
    "host_value", "host_opt", "kernel_value", "kernel_opt", "lhs", "rhs", "ok"
)


def lift_lines(item, inst, certify: bool, bench_run) -> List[str]:
    """Lifted greedy kernel solutions and, when certifying, the certificate."""
    from lkcds.domination import ContractViolation, connect, greedy_rdom
    from lkcds.kernel import certify_ratio, lift

    kg, r = inst.graph, item.params.r
    try:
        seeds = greedy_rdom(kg, r, targets=inst.annotated)
        lines = [repr(lift(item.graph, inst, connect(kg, seeds, kg.n).connected))]
    except (ContractViolation, ValueError) as exc:
        lines = [f"{type(exc).__name__}: {exc}"]
    if certify:
        cert = certify_ratio(item.graph, inst, bench_run.kernel_solution(inst))
        lines.append(repr([getattr(cert, f) for f in CERT_FIELDS]))
    return lines


def instance_lines(item, certify: bool, bench_run) -> Tuple[List[str], ...]:
    """The kernel, closure tree, closure count and lift lines of one instance."""
    from lkcds.closure import verify_closure
    from lkcds.cores import Rejection, find_core
    from lkcds.kernel import kernelize, serialize_kernel
    from lkcds.oracles import exact_acds, exact_cds

    out = kernelize(item.graph, item.params, core_mode=item.core_mode)
    r, k = item.params.r, item.params.k
    kernel = [f"{item.name} {item.params}"]
    core = find_core(item.graph, k, r, item.core_mode)
    if isinstance(core, Rejection):
        kernel.append(f"core rejected: {core.reason}")
    else:
        kernel.append(f"core: {core.vertices}")
    if certify and item.graph.n <= bench_run.EXACT_N_LIMIT:
        kernel.append(repr(exact_cds(item.graph, r, k)))
    if isinstance(out, Rejection):
        return kernel + [f"rejected: {out.reason}"], [], [], []
    kernel.append(serialize_kernel(out))
    if certify:
        kernel.append(repr(exact_acds(out.graph, out.annotated, r, k)))
    lifts = [f"{item.name} {item.params}", *lift_lines(item, out, certify, bench_run)]
    if out.closure is None:
        return kernel, [], [], lifts
    report = verify_closure(item.graph, out.closure)
    stats, counts = split_stats(out.closure.stats)
    name = f"{item.name} {item.params}"
    trees = [name, stats, kept_repr(out.closure.kept), repr((report.ok, report.problems))]
    return kernel, trees, [name, counts], lifts


def tree_tuple(tree) -> Optional[Tuple]:
    """A tree record as its (vertices, edges) tuple, None for no tree."""
    return None if tree is None else (tree.vertices, tree.edges)


# the stats that count the bundle search's work rather than describe its
# result; a checkout reports those of them it has
SEARCH_STATS = ("candidate_subsets", "dropped_subsets")


def split_stats(stats) -> Tuple[str, str]:
    """The closure stats but the search counts, and the search counts, each sorted."""
    items = sorted(stats.items())
    return (
        repr([item for item in items if item[0] not in SEARCH_STATS]),
        repr([item for item in items if item[0] in SEARCH_STATS]),
    )


def kept_repr(kept) -> str:
    """The kept trees of a closure by bundle key, each as (vertices, edges)."""
    return repr([(key, tree_tuple(tree)) for key, tree in sorted(kept.items())])


def feed(digest, lines: List[str]) -> None:
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")


COVER_QUERIES = 300  # random graphs and set systems per seed
COVER_BUDGETS = (None, 5, 30, 200)


def cover_lines(seed: int) -> List[str]:
    """Set-cover oracle answers on seeded random inputs, with and without budgets."""
    from lkcds.graphs import Graph
    from lkcds.oracles import SetCoverInstance, cover_exists, exact_ds, exact_setcover

    rng = random.Random(seed)
    lines = []
    for _ in range(COVER_QUERIES):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.choice((0.15, 0.3, 0.5))
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        r, k = rng.randint(1, 3), rng.randint(0, n)
        size = rng.randint(0, 10)
        sets = tuple(
            tuple(sorted(rng.sample(range(size), rng.randint(0, size))))
            for _ in range(rng.randint(0, 10))
        )
        inst = SetCoverInstance(size, sets, rng.randint(0, 5))
        for budget in COVER_BUDGETS:
            lines.append(repr(exact_ds(g, r, k, budget)))
            lines.append(repr(exact_setcover(inst, budget)))
        full = (1 << n) - 1
        universe, allowed = rng.randint(0, full), rng.randint(0, full)
        k = rng.randint(0, 4)
        lines.append(repr(cover_exists(g.balls(r), universe, k, allowed)))
    return lines


CDS_QUERIES = 1000  # random graphs per seed
CDS_BUDGETS = (None, 5, 20, 100)  # and one drawn from 0 to 200 per query


def cds_lines(seed: int) -> List[str]:
    """Connected-cover oracle answers on seeded random graphs, with and without budgets."""
    from lkcds.graphs import Graph
    from lkcds.oracles import exact_acds, exact_cds

    rng = random.Random(seed)
    lines = []
    for _ in range(CDS_QUERIES):
        # a random forest plus a few chords; about one vertex in sixteen
        # starts a new tree, so some graphs are disconnected
        n = rng.randint(1, 14)
        edges = {(rng.randrange(v), v) for v in range(1, n) if rng.randrange(16)}
        for _ in range(rng.randint(0, n // 2)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph.from_edges(n, sorted(edges))
        r, k = rng.randint(1, 3), rng.randint(0, n)
        annotated = rng.sample(range(n), rng.randint(0, n))
        for budget in (*CDS_BUDGETS, rng.randint(0, 200)):
            for res in (exact_cds(g, r, k, budget), exact_acds(g, annotated, r, k, budget)):
                lines.append(repr((res.status, res.solution, res.value)))
    return lines


STEINER_QUERIES = 200  # random group systems per seed
STEINER_CAPS = (1, 2, 3, 4, 5)


def capped_tree(g, groups, cap: int):
    """The tree a lattice capped at `cap` rebuilds for the whole bundle
    after keeping the row of every proper sub-bundle, or None."""
    from lkcds.graphs import mask_of
    from lkcds.steiner import SteinerLattice

    lattice = SteinerLattice(g, [mask_of(grp) for grp in groups], cap)
    full = (1 << len(groups)) - 1
    for bundle in range(1, full):
        lattice.row(bundle, keep=True)
    row = lattice.row(full, keep=False)
    return lattice.tree(full, row) if row else None


def steiner_lines(seed: int) -> List[str]:
    """Uncapped Steiner values and capped lattice trees on seeded random group systems."""
    from lkcds.graphs import Graph
    from lkcds.steiner import steiner_size

    rng = random.Random(seed)
    lines = []
    for _ in range(STEINER_QUERIES):
        n = rng.randint(1, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # the sparsest hosts are often disconnected
        density = rng.choice((0.1, 0.2, 0.35))
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        order = rng.sample(range(n), n)
        gc = rng.randint(1, min(8, n))
        groups = [[v] for v in order[:gc]]
        for v in order[gc:]:
            slot = rng.randint(-1, gc - 1)  # -1: in no group
            if slot >= 0:
                groups[slot].append(v)
        lines.append(repr(steiner_size(g, groups)))
        for cap in STEINER_CAPS:
            lines.append(repr(tree_tuple(capped_tree(g, groups, cap))))
    return lines


GRAPH_QUERIES = 150  # random graphs per seed
ORDER_KINDS = ("degeneracy", "bfs", "random")


def graph_lines(seed: int) -> List[str]:
    """Distances, balls, components, orders and stitching on seeded random graphs."""
    from lkcds.domination import ContractViolation, connect
    from lkcds.graphs import Graph
    from lkcds.orders import heuristic_order

    rng = random.Random(seed)
    lines = []
    for query in range(GRAPH_QUERIES):
        n = rng.randint(0, 16) if query else 0
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.choice((0.1, 0.2, 0.35))
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        lines.append(repr([g.dist_row(v) for v in range(n)]))
        lines.append(repr([g.balls(r) for r in range(4)]))
        lines.append(repr(g.component_masks()))
        for kind in ORDER_KINDS:
            og = heuristic_order(g, kind, seed=rng.randint(0, 10_000))
            lines.append(repr(og.seq))
            lines.append(repr([og.wreach(s) for s in range(4)]))
        if n:
            seeds = rng.sample(range(n), rng.randint(1, n))
            try:
                lines.append(repr(connect(g, seeds, rng.choice((1, 2, n)))))
            except ContractViolation as exc:
                lines.append(f"ContractViolation: {exc}")
        lines.extend(subgraph_lines(g, rng))
    return lines


def subgraph_lines(g, rng: random.Random) -> List[str]:
    """The subgraph of g induced on a random vertex subset, and g rebuilt from
    shuffled rows."""
    from lkcds.graphs import Graph, induced_subgraph

    inside = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    sub, parents = induced_subgraph(g, inside)
    lines = [repr((sub.adj, parents))]
    rows = [list(row) + rng.sample(row, len(row) // 2) for row in g.adj]
    for row in rows:
        rng.shuffle(row)
    lines.append(repr(Graph(rows).adj))
    return lines


BUNDLE_HOSTS = 100  # random closure hosts per seed
BUNDLE_TS = (Fraction(5, 2), 3, 4)


@functools.lru_cache(maxsize=None)
def bundle_lines(seed: int) -> Tuple[List[str], List[str]]:
    """`build_closure` stats and kept trees, and apart from them the search
    counts, at caps 5 to 8 on seeded random hosts."""
    from lkcds.closure import build_closure
    from lkcds.graphs import Graph

    rng = random.Random(seed)
    lines, counts = [], []
    for _ in range(BUNDLE_HOSTS):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.uniform(0.1, 0.4)
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        blockers = rng.sample(range(n), rng.randint(0, min(4, n)))
        r, t = rng.randint(1, 2), rng.choice(BUNDLE_TS)
        clo = build_closure(g, blockers, r, t)
        stats, searched = split_stats(clo.stats)
        lines += [stats, kept_repr(clo.kept)]
        counts.append(searched)
    return lines, counts


def tamper_closure(g, clo, rng: random.Random):
    """The closure with each of three tamperings applied with probability 1/2:
    one closure edge that is not between two blockers dropped, one kept
    all-class tree replaced by the host tree with one more vertex, a leaf,
    and one terminal dropped.  The closure tests draw the same tamperings."""
    from dataclasses import replace

    from lkcds.graphs import Graph, Tree

    blockers = set(clo.blockers_new)
    edges = list(clo.graph.edges())
    free_edges = [e for e in edges if not blockers.issuperset(e)]
    if free_edges and rng.random() < 0.5:
        drop = rng.choice(free_edges)
        kept_edges = [e for e in edges if e != drop]
        clo = replace(clo, graph=Graph.from_edges(clo.graph.n, kept_edges))
    all_class = [key for key in clo.kept if max(key) < clo.class_count]
    if all_class and rng.random() < 0.5:
        key = rng.choice(all_class)
        tree = clo.kept[key]
        leaves = [
            (v, w) for v in tree.vertices for w in g.adj[v] if w not in tree.vertices
        ]
        if leaves:
            v, w = rng.choice(leaves)
            bigger = Tree(
                tuple(sorted(tree.vertices + (w,))),
                tuple(sorted(tree.edges + ((min(v, w), max(v, w)),))),
            )
            clo = replace(clo, kept={**clo.kept, key: bigger})
    if clo.terminals and rng.random() < 0.5:
        drop = rng.choice(clo.terminals)
        clo = replace(clo, terminals=tuple(u for u in clo.terminals if u != drop))
    return clo


VERIFY_HOSTS = 200  # random tampered closures per seed
VERIFY_TS = (1, Fraction(3, 2), 2, Fraction(5, 2))


def verify_lines(seed: int) -> List[str]:
    """`verify_closure` problems on tampered closures of seeded random hosts."""
    from lkcds.closure import build_closure, verify_closure
    from lkcds.graphs import Graph

    rng = random.Random(seed)
    lines = []
    for _ in range(VERIFY_HOSTS):
        n = rng.randint(1, 20)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.choice((0.1, 0.2, 0.35))
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        blockers = rng.sample(range(n), rng.randint(0, n // 2))
        r, t = rng.randint(1, 2), rng.choice(VERIFY_TS)
        clo = tamper_closure(g, build_closure(g, blockers, r, t), rng)
        lines.append(repr(verify_closure(g, clo).problems))
    return lines


PROFILE_HOSTS = 200  # random classification hosts per seed


def profile_lines(seed: int) -> List[str]:
    """`classify` classes and class map on seeded random hosts and blocker sets."""
    from lkcds.graphs import Graph
    from lkcds.projections import classify

    rng = random.Random(seed)
    lines = []
    for _ in range(PROFILE_HOSTS):
        n = rng.randint(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.choice((0.03, 0.08, 0.15, 0.3))
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        blockers = rng.sample(range(n), rng.randint(0, n))
        cls = classify(g, blockers, rng.randint(0, 3))
        lines.append(repr([(c.profile, c.members) for c in cls.classes]))
        lines.append(repr(sorted(cls.class_of.items())))
    return lines


CLOSURE_HOSTS = 300  # random closure hosts per seed
CLOSURE_SHARES = (0.05, 0.15, 0.3, 0.6, 0.9)  # blocker share of the host
CLOSURE_TS = (1, Fraction(3, 2))


def closure_lines(seed: int) -> List[str]:
    """`build_closure` graphs, vertex maps and blocker ids on seeded random hosts."""
    from lkcds.closure import build_closure
    from lkcds.graphs import Graph

    rng = random.Random(seed)
    lines = []
    for _ in range(CLOSURE_HOSTS):
        n = rng.randint(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.choice((0.03, 0.08, 0.15, 0.3))
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        blockers = rng.sample(range(n), round(rng.choice(CLOSURE_SHARES) * n))
        r, t = rng.randint(1, 3), rng.choice(CLOSURE_TS)
        clo = build_closure(g, blockers, r, t)
        lines.append(repr(list(clo.graph.edges())))
        lines.append(repr((clo.vertex_map, clo.blockers_new)))
    return lines


PIPELINE_HOSTS = 100  # random kernelize hosts per seed


def pipeline_lines(seed: int) -> List[str]:
    """`kernelize` outcomes on seeded random hosts, about half disconnected."""
    from lkcds.cores import Rejection
    from lkcds.graphs import Graph
    from lkcds.kernel import KernelParams, kernelize, serialize_kernel

    rng = random.Random(seed)
    lines = []
    for _ in range(PIPELINE_HOSTS):
        # a random forest plus a few chords; one vertex in six starts a new
        # tree, so about half of the hosts are disconnected
        n = rng.randint(1, 12)
        edges = {(rng.randrange(v), v) for v in range(1, n) if rng.randrange(6)}
        for _ in range(rng.randint(0, n // 4)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph.from_edges(n, sorted(edges))
        runs = itertools.product(("exact", "heuristic"), range(4), (1, 2), (1, 2))
        for mode, k, r, factor in runs:
            params = KernelParams(k, r, factor * (4 * r + 3))
            out = kernelize(g, params, core_mode=mode)
            if isinstance(out, Rejection):
                lines.append(f"rejected: {out.reason}")
            else:
                lines.append(serialize_kernel(out))
    return lines


CONNECT_HOSTS = 8  # ladder-scale hosts per seed


def connect_lines(seed: int, workloads) -> List[str]:
    """`connect` on heuristic cores and greedy dominating sets of ladder-scale hosts."""
    from lkcds.cores import find_core
    from lkcds.domination import ContractViolation, connect, greedy_rdom

    rng = random.Random(seed)
    lines = []
    for _ in range(CONNECT_HOSTS):
        n = rng.randint(100, 300)
        shape = workloads.random_connected(n, n // 10, rng.randint(0, 10_000))
        g = workloads.relabeled(shape, rng)
        for r in (1, 2):
            runs = (
                (find_core(g, 1, r, mode="heuristic").vertices, 2 * r),
                (greedy_rdom(g, r), n),
            )
            for seeds, stretch in runs:
                try:
                    lines.append(repr(connect(g, seeds, stretch)))
                except ContractViolation as exc:
                    lines.append(f"ContractViolation: {exc}")
    return lines


def demo_lines(checkout: Path) -> List[str]:
    """Name, exit code and stdout of each demo, run against the checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    lines = []
    for script in sorted((checkout / "demos").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env
        )
        lines += [f"{script.name} exit {proc.returncode}", proc.stdout]
    return lines


def digest_lines(checkout: Path, seeds: List[int]) -> Iterator[str]:
    """The digest lines of a checkout at the given seeds, one at a time."""
    workloads = load_workloads(checkout)
    bench_run = load_bench_module(checkout, "run")
    tag = ",".join(map(str, seeds))
    for name, workload in workloads.WORKLOADS.items():
        labels = ("kernel", "closure-trees", "closure-counts", "lift")
        digests = {label: hashlib.sha256() for label in labels}
        count = 0
        for seed in seeds:
            for item in workload.build(seed):
                certify = workload.verdict == "certify"
                parts = instance_lines(item, certify, bench_run)
                for digest, lines in zip(digests.values(), parts):
                    feed(digest, lines)
                count += 1
        for part, digest in digests.items():
            yield f"{name} {part} seeds={tag} instances={count} sha256={digest.hexdigest()}"
    checks = (  # label, unit, units per seed, the lines of one seed
        ("cover", "queries", COVER_QUERIES, cover_lines),
        ("cds", "queries", CDS_QUERIES, cds_lines),
        ("steiner", "queries", STEINER_QUERIES, steiner_lines),
        ("graphs", "queries", GRAPH_QUERIES, graph_lines),
        ("bundle-trees", "hosts", BUNDLE_HOSTS, lambda s: bundle_lines(s)[0]),
        ("bundle-counts", "hosts", BUNDLE_HOSTS, lambda s: bundle_lines(s)[1]),
        ("profiles", "hosts", PROFILE_HOSTS, profile_lines),
        ("closures", "hosts", CLOSURE_HOSTS, closure_lines),
        ("verify", "hosts", VERIFY_HOSTS, verify_lines),
        ("pipeline", "hosts", PIPELINE_HOSTS, pipeline_lines),
        ("connect", "hosts", CONNECT_HOSTS, lambda s: connect_lines(s, workloads)),
    )
    for label, unit, per_seed, lines_of in checks:
        digest = hashlib.sha256()
        for seed in seeds:
            feed(digest, lines_of(seed))
        count = len(seeds) * per_seed
        yield f"{label} seeds={tag} {unit}={count} sha256={digest.hexdigest()}"
    lines = demo_lines(checkout)
    digest = hashlib.sha256()
    feed(digest, lines)
    yield f"demos scripts={len(lines) // 2} sha256={digest.hexdigest()}"


def line_label(line: str) -> str:
    """A digest line's label, the words before its first `key=value` field."""
    return " ".join(itertools.takewhile(lambda word: "=" not in word, line.split()))


def check() -> int:
    """Rerun this repository's digest at CHECK_SEEDS and name each line that moved."""
    expected = {line_label(ln): ln for ln in EXPECTED.read_text().splitlines() if ln}
    moved = 0
    for line in digest_lines(REPO, CHECK_SEEDS):
        old = expected.pop(line_label(line), None)
        if old != line:
            moved += 1
            print(f"moved: {line_label(line)}\n  expected {old}\n  got      {line}")
    for label, old in expected.items():
        moved += 1
        print(f"moved: {label}\n  expected {old}\n  got      None")
    if moved:
        print(f"{moved} digest lines differ from {EXPECTED.name}")
        return 1
    print(f"every digest line matches {EXPECTED.name}")
    return 0


def main(argv: List[str]) -> int:
    if argv == ["--check"]:
        return check()
    if not argv or argv[0].startswith("-"):
        print(
            "usage: python3 tools/kernel_digest.py <checkout> [seeds...]\n"
            "       python3 tools/kernel_digest.py --check",
            file=sys.stderr,
        )
        return 2
    for line in digest_lines(Path(argv[0]).resolve(), [int(s) for s in argv[1:]] or CHECK_SEEDS):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
