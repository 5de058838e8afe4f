"""Digest every kernel, oracle answer and closure this repository produces.

    python3 tools/kernel_digest.py            # print the digest at seeds 1 2 3
    python3 tools/kernel_digest.py --check    # compare it with the committed file

`reports/kernel_digest.txt` holds the printed digest.  `--check` reruns it
(about half a minute), names each line that moved, is new or is missing,
and exits 1 if any did, 0 otherwise.  A change that moves a line rewrites
the file, so the move shows in its diff.  Each line is a count and the
sha256 of what one function returns at each seed, and that function's
docstring says what it hashes: `instance_lines` and `lift_lines` for the
three lines of each workload in `bench/workloads.py`, and the `*_lines`
function of the label's name for the others:

- `<workload> kernel`: cores, kernels and the oracle answers verdicts read
- `<workload> closure-trees`: closure stats, kept trees and verifier verdicts
- `<workload> lift`: lifted kernel solutions and certificates
- `cover`: the set-cover oracles
- `cds`: the connected-cover oracles without a node budget
- `cds-budgeted`: the connected-cover oracles with a node budget
- `steiner`: uncapped Steiner values and capped lattice trees
- `graphs`: distances, balls, components, orders, stitching, subgraphs
- `bundle-trees`: closures that search bundles of 5 to 8 groups
- `profiles`: profile classes
- `closures`: closure graphs, vertex maps and blocker ids
- `verify`: the verifier's problems on tampered closures
- `pipeline`: `kernelize` on small, often disconnected hosts
- `connect`: stitching on ladder-scale hosts
- `demos`: the output of every script in `demos/`

Every tree is hashed as its `(vertices, edges)` tuple rather than as the
`repr` of its record, so renaming the record class moves no line.
Standard library only.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple


REPO = Path(__file__).resolve().parents[1]
EXPECTED = REPO / "reports" / "kernel_digest.txt"  # the digest of REPO at SEEDS
SEEDS = (1, 2, 3)
USAGE = "usage: python3 tools/kernel_digest.py [--check]"


def random_graph(rng: random.Random, n: int, density: float):
    """A graph on n vertices that joins each pair with probability density."""
    from lkcds.graphs import Graph

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if rng.random() < density])


def random_forest(rng: random.Random, n: int, odds: int, chords: int):
    """A random forest on n vertices plus up to `chords` random chords; about
    one vertex in `odds` starts a new tree, so some are disconnected."""
    from lkcds.graphs import Graph

    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.randrange(odds)}
    for _ in range(rng.randint(0, chords)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, sorted(edges))


CERT_FIELDS = (  # the certificate values, not its alpha
    "host_value", "host_opt", "kernel_value", "kernel_opt", "lhs", "rhs", "ok"
)


def lift_lines(item, inst, certify: bool) -> List[str]:
    """The lifted greedy-and-`connect` kernel solution and, when certifying,
    the certificate of the solution the bench's `kernel_solution` submits."""
    from lkcds.domination import ContractViolation, connect, greedy_rdom
    from lkcds.kernel import certify_ratio, lift
    from run import kernel_solution

    kg, r = inst.graph, item.params.r
    try:
        seeds = greedy_rdom(kg, r, targets=inst.annotated)
        lines = [repr(lift(item.graph, inst, connect(kg, seeds, kg.n).connected))]
    except (ContractViolation, ValueError) as exc:
        lines = [f"{type(exc).__name__}: {exc}"]
    if certify:
        cert = certify_ratio(item.graph, inst, kernel_solution(inst))
        lines.append(repr([getattr(cert, f) for f in CERT_FIELDS]))
    return lines


def instance_lines(item, certify: bool) -> Tuple[List[str], List[str], List[str]]:
    """The kernel, closure tree and lift lines of one workload instance: the
    core, the kernel or rejection and, when certifying, the exact optima the
    verdict reads; a closure's stats but the search count, its kept trees
    and its `verify_closure` result."""
    from lkcds.closure import verify_closure
    from lkcds.cores import Rejection, find_core
    from lkcds.kernel import kernelize, serialize_kernel
    from lkcds.oracles import exact_acds, exact_cds
    from run import EXACT_N_LIMIT

    out = kernelize(item.graph, item.params, core_mode=item.core_mode)
    r, k = item.params.r, item.params.k
    name = f"{item.name} {item.params}"
    kernel = [name]
    core = find_core(item.graph, k, r, item.core_mode)
    if isinstance(core, Rejection):
        kernel.append(f"core rejected: {core.reason}")
    else:
        kernel.append(f"core: {core.vertices}")
    if certify and item.graph.n <= EXACT_N_LIMIT:
        kernel.append(repr(exact_cds(item.graph, r, k)))
    if isinstance(out, Rejection):
        return kernel + [f"rejected: {out.reason}"], [], []
    kernel.append(serialize_kernel(out))
    if certify:
        kernel.append(repr(exact_acds(out.graph, out.annotated, r, k)))
    lifts = [name, *lift_lines(item, out, certify)]
    if out.closure is None:
        return kernel, [], lifts
    clo, report = out.closure, verify_closure(item.graph, out.closure)
    verdict = repr((report.ok, report.problems))
    return kernel, [name, stats_repr(clo.stats), kept_repr(clo.kept), verdict], lifts


def tree_tuple(tree) -> Optional[Tuple]:
    """A tree record as its (vertices, edges) tuple, None for no tree."""
    return None if tree is None else (tree.vertices, tree.edges)


def stats_repr(stats) -> str:
    """The closure stats, sorted, but the search count `candidate_subsets`."""
    return repr(sorted(item for item in stats.items() if item[0] != "candidate_subsets"))


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
    from lkcds.oracles import SetCoverInstance, cover_exists, exact_ds, exact_setcover

    rng = random.Random(seed)
    lines = []
    for _ in range(COVER_QUERIES):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
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


def cds_answers(seed: int, budgeted: bool) -> List[str]:
    """`exact_cds` and `exact_acds` answers on seeded random forests with
    chords: those without a node budget, or those with one of the budgets.
    The budgets are drawn alike either way, so both sides ask the same
    queries.  A budgeted call neither reads nor fills a graph's cache of
    answers, so each side answers as it would beside the other."""
    from lkcds.oracles import exact_acds, exact_cds

    rng = random.Random(seed)
    lines = []
    for _ in range(CDS_QUERIES):
        n = rng.randint(1, 14)
        g = random_forest(rng, n, 16, n // 2)
        r, k = rng.randint(1, 3), rng.randint(0, n)
        annotated = rng.sample(range(n), rng.randint(0, n))
        for budget in (*CDS_BUDGETS, rng.randint(0, 200)):
            if (budget is not None) != budgeted:
                continue
            for res in (exact_cds(g, r, k, budget), exact_acds(g, annotated, r, k, budget)):
                lines.append(repr((res.status, res.solution, res.value)))
    return lines


def cds_lines(seed: int) -> List[str]:
    """The connected-cover answers of `cds_answers` without a node budget."""
    return cds_answers(seed, budgeted=False)


def cds_budgeted_lines(seed: int) -> List[str]:
    """The connected-cover answers of `cds_answers` with a node budget."""
    return cds_answers(seed, budgeted=True)


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
    from lkcds.steiner import steiner_size

    rng = random.Random(seed)
    lines = []
    for _ in range(STEINER_QUERIES):
        n = rng.randint(1, 14)
        # the sparsest hosts are often disconnected
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.35)))
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
    from lkcds.orders import heuristic_order

    rng = random.Random(seed)
    lines = []
    for query in range(GRAPH_QUERIES):
        n = rng.randint(0, 16) if query else 0
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.35)))
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


def bundle_lines(seed: int) -> List[str]:
    """`build_closure` stats but the search count, and kept trees, at caps 5
    to 8 on seeded random hosts."""
    from lkcds.closure import build_closure

    rng = random.Random(seed)
    lines = []
    for _ in range(BUNDLE_HOSTS):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.4))
        blockers = rng.sample(range(n), rng.randint(0, min(4, n)))
        r, t = rng.randint(1, 2), rng.choice(BUNDLE_TS)
        clo = build_closure(g, blockers, r, t)
        lines += [stats_repr(clo.stats), kept_repr(clo.kept)]
    return lines


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

    rng = random.Random(seed)
    lines = []
    for _ in range(VERIFY_HOSTS):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.35)))
        blockers = rng.sample(range(n), rng.randint(0, n // 2))
        r, t = rng.randint(1, 2), rng.choice(VERIFY_TS)
        clo = tamper_closure(g, build_closure(g, blockers, r, t), rng)
        lines.append(repr(verify_closure(g, clo).problems))
    return lines


PROFILE_HOSTS = 200  # random classification hosts per seed


def profile_lines(seed: int) -> List[str]:
    """`classify` classes and class map on seeded random hosts and blocker sets."""
    from lkcds.projections import classify

    rng = random.Random(seed)
    lines = []
    for _ in range(PROFILE_HOSTS):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.03, 0.08, 0.15, 0.3)))
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

    rng = random.Random(seed)
    lines = []
    for _ in range(CLOSURE_HOSTS):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.03, 0.08, 0.15, 0.3)))
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
    from lkcds.kernel import KernelParams, kernelize, serialize_kernel

    rng = random.Random(seed)
    lines = []
    for _ in range(PIPELINE_HOSTS):
        n = rng.randint(1, 12)
        g = random_forest(rng, n, 6, n // 4)
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


def connect_lines(seed: int) -> List[str]:
    """`connect` on heuristic cores and greedy dominating sets of ladder-scale hosts."""
    from lkcds.cores import find_core
    from lkcds.domination import ContractViolation, connect, greedy_rdom
    from workloads import random_connected, relabeled

    rng = random.Random(seed)
    lines = []
    for _ in range(CONNECT_HOSTS):
        n = rng.randint(100, 300)
        g = relabeled(random_connected(n, n // 10, rng.randint(0, 10_000)), rng)
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


def demo_lines() -> List[str]:
    """Name, exit code and stdout of each demo, run against this repository's src."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    lines = []
    for script in sorted((REPO / "demos").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env
        )
        lines += [f"{script.name} exit {proc.returncode}", proc.stdout]
    return lines


def digest_lines() -> Iterator[str]:
    """The digest lines of this repository at SEEDS, one at a time."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    from workloads import WORKLOADS

    tag = ",".join(map(str, SEEDS))
    for name, workload in WORKLOADS.items():
        digests = [hashlib.sha256() for _ in range(3)]
        count = 0
        for seed in SEEDS:
            for item in workload.build(seed):
                parts = instance_lines(item, workload.verdict == "certify")
                for digest, lines in zip(digests, parts):
                    feed(digest, lines)
                count += 1
        for part, digest in zip(("kernel", "closure-trees", "lift"), digests):
            yield f"{name} {part} seeds={tag} instances={count} sha256={digest.hexdigest()}"
    checks = (  # label, unit, units per seed, the lines of one seed
        ("cover", "queries", COVER_QUERIES, cover_lines),
        ("cds", "queries", CDS_QUERIES, cds_lines),
        ("cds-budgeted", "queries", CDS_QUERIES, cds_budgeted_lines),
        ("steiner", "queries", STEINER_QUERIES, steiner_lines),
        ("graphs", "queries", GRAPH_QUERIES, graph_lines),
        ("bundle-trees", "hosts", BUNDLE_HOSTS, bundle_lines),
        ("profiles", "hosts", PROFILE_HOSTS, profile_lines),
        ("closures", "hosts", CLOSURE_HOSTS, closure_lines),
        ("verify", "hosts", VERIFY_HOSTS, verify_lines),
        ("pipeline", "hosts", PIPELINE_HOSTS, pipeline_lines),
        ("connect", "hosts", CONNECT_HOSTS, connect_lines),
    )
    for label, unit, per_seed, lines_of in checks:
        digest = hashlib.sha256()
        for seed in SEEDS:
            feed(digest, lines_of(seed))
        count = len(SEEDS) * per_seed
        yield f"{label} seeds={tag} {unit}={count} sha256={digest.hexdigest()}"
    lines = demo_lines()
    digest = hashlib.sha256()
    feed(digest, lines)
    yield f"demos scripts={len(lines) // 2} sha256={digest.hexdigest()}"


def line_label(line: str) -> str:
    """A digest line's label, the words before its first `key=value` field."""
    return " ".join(itertools.takewhile(lambda word: "=" not in word, line.split()))


def differences(expected_text: str, lines: Iterable[str]) -> Iterator[str]:
    """One report per digest line that moved, is new or is missing, against
    the expected text, as the lines come."""
    expected = {line_label(ln): ln for ln in expected_text.splitlines() if ln}
    for line in lines:
        old = expected.pop(line_label(line), None)
        if old is None:
            yield f"new: {line}"
        elif old != line:
            yield f"moved: {line_label(line)}\n  expected {old}\n  got      {line}"
    for old in expected.values():
        yield f"missing: {old}"


def check() -> int:
    """Rerun the digest and name each line that differs from EXPECTED."""
    moved = 0
    for report in differences(EXPECTED.read_text(), digest_lines()):
        moved += 1
        print(report, flush=True)
    if moved:
        print(f"{moved} digest lines differ from {EXPECTED.name}")
        return 1
    print(f"every digest line matches {EXPECTED.name}")
    return 0


def main(argv: List[str]) -> int:
    if argv == ["--check"]:
        return check()
    if argv:
        print(USAGE, file=sys.stderr)
        return 2
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
