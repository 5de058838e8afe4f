"""Seeded hosts and parameters for the three benchmark workloads.

The graph generators are copies of the test fixture's, so that the
benchmark never imports the test suite (which loads pytest and hypothesis).
`selfcheck.py` confirms that the `suite` hosts equal the fixture's
`SUITE_GRAPHS` edge for edge at `SUITE_SEED`.

Every instance gets a freshly built `Graph`: `Graph` memoizes balls and
distance rows, and a command line run pays for them every time, so no
timed call may find them warm.  Building the graphs is part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from lkcds import Graph, KernelParams, greedy_rdom, params_from, r_subdivision

SUITE_SEED = 0


@dataclass(eq=False)
class Instance:
    name: str
    graph: Graph
    params: KernelParams
    core_mode: str
    opt: Optional[int] = None  # known optimum, planted instances only


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], List[Instance]]
    verdict: str  # "certify": exact solve plus certify_ratio; "lift": greedy plus lift


# ---------------------------------------------------------------------------
# graph generators (copies of the test fixture's)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider_graph(legs: int, length: int) -> Graph:
    edges = []
    for i in range(legs):
        prev = 0
        for j in range(length):
            v = 1 + i * length + j
            edges.append((prev, v))
            prev = v
    return Graph.from_edges(1 + legs * length, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def binary_tree(depth: int) -> Graph:
    n = 2 ** (depth + 1) - 1
    edges = [(v, c) for v in range(n) for c in (2 * v + 1, 2 * v + 2) if c < n]
    return Graph.from_edges(n, edges)


def caterpillar(spine: int, hairs: int = 1) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(hairs):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def lollipop(clique: int, tail: int) -> Graph:
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    prev = clique - 1
    for t in range(tail):
        edges.append((prev, clique + t))
        prev = clique + t
    return Graph.from_edges(clique + tail, edges)


def theta_graph(strands: int = 3, inner: int = 2) -> Graph:
    edges = []
    nxt = 2
    for _ in range(strands):
        prev = 0
        for _ in range(inner):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(nxt, edges)


def cube_graph() -> Graph:
    edges = [(v, v ^ (1 << b)) for v in range(8) for b in range(3) if v < v ^ (1 << b)]
    return Graph.from_edges(8, edges)


def wheel_graph(rim: int) -> Graph:
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph.from_edges(rim + 1, edges)


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_connected(n: int, extra: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    tries = 0
    while extra > 0 and tries < 50 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        tries += 1
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e not in edges:
            edges.add(e)
            extra -= 1
    return Graph.from_edges(n, sorted(edges))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def fresh(g: Graph) -> Graph:
    """The same graph as a new object, with empty caches."""
    return Graph(g.adj)


# ---------------------------------------------------------------------------
# suite: the acceptance-gate fixture, 31 families x 8 settings


def suite_hosts(seed: int) -> List[Tuple[str, Graph]]:
    """The fixture's SUITE_GRAPHS; the seed moves only the random members.

    At SUITE_SEED every random member keeps the fixture's own seed.
    """

    def s(base: int) -> int:
        return base + 1000 * (seed - SUITE_SEED)

    return [
        ("path-5", path_graph(5)),
        ("path-9", path_graph(9)),
        ("path-12", path_graph(12)),
        ("cycle-6", cycle_graph(6)),
        ("cycle-9", cycle_graph(9)),
        ("cycle-12", cycle_graph(12)),
        ("grid-2x3", grid_graph(2, 3)),
        ("grid-3x3", grid_graph(3, 3)),
        ("grid-3x4", grid_graph(3, 4)),
        ("grid-4x4", grid_graph(4, 4)),
        ("grid-5x5", grid_graph(5, 5)),
        ("star-5", star_graph(5)),
        ("star-8", star_graph(8)),
        ("spider-3x2", spider_graph(3, 2)),
        ("spider-4x3", spider_graph(4, 3)),
        ("caterpillar-6", caterpillar(6)),
        ("btree-2", binary_tree(2)),
        ("btree-3", binary_tree(3)),
        ("lollipop-4-4", lollipop(4, 4)),
        ("theta-3x2", theta_graph()),
        ("cube", cube_graph()),
        ("wheel-7", wheel_graph(7)),
        ("rtree-10", random_tree(10, s(1))),
        ("rtree-12", random_tree(12, s(2))),
        ("rtree-14", random_tree(14, s(3))),
        ("sparse-10", random_connected(10, 2, s(4))),
        ("sparse-12", random_connected(12, 2, s(5))),
        ("sparse-14", random_connected(14, 2, s(6))),
        ("k5-subdiv2", r_subdivision(complete_graph(5), 3)[0]),
        ("k6-subdiv2", r_subdivision(complete_graph(6), 3)[0]),
        ("k7-subdiv2", r_subdivision(complete_graph(7), 3)[0]),
    ]


def build_suite(seed: int) -> List[Instance]:
    out = []
    for name, g in suite_hosts(seed):
        for r in (1, 2):
            base = 4 * r + 3
            for alpha in (base, 2 * base):
                for k in (1, 4):
                    params = params_from(k, r, alpha=Fraction(alpha))
                    out.append(Instance(name, fresh(g), params, "heuristic"))
    return out


# ---------------------------------------------------------------------------
# ladder: sparse random hosts on three rungs.  Stitching is cubic, so the
# top rung sets the run time; the bottom rung holds most of the instances,
# so the median latency falls inside it.

LADDER_RUNGS = ((100, 8), (200, 4), (300, 1))  # (n, hosts)
LADDER_SETTINGS = ((1, 7), (2, 11))  # (r, alpha): both give a bundle cap of 2


def build_ladder(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for n, hosts in LADDER_RUNGS:
        for i in range(hosts):
            # Host shapes are fixed and the seed relabels them.  Stitching
            # cost follows the shape, and a fresh shape per seed would move
            # a run's time by more than a regression worth catching.
            g = relabeled(random_connected(n, n // 10, n + i), rng)
            for r, alpha in LADDER_SETTINGS:
                # a greedy answer fits the budget, so every instance is a
                # yes-instance and no rejection rule can empty the workload
                k = len(greedy_rdom(fresh(g), r))
                params = params_from(k, r, alpha=Fraction(alpha))
                out.append(Instance(f"sparse-{n}-{i}", fresh(g), params, "heuristic"))
    return out


# ---------------------------------------------------------------------------
# planted: optimum known by construction, budgets around it, exact core


def planted_hosts() -> List[Tuple[str, Graph, int, int]]:
    """(name, graph, r, optimum) for each planted family member."""
    hosts = []
    for legs, length in ((3, 2), (4, 2), (6, 2), (10, 2), (3, 3), (4, 3), (5, 4)):
        # the center r-dominates every leg when r equals the leg length
        hosts.append((f"spider-{legs}x{length}", spider_graph(legs, length), length, 1))
    for spine in range(3, 10):
        # every hair forces its spine vertex, and the spine is connected
        hosts.append((f"caterpillar-{spine}", caterpillar(spine), 1, spine))
    for c in (4, 5):
        # K6 is left out: certifying one K6 instance takes seconds of exact search
        g = r_subdivision(complete_graph(c), 3)[0]
        hosts.append((f"k{c}-subdiv2", g, 2, 2 * c - 1))
    return hosts


PLANTED_RELABELINGS = 2  # each setting runs on this many relabeled copies


def build_planted(seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for name, g, r, opt in planted_hosts():
        base = 4 * r + 3
        for alpha in (base, 2 * base):
            for k in (opt - 1, opt, opt + 1):
                params = params_from(k, r, alpha=Fraction(alpha))
                for _ in range(PLANTED_RELABELINGS):
                    out.append(Instance(name, relabeled(g, rng), params, "exact", opt))
    return out


WORKLOADS: Dict[str, Workload] = {
    "suite": Workload("suite", build_suite, "certify"),
    "ladder": Workload("ladder", build_ladder, "lift"),
    "planted": Workload("planted", build_planted, "certify"),
}
