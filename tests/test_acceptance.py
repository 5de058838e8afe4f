"""Acceptance gate: ten end-to-end guarantees, one pass/fail line each.

Each test prints a single verdict line so the suite reads as a checklist.
The suite fixture spans 248 instances (31 graphs x 2 radii x 2 factors x
2 budgets), built by `build_suite` in `bench/workloads.py`: the same
instances the benchmark's `suite` workload times.  Criteria that need
exact optima stay within the capped search, so the whole gate runs in
well under the ten minute budget.
"""

from __future__ import annotations

import csv
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import SUITE_GRAPHS
from lkcds.closure import build_closure, check_translation, verify_closure
from lkcds.cores import Rejection, connected_core, find_core
from lkcds.domination import check_covering_family, connect, dominates
from lkcds.graphs import bfs_layers, induced_subgraph
from lkcds.hardness import BACKWARD_ONLY, hardness_instance, hardness_sweep, random_setcover
from lkcds.kernel import certify_ratio, kernelize, params_from, replay_split
from lkcds.oracles import (
    brute_cds,
    brute_ds,
    brute_steiner,
    exact_cds,
    exact_ds,
    split_avoiding_distances,
)
from lkcds.orders import check_separation, heuristic_order
from lkcds.projections import classify, profile
from lkcds.steiner import steiner_exact
from workloads import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected,
    spider_graph,
)


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_kernel_soundness_suite(pipeline_suite):
    # the benchmark's kernel solver; imported here, as importing bench/run.py
    # turns off bytecode writing for the rest of the interpreter
    from run import kernel_solution

    started = time.monotonic()
    checked = 0
    for rec in pipeline_suite:
        if isinstance(rec.outcome, Rejection):
            # a rejection must be truthful: no budget solution exists
            assert not exact_cds(rec.graph, rec.params.r, rec.params.k).found
            continue
        cert = certify_ratio(rec.graph, rec.instance, kernel_solution(rec.instance))
        assert cert.ok, (rec.name, rec.params, cert)
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked >= 200 and elapsed < 600
    verdict(1, f"{checked} kernelizations certified, {elapsed:.1f}s certify time", ok)
    assert ok


def test_criterion_02_stitching_interior_bound(pipeline_suite):
    seen = 0
    for rec in pipeline_suite:
        g, r, k = rec.graph, rec.params.r, rec.params.k
        core = find_core(g, k, r, mode="heuristic")
        sub, _ = induced_subgraph(g, core.vertices)
        components = len(sub.component_masks())
        stitched = connected_core(g, core)
        added = len(stitched.vertices) - len(core.vertices)
        assert added <= 2 * r * (components - 1), rec.name
        seen += 1
    verdict(2, f"interior bound held on {seen} stitchings", seen > 0)
    assert seen > 0


def test_criterion_03_covering_family_bounds(pipeline_suite):
    replays = 0
    for rec in pipeline_suite:
        if isinstance(rec.outcome, Rejection):
            continue
        host = exact_cds(rec.graph, rec.params.r, rec.params.k)
        if not host.found or not host.solution:
            continue
        split = replay_split(rec.graph, rec.params, host.solution)
        sub, _ = induced_subgraph(rec.graph, host.solution)
        assert check_covering_family(sub, split.family) is None, rec.name
        covered = {v for piece in split.pieces for v in piece}
        assert covered == set(host.solution)
        replays += 1
    verdict(3, f"subtree cover bounds held on {replays} replays", replays > 0)
    assert replays > 0


def test_criterion_04_closure_verified_each_run(pipeline_suite):
    runs = 0
    for rec in pipeline_suite:
        if isinstance(rec.outcome, Rejection) or rec.instance.closure is None:
            continue
        report = verify_closure(rec.graph, rec.instance.closure)
        assert report.ok, (rec.name, rec.params, report.problems)
        runs += 1
    verdict(4, f"closure items 1-3 verified on {runs} runs", runs > 0)
    assert runs > 0


def test_criterion_05_translation_identity():
    cases = [
        (cycle_graph(8), [0, 4], 1, Fraction(2)),
        (cycle_graph(12), [0, 6], 1, Fraction(2)),
        (grid_graph(3, 4), [0, 11], 1, Fraction(2)),
        (path_graph(12), [0, 5, 11], 1, Fraction(2)),
        (spider_graph(3, 3), [0], 2, Fraction(2)),
        (grid_graph(4, 4), [0, 15], 2, Fraction(2)),
    ]
    checked = 0
    for g, xs, r, t in cases:
        assert g.n <= 20
        clo = build_closure(g, xs, r, t)
        cls = classify(g, xs, r)
        usable = {i for i in range(clo.class_count) if cls.classes[i].profile}
        for key in clo.kept:
            classes = [i for i in key if i < clo.class_count]
            if len(classes) < 2 or len(classes) < len(key):
                continue
            if not set(classes) <= usable:
                continue
            chk = check_translation(g, cls, classes)
            assert chk.ok, (g.n, xs, r, key, chk)
            checked += 1
    verdict(5, f"access-cost identity held on {checked} kept bundles", checked > 0)
    assert checked > 0


def test_criterion_06_separation_trials():
    rng = random.Random(20_240_817)
    trials = 0
    while trials < 10_000:
        n = rng.randint(6, 12)
        g = random_connected(n, rng.randint(0, 3), rng.randrange(1 << 30))
        kind = rng.choice(("degeneracy", "bfs", "random"))
        og = heuristic_order(g, kind=kind, seed=rng.randrange(1 << 30))
        r = rng.randint(1, 3)
        x = rng.randrange(n)
        res = bfs_layers(g, [x], depth_cap=r)
        for v, d in sorted(res.dist.items()):
            if v == x:
                continue
            path = res.path_to(v)
            z = check_separation(og, [x], v, path, r)
            assert z in path
            assert og.pos[z] == min(og.pos[w] for w in path)
            trials += 1
    verdict(6, f"separator witnessed in {trials} path trials", trials >= 10_000)
    assert trials >= 10_000


def test_criterion_07_hardness_equivalence_radius_one():
    rows = hardness_sweep(range(120), 1)
    for row in rows:
        sc = random_setcover(row.seed)
        assert sc.universe_size <= 8 and len(sc.sets) <= 8
        assert row.forward_ok and row.backward_ok, row
    both = any(r.cover_found for r in rows) and any(not r.cover_found for r in rows)
    assert both
    # larger radii only promise the backward direction and say so
    hi = hardness_instance(random_setcover(0), 2)
    assert hi.regime == BACKWARD_ONLY
    verdict(7, f"budget equivalence held on {len(rows)} radius-1 reductions", True)


def test_criterion_08_oracle_cross_validation():
    rng = random.Random(7)
    steiner_checks = dom_checks = profile_checks = 0
    for _ in range(25):
        g = random_connected(rng.randint(6, 12), rng.randint(0, 3), rng.randrange(1 << 30))
        vs = list(range(g.n))
        rng.shuffle(vs)
        groups = [[vs[0], vs[1]], [vs[2]], [vs[3], vs[4]]]
        tree = steiner_exact(g, groups)
        br = brute_steiner(g, [set(grp) for grp in groups], g.n)
        assert tree.size == br.value, (g, groups)
        steiner_checks += 1
    for _ in range(25):
        g = random_connected(rng.randint(6, 14), rng.randint(0, 3), rng.randrange(1 << 30))
        for r in (1, 2):
            for k in (1, 2, 3):
                assert exact_ds(g, r, k).solution == brute_ds(g, r, k).solution
                assert exact_cds(g, r, k).solution == brute_cds(g, r, k).solution
                dom_checks += 1
    for _ in range(25):
        g = random_connected(rng.randint(6, 12), rng.randint(0, 2), rng.randrange(1 << 30))
        blockers = sorted(rng.sample(range(g.n), 2))
        r = rng.randint(1, 3)
        for u in range(g.n):
            if u in blockers:
                continue
            prof = profile(g, u, blockers, r)
            dist = split_avoiding_distances(g, blockers, u)
            for x in blockers:
                d = dist.get(x)
                want = d if d is not None and d <= r else None
                assert dict(prof).get(x) == want
            profile_checks += 1
    total = steiner_checks + dom_checks + profile_checks
    verdict(8, f"{total} oracle agreement checks across three pairs", total > 0)


def test_criterion_09_factor_three_connection():
    # the constructive bound: connecting an r-dominating set D costs at most
    # 2r interiors per merge, so |connected| <= (2r+1)|D| - 2r, met with
    # equality on the suite (path-9 at r=2, path-12 at r=1).  The factor 3
    # claim is exactly that bound at r=1; from r=2 on it is false even for
    # the optimum: on path-15 at r=2 the least connected dominating set has
    # 11 vertices against a domination number of 3.
    checked = 0
    overruns = []
    for name, g in SUITE_GRAPHS:
        for r in (1, 2):
            base = exact_ds(g, r, g.n)
            # stretch 2r keeps connect's per-merge and total contracts live
            res = connect(g, base.solution, 2 * r)
            size = len(res.connected)
            assert dominates(g, res.connected, r), (name, r)
            assert size <= (2 * r + 1) * base.value - 2 * r, (name, r, base.value, size)
            if r == 1:
                assert size <= 3 * base.value, (name, base.value, size)
            elif size > 3 * base.value:
                # depends on connect's choice of paths, so reported only
                overruns.append(f"{name}: {base.value} -> {size}")
            checked += 1
    p15 = path_graph(15)
    opt_cds = exact_cds(p15, 2, p15.n).value
    opt_ds = exact_ds(p15, 2, p15.n).value
    assert opt_cds > 3 * opt_ds, (opt_cds, opt_ds)
    verdict(
        9,
        f"(2r+1)|D|-2r connection bound on {checked} runs, 3x at r=1; "
        f"3x fails at r=2 (path-15 optimum {opt_ds} -> {opt_cds}; "
        f"connect overruns: {', '.join(overruns) or 'none'})",
        True,
    )


def test_criterion_10_kernel_size_trend():
    reports = Path(__file__).resolve().parent.parent / "reports"
    trend_file = reports / "kernel_size_trend.csv"
    rows = []
    for name, g in [("grid-3x3", grid_graph(3, 3)), ("grid-3x4", grid_graph(3, 4)),
                    ("grid-4x4", grid_graph(4, 4)), ("grid-4x5", grid_graph(4, 5)),
                    ("grid-5x5", grid_graph(5, 5))]:
        for k in (1, 2, 3, 4):
            for alpha in (7, 14):
                params = params_from(k, 1, alpha=Fraction(alpha))
                inst = kernelize(g, params, core_mode="heuristic")
                assert not isinstance(inst, Rejection)
                rows.append(
                    {
                        "graph": name,
                        "host_n": str(g.n),
                        "k": str(k),
                        "r": "1",
                        "alpha": str(alpha),
                        "mode": inst.mode,
                        "kernel_n": str(inst.graph.n),
                        "kernel_m": str(inst.graph.m),
                        "annotated": str(len(inst.annotated)),
                    }
                )
    with trend_file.open(newline="") as fh:
        tracked = list(csv.DictReader(fh))
    changed = [(want, got) for want, got in zip(tracked, rows) if want != got]
    verdict(
        10,
        f"size trend of {len(rows)} settings matches {trend_file.name}",
        len(rows) == len(tracked) == 40 and not changed,
    )
    assert len(rows) == len(tracked) == 40
    assert not changed, changed[:3]
