"""Closed-loop benchmark of the lkcds pipeline: host -> kernel -> verdict.

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Each invocation runs one workload in a fresh interpreter, so peak memory and
the `Graph` caches never carry over from another workload.  One client
handles one instance at a time, with no threads.  A pass sets the workload
up from the seed (fresh graphs, parameters, a seeded order), then
kernelizes every instance and takes a verdict on every outcome.  Passes
repeat while another one fits in `--seconds`; the first always runs.  The
set-up also runs SETUP_REPEATS times before the first pass, and setup_s is
the median of all set-ups.  Times are CPU seconds scaled to a reference
machine speed (see calibration.py), as the loop does no I/O; the lines
before the result also give the unscaled totals.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it runs one untraced pass, then traced passes, and reports the per-layer
metrics per pass; the difference between the two is the tracing overhead.
The spans of the last traced pass are written to bench/out/.  The last line
of standard output is one JSON object; the lines before it name every
metric with its unit and base.  The exit code is 1 when any instance failed
or a count differed between passes of the run, 2 on bad usage.

A verdict on a rejection re-solves the host exactly (hosts of at most
EXACT_N_LIMIT vertices) and compares it with a planted optimum.  On `suite`
and `planted` a kernel is verified (closure items), solved exactly (with a
greedy-and-connect fallback) and certified by `certify_ratio`, and a planted
host optimum must match the certificate's.  On `ladder` a greedy kernel
solution stitched by `connect` must lift to a valid host solution.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SETUP_REPEATS = 32  # set-ups before the first pass; setup_s is their median
EXACT_N_LIMIT = 64  # rejections on hosts this small are re-solved exactly

# (name, unit) of the end-to-end metrics, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("kernelize_per_s", "1/s"),
    ("kernelize_p50_ms", "ms"),
    ("verdict_per_s", "1/s"),
    ("kernel_ratio", "share"),
    ("verified_share", "share"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics read from the tracer's summary and counts, per pass
LAYER_TIMES = (
    "steiner.exact_s", "steiner.size_s", "domination.connect_s",
    "domination.covering_family_s", "oracles.exact_ds_s", "oracles.cover_exists_s",
    "cores.find_core_s", "cores.core_verify_s", "cores.connected_core_s",
    "projections.classify_s", "closure.build_s", "closure.build_self_s",
    "closure.path_tree_s", "closure.verify_s", "kernel.kernelize_s",
    "kernel.kernelize_self_s", "kernel.certify_ratio_s", "kernel.lift_s",
    "graphs.bfs_layers_s",
)
LAYER_COUNTS = (
    "steiner.exact_calls", "domination.connect_calls", "oracles.exact_ds_calls",
    "oracles.cover_exists_calls", "graphs.bfs_layers_calls", "domination.merges",
    "domination.added_vertices", "oracles.budget_exhausted", "cores.core_vertices",
    "cores.stitched_vertices", "projections.classes", "closure.candidate_subsets",
    "closure.kept_trees", "closure.pruned_pairs", "closure.terminals",
    "kernel.accepted", "kernel.rejected", "kernel.shortcut_hits",
)
# oracle spans split by their root: the kernelize shortcut or the verdict
BY_ROOT = {
    "oracles.exact_cds.shortcut": "oracles.exact_cds@kernel.kernelize",
    "oracles.exact_cds.certify": "oracles.exact_cds@bench.verdict",
    "oracles.exact_acds.certify": "oracles.exact_acds@bench.verdict",
}


class Failure(Exception):
    """An instance whose kernel or verdict is wrong."""


Timing = Tuple[float, float, float]  # CPU clock at start and end, own CPU seconds


@dataclass
class Pass:
    kernelize: List[Optional[Timing]] = field(default_factory=list)  # None: failed
    verdict: List[Timing] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    layers: Dict[str, float] = field(default_factory=dict)

    def busy_s(self, cal=None) -> float:
        """Kernelize plus verdict time; unscaled without a calibration."""
        timings = [t for t in self.kernelize if t is not None] + self.verdict
        return sum(cal.scale(t) if cal else t[2] for t in timings)


def kernel_solution(inst) -> Tuple[int, ...]:
    """Capped kernel optimum when one exists, otherwise a repaired greedy answer."""
    from lkcds import domination, oracles

    kg, r, k = inst.graph, inst.params.r, inst.params.k
    res = oracles.exact_acds(kg, inst.annotated, r, k)
    if res.found:
        return res.solution
    if kg.is_connected():
        seeds = domination.greedy_rdom(kg, r, targets=inst.annotated)
        if seeds:
            return domination.connect(kg, seeds, kg.n).connected
    res = oracles.exact_acds(kg, inst.annotated, r, kg.n)
    if not res.found:
        raise Failure("kernel lost feasibility")
    return res.solution


def verdict(item, outcome, mode: str) -> None:
    """Raise Failure unless the outcome is correct for its instance."""
    from lkcds import closure, cores, domination, kernel, oracles

    g, p = item.graph, item.params
    if isinstance(outcome, cores.Rejection):
        if item.opt is not None and p.k >= item.opt:
            raise Failure(f"rejected although the planted optimum {item.opt} fits")
        if g.n <= EXACT_N_LIMIT and oracles.exact_cds(g, p.r, p.k).found:
            raise Failure("rejection refuted by the exact oracle")
        return
    if outcome.closure is not None:
        report = closure.verify_closure(g, outcome.closure)
        if not report.ok:
            raise Failure(f"closure check failed: {report.problems[0]}")
    if mode == "lift":
        kg = outcome.graph
        seeds = domination.greedy_rdom(kg, p.r, targets=outcome.annotated)
        lifted = kernel.lift(g, outcome, domination.connect(kg, seeds, kg.n).connected)
        if not (lifted.dominates_host and lifted.connected):
            raise Failure("lifted solution is not a connected dominating set")
        return
    cert = kernel.certify_ratio(g, outcome, kernel_solution(outcome))
    if not cert.ok:
        raise Failure(f"lifting inequality fails: {cert.lhs} > {cert.rhs}")
    if item.opt is not None and cert.host_opt != min(item.opt, p.k + 1):
        raise Failure(f"host optimum {cert.host_opt} differs from planted {item.opt}")


def run_pass(items, mode: str, cal, tracer=None) -> Pass:
    from lkcds import cores, kernel

    out = Pass()
    for item in items:
        out.counts["attempted"] += 1
        try:
            begin = cal.mark()
            outcome = kernel.kernelize(item.graph, item.params, core_mode=item.core_mode)
            kernelized = cal.interval(begin)
            begin = cal.mark()
            if tracer is None:
                verdict(item, outcome, mode)
            else:
                with tracer.span("bench.verdict"):
                    verdict(item, outcome, mode)
            judged = cal.interval(begin)
        except Exception:  # any exception fails this instance, not the run
            out.counts["failed"] += 1
            out.kernelize.append(None)
            print(f"FAILED {item.name} {item.params}", file=sys.stderr)
            traceback.print_exc()
            continue
        out.kernelize.append(kernelized)
        out.verdict.append(judged)
        if isinstance(outcome, cores.Rejection):
            out.counts["kernel.rejected"] += 1
        else:
            out.counts["kernel.accepted"] += 1
            out.counts["kernel.shortcut_hits"] += outcome.mode == "trivial"
            out.counts["kernel_n"] += outcome.graph.n
            out.counts["host_n"] += item.graph.n
    return out


def layer_metrics(summary: Dict[str, float], counts: Counter) -> Dict[str, float]:
    from tracing import ORACLES

    merged = Counter(summary)
    merged.update(counts)
    out = {name: merged[name] for name in LAYER_TIMES + LAYER_COUNTS}
    for name, key in BY_ROOT.items():
        out[f"{name}_s"] = merged[f"{key}_s"]
        out[f"{name}_calls"] = merged[f"{key}_calls"]
    candidates = merged["closure.candidate_subsets"]
    out["steiner.kept_share"] = merged["closure.kept_trees"] / candidates if candidates else 0.0
    kern = merged["kernel.kernelize_s"]
    out["share.steiner_of_kernelize"] = merged["steiner.exact@kernel.kernelize_s"] / kern
    out["share.connect_of_kernelize"] = merged["domination.connect@kernel.kernelize_s"] / kern
    oracle_s = sum(merged[f"{name}_s"] for name in ORACLES)
    out["share.oracles_of_total"] = oracle_s / (kern + merged["bench.verdict_s"])
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "share" in name:
        return "share"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lkcds" / "__init__.py").is_file():
        print(f"bench: no lkcds sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from calibration import Calibration
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    cal = Calibration()
    setups: List[Timing] = []

    def setup():
        gc.collect()  # every set-up starts from the same collector state
        begin = cal.mark()
        items = wl.build(args.seed)
        # The machine's speed drifts; a seeded order spreads each kind of
        # instance over the whole pass instead of one stretch of it.
        random.Random(args.seed).shuffle(items)
        setups.append(cal.interval(begin))
        return items

    plain: List[Pass] = []
    traced: List[Pass] = []
    tracer = None
    cal.start()
    try:
        for _ in range(SETUP_REPEATS):
            setup()
        started = time.perf_counter()
        while True:
            items = setup()
            if args.trace and plain:
                # spans must not hold sampling time, so sampling pauses
                tracer = Tracer()
                cal.stop()
                with tracer.patched():
                    p = run_pass(items, wl.verdict, cal, tracer)
                cal.start()
                p.layers = layer_metrics(tracer.summary(), tracer.counts + p.counts)
                traced.append(p)
            else:
                plain.append(run_pass(items, wl.verdict, cal))
            last = (traced or plain)[-1]
            if args.trace and not traced:
                continue
            if time.perf_counter() - started + last.busy_s() + setups[-1][2] > args.seconds:
                break
    finally:
        cal.stop()
    cal.sample()  # so that the last interval has a sample after it

    # one seed gives one set of counts, in every pass, traced or not
    passes = plain + traced
    first = passes[0].counts
    consistent = all(p.counts == first for p in passes) and all(
        p.layers[name] == traced[0].layers[name]
        for p in traced for name in p.layers if layer_unit(name) == "count"
    )
    attempted = sum(p.counts["attempted"] for p in passes)
    failed = sum(p.counts["failed"] for p in passes)
    if not consistent:
        print("bench: counts differ between passes of one seed", file=sys.stderr)

    notes = [f"workload {wl.name}, seed {args.seed}: {len(passes)} passes, "
             f"{attempted} instances attempted, {failed} failed; "
             f"calibration median {statistics.median(cal.speeds):.0f} units/s "
             f"over {len(cal.speeds)} samples"]
    if not args.trace:
        # an instance's latency is its median over the passes
        runs = [[1000 * cal.scale(t) for t in col if t is not None]
                for col in zip(*(p.kernelize for p in passes))]
        lat = [statistics.median(col) for col in runs if col]
        calls = sum(len(col) for col in runs)
        if not calls:
            print("bench: every instance failed", file=sys.stderr)
            return 1
        kern_s = sum(cal.scale(t) for p in passes for t in p.kernelize if t is not None)
        verd_s = sum(cal.scale(t) for p in passes for t in p.verdict)
        raw_kern_s = sum(t[2] for p in passes for t in p.kernelize if t is not None)
        raw_verd_s = sum(t[2] for p in passes for t in p.verdict)
        metrics = {
            "setup_s": statistics.median(cal.scale(t) for t in setups),
            "kernelize_per_s": calls / kern_s,
            "kernelize_p50_ms": statistics.median(lat),
            "verdict_per_s": calls / verd_s,
            "kernel_ratio": first["kernel_n"] / first["host_n"],
            "verified_share": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        bases = {
            "setup_s": f"median of {len(setups)} set-ups",
            "kernelize_per_s": f"{calls} calls in {kern_s:.3f} s of kernelize time, {raw_kern_s:.3f} s unscaled",
            "kernelize_p50_ms": f"{len(lat)} instances, each the median of {len(passes)} passes",
            "verdict_per_s": f"{calls} verdicts in {verd_s:.3f} s of verdict time, {raw_verd_s:.3f} s unscaled",
            "kernel_ratio": f"sum kernel_n {first['kernel_n']} / sum host_n {first['host_n']}",
            "verified_share": f"{attempted - failed} of {attempted} instances",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        report = [(name, unit, bases[name]) for name, unit in END_TO_END]
    else:
        n = len(traced)
        metrics = dict(traced[0].layers)  # counts are equal in every pass
        for name in traced[0].layers:
            if layer_unit(name) != "count":
                metrics[name] = sum(p.layers[name] for p in traced) / n
        untraced_s = statistics.median(p.busy_s(cal) for p in plain)
        traced_s = statistics.median(p.busy_s(cal) for p in traced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        report = [(name, layer_unit(name), f"per pass, {n} traced passes") for name in metrics]
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{wl.name}-seed{args.seed}.tsv", "w") as fh:
            fh.writelines(tracer.span_rows())

    for name, unit, base in report:
        notes.append(f"{name} = {metrics[name]!r} {unit} ({base})")
    if not args.trace and len(lat) >= 100:  # at least ten samples lie beyond it
        p90 = statistics.quantiles(lat, n=10)[-1]
        notes.append(f"kernelize_p90_ms = {p90!r} ms ({len(lat)} instances; not gated)")
    print("\n".join(notes))
    correct = consistent and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in report},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
