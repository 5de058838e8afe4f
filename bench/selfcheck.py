"""Checks of the benchmark itself; the benchmark command does not run them.

    python3 bench/selfcheck.py [--seed 1]

1. At SUITE_SEED the `suite` hosts equal the test fixture's SUITE_GRAPHS
   edge for edge.  This imports tests/conftest.py, hence pytest and
   hypothesis, which the benchmark proper never loads.
2. Each workload runs in its own fresh interpreter, once untraced and twice
   traced with one seed.  Every run must be correct, must report exactly
   the metrics BENCHMARK.json lists, and the two traced runs must give
   identical counts.  (Each run also checks that its passes, traced or
   not, agree on every count.)
3. The traced shares split the layers across workloads as designed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# (workload, share metric, lowest allowed, highest allowed)
LAYER_SPLIT = (
    ("suite", "share.steiner_of_kernelize", 0.8, 1.0),
    ("ladder", "share.steiner_of_kernelize", 0.0, 0.1),
    ("ladder", "share.connect_of_kernelize", 0.8, 1.0),
    ("suite", "share.connect_of_kernelize", 0.0, 0.1),
    ("planted", "share.connect_of_kernelize", 0.0, 0.1),
    ("planted", "share.oracles_of_total", 0.5, 1.0),
    ("ladder", "share.oracles_of_total", 0.0, 0.1),
)


def check_suite_hosts() -> list:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    from conftest import SUITE_GRAPHS
    from workloads import SUITE_SEED, suite_hosts

    ours = suite_hosts(SUITE_SEED)
    problems = []
    if [name for name, _ in ours] != [name for name, _ in SUITE_GRAPHS]:
        problems.append("suite host names differ from SUITE_GRAPHS")
    for (name, g), (_, want) in zip(ours, SUITE_GRAPHS):
        if g.n != want.n or list(g.edges()) != list(want.edges()):
            problems.append(f"suite host {name} differs from SUITE_GRAPHS")
    return problems


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}

    problems = check_suite_hosts()
    traced = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [(0, run(wl, args.seed, 0)), (1, run(wl, args.seed, 1)), (1, run(wl, args.seed, 1))]
        for trace, res in runs:
            if res["exit"] != 0 or not res.get("correct"):
                problems.append(f"{wl} trace={trace}: exit {res['exit']}, correct={res.get('correct')}")
            if set(res.get("metrics", {})) != want[trace]:
                problems.append(f"{wl} trace={trace}: metric names differ from BENCHMARK.json")
        a, b = (res["metrics"] for _, res in runs[1:])
        for name in sorted(counts & set(a)):
            if a[name]["value"] != b[name]["value"]:
                problems.append(f"{wl}: {name} is {a[name]['value']} then {b[name]['value']}")
        traced[wl] = a
        print(f"{wl}: " + ", ".join(
            f"{name} {a[name]['value']:.3f}" for name in sorted(a) if name.startswith("share.")))
    for wl, name, lo, hi in LAYER_SPLIT:
        value = traced[wl][name]["value"]
        if not lo <= value <= hi:
            problems.append(f"{wl}: {name} = {value:.3f}, outside [{lo}, {hi}]")
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
