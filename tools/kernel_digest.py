"""Digest every kernel the benchmark workloads produce, to compare two checkouts.

    python3 tools/kernel_digest.py <checkout> [seeds...]

Imports `<checkout>/src` and `<checkout>/bench/workloads.py` (neither is
edited) and kernelizes every instance of every workload at each seed
(default 1 2 3).  For each workload it prints two lines, each with the
instance count and a sha256:

- `kernel`: per instance, the `find_core` result in the workload's core
  mode (the core vertices or the rejection reason), `serialize_kernel` or
  the rejection reason, and, on the workloads whose verdict certifies, the
  results of the exact oracles the verdict reads: `exact_cds` on every
  host of at most 64 vertices and `exact_acds` on every accepted kernel;
- `closure`: per accepted closure kernel, the closure stats, the kept
  trees and the `verify_closure` result.

Two checkouts that print the same `kernel` lines produce identical cores,
byte-identical kernels and identical oracle answers on those instances;
the `closure` lines add the closures and the verifier verdicts, which a
change to the bundle search or to the stats may move while every kernel
stays the same.  Standard library only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path
from typing import List, Tuple


def load_workloads(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    spec = importlib.util.spec_from_file_location(
        "workloads", checkout / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module
    spec.loader.exec_module(module)
    import lkcds

    if Path(lkcds.__file__).resolve().parents[1] != checkout / "src":
        raise SystemExit(f"imported {lkcds.__file__}, not the checkout's lkcds")
    return module


HOST_ORACLE_N = 64  # the host size up to which bench/run.py re-solves rejections


def instance_lines(item, certify: bool) -> Tuple[List[str], List[str]]:
    """The kernel-side and the closure-side lines of one instance."""
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
    if certify and item.graph.n <= HOST_ORACLE_N:
        kernel.append(repr(exact_cds(item.graph, r, k)))
    if isinstance(out, Rejection):
        return kernel + [f"rejected: {out.reason}"], []
    kernel.append(serialize_kernel(out))
    if certify:
        kernel.append(repr(exact_acds(out.graph, out.annotated, r, k)))
    if out.closure is None:
        return kernel, []
    report = verify_closure(item.graph, out.closure)
    closure = [
        f"{item.name} {item.params}",
        repr(sorted(out.closure.stats.items())),
        repr(sorted(out.closure.kept.items())),
        repr((report.ok, report.problems)),
    ]
    return kernel, closure


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python3 tools/kernel_digest.py <checkout> [seeds...]", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    seeds = [int(s) for s in argv[1:]] or [1, 2, 3]
    workloads = load_workloads(checkout)
    tag = ",".join(map(str, seeds))
    for name, workload in workloads.WORKLOADS.items():
        digests = {"kernel": hashlib.sha256(), "closure": hashlib.sha256()}
        count = 0
        for seed in seeds:
            for item in workload.build(seed):
                parts = instance_lines(item, workload.verdict == "certify")
                for digest, lines in zip(digests.values(), parts):
                    for line in lines:
                        digest.update(line.encode())
                        digest.update(b"\n")
                count += 1
        for part, digest in digests.items():
            print(f"{name} {part} seeds={tag} instances={count} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
