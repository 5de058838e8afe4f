"""Digest every kernel the benchmark workloads produce, to compare two checkouts.

    python3 tools/kernel_digest.py <checkout> [seeds...]

Imports `<checkout>/src` and `<checkout>/bench/workloads.py` (neither is
edited) and kernelizes every instance of every workload at each seed
(default 1 2 3).  For each workload it prints one line: the instance count
and a sha256 over, per instance, the `find_core` result in the workload's
core mode (the core vertices or the rejection reason), `serialize_kernel`
or the rejection reason, the closure stats, the kept trees and the
`verify_closure` result.  On the workloads whose verdict certifies, it also
hashes the results of the exact oracles the verdict reads: `exact_cds` on
every host of at most 64 vertices and `exact_acds` on every accepted
kernel.  Two checkouts that print the same lines produce identical cores
and byte-identical kernels, closures, verifier verdicts and oracle answers
on those instances.  Standard library only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path
from typing import List


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


def instance_lines(item, certify: bool) -> List[str]:
    from lkcds.closure import verify_closure
    from lkcds.cores import Rejection, find_core
    from lkcds.kernel import kernelize, serialize_kernel
    from lkcds.oracles import exact_acds, exact_cds

    out = kernelize(item.graph, item.params, core_mode=item.core_mode)
    r, k = item.params.r, item.params.k
    lines = [f"{item.name} {item.params}"]
    core = find_core(item.graph, k, r, item.core_mode)
    if isinstance(core, Rejection):
        lines.append(f"core rejected: {core.reason}")
    else:
        lines.append(f"core: {core.vertices}")
    if certify and item.graph.n <= HOST_ORACLE_N:
        lines.append(repr(exact_cds(item.graph, r, k)))
    if isinstance(out, Rejection):
        return lines + [f"rejected: {out.reason}"]
    lines.append(serialize_kernel(out))
    if certify:
        lines.append(repr(exact_acds(out.graph, out.annotated, r, k)))
    if out.closure is not None:
        lines.append(repr(sorted(out.closure.stats.items())))
        lines.append(repr(sorted(out.closure.kept.items())))
        report = verify_closure(item.graph, out.closure)
        lines.append(repr((report.ok, report.problems)))
    return lines


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python3 tools/kernel_digest.py <checkout> [seeds...]", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    seeds = [int(s) for s in argv[1:]] or [1, 2, 3]
    workloads = load_workloads(checkout)
    for name, workload in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        count = 0
        for seed in seeds:
            for item in workload.build(seed):
                for line in instance_lines(item, workload.verdict == "certify"):
                    digest.update(line.encode())
                    digest.update(b"\n")
                count += 1
        tag = ",".join(map(str, seeds))
        print(f"{name} seeds={tag} instances={count} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
