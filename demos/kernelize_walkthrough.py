#!/usr/bin/env python3
"""Walk one instance through the whole pipeline, printing every stage.

Host graph -> core -> stitched core -> closure kernel -> exact solve on
the kernel -> lifted host solution -> ratio certificate -> the host
optimum split into replayable pieces.  Run it twice, once per
approximation factor, to see the budget parameter t change the kernel
that comes out.
"""

from fractions import Fraction

from lkcds import (
    Graph,
    Rejection,
    certify_ratio,
    exact_acds,
    exact_cds,
    kernelize,
    params_from,
    replay_split,
    serialize_kernel,
)


def grid(rows, cols):
    def vid(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Graph.from_edges(rows * cols, edges)


def run(g, k, r, alpha):
    print(f"=== k={k} r={r} alpha={alpha} ===")
    params = params_from(k, r, alpha=Fraction(alpha))
    print(f"budget parameter t = {params.t} (effective {params.t_eff})")

    inst = kernelize(g, params, core_mode="exact")
    if isinstance(inst, Rejection):
        print("rejected:", inst.reason)
        return
    print(f"mode={inst.mode}  kernel: {inst.graph.n} vertices, "
          f"{inst.graph.m} edges, {len(inst.annotated)} annotated")
    print("core:", inst.core)

    # the kernel is solved exactly; uncapped so we always get an optimum
    small = exact_acds(inst.graph, inst.annotated, r, inst.graph.n)
    print(f"kernel optimum: {small.value} via {small.solution}")

    cert = certify_ratio(g, inst, small.solution)
    print(f"lifted value {cert.host_value} against host capped optimum "
          f"{cert.host_opt}")
    print(f"ratio check: {cert.lhs} <= {cert.alpha} * "
          f"{Fraction(cert.kernel_value, cert.kernel_opt)}  ->  "
          f"{'ok' if cert.ok else 'VIOLATED'}")
    host = exact_cds(g, r, k)
    if host.found and host.solution:
        split = replay_split(g, params, host.solution)
        print("optimum replays as pieces:", split.pieces)
    print()


def main():
    g = grid(3, 5)
    host = exact_cds(g, 1, g.n)
    print(f"host: 3x5 grid, {g.n} vertices; true connected dominating "
          f"optimum at r=1 is {host.value}")
    print()

    run(g, 5, 1, 7)    # tightest supported factor, t = 1
    run(g, 5, 1, 14)   # doubled factor, fractional t

    # the serialized kernel is what the command line tools exchange
    params = params_from(5, 1, alpha=Fraction(7))
    inst = kernelize(g, params, core_mode="exact")
    text = serialize_kernel(inst)
    print("serialized kernel, first lines:")
    for line in text.splitlines()[:6]:
        print(" ", line)


if __name__ == "__main__":
    main()
