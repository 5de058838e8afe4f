#!/usr/bin/env python3
"""Dissect a closure: profile classes, kept trees, and the shift identity.

The closure keeps, for every small bundle of classes and blockers, a
cheapest connecting tree of the host, provided it fits under the size
cap 2t and holds a free vertex: a tree of blockers alone, such as the
tree of a single blocker, adds nothing the closure does not already hold.
Everything the verifier inspects gets printed along the way.
"""

from fractions import Fraction

from lkcds import (
    Graph,
    build_closure,
    build_translation,
    check_translation,
    classify,
    verify_closure,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def main():
    g = cycle(8)
    blockers = [0, 4]
    r, t = 1, Fraction(2)

    cls = classify(g, blockers, r)
    print(f"host: 8-cycle, blockers {blockers}, r={r}")
    print(f"{len(cls)} profile classes among the free vertices:")
    for i, c in enumerate(cls.classes):
        pairs = ", ".join(f"x{x}@{d}" for x, d in c.profile)
        print(f"  class {i}: members {c.members}  profile [{pairs or 'empty'}]")
    print()

    clo = build_closure(g, blockers, r, t)
    print(f"closure at t={t} (bundle cap {clo.cap}):")
    print(f"  {clo.graph.n} vertices, {clo.graph.m} edges")
    print(f"  blockers now sit at {clo.blockers_new}")
    for key, val in sorted(clo.stats.items()):
        print(f"  {key} = {val}")
    print("  kept bundles and their tree sizes:")
    for key in sorted(clo.kept):
        kind = "classes" if all(i < clo.class_count for i in key) else "with blockers"
        print(f"    groups {key} ({kind}): {len(clo.kept[key].vertices)} vertices")
    print()

    report = verify_closure(g, clo)
    print("verifier:", "all three items pass" if report.ok else report.problems)
    print()

    # the translation gadget moves a bundle's cost into the graph itself:
    # root trees over the gadget cost exactly the host tree plus the access
    pair = next(
        list(k) for k in sorted(clo.kept)
        if len(k) == 2 and all(i < clo.class_count for i in k)
        and all(cls.classes[i].profile for i in k)
    )
    gadget = build_translation(g, cls, pair)
    chk = check_translation(g, cls, pair)
    print(f"translating classes {pair}: access cost {gadget.added_cost}")
    print(f"  host tree value {chk.host_value}, gadget root value "
          f"{chk.analysis_value}, identity "
          f"{'holds' if chk.ok else 'BROKEN'}")


if __name__ == "__main__":
    main()
