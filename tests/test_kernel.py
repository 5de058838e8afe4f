"""Kernelization pipeline: parameters, shrinking, lifting, certification, io."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcds.cores import DISCONNECTED, Rejection
from lkcds.domination import check_covering_family, dominates
from lkcds.graphs import Graph, GraphFormatError, induced_subgraph
from lkcds import oracles as oracles_module
from lkcds.kernel import (
    KernelInstance,
    KernelParams,
    RatioCertificate,
    capped_host_opt,
    capped_kernel_opt,
    certify_ratio,
    kernel_solution_valid,
    kernelize,
    lift,
    params_from,
    parse_kernel,
    replay_split,
    serialize_kernel,
)
from lkcds.oracles import exact_acds, exact_cds
from workloads import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected,
    spider_graph,
    star_graph,
)


def kparams(k=2, r=1, alpha=7):
    return params_from(k, r, alpha=Fraction(alpha))


def solve_kernel(inst, cap=None):
    res = exact_acds(
        inst.graph, inst.annotated, inst.params.r, cap or inst.graph.n
    )
    assert res.found
    return res.solution


def test_params_t_values():
    p = kparams(2, 1, 7)
    assert p.t == 1 and p.t_eff == 1
    p = kparams(2, 1, 14)
    assert p.t == Fraction(13, 6)
    p = kparams(2, 2, 11)
    assert p.t == 1
    p = kparams(2, 2, 22)
    assert p.t == Fraction(21, 10)
    small = kparams(2, 1, Fraction(3, 2))
    assert small.t == Fraction(1, 12) and small.t_eff == 1
    # bundles of floor(2 t_eff) groups must fit the Steiner DP's limit of 8
    big = kparams(3, 1, 28)
    assert big.t == Fraction(9, 2) and big.t_eff == 4


def test_params_validation():
    with pytest.raises(ValueError):
        params_from(2, 1)
    with pytest.raises(ValueError):
        params_from(2, 1, alpha=7, epsilon=1)
    with pytest.raises(ValueError):
        KernelParams(2, 1, Fraction(1))
    with pytest.raises(ValueError):
        KernelParams(-1, 1, Fraction(7))
    with pytest.raises(ValueError):
        KernelParams(2, 0, Fraction(7))
    # a zero denominator is named, not left to Fraction's ZeroDivisionError
    with pytest.raises(ValueError, match="approximation factor 7/0 has a zero denominator"):
        KernelParams(2, 1, "7/0")
    with pytest.raises(ValueError, match="approximation slack 6/0 has a zero denominator"):
        params_from(2, 1, epsilon="6/0")
    assert params_from(2, 1, epsilon=6).alpha == Fraction(7)


def test_float_factors_are_refused():
    # a float such as 7.1 is not 71/10, and no float may reach a certified bound
    with pytest.raises(TypeError):
        KernelParams(2, 1, 7.1)
    with pytest.raises(TypeError):
        params_from(2, 1, alpha=7.5)
    with pytest.raises(TypeError):
        params_from(2, 1, epsilon=0.1)
    # k and r are ints: a float k made a kernel file parse_kernel refuses,
    # and a float r failed inside Graph.balls
    with pytest.raises(TypeError, match="budget k must be an int, not float"):
        KernelParams(2.5, 1, 7)
    with pytest.raises(TypeError, match="radius r must be an int, not float"):
        KernelParams(2, 1.0, 7)
    with pytest.raises(TypeError, match="radius r must be an int, not Fraction"):
        params_from(2, Fraction(1), alpha=7)
    assert params_from(2, 1, alpha="71/10").alpha == Fraction(71, 10)
    assert params_from(2, 1, epsilon="1/10").alpha == Fraction(11, 10)
    assert KernelParams(2, 1, 7).alpha == params_from(2, 1, alpha=Fraction(7)).alpha


def test_kernelize_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for mode in ("exact", "heuristic"):
        assert kernelize(g, kparams(), core_mode=mode) == Rejection(DISCONNECTED)


def test_kernelize_refuses_an_unknown_core_mode():
    # checked before the connectivity test and the shortcut, either of
    # which would otherwise answer without reading the mode
    path5 = path_graph(5)
    assert kernelize(path5, params_from(5, 1, alpha=30)).mode == "trivial"
    disc = Graph.from_edges(4, [(0, 1), (2, 3)])
    for g in (path5, disc, cycle_graph(9)):
        with pytest.raises(ValueError, match="unknown core mode 'bogus'"):
            kernelize(g, params_from(5, 1, alpha=30), core_mode="bogus")


def test_kernelize_trivial_shortcut():
    # alpha=14 gives piece width above 2, so a 1-vertex optimum is caught
    g = star_graph(7)
    inst = kernelize(g, kparams(2, 1, 14), core_mode="heuristic")
    assert inst.mode == "trivial"
    assert inst.core == "shortcut"
    assert inst.graph.n == 1
    lifted = lift(g, inst, solve_kernel(inst))
    assert lifted.solution == (0,)
    assert lifted.value == 1


def test_kernelize_closure_mode_fields():
    g = cycle_graph(9)
    inst = kernelize(g, kparams(2, 1, 7), core_mode="heuristic")
    assert inst.mode == "closure"
    assert inst.closure is not None
    assert len(inst.vertex_map) == inst.graph.n
    assert all(0 <= h < g.n for h in inst.vertex_map)
    # annotated vertices name the stitched core in kernel coordinates
    hosts = {inst.vertex_map[v] for v in inst.annotated}
    assert hosts <= set(range(g.n))


@pytest.mark.parametrize(
    "g, k, r",
    [(cycle_graph(6), 2, 1), (grid_graph(3, 3), 2, 2)],
    ids=["cycle-6", "grid-3x3-r2"],
)
def test_a_closure_that_keeps_the_whole_host_is_the_host(g, k, r):
    # the host object need not be all annotated: the grid's core at r = 2
    # leaves its centre out
    inst = kernelize(g, kparams(k, r, 7), core_mode="heuristic")
    assert inst.mode == "closure"
    assert inst.graph is g
    assert inst.vertex_map == tuple(range(g.n))


def test_kernel_solution_valid():
    g = path_graph(7)
    inst = kernelize(g, kparams(3, 1, 7), core_mode="heuristic")
    sol = solve_kernel(inst)
    assert kernel_solution_valid(inst, sol)
    assert not kernel_solution_valid(inst, [])
    assert not kernel_solution_valid(inst, [0, inst.graph.n - 1] if inst.graph.n > 2 else [0])
    assert not kernel_solution_valid(inst, [inst.graph.n + 5])


def test_lift_within_budget_dominates():
    g = grid_graph(3, 4)
    inst = kernelize(g, kparams(4, 1, 7), core_mode="heuristic")
    sol = solve_kernel(inst, cap=4)
    res = lift(g, inst, sol)
    assert res.value <= 4
    assert res.dominates_host and res.connected
    assert dominates(g, res.solution, 1)


def test_lift_oversized_keeps_capped_value():
    g = path_graph(9)
    inst = kernelize(g, kparams(2, 1, 7), core_mode="heuristic")
    sol = solve_kernel(inst)  # true optimum exceeds k=2
    assert len(sol) > 2
    res = lift(g, inst, sol)
    assert res.value == 3  # k + 1
    assert res.dominates_host and res.connected


def test_lift_repairs_an_oversized_solution_that_misses_the_host():
    # an exact-core kernel solution above budget k=2 whose image leaves
    # host vertices uncovered is topped up into a valid host solution
    g = random_connected(10, 2, 231)
    inst = kernelize(g, kparams(2, 1, 7), core_mode="exact")
    sol = (0, 1, 2, 3, 6, 7)
    assert kernel_solution_valid(inst, sol)
    assert not dominates(g, [inst.vertex_map[v] for v in sol], 1)
    res = lift(g, inst, sol)
    assert res.value == 3  # k + 1
    assert res.dominates_host and res.connected


def test_lift_refuses_invalid():
    g = cycle_graph(6)
    inst = kernelize(g, kparams(2, 1, 7), core_mode="heuristic")
    with pytest.raises(ValueError):
        lift(g, inst, [0])  # single vertex covers neither the whole core


@pytest.mark.parametrize(
    "solution", [(0, 1, 2, 3), (0,)], ids=["two-to-one", "two-to-one-unused"]
)
def test_lift_refuses_a_map_that_is_not_injective(solution):
    # a kernel built in code, not parsed, that sends kernel vertices 2 and 3
    # to host vertex 2; refused whatever the solution, and with it every
    # certificate, which lifts first
    star = star_graph(3)
    params = kparams(4, 1, 7)
    inst = KernelInstance(
        star, tuple(range(4)), params, (0, 1, 2, 2), "closure", "heuristic-sound"
    )
    message = "^vertex map sends two kernel vertices to one host vertex$"
    with pytest.raises(GraphFormatError, match=message):
        lift(star, inst, solution)
    with pytest.raises(GraphFormatError, match=message):
        certify_ratio(star, inst, solution)


def test_capped_opts():
    p9 = path_graph(9)
    assert capped_host_opt(p9, 2, 1) == 3
    assert capped_host_opt(p9, 7, 1) == 7
    star = star_graph(4)
    assert capped_host_opt(star, 3, 1) == 1
    disc = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert capped_host_opt(disc, 2, 1) is None


def test_certify_ratio_small_batch():
    cases = [
        (cycle_graph(6), 2, 1, 7),
        (cycle_graph(9), 4, 1, 14),
        (grid_graph(3, 3), 4, 1, 7),
        (path_graph(9), 1, 2, 11),
        (spider_graph(3, 2), 2, 1, 7),
    ]
    for g, k, r, alpha in cases:
        inst = kernelize(g, kparams(k, r, alpha), core_mode="heuristic")
        if isinstance(inst, Rejection):
            continue
        cert = certify_ratio(g, inst, solve_kernel(inst))
        assert cert.ok, (cert.lhs, cert.rhs)
        assert cert.lhs <= cert.rhs


def certify_solving_both(g, inst, kernel_solution):
    # a twin of certify_ratio that always solves both capped optima
    sol = tuple(sorted(set(kernel_solution)))
    lifted = lift(g, inst, sol)
    k, alpha = inst.params.k, inst.params.alpha
    host_opt = capped_host_opt(g, k, inst.params.r)
    kern_opt = capped_kernel_opt(inst)
    kern_value = min(len(sol), k + 1)
    lhs = Fraction(lifted.value, host_opt)
    rhs = alpha * Fraction(kern_value, kern_opt)
    return RatioCertificate(
        lifted.value, host_opt, kern_value, kern_opt, alpha, lhs, rhs, lhs <= rhs
    )


@given(
    st.integers(1, 12),
    st.integers(0, 4),
    st.integers(1, 2),
    st.integers(0, 4),
    st.sampled_from([Fraction(3, 2), 3, 7, 14]),
    st.sampled_from(["heuristic", "exact"]),
    st.integers(0, 2_000),
)
@settings(max_examples=40)
def test_certificate_matches_a_twin_that_solves_both_optima(
    n, extra, r, k, alpha, core_mode, seed
):
    g = random_connected(n, extra, seed)
    inst = kernelize(g, kparams(k, r, alpha), core_mode=core_mode)
    if isinstance(inst, Rejection):
        return
    sol = solve_kernel(inst)
    assert certify_ratio(g, inst, sol) == certify_solving_both(g, inst, sol)


def relabelled(g, perm):
    # g with vertex perm[i] renamed i
    new = {h: i for i, h in enumerate(perm)}
    return Graph.from_edges(g.n, [(new[u], new[v]) for u, v in g.edges()])


PERM9 = (4, 8, 0, 6, 2, 7, 1, 5, 3)


@pytest.mark.parametrize(
    "g, graph, annotated, vertex_map, solves",
    [
        # the host object itself, as kernelize returns a closure that keeps it
        (grid_graph(3, 3), None, range(9), range(9), False),
        # the host under a permuted map is an equal graph, not the host
        (grid_graph(3, 3), relabelled(grid_graph(3, 3), PERM9), range(9), PERM9, True),
        # one host edge missing: a path on the cycle's vertices
        (cycle_graph(9), relabelled(path_graph(9), PERM9), range(9), PERM9, True),
        # a vertex left out of the annotated set
        (grid_graph(3, 3), relabelled(grid_graph(3, 3), PERM9), range(1, 9), PERM9, True),
    ],
    ids=["host-itself", "permuted-host", "edge-missing", "vertex-unannotated"],
)
def test_only_a_kernel_that_is_its_host_reuses_the_host_optimum(
    g, graph, annotated, vertex_map, solves, monkeypatch
):
    # the host is a fresh copy of g, so its cache starts empty.  The twin
    # leaves the kernel optimum on the kernel graph, as a kernel solver
    # does, and solves the host optimum on g, so certify_ratio searches the
    # host only when the kernel graph is not the host object
    host = Graph.from_edges(g.n, g.edges())
    inst = KernelInstance(
        graph=host if graph is None else graph,
        annotated=tuple(annotated),
        params=kparams(4, 1, 7),
        vertex_map=tuple(vertex_map),
        mode="closure",
        core="heuristic-sound",
    )
    sol = solve_kernel(inst)
    twin = certify_solving_both(g, inst, sol)
    searched = []
    search = oracles_module._search_cover
    monkeypatch.setattr(
        oracles_module,
        "_search_cover",
        lambda h, *rest: searched.append(h) or search(h, *rest),
    )
    assert certify_ratio(host, inst, sol) == twin
    assert searched == ([host] if solves else [])


def test_certify_ratio_refuses_an_empty_annotated_set():
    # the kernel optimum is 0, so no ratio is defined; refused by name
    # rather than by Fraction's ZeroDivisionError
    p3 = path_graph(3)
    inst = KernelInstance(p3, (), kparams(2, 1, 7), (0, 1, 2), "closure", "heuristic-sound")
    with pytest.raises(ValueError, match="annotates no vertex"):
        certify_ratio(p3, inst, (1,))


def test_replay_split_bounds():
    g = grid_graph(3, 4)
    sol = exact_cds(g, 1, 12).solution
    for alpha in (7, 14):
        split = replay_split(g, kparams(4, 1, alpha), sol)
        sub, _ = induced_subgraph(g, sol)
        assert check_covering_family(sub, split.family) is None
        assert {v for p in split.pieces for v in p} == set(sol)
    with pytest.raises(ValueError):
        replay_split(g, kparams(4, 1, 7), [])


def test_serialize_parse_roundtrip_byte_identical():
    for g, k, r, alpha in [
        (cycle_graph(9), 2, 1, 7),
        (star_graph(7), 2, 1, 14),
        (grid_graph(3, 3), 3, 2, 11),
    ]:
        inst = kernelize(g, kparams(k, r, alpha), core_mode="heuristic")
        text = serialize_kernel(inst)
        back = parse_kernel(text)
        assert back.graph == inst.graph
        assert back.annotated == inst.annotated
        assert back.params == inst.params
        assert back.vertex_map == inst.vertex_map
        assert back.mode == inst.mode
        assert back.core == inst.core
        assert serialize_kernel(back) == text


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("lkcds/1\n", "lkcds/1\nstray\n", "content before first section: 'stray'"),
        ("[provenance]\ncore heuristic-sound\n", "", "missing section [provenance]"),
        ("mode closure\n", "mode fancy\n", "unknown kernel mode 'fancy'"),
        ("\n5 5\n", "\n", "vertex map does not label every kernel vertex"),
    ],
    ids=["before-section", "no-section", "mode", "map-skips"],
)
def test_parse_kernel_refusals_name_the_fault(old, new, message):
    inst = kernelize(cycle_graph(6), kparams(2, 1, 7), core_mode="heuristic")
    text = serialize_kernel(inst)
    assert text.count(old) == 1
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_kernel(text.replace(old, new))


def test_parse_kernel_errors():
    with pytest.raises(GraphFormatError):
        parse_kernel("nonsense\n")
    g = cycle_graph(6)
    inst = kernelize(g, kparams(2, 1, 7), core_mode="heuristic")
    text = serialize_kernel(inst)
    with pytest.raises(GraphFormatError):
        parse_kernel(text.replace("[map]", "[maps]"))
    with pytest.raises(GraphFormatError):
        parse_kernel(text + "[graph]\n")
    # nothing is merged or dropped silently
    with pytest.raises(GraphFormatError, match=r"unknown section \[extra\]"):
        parse_kernel(text + "[extra]\n")
    with pytest.raises(GraphFormatError, match=r"unknown section \[extra\]"):
        parse_kernel(text.replace("[params]", "[extra]\nx\n[params]"))
    assert "\n0 0\n" in text
    for bad in ("0 7\n0 0", "0 0\n0 0"):
        with pytest.raises(GraphFormatError, match=r"\[map\] repeats the kernel vertex"):
            parse_kernel(text.replace("\n0 0\n", f"\n{bad}\n"))
    # two kernel vertices may not stand for one host vertex
    assert "\n5 5\n" in text
    with pytest.raises(GraphFormatError, match="two kernel vertices"):
        parse_kernel(text.replace("\n5 5\n", "\n5 4\n"))
    # a malformed line is named with its section
    for bad in ("5 5 5", "5", "5 x"):
        with pytest.raises(GraphFormatError, match=rf"\[map\] line '{bad}'"):
            parse_kernel(text.replace("\n5 5\n", f"\n{bad}\n"))
    zline = text.split("[Z]\n")[1].split("\n")[0]
    with pytest.raises(GraphFormatError, match=r"\[Z\] line '.* x'"):
        parse_kernel(text.replace(f"[Z]\n{zline}\n", f"[Z]\n{zline} x\n"))
    # [Z] names only kernel vertices
    for bad, vertex in (("0 1 99", 99), ("-1 0", -1)):
        with pytest.raises(GraphFormatError, match=rf"\[Z\] vertex {vertex} is not"):
            parse_kernel(text.replace(f"[Z]\n{zline}\n", f"[Z]\n{bad}\n"))
    first = zline.split()[0]
    with pytest.raises(GraphFormatError, match=rf"\[Z\] repeats the vertex {first}"):
        parse_kernel(text.replace(f"[Z]\n{zline}\n", f"[Z]\n{first} {zline}\n"))
    # [Z] is one line: a second one is refused, not dropped, and so is none
    for extra, count in ((f"0\n{zline}", 2), (f"{zline}\n0", 2), ("", 0), (" ", 0)):
        with pytest.raises(GraphFormatError, match=rf"\[Z\] holds {count} lines"):
            parse_kernel(text.replace(f"[Z]\n{zline}\n", f"[Z]\n{extra}\n"))
    assert parse_kernel(text.replace("[Z]\n", "[Z]\n\n")).annotated == inst.annotated
    # each section's keys are its own, and none may repeat
    assert "\ncore heuristic-sound\n" in text
    for section, line in (("params", "k 5"), ("params", "mode trivial"),
                          ("provenance", "core exact")):
        with pytest.raises(GraphFormatError, match=rf"\[{section}\] repeats the key"):
            parse_kernel(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    with pytest.raises(GraphFormatError, match=r"\[provenance\] holds the unknown key 'k'"):
        parse_kernel(text + "k 5\n")
    with pytest.raises(GraphFormatError, match="bad parameter block"):
        parse_kernel(text.replace("\nk 2\n", "\n").replace(
            "[provenance]\n", "[provenance]\nk 2\n"))
    # every key that serialize_kernel writes is required, and no other
    assert "\nmode closure\n" in text
    with pytest.raises(GraphFormatError, match=r"\[params\] lacks the key 'mode'"):
        parse_kernel(text.replace("\nmode closure\n", "\n"))
    with pytest.raises(GraphFormatError, match=r"\[params\] holds the unknown key 'beta'"):
        parse_kernel(text.replace("[params]\n", "[params]\nbeta 2\n"))
    with pytest.raises(GraphFormatError, match=r"\[provenance\] lacks the key 'core'"):
        parse_kernel(text.replace("\ncore heuristic-sound\n", "\n"))
    # only a shortcut kernel carries a solution line
    with pytest.raises(GraphFormatError, match="unknown key 'solution'"):
        parse_kernel(text + "solution 0\n")
    # a shortcut kernel's solution line must replay its vertex map
    trivial = serialize_kernel(kernelize(star_graph(7), kparams(2, 1, 14)))
    assert "solution 0\n" in trivial
    for bad in ("solution 1\n", "solution 0 1\n", ""):
        with pytest.raises(GraphFormatError):
            parse_kernel(trivial.replace("solution 0\n", bad))


@given(
    st.sampled_from(range(1, 15)),
    st.integers(0, 4),
    st.integers(1, 2),
    st.integers(0, 4),
    st.sampled_from([Fraction(3, 2), 3, 7, 14]),
    st.sampled_from(["heuristic", "exact"]),
    st.integers(0, 2_000),
)
@settings(max_examples=60)
def test_pipeline_on_random_graphs(n, extra, r, k, alpha, core_mode, seed):
    # kernelize -> lift -> certify_ratio; a rejection must be refuted by the
    # host having no connected r-dominating set of at most k vertices
    g = random_connected(n, extra, seed)
    inst = kernelize(g, kparams(k, r, alpha), core_mode=core_mode)
    if isinstance(inst, Rejection):
        assert not exact_cds(g, r, k).found, inst.reason
        return
    cert = certify_ratio(g, inst, solve_kernel(inst))
    assert cert.ok, (cert.lhs, cert.rhs)
