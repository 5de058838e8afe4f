"""End-to-end kernelization for connected distance-r domination.

The pipeline shrinks an instance to an annotated one: find a domination
core, stitch it connected, then take the profile-preserving closure.  A
solution of the small instance translates back verbatim because the
closure is a subgraph of the host; the core property upgrades coverage of
the annotated set to coverage of everything whenever the budget holds.
Objectives are capped at k+1 throughout, so oversized solutions stay
comparable instead of becoming infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .closure import ClosureResult, build_closure
from .cores import Rejection, check_core_mode, connected_core, find_core
from .domination import (
    ContractViolation,
    CoveringFamily,
    connect,
    covering_family,
    dominates,
    greedy_rdom,
)
from .graphs import (
    Graph,
    GraphFormatError,
    induced_subgraph,
    mask_connected,
    mask_of,
    parse_graph,
    serialize_graph,
)
from .oracles import FOUND, NONE_WITHIN_BUDGET, SolveResult, exact_acds, exact_cds
from .steiner import GROUP_LIMIT

FORMAT_TAG = "lkcds/1"
SECTIONS = ("graph", "Z", "map", "params", "provenance")


def _fraction(name: str, value: Union[int, str, Fraction]) -> Fraction:
    # Fraction("7/0") raises ZeroDivisionError, which names neither the
    # quantity nor the value
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{name} {value} has a zero denominator") from None


@dataclass(frozen=True)
class KernelParams:
    k: int
    r: int
    alpha: Fraction

    def __post_init__(self):
        for name, value in (("budget k", self.k), ("radius r", self.r)):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an int, not {type(value).__name__}")
        if isinstance(self.alpha, float):
            raise TypeError("alpha must be an int, str or Fraction, not float")
        if not isinstance(self.alpha, Fraction):
            alpha = _fraction("approximation factor", self.alpha)
            object.__setattr__(self, "alpha", alpha)
        if self.k < 0:
            raise ValueError("budget k must be nonnegative")
        if self.r < 1:
            raise ValueError("radius r must be at least 1")
        if self.alpha <= 1:
            raise ValueError("approximation factor must exceed 1")

    @property
    def t(self) -> Fraction:
        return (self.alpha - 1) / (4 * self.r + 2)

    @cached_property
    def t_eff(self) -> Fraction:
        # capped so a bundle of floor(2 t_eff) groups fits the Steiner DP;
        # a kernel lossy by a smaller factor than alpha is alpha-lossy too;
        # cached in the instance dict, which equality, hash and repr ignore
        return min(max(Fraction(1), self.t), Fraction(GROUP_LIMIT, 2))


def params_from(
    k: int,
    r: int,
    alpha: Optional[Union[int, str, Fraction]] = None,
    epsilon: Optional[Union[int, str, Fraction]] = None,
) -> KernelParams:
    """Build parameters from either the factor alpha or its excess epsilon."""
    if (alpha is None) == (epsilon is None):
        raise ValueError("give exactly one of alpha and epsilon")
    if isinstance(epsilon, float):  # KernelParams refuses a float alpha
        raise TypeError("epsilon must be an int, str or Fraction, not float")
    if alpha is None:
        alpha = 1 + _fraction("approximation slack", epsilon)
    return KernelParams(k, r, alpha)


@dataclass(eq=False)
class KernelInstance:
    graph: Graph
    annotated: Tuple[int, ...]
    params: KernelParams
    vertex_map: Tuple[int, ...]  # kernel id -> host id
    mode: str  # closure | trivial
    core: str  # shortcut, or the certification of the core
    closure: Optional[ClosureResult] = None


KernelOutcome = Union[KernelInstance, Rejection]


def kernelize(
    g: Graph, params: KernelParams, core_mode: str = "heuristic"
) -> KernelOutcome:
    """Shrink an instance, or reject it with a certified reason.

    Tiny optima are intercepted first: when an exact search below the
    piece size already finds a connected dominating set, the kernel is
    just that solution's induced graph and lifting replays it.  Every
    rejection is `find_core`'s; the shortcut finds nothing on a
    disconnected host, which `find_core` then rejects.
    """
    if g.n == 0:
        raise ValueError("cannot kernelize the empty graph")
    check_core_mode(core_mode)
    shortcut_cap = min(params.k, math.ceil(params.t_eff) - 1)
    if shortcut_cap >= 1:
        hit = exact_cds(g, params.r, shortcut_cap)
        if hit.found:
            assert hit.solution is not None
            sub, vmap = induced_subgraph(g, hit.solution)
            return KernelInstance(
                graph=sub,
                annotated=tuple(range(sub.n)),
                params=params,
                vertex_map=vmap,
                mode="trivial",
                core="shortcut",
            )
    core = find_core(g, params.k, params.r, core_mode)
    if isinstance(core, Rejection):
        return core
    stitched = connected_core(g, core)
    closure = build_closure(g, stitched.vertices, params.r, params.t_eff)
    return KernelInstance(
        graph=closure.graph,
        annotated=closure.blockers_new,
        params=params,
        vertex_map=closure.vertex_map,
        mode="closure",
        core=core.certified,
        closure=closure,
    )


def kernel_solution_valid(inst: KernelInstance, solution: Iterable[int]) -> bool:
    sol = sorted(set(solution))
    if not sol:
        return not inst.annotated
    for v in sol:
        if not 0 <= v < inst.graph.n:
            return False
    if not mask_connected(inst.graph, mask_of(sol)):
        return False
    return dominates(inst.graph, sol, inst.params.r, inst.annotated)


@dataclass(frozen=True)
class LiftResult:
    solution: Tuple[int, ...]
    value: int
    dominates_host: bool
    connected: bool


def lift(g: Graph, inst: KernelInstance, solution: Iterable[int]) -> LiftResult:
    """Translate a kernel solution back to the host graph.

    A kernel whose vertex map leaves the host, or sends two kernel vertices
    to one host vertex, is refused first, whatever the solution.  Invalid
    kernel solutions are refused, a vertex outside the kernel by name.
    Valid ones map through the vertex relabeling;
    within budget the result provably dominates the host, and beyond budget
    it is repaired to stay a valid solution, which cannot change its capped
    value.
    """
    for v, host_v in enumerate(inst.vertex_map):
        if not 0 <= host_v < g.n:
            raise GraphFormatError(
                f"[map] sends kernel vertex {v} to {host_v}, outside the host's "
                f"vertices 0..{g.n - 1}"
            )
    if len(set(inst.vertex_map)) != len(inst.vertex_map):
        raise GraphFormatError("vertex map sends two kernel vertices to one host vertex")
    sol = tuple(sorted(set(solution)))
    for v in sol:
        if not 0 <= v < inst.graph.n:
            raise ValueError(
                f"kernel solution vertex {v} is not a kernel vertex "
                f"(the kernel has vertices 0..{inst.graph.n - 1})"
            )
    if not kernel_solution_valid(inst, sol):
        raise ValueError("kernel solution is not connected or misses the annotated set")
    k, r = inst.params.k, inst.params.r
    if inst.mode == "trivial":
        # the kernel is the induced graph of a host solution; replay it
        lifted = tuple(sorted(inst.vertex_map))
    else:
        lifted = tuple(sorted(inst.vertex_map[v] for v in sol))
    dominated = dominates(g, lifted, r)
    if not dominated and inst.mode == "closure":
        if len(lifted) <= k:
            raise ContractViolation(
                "a budget solution of the kernel fails to dominate the host"
            )
        fixed = set(lifted).union(greedy_rdom(g, r))
        lifted = connect(g, fixed, g.n).connected
        dominated = dominates(g, lifted, r)
    return LiftResult(
        solution=lifted,
        value=min(len(lifted), k + 1),
        dominates_host=dominated,
        connected=mask_connected(g, mask_of(lifted)),
    )


def _capped(res: SolveResult, k: int) -> Optional[int]:
    # a search capped at k: its optimum, k+1 when none fits, None otherwise
    if res.status == FOUND:
        return res.value
    if res.status == NONE_WITHIN_BUDGET:
        return k + 1
    return None


def capped_host_opt(g: Graph, k: int, r: int) -> Optional[int]:
    """Optimum connected r-domination value, capped at k+1; None if none exists."""
    return _capped(exact_cds(g, r, k), k)


def capped_kernel_opt(inst: KernelInstance) -> Optional[int]:
    k = inst.params.k
    return _capped(exact_acds(inst.graph, inst.annotated, inst.params.r, k), k)


@dataclass(frozen=True)
class ReplaySplit:
    """A host solution cut into replayable connected pieces.

    The family lives on the induced subgraph of the solution; pieces maps
    it back to host vertex ids.  Piece sizes and counts obey the subtree
    cover bounds, which is what the size analysis replays piece by piece.
    """

    family: CoveringFamily
    pieces: Tuple[Tuple[int, ...], ...]


def replay_split(g: Graph, params: KernelParams, solution: Iterable[int]) -> ReplaySplit:
    """Split a connected host solution along a subtree cover at width t.

    The construction validates its own bounds and raises on violation, so
    a returned split is always a usable replay witness.
    """
    sol = sorted(set(solution))
    if not sol:
        raise ValueError("cannot split an empty solution")
    sub, parents = induced_subgraph(g, sol)
    fam = covering_family(sub, params.t_eff)
    pieces = tuple(
        tuple(sorted(parents[v] for v in p.vertices)) for p in fam.pieces
    )
    return ReplaySplit(family=fam, pieces=pieces)


@dataclass(frozen=True)
class RatioCertificate:
    host_value: int
    host_opt: int
    kernel_value: int
    kernel_opt: int
    alpha: Fraction
    lhs: Fraction
    rhs: Fraction
    ok: bool


def certify_ratio(
    g: Graph, inst: KernelInstance, kernel_solution: Iterable[int]
) -> RatioCertificate:
    """Check the lifting inequality on one solved instance, exactly.

    The quality ratio of the lifted solution must stay within alpha times
    the quality ratio of the submitted kernel solution, with all four
    quantities capped at k+1 and compared as exact rationals.  A kernel
    that annotates no vertex has optimum 0, so the ratio is undefined and
    the kernel is refused.

    Both optima are read through the oracle's per-graph cache.  The kernel
    optimum asks the question a kernel solver that tried `exact_acds`
    within k has just asked of the same kernel graph.  A kernel that keeps
    the whole host is the host object itself (`subgraph` returns it), and
    with every vertex annotated the two optima ask the same question, (all
    vertices, r, k), of that one graph, so one search answers both.  Any
    other kernel searches the host once more.

    On the kernels `kernelize` returns, the certificate passes exactly
    when `kernel_opt <= alpha * host_opt`, whatever valid solution it is
    handed.  A closure kernel's solution lifts verbatim, or past k is
    repaired at the same capped value, so the lifted value v equals the
    kernel value and v / host_opt <= alpha * v / kernel_opt reduces to that
    inequality.  A trivial kernel is the induced graph of a host optimum
    and lifts to it, so the left side is 1; no valid solution is below
    kernel_opt, so the right side is at least alpha > 1; and kernel_opt is
    at most the kernel's size, host_opt.  Both inequalities hold.
    """
    if not inst.annotated:
        raise ValueError(
            "the kernel annotates no vertex, so its optimum 0 leaves the ratio undefined"
        )
    sol = tuple(sorted(set(kernel_solution)))
    lifted = lift(g, inst, sol)
    if not (lifted.dominates_host and lifted.connected):
        raise ContractViolation("lifted solution is not valid for the host")
    k = inst.params.k
    kern_opt = capped_kernel_opt(inst)
    host_opt = capped_host_opt(g, k, inst.params.r)
    if host_opt is None or kern_opt is None:
        raise ContractViolation("a capped optimum is undefined on a connected instance")
    kern_value = min(len(sol), k + 1)
    lhs = Fraction(lifted.value, host_opt)
    rhs = inst.params.alpha * Fraction(kern_value, kern_opt)
    return RatioCertificate(
        host_value=lifted.value,
        host_opt=host_opt,
        kernel_value=kern_value,
        kernel_opt=kern_opt,
        alpha=inst.params.alpha,
        lhs=lhs,
        rhs=rhs,
        ok=lhs <= rhs,
    )


# ---------------------------------------------------------------------------
# serialization


def serialize_kernel(inst: KernelInstance) -> str:
    lines = [FORMAT_TAG, "[graph]"]
    lines.append(serialize_graph(inst.graph).rstrip("\n"))
    lines.append("[Z]")
    lines.append(" ".join(str(v) for v in inst.annotated))
    lines.append("[map]")
    for new, old in enumerate(inst.vertex_map):
        lines.append(f"{new} {old}")
    lines.append("[params]")
    lines.append(f"k {inst.params.k}")
    lines.append(f"r {inst.params.r}")
    lines.append(f"alpha {inst.params.alpha}")
    lines.append(f"mode {inst.mode}")
    lines.append("[provenance]")
    lines.append(f"core {inst.core}")
    if inst.mode == "trivial":
        lines.append(" ".join(["solution", *map(str, inst.vertex_map)]))
    return "\n".join(lines) + "\n"


def _section_fields(
    sections: Dict[str, List[str]], name: str, keys: Tuple[str, ...]
) -> Dict[str, str]:
    # the "<key> <value>" lines of one section: each of `keys` exactly once
    fields: Dict[str, str] = {}
    for ln in sections[name]:
        if not ln.strip():
            continue
        key, _, value = ln.partition(" ")
        if key not in keys:
            raise GraphFormatError(f"[{name}] holds the unknown key {key!r}")
        if key in fields:
            raise GraphFormatError(f"[{name}] repeats the key {key!r}")
        fields[key] = value
    for key in keys:
        if key not in fields:
            raise GraphFormatError(f"[{name}] lacks the key {key!r}")
    return fields


def parse_kernel(text: str) -> KernelInstance:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_TAG:
        raise GraphFormatError(f"missing format tag {FORMAT_TAG!r}")
    sections: Dict[str, List[str]] = {}
    current: Optional[str] = None
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            if current not in SECTIONS:
                raise GraphFormatError(f"unknown section {ln}")
            if current in sections:
                raise GraphFormatError(f"duplicate section {ln}")
            sections[current] = []
            continue
        if current is None:
            raise GraphFormatError(f"content before first section: {ln!r}")
        sections[current].append(ln)
    for required in SECTIONS:
        if required not in sections:
            raise GraphFormatError(f"missing section [{required}]")
    graph = parse_graph("\n".join(sections["graph"]))
    zlines = [ln for ln in sections["Z"] if ln.strip()]
    if len(zlines) != 1:
        raise GraphFormatError(f"[Z] holds {len(zlines)} lines, not one")
    zline = zlines[0]
    try:
        annotated = tuple(int(v) for v in zline.split())
    except ValueError:
        raise GraphFormatError(
            f"[Z] line {zline!r} holds a non-integer vertex"
        ) from None
    seen = set()
    for v in annotated:
        if not 0 <= v < graph.n:
            raise GraphFormatError(f"[Z] vertex {v} is not in the kernel graph")
        if v in seen:
            raise GraphFormatError(f"[Z] repeats the vertex {v}")
        seen.add(v)
    vm: Dict[int, int] = {}
    for ln in sections["map"]:
        if not ln.strip():
            continue
        try:
            a, b = (int(v) for v in ln.split())
        except ValueError:
            raise GraphFormatError(
                f"[map] line {ln!r} is not '<kernel vertex> <host vertex>'"
            ) from None
        if a in vm:
            raise GraphFormatError(f"[map] repeats the kernel vertex {a}")
        vm[a] = b
    if sorted(vm) != list(range(graph.n)):
        raise GraphFormatError("vertex map does not label every kernel vertex")
    if len(set(vm.values())) != len(vm):
        raise GraphFormatError("vertex map sends two kernel vertices to one host vertex")
    try:
        fields = _section_fields(sections, "params", ("k", "r", "alpha", "mode"))
        params = KernelParams(int(fields["k"]), int(fields["r"]), fields["alpha"])
    except ValueError as exc:
        raise GraphFormatError(f"bad parameter block: {exc}") from None
    mode = fields["mode"]
    if mode not in ("closure", "trivial"):
        raise GraphFormatError(f"unknown kernel mode {mode!r}")
    # a shortcut kernel records the host solution it replays
    prov = _section_fields(
        sections, "provenance", ("core", "solution") if mode == "trivial" else ("core",)
    )
    vertex_map = tuple(vm[i] for i in range(graph.n))
    if mode == "trivial" and prov["solution"].split() != [str(v) for v in vertex_map]:
        raise GraphFormatError("solution line disagrees with the vertex map")
    return KernelInstance(
        graph=graph,
        annotated=annotated,
        params=params,
        vertex_map=vertex_map,
        mode=mode,
        core=prov["core"],
    )
