"""Command line front end.

Exit codes: 0 success, 1 verification or lift failure, 2 bad input,
3 search budget exhausted, 10 instance rejected by the kernelizer.
Primary payloads go to stdout; progress and summaries go to stderr so
output files stay byte-clean.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence, TypeVar

from . import closure as _closure
from .cores import CORE_MODES, DominationCore, Rejection, connected_core, find_core
from .domination import ContractViolation, dominates
from .graphs import (
    Graph,
    GraphFormatError,
    mask_connected,
    mask_of,
    parse_graph,
    serialize_graph,
)
from .hardness import hardness_instance
from .kernel import (
    KernelInstance,
    kernelize,
    lift,
    params_from,
    parse_kernel,
    serialize_kernel,
)
from .oracles import (
    BUDGET_EXHAUSTED,
    exact_acds,
    exact_cds,
    parse_setcover,
)
from .orders import heuristic_order, wreach_report
from .projections import classify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_REJECTED = 10

T = TypeVar("T")


class _CliError(Exception):
    """Input-level failure; carries the exit code."""

    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _parse_file(path: str, parse: Callable[[str], T]) -> T:
    text = _read_text(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_graph(path: str, fmt: Optional[str]) -> Graph:
    return _parse_file(path, lambda text: parse_graph(text, fmt=fmt))


def _parse_ids(raw: str) -> List[int]:
    parts = raw.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise _CliError(f"bad vertex list {raw!r}") from exc


def _emit(payload: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _run_kernelize(args: argparse.Namespace):
    g = _load_graph(args.input, args.format)
    params = params_from(args.k, args.r, alpha=args.alpha, epsilon=args.epsilon)
    outcome = kernelize(g, params, core_mode=args.core_mode)
    if isinstance(outcome, Rejection):
        raise _CliError(f"rejected: {outcome.reason}", EXIT_REJECTED)
    return g, outcome


def cmd_kernelize(args: argparse.Namespace) -> int:
    g, inst = _run_kernelize(args)
    payload = serialize_kernel(inst)
    _emit(payload, args.out)
    _note(
        f"kernel: {inst.graph.n} vertices, {inst.graph.m} edges, "
        f"|Z|={len(inst.annotated)} (host {g.n} vertices)"
    )
    return EXIT_OK


def _replay_problems(g: Graph, inst: KernelInstance) -> List[str]:
    # a trivial kernel lifts by replaying its vertex map, which must be a
    # connected r-dominating set of the host within the budget
    replay, k, r = inst.vertex_map, inst.params.k, inst.params.r
    problems = []
    if len(replay) > k:
        problems.append(f"it has {len(replay)} vertices, more than k = {k}")
    if not dominates(g, replay, r):
        problems.append(f"it does not {r}-dominate the host")
    if not mask_connected(g, mask_of(replay)):
        problems.append("it is not connected in the host")
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    g, inst = _run_kernelize(args)
    if inst.closure is None:
        checks = {"replay": _replay_problems(g, inst)}
    else:
        report = _closure.verify_closure(g, inst.closure)
        checks = {f"item{i}": bad for i, bad in enumerate(report.items, 1)}
    for name, bad in checks.items():
        print(f"{name}: {'FAIL' if bad else 'pass'}")
        for p in bad:
            _note(f"  {name}: {p}")
    return EXIT_VERIFY if any(checks.values()) else EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    budget = args.budget_nodes
    if args.z is not None:
        res = exact_acds(g, _parse_ids(args.z), args.r, args.k, budget_nodes=budget)
    else:
        res = exact_cds(g, args.r, args.k, budget_nodes=budget)
    if res.status == BUDGET_EXHAUSTED:
        _note("search budget exhausted before an answer was determined")
        return EXIT_BUDGET
    if res.found:
        print(" ".join(["found", *map(str, res.solution)]))
    else:
        print(res.status)
    return EXIT_OK


def cmd_lift(args: argparse.Namespace) -> int:
    host = _load_graph(args.input, args.format)
    inst = _parse_file(args.kernel, parse_kernel)
    sol = _parse_ids(args.solution) if args.solution else []
    try:
        res = lift(host, inst, sol)
    except GraphFormatError as exc:  # the kernel's [map] leaves the host
        raise _CliError(f"{args.kernel}: {exc}") from exc
    except ContractViolation as exc:
        raise _CliError(f"lift rejected the data: {exc}", EXIT_VERIFY) from exc
    print("lifted", " ".join(str(v) for v in res.solution))
    _note(
        f"value={res.value} dominates={res.dominates_host} connected={res.connected}"
    )
    if res.value <= inst.params.k and not (res.dominates_host and res.connected):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    sc = _parse_file(args.input, parse_setcover)
    hi = hardness_instance(sc, args.r)
    _emit(serialize_graph(hi.graph, fmt=args.format or "edgelist"), args.out)
    _note(
        f"hardness instance: n={hi.graph.n} k_out={hi.k_out} "
        f"offset={hi.offset} regime={hi.regime}"
    )
    return EXIT_OK


def _core_outcome(g: Graph, k: int, r: int, mode: str) -> DominationCore:
    outcome = find_core(g, k, r, mode=mode)
    if isinstance(outcome, Rejection):
        raise _CliError(f"rejected: {outcome.reason}", EXIT_REJECTED)
    return connected_core(g, outcome)


def cmd_core(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    core = _core_outcome(g, args.k, args.r, args.core_mode)
    print(" ".join(str(v) for v in core.vertices))
    _note(f"|Z|={len(core.vertices)} certified={core.certified}")
    return EXIT_OK


def cmd_profile_stats(args: argparse.Namespace) -> int:
    if args.z is not None and args.core_mode is not None:
        raise _CliError("--core-mode is read only with --k, not with --z")
    g = _load_graph(args.input, args.format)
    if args.z is not None:
        blockers = _parse_ids(args.z)
    else:
        mode = args.core_mode or "heuristic"
        blockers = _core_outcome(g, args.k, args.r, mode).vertices
    cls = classify(g, blockers, args.r)
    print(f"blockers {len(cls.blockers)}")
    print(f"classes {len(cls)}")
    for i, c in enumerate(cls.classes):
        print(f"class {i} size {len(c.members)} entries {len(c.profile)}")
    return EXIT_OK


def cmd_wcol_report(args: argparse.Namespace) -> int:
    if args.seed is not None and args.order != "random":
        raise _CliError("--seed is read only with --order random")
    g = _load_graph(args.input, args.format)
    og = heuristic_order(g, kind=args.order, seed=args.seed or 0)
    rep = wreach_report(og, args.s)
    print(f"wcol {args.s} {rep.value}")
    print(f"witness {rep.witness}")
    _note(f"order strategy {args.order}")
    return EXIT_OK


def cmd_closure_stats(args: argparse.Namespace) -> int:
    _, inst = _run_kernelize(args)
    if inst.closure is None:
        print("trivial kernel; no closure built")
        return EXIT_OK
    for key in sorted(inst.closure.stats):
        print(f"{key} {inst.closure.stats[key]}")
    return EXIT_OK


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input file")
    p.add_argument(
        "--format", choices=("edgelist", "dimacs"), default=None,
        help="graph format; default sniffs the header",
    )


def _add_core_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="solution budget")
    p.add_argument("--r", type=int, required=True, help="domination radius")
    p.add_argument(
        "--core-mode", choices=CORE_MODES, default="heuristic",
        help="how the domination core is computed",
    )


def _add_param_args(p: argparse.ArgumentParser) -> None:
    _add_core_args(p)
    p.add_argument("--alpha", help="approximation factor (fraction, e.g. 7 or 7/2)")
    p.add_argument("--epsilon", help="approximation slack; alpha = 1 + epsilon")


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write payload here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkcds",
        description="approximate kernelization for connected distance-r domination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance and print the kernel")
    _add_graph_arg(p)
    _add_param_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("verify", help="run structural checks on the produced kernel")
    _add_graph_arg(p)
    _add_param_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact connected domination search")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--z", default=None, help="annotated target vertices")
    p.add_argument("--budget-nodes", type=int, default=None, help="search node budget")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("lift", help="translate a kernel solution back to the host")
    _add_graph_arg(p)
    p.add_argument("--kernel", required=True, help="kernel file")
    p.add_argument("--solution", default="", help="kernel vertex ids")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("gen", help="build a hardness instance from a set cover file")
    p.add_argument("--input", required=True, help="set cover file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--format", choices=("edgelist", "dimacs"), default=None,
        help="output graph format",
    )
    _add_out_arg(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("core", help="compute a stitched domination core")
    _add_graph_arg(p)
    _add_core_args(p)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("profile-stats", help="projection class statistics")
    _add_graph_arg(p)
    p.add_argument("--r", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--z", default=None, help="blocker vertices")
    source.add_argument("--k", type=int, default=None, help="budget of a core to use")
    p.add_argument(
        "--core-mode", choices=CORE_MODES, help="core mode for --k (default heuristic)"
    )
    p.set_defaults(func=cmd_profile_stats)

    p = sub.add_parser("wcol-report", help="weak coloring number of an order")
    _add_graph_arg(p)
    p.add_argument("--s", type=int, required=True, help="reach radius")
    p.add_argument(
        "--order", choices=("degeneracy", "bfs", "random"), default="degeneracy"
    )
    p.add_argument("--seed", type=int, help="seed of the random order (default 0)")
    p.set_defaults(func=cmd_wcol_report)

    p = sub.add_parser("closure-stats", help="size accounting for the closure step")
    _add_graph_arg(p)
    _add_param_args(p)
    p.set_defaults(func=cmd_closure_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # library routines reject bad parameters with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        # the exact searches recurse once per chosen vertex or ball
        print("error: the exact search is too deep for this input", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
