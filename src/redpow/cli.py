"""Command-line interface.

Subcommands build reduced powers, construct and verify cycle bases,
and run the reversibility checks on coupled-automaton models:
``check-reversibility`` loads a model, calls :func:`check_reversibility`
and prints its :class:`Verdict`. Exit codes: 0 success (and checks
passed), 2 a check ran and failed, 1 bad input or internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import RedpowError, SolverError
from .graph import bfs_spanning_tree, graph_to_dot, graph_to_json, load_graph
from .power import (
    build_reduced_power,
    cartesian_power,
    edge_count,
    quotient_by_symmetry,
    vertex_count,
)
from .cyclespace import CycleBasis, greedy_mcb
from .squares import decomposition_basis, verify_square_space
from .ctmc import (
    BalanceReport,
    KolmogorovReport,
    MasterChain,
    SteadyState,
    detailed_balance_check,
    kolmogorov_check,
    load_model,
    reversible_steady_state,
    single_automaton_check,
    steady_state,
)

__all__ = ["main", "entry", "check_reversibility", "Verdict"]

# Largest power any command builds, in states, and largest k; the largest
# power any test, script or benchmark workload builds has 2380 states.
_STATE_BUDGET = 5000
# Default and ceiling of power --budget, the largest v**k cross-checked.
_PRODUCT_BUDGET = 10**6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redpow",
        description="Reduced graph powers, cycle bases, and reversibility checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(p):
        p.add_argument("--graph", type=Path, required=True, help="graph JSON file")
        p.add_argument("--k", type=int, required=True, help="number of tokens")
        p.add_argument("--out", type=Path, help="write the JSON result here")

    p = sub.add_parser("power", help="build the k-th reduced power of a graph")
    add_graph_opts(p)
    p.add_argument("--dot", type=Path, help="also write a Graphviz DOT file")
    p.add_argument(
        "--budget",
        type=int,
        default=_PRODUCT_BUDGET,
        help="largest v**k for which the product/quotient cross-check runs (at most 10^6)",
    )

    p = sub.add_parser("mcb", help="construct the structured cycle basis")
    add_graph_opts(p)
    p.add_argument("--root", help="root vertex label (default: first vertex)")

    p = sub.add_parser("verify-squares", help="check the square families against the kernel")
    add_graph_opts(p)
    p.add_argument("--root", help="root vertex label (default: first vertex)")

    p = sub.add_parser("check-reversibility", help="full reversibility check of a model")
    p.add_argument("--model", type=Path, required=True, help="model JSON file")
    p.add_argument("--out", type=Path, help="write the JSON report here")
    p.add_argument("--exact", action="store_true", help="exact rational steady state")
    p.add_argument("--root", help="root vertex label for the cycle basis")

    p = sub.add_parser("check-single", help="cycle criterion for a single automaton")
    p.add_argument("--model", type=Path, required=True, help="model JSON file")
    p.add_argument("--out", type=Path, help="write the JSON report here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _write(text: str, path: Path, kind: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise RedpowError(f"cannot write {kind} file {path}: {exc}") from None


def _write_json(doc: dict, out: Path | None) -> None:
    if out is not None:
        _write(json.dumps(doc) + "\n", out, "report")


def _root_index(g, root: str | None) -> int:
    return g.index_of(root) if root is not None else 0


def _basis_for(g, k: int, root: int) -> CycleBasis:
    """Cycle basis on the k-th power: greedy MCB for k = 1, else the decomposition."""
    if k == 1:
        return greedy_mcb(build_reduced_power(g, 1))
    return decomposition_basis(g, k, root=root)


def _basis_doc(basis: CycleBasis) -> dict:
    labels = basis.host.graph.labels
    elements = [
        {"length": len(seq), "vertices": [labels[s] for s in seq], "tag": info.tag}
        for seq, info in zip(basis.cycles, basis.info)
    ]
    return {
        "kind": basis.kind,
        "certified_minimum": basis.certified_minimum,
        "element_count": len(basis.elements),
        "total_length": basis.total_length,
        "elements": elements,
    }


def cmd_power(args: argparse.Namespace) -> int:
    if args.budget > _PRODUCT_BUDGET:
        raise RedpowError(f"--budget may be at most {_PRODUCT_BUDGET}")
    g = load_graph(args.graph)
    _check_budget("power", g.num_vertices, args.k)
    rp = build_reduced_power(g, args.k)
    v, e = g.num_vertices, g.num_edges
    print(
        f"states={rp.num_states} (formula {vertex_count(v, args.k)}) "
        f"edges={rp.num_edges} (formula {edge_count(e, v, args.k)})"
    )
    if v**args.k > args.budget:
        print(f"cross-check: skipped ({v}^{args.k} states exceed budget {args.budget})")
    elif any("," in lab for lab in g.labels):
        # product vertices are comma-joined base labels
        print("cross-check: skipped (base labels contain ',')")
    else:
        oracle = quotient_by_symmetry(cartesian_power(g, args.k, args.budget), g, args.k)
        if oracle != rp or oracle.annotations != rp.annotations:
            raise RedpowError("product/quotient cross-check disagrees with direct build")
        print("cross-check: quotient of the Cartesian power agrees")
    if args.out is not None:
        _write(graph_to_json(rp.graph), args.out, "graph")
    if args.dot is not None:
        _write(graph_to_dot(rp.graph), args.dot, "DOT")
    return 0


def cmd_mcb(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    _check_budget("power", g.num_vertices, args.k)
    doc = _basis_doc(_basis_for(g, args.k, _root_index(g, args.root)))
    print(
        f"kind={doc['kind']} elements={doc['element_count']} "
        f"total_length={doc['total_length']} "
        f"certified_minimum={str(doc['certified_minimum']).lower()}"
    )
    _write_json(doc, args.out)
    return 0


def cmd_verify_squares(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    _check_budget("power", g.num_vertices, args.k)
    tree = bfs_spanning_tree(g, _root_index(g, args.root))
    report = verify_square_space(g, tree, args.k)
    doc = report.as_dict()
    for key in ("counts_match", "independent", "projects_to_zero", "spans_kernel", "direct_sum"):
        print(f"{key}: {'ok' if doc[key] else 'FAIL'}")
    print(f"square space: {'PASS' if report.passed else 'FAIL'}")
    _write_json(doc, args.out)
    return 0 if report.passed else 2


def _capped_vertex_count(v: int, k: int, cap: int) -> int | None:
    """``vertex_count(v, k)``, or None once it is known to exceed ``cap``.

    Builds C(v+k-1, i) for i = 0, 1, ... up to min(v-1, k); the sequence
    rises strictly, so it passes ``cap`` within about log2(cap) steps at any
    ``v`` and ``k`` and the numbers stay small.
    """
    n = v + k - 1
    count = 1
    for i in range(min(v - 1, k)):
        count = count * (n - i) // (i + 1)
        if count > cap:
            return None
    return count


def _check_budget(what: str, v: int, k: int) -> None:
    """Refuse, before anything is built, a k below 1 or a k-th power over the state budget."""
    if k < 1:  # a k of many digits is not written out, as below
        raise RedpowError(f"{what} has k = {k if k > -10**30 else 'below -10^30'}, not at least 1")
    # k may have thousands of digits: a count past 10^30 is neither computed
    # in full nor written out
    states = _capped_vertex_count(v, k, 10**30)
    if states is None or states > _STATE_BUDGET:
        shown = "more than 10^30" if states is None else states
        raise RedpowError(f"{what} has {shown} states, over the budget of {_STATE_BUDGET}")
    # k is held to the same bound: with v >= 2 the count C(k+v-1, k) >= k + 1
    # already is, and one vertex gives one state at any k, every word k long
    if k > _STATE_BUDGET:
        shown = "10^30 or more" if k >= 10**30 else k
        raise RedpowError(f"{what} has k = {shown}, over the budget of {_STATE_BUDGET}")


@dataclass(frozen=True)
class Verdict:
    """What :func:`check_reversibility` found; :meth:`as_dict` is the ``--out`` report."""

    k: int
    basis: CycleBasis
    single: KolmogorovReport
    kolmogorov: KolmogorovReport
    steady_state: SteadyState
    balance: BalanceReport

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "states": self.basis.host.num_states,
            "single_automaton": self.single.as_dict(),
            "kolmogorov": self.kolmogorov.as_dict(),
            "steady_state": self.steady_state.as_dict(),
            "detailed_balance": self.balance.as_dict(),
            "reversible": self.kolmogorov.passed,
        }


def check_reversibility(graph, k, spec, *, exact=False, root=None) -> Verdict:
    """Are ``k`` automata on ``graph`` with rates ``spec`` reversible, by both criteria?

    Raises :class:`RedpowError` on a k or power the budget refuses, before
    building anything, and when the two criteria disagree.
    """
    _check_budget("model", graph.num_vertices, k)
    root_index = _root_index(graph, root)
    single = single_automaton_check(graph, spec) if k > 1 else None
    basis = _basis_for(graph, k, root_index)
    mc = MasterChain(basis.host, spec)
    kolmogorov = kolmogorov_check(mc, basis)
    single = single or kolmogorov  # at k = 1 the main check is the single-automaton check

    def settle(mode: str):
        """The steady state in ``mode``; if that solve fails, the tree potential, if any."""
        try:
            return steady_state(mc, mode=mode)
        except SolverError:
            # neither float underflow nor the exact solve's state limit binds the tree potential
            ss = reversible_steady_state(mc)
            if ss is None:
                raise
            return ss

    ss = settle("exact" if exact else "float")
    balance = detailed_balance_check(ss, mc)
    if kolmogorov.passed != balance.balanced:
        # The float balance test has a relative tolerance and the cycle
        # criterion none, so either can pass where the other fails; the
        # exact law settles it.
        balance = detailed_balance_check(settle("exact"), mc)
    if kolmogorov.passed != balance.balanced:
        raise RedpowError("cycle criterion and exact detailed balance disagree")
    return Verdict(k, basis, single, kolmogorov, ss, balance)


def cmd_check_reversibility(args: argparse.Namespace) -> int:
    g, k, spec = load_model(args.model)
    v = check_reversibility(g, k, spec, exact=args.exact, root=args.root)
    print(f"single-automaton criterion: {'pass' if v.single.passed else 'fail'}")
    print(
        f"cycle criterion: {'pass' if v.kolmogorov.passed else 'fail'} "
        f"({len(v.kolmogorov.checks)} cycles, {len(v.kolmogorov.violations())} violations)"
    )
    print(f"detailed balance ({v.balance.mode}): {'pass' if v.balance.balanced else 'fail'}")
    print(f"verdict: {'reversible' if v.kolmogorov.passed else 'not reversible'}")
    _write_json(v.as_dict(), args.out)
    return 0 if v.kolmogorov.passed else 2


def cmd_check_single(args: argparse.Namespace) -> int:
    g, _, spec = load_model(args.model)
    _check_budget("model", g.num_vertices, 1)
    report = single_automaton_check(g, spec)
    n_bad = len(report.violations())
    print(
        f"single-automaton criterion: {'pass' if report.passed else 'fail'} "
        f"({len(report.checks)} cycles, {n_bad} violations)"
    )
    _write_json(report.as_dict(), args.out)
    return 0 if report.passed else 2


_COMMANDS = {
    "power": cmd_power,
    "mcb": cmd_mcb,
    "verify-squares": cmd_verify_squares,
    "check-reversibility": cmd_check_reversibility,
    "check-single": cmd_check_single,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "k", 1) < 1:
        print("error: --k must be a positive integer", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except RedpowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
