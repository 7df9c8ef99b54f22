"""Command-line interface.

Subcommands build reduced powers, construct and verify cycle bases,
and run the reversibility checks on coupled-automaton models:
``check-reversibility`` loads a model, calls :func:`check_reversibility`
and prints its :class:`Verdict`. That call builds the k-th power once,
first, settles the steady state on the calling thread, then takes the
cycle criterion. In float mode a detailed-balanced chain is settled in
O(E) by its float tree potential; any other chain, and one the cycle
criterion refutes, by the dense solve. From ``_OVERLAP_STATES`` (500)
float states on, the criterion is joined from a worker thread that ran
it during the settle, with the same results, messages and exit codes.
A reversible run's ``--out`` law is the potential's, which may differ
from the dense law's in its last bits.
Exit codes: 0 success (and checks passed), 2 a check ran and failed, 1
bad input or internal failure. A usage error (an unknown or
missing option, a value of the wrong type) exits 2 from argparse before
anything runs, so 2 alone is no verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import PowerError, RedpowError, SolverError
from .graph import _index, bfs_spanning_tree, graph_to_dot, graph_to_json, load_graph
from .power import (
    build_reduced_power,
    cartesian_power,
    edge_count,
    quotient_by_symmetry,
    vertex_count,
)
from .cyclespace import CycleBasis, greedy_mcb
from .squares import _decomposition_on, verify_square_space
from .ctmc import (
    BalanceReport,
    KolmogorovReport,
    MasterChain,
    SteadyState,
    _FLOAT_STATE_LIMIT as _STATE_BUDGET,
    _float_tree_potential,
    detailed_balance_check,
    kolmogorov_check,
    load_model,
    reversible_steady_state,
    single_automaton_check,
    steady_state,
)

__all__ = ["main", "entry", "check_reversibility", "Verdict"]


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
        # encoded before the file is opened: a lone surrogate in a label leaves no file
        Path(path).write_bytes(text.encode("utf-8"))
    except (OSError, UnicodeEncodeError) as exc:
        raise RedpowError(f"cannot write {kind} file {path}: {exc}") from None


def _write_json(build_doc, out: Path | None) -> None:
    if out is not None:
        _write(json.dumps(build_doc()) + "\n", out, "report")


def _root_index(g, root: str | None) -> int:
    return g.index_of(root) if root is not None else 0


def _basis_for(rp, root: int) -> CycleBasis:
    """A run's cycle basis on the power ``rp``: greedy MCB at k = 1, else the decomposition."""
    if rp.k == 1:
        return greedy_mcb(rp)
    return _decomposition_on(rp, bfs_spanning_tree(rp.base, root))


def _basis_doc(basis: CycleBasis) -> dict:
    labels = basis.host.graph.labels
    elements = [
        {"length": len(seq), "vertices": [labels[s] for s in seq], "tag": info.tag}
        for seq, info in zip(basis.cycles, basis.info)
    ]
    return {
        "kind": basis.kind,
        "certified_minimum": basis.certified_minimum,
        "element_count": len(elements),
        "total_length": basis.total_length,
        "elements": elements,
    }


def cmd_power(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    _check_budget("power", g.num_vertices, args.k)
    rp = build_reduced_power(g, args.k)
    v, e = g.num_vertices, g.num_edges
    print(
        f"states={rp.num_states} (formula {vertex_count(v, args.k)}) "
        f"edges={rp.num_edges} (formula {edge_count(e, v, args.k)})"
    )
    try:
        product = cartesian_power(g, args.k)
    except PowerError as exc:
        print(f"cross-check: skipped ({exc})")
    else:
        oracle = quotient_by_symmetry(product, g, args.k)
        del product  # free it before the outputs are rendered: it sets the peak RSS
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
    root = _root_index(g, args.root)
    basis = _basis_for(build_reduced_power(g, args.k), root)
    print(
        f"kind={basis.kind} elements={len(basis._trace[0])} "
        f"total_length={basis.total_length} "
        f"certified_minimum={str(basis.certified_minimum).lower()}"
    )
    _write_json(lambda: _basis_doc(basis), args.out)
    return 0


def cmd_verify_squares(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    _check_budget("power", g.num_vertices, args.k)
    tree = bfs_spanning_tree(g, _root_index(g, args.root))
    report = verify_square_space(g, tree, args.k)
    for key in ("counts_match", "independent", "projects_to_zero", "spans_kernel", "direct_sum"):
        print(f"{key}: {'ok' if getattr(report, key) else 'FAIL'}")
    print(f"square space: {'PASS' if report.passed else 'FAIL'}")
    _write_json(report.as_dict, args.out)
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


def _check_budget(what: str, v: int, k: int) -> int:
    """Refuse a non-integer k, a k below 1 or a power over the state budget; return k as an int."""
    k = _index(k, None, RedpowError, f"{what} k", start=None)
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
    return k


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


# From this many float states on, the basis and the cycle criterion run on
# a worker thread during the settle and are joined after it; below it, and
# under --exact, they run inline after the settle. Only LAPACK releases the
# GIL for long, so chains left to the dense solve gain. One
# check_reversibility call, inline -> worker, in process, one BLAS thread,
# 2 cores, range of the best of 5 over two alternations, on float-ladder's
# random bases at k = 4: irreversible chains gain, 715 states 30.2-30.4 ->
# 25.1-25.3 ms, 1365 85.8-89.4 -> 61.8-62.7, 2380 233.9-240.5 -> 189.1-191.0;
# reversible ones, settled by the float tree potential, lose up to 1.9 ms:
# 12.1 -> 12.8-13.1, 25.9-26.0 -> 26.9, 47.3-48.3 -> 48.1-49.2. Below it the
# worker costs 0.4-1.3 ms (C7, C8 and C9 at k = 4, 210 to 495 states, both
# kinds, measured the same way).
_OVERLAP_STATES = 500


def _cycle_criterion(mc: MasterChain, root: int) -> tuple[CycleBasis, KolmogorovReport]:
    """The run's cycle basis and the cycle criterion on it."""
    basis = _basis_for(mc.rp, root)
    return basis, kolmogorov_check(mc, basis)


def _balanced_potential(mc: MasterChain) -> tuple[SteadyState, BalanceReport] | None:
    """The float tree potential and its balance report, if balanced on every edge; else None."""
    ss = _float_tree_potential(mc)
    if ss is not None:
        balance = detailed_balance_check(ss, mc)
        if balance.balanced:
            return ss, balance
    return None


def _settled(mc: MasterChain, mode: str) -> tuple[SteadyState, BalanceReport]:
    """``steady_state(mc, mode)``, else the exact tree potential, with its balance report."""
    try:
        ss = steady_state(mc, mode)
    except SolverError:
        # no state limit of either solve, nor float underflow, binds the tree potential
        ss = reversible_steady_state(mc)
        if ss is None:
            raise
    return ss, detailed_balance_check(ss, mc)


def check_reversibility(graph, k, spec, *, exact=False, root=None) -> Verdict:
    """Are ``k`` automata on ``graph`` with rates ``spec`` reversible, by both criteria?

    Raises :class:`RedpowError` on a k or power the budget refuses, before
    building anything, and when the two criteria disagree.

    The k-th power is built once, first, and the master chain, the basis
    and the steady state all read it. The steady state is settled first,
    on the calling thread: in float mode by the float tree potential where
    it passes the float balance test on every edge (:func:`_balanced_potential`),
    with no dense system, its law differing from the dense one at most in
    its last bits; else by :func:`_settled`. Then, whatever the settle
    raised, the basis and the cycle criterion, whose error wins: inline, or
    from ``_OVERLAP_STATES`` float states on, joined from a worker thread
    that ran them during the settle (the gain needs a second core; the BLAS
    thread settings are respected). A chain the criterion refutes reports
    the dense law, also one balanced within the float test's tolerance.
    """
    k = _check_budget("model", graph.num_vertices, k)
    root_index = _root_index(graph, root)
    single = single_automaton_check(graph, spec) if k > 1 else None
    mc = MasterChain(build_reduced_power(graph, k), spec)
    worker = None
    if not exact and mc.num_states >= _OVERLAP_STATES:
        from concurrent.futures import ThreadPoolExecutor  # here, not at load: it costs ~6 ms

        worker = ThreadPoolExecutor(1, thread_name_prefix="redpow-cycle-criterion")
        criterion = worker.submit(_cycle_criterion, mc, root_index)
    try:
        potential = None if exact else _balanced_potential(mc)
        ss, balance = potential or _settled(mc, "exact" if exact else "float")
    finally:  # the criterion's error wins over the solve's
        if worker is None:
            basis, kolmogorov = _cycle_criterion(mc, root_index)
        else:
            worker.shutdown()
            basis, kolmogorov = criterion.result()
    if potential and not kolmogorov.passed:
        # Balanced within the float test's relative tolerance, yet refuted by
        # the exact cycle criterion: report the dense law, as for any other
        # irreversible chain.
        ss, balance = _settled(mc, "float")
    single = single or kolmogorov  # at k = 1 the main check is the single-automaton check
    if kolmogorov.passed != balance.balanced and balance.mode == "float":
        # The float balance test has a relative tolerance and the cycle
        # criterion none, so either can pass where the other fails; the
        # exact law settles it.
        _, balance = _settled(mc, "exact")
    if kolmogorov.passed != balance.balanced:
        raise RedpowError("cycle criterion and exact detailed balance disagree")
    return Verdict(k, basis, single, kolmogorov, ss, balance)


def cmd_check_reversibility(args: argparse.Namespace) -> int:
    g, k, spec = load_model(args.model)
    v = check_reversibility(g, k, spec, exact=args.exact, root=args.root)
    print(f"single-automaton criterion: {'pass' if v.single.passed else 'fail'}")
    print(
        f"cycle criterion: {'pass' if v.kolmogorov.passed else 'fail'} "
        f"({v.kolmogorov._checked} cycles, {len(v.kolmogorov.violations())} violations)"
    )
    print(f"detailed balance ({v.balance.mode}): {'pass' if v.balance.balanced else 'fail'}")
    print(f"verdict: {'reversible' if v.kolmogorov.passed else 'not reversible'}")
    _write_json(v.as_dict, args.out)
    return 0 if v.kolmogorov.passed else 2


def cmd_check_single(args: argparse.Namespace) -> int:
    g, _, spec = load_model(args.model)
    _check_budget("model", g.num_vertices, 1)
    report = single_automaton_check(g, spec)
    n_bad = len(report.violations())
    print(
        f"single-automaton criterion: {'pass' if report.passed else 'fail'} "
        f"({report._checked} cycles, {n_bad} violations)"
    )
    _write_json(report.as_dict, args.out)
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


if __name__ == "__main__":
    entry()
