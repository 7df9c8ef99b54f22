"""Layer spans for the traced benchmark run.

The wrappers live here, outside the package: nothing under ``src/`` is
edited. ``redpow.cli``, ``redpow.ctmc`` and ``redpow.squares`` import
their callees with ``from .x import y``, so a wrapper is rebound under
every name in every redpow module that holds the original function,
not only in the module that defines it.

Spans stay in memory as tuples (case, id, parent, name, start, end,
counts, error) and are written out once, at the end of the run. A
span's self time is its duration minus the time its direct children
cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Public functions at each layer boundary, by defining module.
WRAPPED = {
    "graph": ("load_graph", "graph_from_dict", "graph_to_json", "graph_to_dot"),
    "power": ("build_reduced_power", "cartesian_power", "quotient_by_symmetry"),
    "cyclespace": ("greedy_mcb",),
    "squares": ("decomposition_basis", "verify_square_space"),
    "ctmc": (
        "load_model",
        "build_master",
        "single_automaton_check",
        "kolmogorov_check",
        "steady_state",
        "detailed_balance_check",
    ),
    "cli": ("main",),
}

# Per-layer self-time metrics and the spans whose self time each one sums.
TIME_METRICS = {
    "power.build_s": ("power.build_reduced_power",),
    "power.quotient_s": ("power.cartesian_power", "power.quotient_by_symmetry"),
    "squares.decomposition_basis_s": ("squares.decomposition_basis",),
    "squares.verify_square_space_s": ("squares.verify_square_space",),
    "cyclespace.greedy_mcb_s": ("cyclespace.greedy_mcb",),
    "cyclespace.basis_validate_s": ("cyclespace.basis_validate",),
    "ctmc.load_model_s": ("ctmc.load_model",),
    "ctmc.build_master_s": ("ctmc.build_master",),
    "ctmc.single_automaton_check_s": ("ctmc.single_automaton_check",),
    "ctmc.kolmogorov_check_s": ("ctmc.kolmogorov_check",),
    "ctmc.detailed_balance_s": ("ctmc.detailed_balance_check",),
    "ctmc.steady_state_float_s": ("ctmc.steady_state[float]",),
    "ctmc.steady_state_exact_s": ("ctmc.steady_state[exact]",),
    "cli.self_s": ("cli.main",),
    "graph.io_s": (
        "graph.load_graph",
        "graph.graph_from_dict",
        "graph.graph_to_json",
        "graph.graph_to_dot",
    ),
}

CASE = "case"  # root span of one case; its self time is benchmark glue
COUNT = "trace.count"  # time spent deriving counts from a result


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _kolmogorov_counts(report) -> dict:
    bits = max((max(_bits(c.forward), _bits(c.backward)) for c in report.checks), default=0)
    return {"product_bits": bits, "passed": report.passed}


def _steady_counts(ss) -> dict:
    if ss.mode != "exact":
        return {}
    return {"pi_bits": max(_bits(p) for p in ss.probabilities)}


COUNTERS = {
    "power.build_reduced_power": lambda rp: {"states": rp.num_states},
    "squares.decomposition_basis": lambda basis: {"elements": len(basis.elements)},
    "ctmc.kolmogorov_check": _kolmogorov_counts,
    "ctmc.steady_state[exact]": _steady_counts,
}


def _steady_state_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "float")
    return f"ctmc.steady_state[{mode}]"


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: dict[str, dict] = defaultdict(dict)
        self.case: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- installing ---

    def install(self) -> None:
        import redpow
        from redpow.cyclespace import CycleBasis

        modules = [redpow] + [
            m for name, m in sys.modules.items() if name.startswith("redpow.") and m is not None
        ]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"redpow.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                span = f"{layer}.{fn_name}"
                namer = _steady_state_name if span == "ctmc.steady_state" else None
                wrapper = self._wrap(span, original, namer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        original = CycleBasis.__post_init__
        self._restore.append((CycleBasis, "__post_init__", original))
        CycleBasis.__post_init__ = self._wrap("cyclespace.basis_validate", original, None)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def _wrap(self, span: str, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else span
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        if self.case is None:  # outside a traced case, e.g. while checking outputs
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.case, sid, parent, name, t0, t1, None, type(exc).__name__)
            raise
        t1 = perf_counter()
        self._stack.pop()
        counter = COUNTERS.get(name)
        counts = counter(result) if counter else None
        self.spans[sid] = (self.case, sid, parent, name, t0, t1, counts, None)
        if counter:
            self.spans.append((self.case, len(self.spans), parent, COUNT, t1, perf_counter(), None, None))
        return result

    # --- cases ---

    def run_case(self, case_id: str, fn):
        """Run ``fn()`` under a root span for ``case_id``; returns its result."""
        self.case = case_id
        try:
            return self._call(CASE, fn, (), {})
        finally:
            self.case = None

    def note(self, case_id: str, key: str, value) -> None:
        self.notes[case_id][key] = value

    # --- metrics ---

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        return {sid: (t1 - t0) - covered[sid] for _, sid, _, _, t0, t1, _, _ in self.spans}

    def layer_metrics(self) -> tuple[dict, dict, dict]:
        """Per-layer metrics, the sample count behind each, and a time account.

        Times and per-case counts are medians over the cases in which
        the layer ran; a layer that never ran reads 0 with 0 samples.
        """
        own = self.self_times()
        names = {sid: name for _, sid, _, name, *_ in self.spans}
        per_case: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        span_total: dict[str, float] = defaultdict(float)
        case_total = 0.0
        builds: dict[str, int] = defaultdict(int)
        states: dict[str, int] = defaultdict(int)
        elements: dict[str, int] = defaultdict(int)
        product_bits = pi_bits = solver_errors = 0
        verdicts: list[bool] = []
        for case, sid, parent, name, t0, t1, counts, error in self.spans:
            per_case[case][name] += own[sid]
            span_total[name] += own[sid]
            if name == CASE:
                case_total += t1 - t0
            elif name == "power.build_reduced_power":
                builds[case] += 1
                states[case] += counts["states"] if counts else 0
            elif name == "squares.decomposition_basis" and counts:
                elements[case] += counts["elements"]
            elif name == "ctmc.kolmogorov_check" and counts:
                product_bits = max(product_bits, counts["product_bits"])
                if parent is not None and names[parent] == "cli.main":
                    verdicts.append(counts["passed"])
            elif name.startswith("ctmc.steady_state"):
                if error == "SolverError":
                    solver_errors += 1
                if counts:
                    pi_bits = max(pi_bits, counts["pi_bits"])

        metrics: dict[str, float] = {}
        samples: dict[str, int] = {}

        def median_of(metric: str, values: list) -> None:
            metrics[metric] = statistics.median(values) if values else 0
            samples[metric] = len(values)

        for metric, span_names in TIME_METRICS.items():
            median_of(metric, [
                sum(times[n] for n in span_names)
                for times in per_case.values()
                if any(n in times for n in span_names)
            ])
        median_of("power.build_calls", list(builds.values()))
        median_of("power.states_built", list(states.values()))
        median_of("squares.basis_elements", list(elements.values()))
        median_of("cli.report_bytes", [
            n["report_bytes"] for n in self.notes.values() if "report_bytes" in n
        ])
        metrics["ctmc.product_bits_max"] = product_bits
        metrics["ctmc.pi_bits_max"] = pi_bits
        metrics["ctmc.solver_errors"] = solver_errors
        metrics["ctmc.reversible_share"] = sum(verdicts) / len(verdicts) if verdicts else 0
        samples["ctmc.reversible_share"] = len(verdicts)

        layered = sum(
            span_total[n] for span_names in TIME_METRICS.values() for n in span_names
        )
        account = {
            "case_s_total": case_total,
            "layer_self_s_total": layered,
            "bench_glue_s_total": span_total[CASE],
            "trace_count_s_total": span_total[COUNT],
            "unaccounted_s": case_total - layered - span_total[CASE] - span_total[COUNT],
            "spans": len(self.spans),
            "cases": len(per_case),
        }
        return metrics, samples, account

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for case, sid, parent, name, t0, t1, counts, error in self.spans:
                fh.write(json.dumps({
                    "case": case, "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "counts": counts, "error": error,
                }) + "\n")
