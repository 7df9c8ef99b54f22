#!/usr/bin/env python3
"""Mutation check: every catalogued mutant of src/ must be caught by its tests.

A mutant is one exact replacement of a text in a file under src/, with
the tests that must catch it. Each is applied in turn to a temporary copy
of src/, tests/ and pyproject.toml, where pytest runs its tests; it is
caught when pytest reports a failed test. The unmutated copy must pass
every listed test first.

Exits 0 when every mutant is caught; 1 on a survivor, on an old text
that does not occur exactly once in its file, or when pytest ends
otherwise than with passed or failed tests (a listed test that is not
found, a mutant that does not import).

Run: python scripts/mutation_check.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "the cycle criterion read after the try, not in its finally",
        "src/redpow/cli.py",
        "    finally:  # the criterion's error wins over the solve's\n",
        "    except BaseException:\n        raise\n    if True:\n",
        ("tests/test_cli.py::test_the_criterion_error_wins_over_a_failed_solve_on_either_thread",),
    ),
    Mutant(
        "the exact re-test also after a balance taken on the exact law",
        "src/redpow/cli.py",
        ' and balance.mode == "float":\n',
        ":\n",
        ("tests/test_cli.py::test_the_exact_law_is_solved_once_when_the_criteria_disagree",),
    ),
    Mutant(
        "a refuted chain keeps the law of its balanced potential",
        "src/redpow/cli.py",
        '        ss, balance = _settled(mc, "float")\n',
        "        pass\n",
        ("tests/test_cli.py::test_a_chain_balanced_within_the_float_tolerance_reports_the_dense_law",),
    ),
    Mutant(
        "the peel removes a walk whose edge two walks cross",
        "src/redpow/cyclespace.py",
        "alone = np.bincount(steps)[steps] == 1",
        "alone = np.bincount(steps)[steps] <= 2",
        ("tests/test_cyclespace.py::test_basis_rejects_a_dependent_set_of_the_right_size",),
    ),
    Mutant(
        "the cycle criterion compares each walk's forward product with itself",
        "src/redpow/ctmc.py",
        "for t in (step, step ^ 1)",
        "for t in (step, step)",
        (
            "tests/test_ctmc.py::test_single_automaton_check",
            "tests/test_ctmc.py::test_kolmogorov_verdict_is_basis_independent",
        ),
    ),
    Mutant(
        "the array verdict passes a walk whose products differ",
        "src/redpow/ctmc.py",
        "    if (fwd != bwd).any():\n",
        "    if False:\n",
        (
            "tests/test_acceptance.py::test_criterion_09_irreversibility_detection",
            "tests/test_cli.py::test_a_refuted_run_over_the_worker_threshold_builds_its_checks_on_the_worker",
        ),
    ),
    Mutant(
        "the per-walk check lets a walk repeat a vertex",
        "src/redpow/cyclespace.py",
        '    if repeats:\n        raise CycleSpaceError("cycle sequence repeats a vertex")\n',
        "",
        (
            "tests/test_cyclespace.py::test_cycle_edge_vector_rejects",
            "tests/test_cyclespace.py::test_trace_walks_raises_the_first_faulty_walks_own_error",
        ),
    ),
    Mutant(
        "exact detailed balance skips the edges out of state 0",
        "src/redpow/ctmc.py",
        "if num[x] * a != num[y] * b:",
        "if num[x] * a != num[y] * b and x:",
        ("tests/test_ctmc.py::test_exact_detailed_balance_equals_the_fraction_reference",),
    ),
    Mutant(
        "greedy_mcb drops its last length class",
        "src/redpow/cyclespace.py",
        "    for _, parts in groupby(heapq.merge(*blocks, key=operator.itemgetter(0)), operator.itemgetter(0)):\n",
        "    merged = list(heapq.merge(*blocks, key=operator.itemgetter(0)))\n"
        "    merged = [part for part in merged if part[0] < merged[-1][0]]\n"
        "    for _, parts in groupby(merged, operator.itemgetter(0)):\n",
        ("tests/test_cyclespace.py::test_greedy_mcb_simple_hosts",),
    ),
    Mutant(
        "an array walk steps from its smallest vertex to the larger neighbour",
        "src/redpow/cyclespace.py",
        "walk[:, 1] = across[::size].min(axis=1)",
        "walk[:, 1] = across[::size].max(axis=1)",
        (
            "tests/test_cyclespace.py::test_row_walks_equal_the_walk_cycle_decomposition_reads_off_each_row",
            "tests/test_cyclespace.py::test_greedy_mcb_equals_the_all_pairs_reference",
        ),
    ),
    Mutant(
        "the integer rule truncates with int() instead of operator.index()",
        "src/redpow/graph.py",
        "        i = operator.index(x)\n",
        "        i = int(x)\n",
        ("tests/test_graph.py::test_edge_position_refuses_a_vertex_index_by_the_integer_rule",),
    ),
    Mutant(
        "the walk tracer reads walk vertices without the integer rule",
        "src/redpow/cyclespace.py",
        "map(operator.index, chain.from_iterable(walks))",
        "chain.from_iterable(walks)",
        ("tests/test_cyclespace.py::test_trace_walks_refuses_a_walk_vertex_by_the_integer_rule",),
    ),
    Mutant(
        "the token-count helper accepts one below its least count",
        "src/redpow/power.py",
        "    return _index(n, None, PowerError, what, miss, start=least)\n",
        "    return _index(n, None, PowerError, what, miss, start=least - 1)\n",
        ("tests/test_power.py::test_vertex_count_refuses_a_count_by_the_integer_rule",),
    ),
    Mutant(
        "Graph.adjacency indexes its neighbour tuples without the integer rule",
        "src/redpow/graph.py",
        "        return self._adj[_index(i, len(self.labels))]\n",
        "        return self._adj[i]\n",
        ("tests/test_graph.py::test_adjacency_and_degree_refuse_a_vertex_index_by_the_integer_rule",),
    ),
    Mutant(
        "tree_square_count computes its closed form on unchecked counts",
        "src/redpow/squares.py",
        '    v, k = _count(v, "v", miss), _count(k, "k", miss)\n    return (v - 1)',
        "    return (v - 1)",
        ("tests/test_squares.py::test_tree_square_count_refuses_a_count_by_the_integer_rule",),
    ),
    Mutant(
        "a field built on read is built again on every read",
        "src/redpow/graph.py",
        "        object.__setattr__(self, name, value)\n",
        "",
        (
            "tests/test_cyclespace.py::test_a_basis_from_walk_arrays_builds_what_the_constructor_builds_from_the_same_walks",
            "tests/test_cyclespace.py::test_a_field_built_on_read_is_built_once",
            "tests/test_graph.py::test_the_python_views_are_built_once_each_and_kept",
        ),
    ),
    Mutant(
        "cartesian_power builds a one-vertex power past its label bound",
        "src/redpow/power.py",
        "    if k > _LABEL_COORDS:\n",
        "    if False:\n",
        # its first k, 10**7, builds unbounded in under a second and fails the test there
        ("tests/test_power.py::test_cartesian_power_refuses_a_one_vertex_k_past_the_label_bound",),
    ),
    Mutant(
        "model_from_dict echoes k by its raw repr",
        "src/redpow/ctmc.py",
        "got {_shown(k)}",
        "got {k!r}",
        ("tests/test_ctmc.py::test_model_from_dict_echoes_an_outside_value_in_a_bounded_form",),
    ),
    Mutant(
        "the tree rule skips its reach check",
        "src/redpow/graph.py",
        "        if len(reached) < n:\n"
        '            raise GraphError(f"vertex {depth.index(None)} is not reached from the root by the parent map")\n',
        "",
        (
            "tests/test_graph.py::test_a_cycle_of_parents_is_refused_naming_its_smallest_vertex",
            "tests/test_graph.py::test_a_parentless_vertex_that_is_not_the_root_is_refused_by_name",
        ),
    ),
    Mutant(
        "the shared independence check lets one dependency through",
        "src/redpow/cyclespace.py",
        "    if _walk_rank(*trace[:2], np.arange(n)) < n:\n",
        "    if _walk_rank(*trace[:2], np.arange(n)) < n - 1:\n",
        (
            "tests/test_cyclespace.py::test_basis_rejects_a_dependent_set_of_the_right_size",
            "tests/test_cyclespace.py::test_a_basis_from_walk_arrays_keeps_the_constructors_refusals",
        ),
    ),
    Mutant(
        "fundamental_cycles drops its last cycle",
        "src/redpow/cyclespace.py",
        '    info = tuple(ElementInfo(tag="fundamental") for _ in cycles)\n',
        '    cycles = cycles[:-1]\n    info = tuple(ElementInfo(tag="fundamental") for _ in cycles)\n',
        (
            "tests/test_cyclespace.py::test_greedy_and_fundamental_bases_equal_the_eager_basis_of_their_own_bitsets_and_walks",
        ),
    ),
    Mutant(
        "backward is built from the forward numerators",
        "src/redpow/ctmc.py",
        "        return self._fractions(self._ints[1])\n",
        "        return self._fractions(self._ints[0])\n",
        ("tests/test_ctmc.py::test_master_rates_worked_values",),
    ),
    Mutant(
        "the states maker drops the last state",
        "src/redpow/power.py",
        "states=lambda: tuple(Monomial._of_words(words, v))",
        "states=lambda: tuple(Monomial._of_words(words[:-1], v))",
        ("tests/test_power.py::test_rank_numbered_power_equals_the_dict_reference",),
    ),
    Mutant(
        "the master chain counts the tokens at the arrival vertex",
        "src/redpow/ctmc.py",
        "(counts[stay, src] + 1)",
        "(counts[stay, moves[:, 1::-1].ravel()] + 1)",
        ("tests/test_labelled_tokens.py::test_the_labelled_law_summed_over_orbits_is_the_exact_steady_state",),
    ),
    Mutant(
        "a hop reads the opposite direction's rate",
        "src/redpow/ctmc.py",
        "+ [0, 1]).ravel()",
        "+ [1, 0]).ravel()",
        ("tests/test_ctmc.py::test_master_rates_worked_values",),
    ),
    Mutant(
        "an uncoupled hop reads a coupled row",
        "src/redpow/ctmc.py",
        " if p in coupling else 0 for p in hops]",
        " if p in coupling else len(rows) - 1 for p in hops]",
        (
            "tests/test_ctmc.py::test_array_numerators_equal_eval_rate_on_the_suite_on_both_dtypes",
            "tests/test_ctmc.py::test_a_spec_gives_back_every_rate_it_was_given_on_both_dtypes",
        ),
    ),
    Mutant(
        "a coupled hop reads another vector's row",
        "src/redpow/ctmc.py",
        "rows.setdefault(scaled(coupling[p]), len(rows))",
        "rows.setdefault(scaled(coupling[p]), len(rows) - 1)",
        (
            "tests/test_ctmc.py::test_a_shared_coupling_vector_is_one_row_on_the_2380_state_potential_models",
            "tests/test_ctmc.py::test_a_spec_keeps_one_row_per_distinct_coupling_vector",
        ),
    ),
    Mutant(
        "the int64 bound check is skipped",
        "src/redpow/ctmc.py",
        "dtype = np.int64 if max(k * (top_b + (k - 1) * top_c), top_c) < 2**63 else object\n",
        "dtype = np.int64\n",
        ("tests/test_ctmc.py::test_a_spec_one_unit_past_the_int64_bound_takes_the_object_path",),
    ),
    Mutant(
        "the exact tree potential reads the parent-to-child rate for both directions",
        "src/redpow/ctmc.py",
        "bottom[x] * nums[t ^ 1]",
        "bottom[x] * nums[t]",
        ("tests/test_ctmc.py::test_tree_potential_equals_sparse_elimination_on_reversible_chains",),
    ),
    Mutant(
        "the float tree potential takes the log of the parent-to-child rate twice",
        "src/redpow/ctmc.py",
        "np.log(rates[t]) - np.log(rates[t ^ 1])",
        "np.log(rates[t]) - np.log(rates[t])",
        (
            "tests/test_ctmc.py::test_float_tree_potential_equals_the_dense_law_on_reversible_chains",
            "tests/test_ctmc.py::test_the_float_tree_potential_equals_its_per_edge_form_bit_for_bit",
        ),
    ),
    Mutant(
        "a tree step's direction bit is set for a parent below its child",
        "src/redpow/ctmc.py",
        "+ (parents > children)",
        "+ (parents < children)",
        (
            "tests/test_ctmc.py::test_tree_potential_equals_sparse_elimination_on_reversible_chains",
            "tests/test_ctmc.py::test_each_tree_step_is_the_transition_from_the_parent_to_the_child",
        ),
    ),
    Mutant(
        "the float rates divide rounded floats, rounding twice past 2^53",
        "src/redpow/ctmc.py",
        "np.fromiter(map(int.__truediv__, nums, repeat(den)), np.float64, len(nums))",
        "np.array(nums, dtype=np.float64) / den",
        ("tests/test_ctmc.py::test_float_rates_are_the_fraction_floats_bit_for_bit_on_a_potential_model",),
    ),
    Mutant(
        "the quotient's label parse skips its comma count",
        "src/redpow/power.py",
        "    if commas.count(k - 1) != n:\n",
        "    if False:\n",
        ("tests/test_power.py::test_the_quotient_names_the_first_label_of_the_wrong_shape",),
    ),
    Mutant(
        "the quotient's tuple lookup takes the vertex found without comparing its label",
        "src/redpow/power.py",
        "        if (at < 0).any() or list(map(labels.__getitem__, at.tolist())) != texts:\n",
        "        if (at < 0).any():\n",
        (
            "tests/test_power.py::test_quotient_rejects_repeated_tuples",
            "tests/test_power.py::test_the_quotient_of_a_product_with_a_stale_label_index_is_the_power",
        ),
    ),
    Mutant(
        "the quotient writes each found tuple's digits at the tuple's code, not at the vertex found",
        "src/redpow/power.py",
        "        digits[found, pos] = code // v ** (k - 1 - pos) % v\n",
        "        digits[code, pos] = code // v ** (k - 1 - pos) % v\n",
        (
            "tests/test_power.py::test_the_tuple_lookup_gives_the_parsed_digits_and_parses_only_on_a_miss",
            "tests/test_power.py::test_the_quotient_of_a_product_listed_in_another_vertex_order_is_the_power",
        ),
    ),
    Mutant(
        "the quotient's one-coordinate count accepts an edge that changes several",
        "src/redpow/power.py",
        "    if not (changes == 1).all():\n",
        "    if not (changes >= 1).all():\n",
        ("tests/test_power.py::test_the_quotient_refuses_an_edge_that_changes_two_coordinates_among_valid_ones",),
    ),
    Mutant(
        "the move record reads its base edge's ends high end first",
        "src/redpow/power.py",
        "base.pairs[moves[:, 3]]",
        "base.pairs[moves[:, 3]][:, ::-1]",
        # the oracle's tests cannot catch it: the oracle and the direct build share this line
        ("tests/test_power.py::test_rank_numbered_power_equals_the_dict_reference",),
    ),
    Mutant(
        "the public constructor's lowering takes a move along no base edge",
        "src/redpow/power.py",
        "        if not (base.has_edge(i, j) and i < j):\n",
        "        if not base.has_edge(i, j):\n",
        ("tests/test_power.py::test_the_public_constructor_refuses_a_move_along_no_base_edge_naming_the_annotation",),
    ),
    Mutant(
        "the public constructor's lowering takes a stay of the wrong degree",
        "src/redpow/power.py",
        " and f.degree == k - 1):\n",
        "):\n",
        ("tests/test_power.py::test_the_public_constructor_refuses_a_stay_that_is_no_monomial_of_k_minus_1_tokens",),
    ),
    Mutant(
        "an annotation pairs its edge with the previous stay monomial",
        "src/redpow/power.py",
        "(i, j, fs[s]) for i, j, s, _ in",
        "(i, j, fs[s - 1]) for i, j, s, _ in",
        ("tests/test_power.py::test_a_power_holds_its_moves_once_and_reads_each_annotation_off_them",),
    ),
    Mutant(
        "graph_to_json writes non-ASCII labels unescaped",
        "src/redpow/graph.py",
        "list(map(encode_basestring_ascii, g.labels))",
        "list(map(json.encoder.encode_basestring, g.labels))",
        ("tests/test_graph.py::test_graph_to_json_writes_the_bytes_of_json_dumps_with_indent_2",),
    ),
    Mutant(
        "the label index's one-pass path lets an empty label through",
        "src/redpow/graph.py",
        ' and "" not in label_index):\n',
        "):\n",
        ("tests/test_graph.py::test_the_label_index_names_the_first_fault_as_the_label_by_label_loop_did",),
    ),
    Mutant(
        "the square families take a tree whose order is not depth-ordered",
        "src/redpow/squares.py",
        "    if any(depth[a] > depth[b] for a, b in zip(t.order, t.order[1:])):\n",
        "    if False:\n",
        ("tests/test_squares.py::test_families_reject_depth_violating_tree",),
    ),
    Mutant(
        "a square corner keeps its stay token on c where it moved to d",
        "src/redpow/squares.py",
        "rows[:, [2, 2, 3, 3]]",
        "rows[:, [2, 2, 3, 2]]",
        ("tests/test_squares.py::test_structured_cycles_name_the_states_the_token_rows_rank",),
    ),
    Mutant(
        "a square walk is reversed when it is already canonical",
        "src/redpow/squares.py",
        "    flip = walks[:, 3] < walks[:, 1]\n",
        "    flip = walks[:, 3] > walks[:, 1]\n",
        ("tests/test_squares.py::test_structured_cycles_name_the_states_the_token_rows_rank",),
    ),
    Mutant(
        "the embedded base cycles park their tokens on vertex 0, not the root",
        "src/redpow/squares.py",
        "np.full(k - 1, tree.root)",
        "np.full(k - 1, 0)",
        ("tests/test_squares.py::test_structured_cycles_name_the_states_the_token_rows_rank",),
    ),
    Mutant(
        "the public constructor takes fewer or more annotations than edges",
        "src/redpow/power.py",
        "        if len(self._moves) != graph.num_edges:",
        "        if False:",
        ("tests/test_power.py::test_the_public_constructor_refuses_an_annotation_count_other_than_the_edge_count",),
    ),
    Mutant(
        "the public constructor's lowering unpacks an annotation unchecked",
        "src/redpow/power.py",
        "        try:\n            i, j, f = entry\n        except (TypeError, ValueError):\n",
        "        i, j, f = entry\n        if False:\n",
        ("tests/test_power.py::test_the_public_constructor_refuses_an_annotation_that_is_no_triple_naming_it",),
    ),
    Mutant(
        "a steady state writes an exact law as floats",
        "src/redpow/ctmc.py",
        '        text = _rational_str if self.mode == "exact" else float\n',
        "        text = float\n",
        ("tests/test_cli.py::test_check_reversibility_exact_writes_values_past_the_int_digit_limit",),
    ),
    Mutant(
        "the float balance report swaps its two flow columns",
        "src/redpow/ctmc.py",
        "tuple(lhs[bad].tolist()), tuple(rhs[bad].tolist())",
        "tuple(rhs[bad].tolist()), tuple(lhs[bad].tolist())",
        ("tests/test_ctmc.py::test_balance_report_columns_equal_the_per_violation_reference",),
    ),
    Mutant(
        "parse_rational's Decimal reader reads n/d as n",
        "src/redpow/ctmc.py",
        "return Fraction(int(Decimal(num)), int(Decimal(den or 1)))",
        "return Fraction(int(Decimal(num)), int(Decimal(1)))",
        # the worked values first: under -x they stop the run before hypothesis shrinks its sweep
        (
            "tests/test_ctmc.py::test_parse_rational",
            "tests/test_ctmc.py::test_parse_rational_reads_a_plain_number_as_decimal_does",
        ),
    ),
    Mutant(
        "the loader's per-document memo hands one string's rational to another string",
        "src/redpow/ctmc.py",
        "        q = parsed.get(value)\n",
        "        q = next(iter(parsed.values()), None)\n",
        ("tests/test_ctmc.py::test_model_from_dict_reads_each_value_string_once_as_parse_rational_does",),
    ),
)


def misplaced() -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its file."""
    lines = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            lines.append(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    return lines


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    # no bytecode cache: a mutant of the same size, written within the same
    # second, would otherwise be read from the previous run's stale .pyc
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def _report(what: str, run: subprocess.CompletedProcess) -> None:
    tail = (run.stdout + run.stderr).strip().splitlines()[-15:]
    print(f"{what} (pytest exit {run.returncode}):", *tail, sep="\n  ")


def main() -> int:
    problems = misplaced()
    for line in problems:
        print(f"error: {line}")
    if problems:
        return 1
    with tempfile.TemporaryDirectory(prefix="redpow-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        every_test = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        run = _pytest(copy, every_test)
        if run.returncode != 0:
            _report("error: the unmutated copy fails the listed tests", run)
            return 1
        status = 0
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            run = _pytest(copy, mutant.tests)
            path.write_text(original, encoding="utf-8")
            if run.returncode == 1:
                print(f"caught: {mutant.name}")
            else:
                status = 1
                _report(f"{'SURVIVED' if run.returncode == 0 else 'error'}: {mutant.name}", run)
    print(f"{len(MUTANTS)} mutants, {'all caught' if status == 0 else 'not all caught'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
