"""Master chains, cycle criterion, steady states, detailed balance."""

from __future__ import annotations

import json
import math
import random
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    CycleBasis,
    Graph,
    GraphError,
    MasterChain,
    ModelError,
    Monomial,
    RateSpec,
    RedpowError,
    SolverError,
    SteadyState,
    betti,
    build_master,
    build_reduced_power,
    decomposition_basis,
    detailed_balance_check,
    eval_rate,
    fundamental_cycles,
    bfs_spanning_tree,
    graph_to_dict,
    greedy_mcb,
    kolmogorov_check,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_rational,
    reversible_steady_state,
    single_automaton_check,
    steady_state,
)
from redpow import ctmc
from redpow.ctmc import (
    _checked_exact,
    _eliminate,
    _float_tree_potential,
    _lifted_pi,
    _reconstruct,
    _solve_sparse,
)

from conftest import (
    JSON_VALUES,
    LABELS,
    complete_graph,
    cycle_graph,
    generator_suite,
    pentagon,
    path_graph,
    pentagon_spec,
    random_connected_graph,
)

F = Fraction


# --- rational parsing ---


def test_parse_rational():
    assert parse_rational(3, "x") == F(3)
    assert parse_rational("3", "x") == F(3)
    assert parse_rational("1/3", "x") == F(1, 3)
    with pytest.raises(ModelError, match="floats are not exact"):
        parse_rational(0.5, "x")
    with pytest.raises(ModelError, match="cannot parse"):
        parse_rational("1/0", "x")
    with pytest.raises(ModelError, match="booleans"):
        parse_rational(True, "x")
    with pytest.raises(ModelError, match="expected an int or string"):
        parse_rational(None, "x")


def _decimal_rational(text: str) -> Fraction:
    """A plain 'n' or 'n/d', with spaces around it, read through Decimal: the reference of parse_rational."""
    num, _, den = text.strip().partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


_DIGITS = st.builds(
    lambda zeros, n: "0" * zeros + str(n), st.integers(0, 3), st.integers(0, 10**40)
)


@settings(max_examples=300, deadline=None)
@given(
    sign=st.sampled_from(["", "+", "-"]),
    num=_DIGITS,
    den=st.none() | _DIGITS,
    ends=st.tuples(*[st.text(" \t\n\r\x0b\x0c\u00a0\u2003", max_size=2)] * 2),
)
def test_parse_rational_reads_a_plain_number_as_decimal_does(sign, num, den, ends):
    text = ends[0] + sign + num + ("" if den is None else "/" + den) + ends[1]
    try:
        expected = _decimal_rational(text)
    except ZeroDivisionError as exc:
        with pytest.raises(ModelError) as info:
            parse_rational(text, "x")
        assert str(info.value) == f"x: cannot parse rational {text!r}: {exc}"
    else:
        assert parse_rational(text, "x") == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit limit")
def test_parse_rational_reads_plain_numbers_at_and_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for digits in (640, 641):
            for sign in ("", "-", "+"):
                n, d = sign + "7" + "3" * (digits - 1), "9" * digits
                for text in (n, f"{n}/{d}", f"{n}/7", f"{sign}5/{d}", f" {n}/{d}\n"):
                    assert parse_rational(text, "x") == _decimal_rational(text)
    finally:
        sys.set_int_max_str_digits(limit)


# --- rate specifications ---


def test_rate_spec_requires_both_directions():
    g = Graph("ab", [("a", "b")])
    with pytest.raises(ModelError, match="missing rate for directed edge 'b->a'"):
        RateSpec(g, {(0, 1): F(1)})


def test_rate_spec_rejects_non_edges_and_bad_vectors():
    g = Graph("abc", [("a", "b"), ("b", "c")])
    full = {(0, 1): F(1), (1, 0): F(1), (1, 2): F(1), (2, 1): F(1)}
    with pytest.raises(ModelError, match="non-edge"):
        RateSpec(g, {**full, (0, 2): F(1)})
    with pytest.raises(ModelError, match="non-edge"):
        RateSpec(g, full, {(0, 2): (F(0),) * 3})
    with pytest.raises(ModelError, match="3 entries"):
        RateSpec(g, full, {(0, 1): (F(0),) * 2})


_FULL_AB = {(0, 1): F(1), (1, 0): F(1), (1, 2): F(1), (2, 1): F(1)}


@pytest.mark.parametrize(
    "base,coupling,message",
    [
        ({(0, 1): "x"}, None, "base rate for 'a->b' is 'x', not a rational"),
        ({(1, 0): None}, None, "base rate for 'b->a' is None, not a rational"),
        ({(2, 1): "1/0"}, None, "base rate for 'c->b' is '1/0', not a rational"),
        ({}, {(0, 1): (0, "x", 0)}, "coupling entry for 'a->b' is 'x', not a rational"),
        ({}, {(1, 2): (0, 0, float("inf"))}, "coupling entry for 'b->c' is inf, not a rational"),
        ({}, {(1, 0): 5}, "coupling vector for 'b->a' is 5, not a sequence"),
    ],
)
def test_rate_spec_refuses_a_value_fraction_refuses_naming_its_pair(base, coupling, message):
    g = Graph("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ModelError) as info:
        RateSpec(g, {**_FULL_AB, **base}, coupling)
    assert str(info.value) == message


def test_rate_spec_reads_base_rates_and_coupling_entries_by_one_rule():
    g = Graph("abc", [("a", "b"), ("b", "c")])
    given = RateSpec(g, {**_FULL_AB, (0, 1): "1/2"}, {(0, 1): ("1/2", 0.25, 3)})
    exact = RateSpec(g, {**_FULL_AB, (0, 1): F(1, 2)}, {(0, 1): (F(1, 2), F(1, 4), F(3))})
    for spec in (given, exact):
        assert spec.base_rate(0, 1) == F(1, 2)
        assert spec.coupling_vector(0, 1) == (F(1, 2), F(1, 4), F(3))
    assert model_to_dict(g, 2, given) == model_to_dict(g, 2, exact)


def test_eval_rate_functional():
    spec = pentagon_spec(32, 1, 2, alpha=1, beta=3, gamma=5, delta=7, eps=11)
    assert eval_rate(spec, 0, 1, Monomial((3, 0, 0, 0, 0))) == 32 + 2 * 1
    assert eval_rate(spec, 0, 1, Monomial((2, 0, 1, 0, 0))) == 32 + 1 + 5
    assert eval_rate(spec, 0, 1, Monomial((1, 1, 0, 0, 1))) == 32 + 3 + 11
    # constant rates ignore occupancy
    assert eval_rate(spec, 2, 3, Monomial((0, 0, 3, 0, 0))) == 1
    assert eval_rate(spec, 2, 1, Monomial((0, 0, 3, 0, 0))) == 2


def test_eval_rate_excludes_the_mover():
    spec = pentagon_spec(10, 1, 2, alpha=1)
    # a single token on a: coupling to its own vertex never fires
    assert eval_rate(spec, 0, 1, Monomial((1, 0, 0, 0, 0))) == 10


def test_eval_rate_requires_a_token():
    spec = pentagon_spec(10, 1, 2)
    with pytest.raises(ModelError, match="no token"):
        eval_rate(spec, 0, 1, Monomial((0, 1, 1, 1, 0)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_rate_matches_the_rate_spec_formula(data):
    g = pentagon()
    # every p/q with q <= 7 and |p/q| <= 9, drawn from integers: the same values
    # through st.fractions made this test about three times slower
    rational = st.integers(1, 7).flatmap(
        lambda q: st.integers(-9 * q, 9 * q).map(lambda p: Fraction(p, q))
    )
    pairs = [pair for i, j in g.edges for pair in ((i, j), (j, i))]
    base = {pair: data.draw(rational) for pair in pairs}
    coupling = {pair: tuple(data.draw(rational) for _ in range(5)) for pair in pairs}
    spec = RateSpec(g, base, coupling)
    exps = data.draw(st.lists(st.integers(0, 3), min_size=5, max_size=5).filter(any))
    i = data.draw(st.sampled_from([l for l in range(5) if exps[l]]))
    j = data.draw(st.sampled_from(g.adjacency(i)))
    c = coupling[(i, j)]
    expected = base[(i, j)] + sum(c[l] * (exps[l] - (l == i)) for l in range(5))
    assert eval_rate(spec, i, j, Monomial(tuple(exps))) == expected


# --- master chain construction ---


def master_rate(mc, xs, ys):
    x = mc.rp.state_index(Monomial(xs))
    y = mc.rp.state_index(Monomial(ys))
    return mc.rate(x, y)


def test_master_rates_worked_values():
    lam, mu, nu = F(32), F(1), F(2)
    alpha, beta, gamma, delta, eps = F(1), F(3), F(5), F(7), F(11)
    spec = pentagon_spec(lam, mu, nu, alpha, beta, gamma, delta, eps)
    mc = build_master(pentagon(), 3, spec)
    assert master_rate(mc, (1, 0, 0, 2, 0), (1, 0, 0, 1, 1)) == 2 * mu
    assert master_rate(mc, (0, 0, 3, 0, 0), (0, 1, 2, 0, 0)) == 3 * nu
    assert master_rate(mc, (2, 0, 1, 0, 0), (2, 1, 0, 0, 0)) == nu
    assert master_rate(mc, (1, 1, 0, 0, 1), (0, 2, 0, 0, 1)) == lam + beta + eps
    assert master_rate(mc, (3, 0, 0, 0, 0), (2, 1, 0, 0, 0)) == 3 * (lam + 2 * alpha)
    assert master_rate(mc, (2, 0, 1, 0, 0), (1, 1, 1, 0, 0)) == 2 * (lam + alpha + gamma)


def test_master_rate_zero_for_non_adjacent():
    mc = build_master(pentagon(), 2, pentagon_spec(1, 1, 1))
    x = mc.rp.state_index(Monomial((2, 0, 0, 0, 0)))
    y = mc.rp.state_index(Monomial((0, 0, 2, 0, 0)))
    assert mc.rate(x, y) == 0


def test_master_rejects_nonpositive_rates():
    spec = pentagon_spec(1, 1, 2, alpha=-5)
    with pytest.raises(ModelError, match="must be positive"):
        build_master(pentagon(), 3, spec)


def test_master_rejects_wrong_graph():
    spec = pentagon_spec(1, 1, 1)
    with pytest.raises(ModelError, match="different graph"):
        build_master(cycle_graph(5), 2, spec)


def test_exit_rates_sum_outgoing():
    mc = build_master(pentagon(), 2, pentagon_spec(3, 1, 2, alpha=1))
    for x in range(mc.num_states):
        total = sum(
            (mc.rate(x, y) for y in mc.rp.graph.adjacency(x)), F(0)
        )
        assert mc.exit_rate(x) == total


def test_k1_master_equals_base_rates():
    spec = pentagon_spec(7, 2, 3, alpha=4, beta=5)
    mc = build_master(pentagon(), 1, spec)
    for i, j in spec.directed_pairs():
        assert mc.rate(i, j) == spec.base_rate(i, j)


@pytest.mark.parametrize(
    "spec",
    [pentagon_spec(32, 1, 2), pentagon_spec(32, 1, 2, alpha=1, beta=3, gamma=5)],
)
def test_master_chain_on_basis_host_matches_build_master(spec):
    g = pentagon()
    basis = decomposition_basis(g, 3)
    shared = MasterChain(basis.host, spec)
    separate = build_master(g, 3, spec)
    assert separate.rp is not basis.host
    for x, y in shared.rp.graph.edges:
        assert shared.rate(x, y) == separate.rate(x, y)
        assert shared.rate(y, x) == separate.rate(y, x)
    on_shared = kolmogorov_check(shared, basis)
    on_separate = kolmogorov_check(separate, basis)
    assert on_shared.passed == on_separate.passed
    assert [(c.forward, c.backward) for c in on_shared.checks] == [
        (c.forward, c.backward) for c in on_separate.checks
    ]


# --- cycle criterion ---


def test_kolmogorov_uncoupled_reversible():
    spec = pentagon_spec(32, 1, 2)
    g = pentagon()
    for k in (2, 3):
        mc = build_master(g, k, spec)
        report = kolmogorov_check(mc, decomposition_basis(g, k))
        assert report.passed
        assert len(report.checks) == betti(mc.rp.graph)
    mc1 = build_master(g, 1, spec)
    assert kolmogorov_check(mc1, greedy_mcb(mc1.rp)).passed


def test_kolmogorov_uncoupled_squares_always_pass():
    # base rates violate the ring constraint, so only the embedded cycle fails
    spec = pentagon_spec(33, 1, 2)
    g = pentagon()
    mc = build_master(g, 3, spec)
    report = kolmogorov_check(mc, decomposition_basis(g, 3))
    assert not report.passed
    bad = report.violations()
    assert len(bad) == 1
    assert bad[0].tag == "embedded"
    # the a^3 state contributes an occupancy factor of 3 in both directions
    assert {bad[0].forward, bad[0].backward} == {F(3 * 33 * 1**4), F(3 * 2**5)}


def test_kolmogorov_verdict_is_basis_independent():
    g = pentagon()
    spec = pentagon_spec(32, 1, 2, alpha=1, beta=1, gamma=2, delta=1, eps=1)
    mc = build_master(g, 2, spec)
    rp = mc.rp
    verdicts = {
        kolmogorov_check(mc, decomposition_basis(g, 2)).passed,
        kolmogorov_check(mc, greedy_mcb(rp)).passed,
        kolmogorov_check(mc, fundamental_cycles(rp, bfs_spanning_tree(rp.graph, 0))).passed,
    }
    assert verdicts == {False}
    # k = 2: equal couplings give the constant lam + alpha, so lam = 31
    spec_ok = pentagon_spec(31, 1, 2, alpha=1, beta=1, gamma=1, delta=1, eps=1)
    mc_ok = build_master(g, 2, spec_ok)
    verdicts_ok = {
        kolmogorov_check(mc_ok, decomposition_basis(g, 2)).passed,
        kolmogorov_check(mc_ok, greedy_mcb(mc_ok.rp)).passed,
        kolmogorov_check(
            mc_ok, fundamental_cycles(mc_ok.rp, bfs_spanning_tree(mc_ok.rp.graph, 0))
        ).passed,
    }
    assert verdicts_ok == {True}


def test_kolmogorov_orientation_invariance():
    g = pentagon()
    spec = pentagon_spec(32, 1, 2, alpha=1, beta=2, gamma=3)
    mc = build_master(g, 2, spec)
    basis = decomposition_basis(g, 2)
    flipped = CycleBasis(
        host=basis.host,
        elements=basis.elements,
        kind=basis.kind,
        cycles=tuple(tuple(reversed(seq)) for seq in basis.cycles),
        certified_minimum=basis.certified_minimum,
        info=basis.info,
    )
    fwd = kolmogorov_check(mc, basis)
    rev = kolmogorov_check(mc, flipped)
    assert fwd.passed == rev.passed
    for a, b in zip(fwd.checks, rev.checks):
        assert a.passed == b.passed
        assert {a.forward, a.backward} == {b.forward, b.backward}


def test_kolmogorov_rejects_foreign_basis():
    g = pentagon()
    mc = build_master(g, 2, pentagon_spec(1, 1, 1))
    with pytest.raises(ModelError, match="different state graph"):
        kolmogorov_check(mc, greedy_mcb(cycle_graph(4)))


def test_single_automaton_check():
    assert single_automaton_check(pentagon(), pentagon_spec(32, 1, 2)).passed
    assert not single_automaton_check(pentagon(), pentagon_spec(33, 1, 2)).passed
    # couplings never activate a single automaton
    assert single_automaton_check(pentagon(), pentagon_spec(32, 1, 2, beta=9)).passed
    k4 = complete_graph(4)
    sym = RateSpec(
        k4,
        {pair: F(3) for i, j in k4.edges for pair in ((i, j), (j, i))},
    )
    report = single_automaton_check(k4, sym)
    assert report.passed
    assert len(report.checks) == 3


# --- steady state ---


def test_steady_state_two_state_closed_form():
    g = Graph("ab", [("a", "b")])
    p, q = F(3), F(5)
    spec = RateSpec(g, {(0, 1): p, (1, 0): q})
    mc = build_master(g, 1, spec)
    exact = steady_state(mc, mode="exact")
    assert exact.probabilities == (q / (p + q), p / (p + q))
    approx = steady_state(mc, mode="float")
    assert abs(approx.probabilities[0] - float(q / (p + q))) < 1e-12
    assert approx.residual_inf <= 1e-10


def test_steady_state_uniform_on_symmetric_ring():
    g = pentagon()
    spec = pentagon_spec(1, 1, 1)
    mc = build_master(g, 1, spec)
    exact = steady_state(mc, mode="exact")
    assert exact.probabilities == (F(1, 5),) * 5


def test_steady_state_modes_agree():
    spec = pentagon_spec(32, 1, 2, alpha=1, beta=2, gamma=1, delta=1, eps=3)
    mc = build_master(pentagon(), 2, spec)
    exact = steady_state(mc, mode="exact")
    approx = steady_state(mc, mode="float")
    for pe, pf in zip(exact.probabilities, approx.probabilities):
        assert abs(float(pe) - pf) < 1e-12


def test_a_steady_state_writes_each_probability_by_its_mode():
    assert SteadyState((1,), "exact", 0.0, 0.0).as_dict()["probabilities"] == ["1"]
    assert SteadyState((F(1, 3), F(2, 3)), "exact", 0.0, 0.0).as_dict()["probabilities"] == ["1/3", "2/3"]
    assert SteadyState((F(1, 2), F(1, 2)), "float", 0.0, 0.0).as_dict()["probabilities"] == [0.5, 0.5]


def test_steady_state_rejects_unknown_mode_and_large_exact():
    mc = build_master(pentagon(), 1, pentagon_spec(1, 1, 1))
    with pytest.raises(SolverError, match="unknown steady-state mode"):
        steady_state(mc, mode="symbolic")
    big = build_master(pentagon(), 8, pentagon_spec(1, 1, 1))
    assert big.num_states == 495
    with pytest.raises(SolverError, match="up to 400 states"):
        steady_state(big, mode="exact")


WIDE = 10**12


def _rational(rng, wide, lo=1):
    top = WIDE if wide else 9
    return F(rng.randint(lo, top), rng.randint(1, top))


def _ring_chain(n, k, rng, reversible, wide):
    """C_n ring: forward mu, backward nu, first forward edge lam + couplings.

    Reversible exactly when the couplings are equal and
    (lam + c (k-1)) mu^(n-1) = nu^n.
    """
    g = cycle_graph(n)
    mu, nu = _rational(rng, wide), _rational(rng, wide)
    if reversible:
        total = nu**n / mu ** (n - 1)
        alpha = total / rng.randint(2 * k - 1, 4 * k)
        lam, coup = total - (k - 1) * alpha, (alpha,) * n
    else:
        lam = _rational(rng, wide)
        coup = tuple(_rational(rng, wide, lo=0) for _ in range(n))
    base = {}
    for i in range(n):
        base[(i, (i + 1) % n)], base[((i + 1) % n, i)] = mu, nu
    base[(0, 1)] = lam
    return build_master(g, k, RateSpec(g, base, {(0, 1): coup}))


def _potential_chain(g, k, rng, wide):
    """Rates i->j = s_ij phi(j), s symmetric and no coupling: reversible."""
    phi = [_rational(rng, wide) for _ in range(g.num_vertices)]
    base = {}
    for i, j in g.edges:
        s = _rational(rng, wide)
        base[(i, j)], base[(j, i)] = s * phi[j], s * phi[i]
    return build_master(g, k, RateSpec(g, base))


def _random_chain(g, k, rng, wide):
    """Independent random rates and couplings on every directed edge."""
    v = g.num_vertices
    base, coupling = {}, {}
    for i, j in g.edges:
        for pair in ((i, j), (j, i)):
            base[pair] = _rational(rng, wide)
            coupling[pair] = tuple(_rational(rng, wide, lo=0) for _ in range(v))
    return build_master(g, k, RateSpec(g, base, coupling))


def _exact_balance_residual(mc, pi):
    acc = [F(0)] * mc.num_states
    for x, y, r in mc.transitions():
        acc[y] += pi[x] * r
        acc[x] -= pi[x] * r
    return acc


@pytest.mark.parametrize("wide", [False, True])
def test_tree_potential_equals_sparse_elimination_on_reversible_chains(wide):
    rng = random.Random(303 + wide)
    chains = [_ring_chain(5, 2, rng, True, wide), _ring_chain(4, 3, rng, True, wide)]
    chains += [
        _potential_chain(random_connected_graph(5, 3, seed), 2, rng, wide)
        for seed in range(3)
    ]
    for mc in chains:
        tree = reversible_steady_state(mc)
        assert tree is not None
        assert _solve_sparse(mc) == list(tree.probabilities)
        assert steady_state(mc, mode="exact") == tree


@pytest.mark.parametrize("wide", [False, True])
def test_sparse_elimination_on_irreversible_chains(wide):
    rng = random.Random(404 + wide)
    chains = [_ring_chain(5, 2, rng, False, wide), _ring_chain(4, 3, rng, False, wide)]
    chains += [
        _random_chain(random_connected_graph(5, 2, seed), 2, rng, wide)
        for seed in range(3)
    ]
    for mc in chains:
        assert reversible_steady_state(mc) is None
        pi = _solve_sparse(mc)
        assert not any(_exact_balance_residual(mc, pi))
        assert sum(pi) == 1
        approx = steady_state(mc, mode="float").probabilities
        assert max(abs(float(p) - q) for p, q in zip(pi, approx)) < 1e-12
        assert steady_state(mc, mode="exact").probabilities == tuple(pi)


@pytest.mark.parametrize("reversible", [True, False])
def test_exact_oracles_agree_on_wide_c6_ring(reversible):
    rng = random.Random(606 + reversible)
    mc = _ring_chain(6, 3, rng, reversible, wide=True)
    assert mc.num_states == 56
    basis = decomposition_basis(mc.rp.base, 3)
    kol = kolmogorov_check(MasterChain(basis.host, mc.spec), basis)
    bal = detailed_balance_check(steady_state(mc, mode="exact"), mc)
    assert kol.passed == bal.balanced == reversible


# --- detailed balance ---


def test_detailed_balance_exact_and_float():
    g = pentagon()
    mc = build_master(g, 3, pentagon_spec(32, 1, 2))
    assert detailed_balance_check(steady_state(mc, mode="exact"), mc).balanced
    assert detailed_balance_check(steady_state(mc, mode="float"), mc).balanced
    bad = build_master(g, 3, pentagon_spec(33, 1, 2))
    rep = detailed_balance_check(steady_state(bad, mode="exact"), bad)
    assert not rep.balanced
    assert rep.violations


def test_detailed_balance_rejects_mismatched_state():
    g = pentagon()
    mc2 = build_master(g, 2, pentagon_spec(1, 1, 1))
    mc3 = build_master(g, 3, pentagon_spec(1, 1, 1))
    ss = steady_state(mc2, mode="exact")
    with pytest.raises(ModelError, match="state count"):
        detailed_balance_check(ss, mc3)


def test_oracles_agree_on_random_points():
    rng = random.Random(42)
    g = pentagon()
    basis = decomposition_basis(g, 2)
    for trial in range(12):
        params = [F(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(8)]
        if trial % 3 == 0:
            # engineered reversible point: equal couplings, ring constraint
            mu, nu, alpha = params[1], params[2], F(1, 4)
            lam = nu**5 / mu**4 - 2 * alpha
            if lam <= 0:
                continue
            spec = pentagon_spec(lam, mu, nu, alpha, alpha, alpha, alpha, alpha)
        else:
            spec = pentagon_spec(*params)
        mc = build_master(g, 2, spec)
        kol = kolmogorov_check(mc, basis)
        bal = detailed_balance_check(steady_state(mc, mode="exact"), mc)
        assert kol.passed == bal.balanced


# --- model documents ---


def model_doc():
    return {
        "graph": {
            "vertices": ["a", "b", "c", "d", "e"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
        },
        "k": 3,
        "rates": {
            "a->b": {"base": "32", "coupling": {"a": "1", "b": "1/2"}},
            "b->a": {"base": "2"},
            "b->c": {"base": "1"},
            "c->b": {"base": "2"},
            "c->d": {"base": "1"},
            "d->c": {"base": "2"},
            "d->e": {"base": "1"},
            "e->d": {"base": "2"},
            "e->a": {"base": "1"},
            "a->e": {"base": "2"},
        },
    }


def test_model_round_trip():
    g, k, spec = model_from_dict(model_doc())
    assert k == 3
    assert g.labels == ("a", "b", "c", "d", "e")
    assert spec.base_rate(0, 1) == 32
    assert spec.coupling_vector(0, 1) == (F(1), F(1, 2), F(0), F(0), F(0))
    assert spec.base_rate(1, 0) == 2
    assert not spec.is_uncoupled()
    doc = model_to_dict(g, k, spec)
    g2, k2, spec2 = model_from_dict(doc)
    assert (g2, k2) == (g, k)
    assert spec2.base_rate(0, 1) == spec.base_rate(0, 1)
    assert spec2.coupling_vector(0, 1) == spec.coupling_vector(0, 1)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("k"), "missing key 'k'"),
        (lambda d: d.update(k=0), "positive integer"),
        (lambda d: d.update(k="3"), "positive integer"),
        (lambda d: d["rates"].pop("b->a"), "missing rate"),
        (lambda d: d["rates"].update({"a=>b": {"base": 1}}), "src->dst"),
        (lambda d: d["rates"].update({"a->c": {"base": 1}}), "does not name an edge"),
        (lambda d: d["rates"]["a->b"].update(base=0.5), "floats are not exact"),
        (lambda d: d["rates"]["a->b"].update(extra=1), "unknown field"),
        (lambda d: d["rates"]["a->b"]["coupling"].update(z="1"), "unknown vertex"),
        (lambda d: d["rates"]["a->b"].pop("base"), "object with 'base'"),
    ],
)
def test_model_from_dict_rejects(mutate, message):
    doc = model_doc()
    mutate(doc)
    with pytest.raises((ModelError, Exception), match=message):
        model_from_dict(doc)


@pytest.mark.parametrize("value", [[], ["a->b"], "a->b", 1, None])
def test_model_from_dict_refuses_rates_and_couplings_that_are_not_objects(value):
    rates_doc = model_doc()
    rates_doc["rates"] = value
    coupling_doc = model_doc()
    coupling_doc["rates"]["a->b"]["coupling"] = value
    for doc, message in (
        (rates_doc, "'rates' must be an object keyed by 'src->dst'"),
        (coupling_doc, "rates['a->b'].coupling must be an object"),
    ):
        with pytest.raises(ModelError) as caught:
            model_from_dict(doc)
        assert str(caught.value) == message


def test_model_from_dict_names_the_field_of_an_unknown_vertex():
    key_doc = model_doc()
    key_doc["rates"]["a->q"] = {"base": "1"}
    coupling_doc = model_doc()
    coupling_doc["rates"]["a->b"]["coupling"]["z"] = "1"
    for doc, message in (
        (key_doc, "rate key 'a->q': unknown vertex label 'q'"),
        (coupling_doc, "rates['a->b'].coupling: unknown vertex label 'z'"),
    ):
        with pytest.raises(ModelError) as caught:
            model_from_dict(doc)
        assert type(caught.value) is ModelError
        assert str(caught.value) == message


def test_model_from_dict_reads_each_value_string_once_as_parse_rational_does(monkeypatch):
    doc = model_doc()
    values = ["1/2", "2/4", "0.5", " 1/2", 3, "3", "1/2", "7/3", "1/2", "2/4"]
    pairs = [tuple(key.split("->")) for key in doc["rates"]]
    for (src, dst), value in zip(pairs, values):
        doc["rates"][f"{src}->{dst}"]["base"] = value
    doc["rates"]["a->b"]["coupling"] = {"a": "7/3", "b": "1/2", "c": "-2/4", "e": 3}
    calls = []
    parse = ctmc.parse_rational
    monkeypatch.setattr(ctmc, "parse_rational", lambda v, where: calls.append(v) or parse(v, where))
    g, _, spec = model_from_dict(doc)
    # each distinct string once; each int every time
    assert calls == ["1/2", "7/3", "-2/4", 3, "2/4", "0.5", " 1/2", 3, "3"]
    for (src, dst), value in zip(pairs, values):
        assert spec.base_rate(g.index_of(src), g.index_of(dst)) == parse(value, "x")
    assert spec.coupling_vector(0, 1) == (F(7, 3), F(1, 2), F(-1, 2), F(0), F(3))


def test_model_from_dict_names_the_first_faulty_entry_of_a_repeated_value():
    doc = model_doc()
    for key in ("b->a", "c->b", "d->e", "e->a"):
        doc["rates"][key]["base"] = "2/3"
    doc["rates"]["a->b"]["coupling"] = {"a": "2/3", "b": "2/3", "c": 1, "d": True}
    bad = [
        ("d->c", "2/0", "rates['d->c'].base: cannot parse rational '2/0': Fraction(2, 0)"),
        (
            "c->b",
            "2/3x",
            "rates['c->b'].base: cannot parse rational '2/3x': Invalid literal for Fraction: '2/3x'",
        ),
    ]
    with pytest.raises(ModelError) as info:
        model_from_dict(doc)
    assert str(info.value) == "rates['a->b'].coupling['d']: booleans are not rates"
    doc["rates"]["a->b"]["coupling"]["d"] = 1
    # the faulty value also stands in later entries; the first one in document order is named
    for key, value, message in bad:
        for later in ("d->e", "e->d", "a->e"):
            doc["rates"][later]["base"] = value
        doc["rates"][key]["base"] = value
        with pytest.raises(ModelError) as info:
            model_from_dict(doc)
        assert str(info.value) == message


def test_model_from_dict_keeps_a_bounded_coupling_label_in_its_errors():
    long = "x" * 250
    cut = "'" + "x" * 12 + "..." + "x" * 13
    doc = {
        "graph": {"vertices": ["a", "b", long], "edges": [["a", "b"], ["b", long]]},
        "k": 2,
        "rates": {"a->b": {"base": "1"}, "b->a": {"base": "1"},
                  f"b->{long}": {"base": "1"}, f"{long}->b": {"base": "1"}},
    }
    for coupling, message in (
        ({long: "1/0"}, f"rates['a->b'].coupling[{cut}']: cannot parse rational '1/0': Fraction(1, 0)"),
        ({long: True}, f"rates['a->b'].coupling[{cut}']: booleans are not rates"),
        ({long + "y": "1"}, f"rates['a->b'].coupling: unknown vertex label {cut[:-1]}y'"),
    ):
        doc["rates"]["a->b"]["coupling"] = coupling
        with pytest.raises(ModelError) as info:
            model_from_dict(doc)
        assert str(info.value) == message


# --- exact-rate kernels against their spec-level definitions ---


def _wide(signs):
    """Rationals a/b * 10^e of magnitude about 1e-12..1e12, signed from ``signs``."""
    return st.builds(
        lambda s, a, b, e: s * F(a, b) * F(10) ** e,
        st.sampled_from(signs),
        st.integers(1, 999),
        st.integers(1, 999),
        st.integers(-12, 12),
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_master_rates_match_eval_rate(data):
    g = data.draw(
        st.sampled_from(
            [cycle_graph(3), cycle_graph(4), random_connected_graph(4, 1, seed=5)]
        )
    )
    k = data.draw(st.integers(2, 4))
    v = g.num_vertices
    pairs = [pair for i, j in g.edges for pair in ((i, j), (j, i))]
    base = {pair: data.draw(_wide([1])) for pair in pairs}
    coupling = {
        pair: tuple(data.draw(_wide([-1, 0, 1])) for _ in range(v))
        for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True))
    }
    spec = RateSpec(g, base, coupling)
    rp = build_reduced_power(g, k)
    expected = []
    for (x, y), (i, j, _) in zip(rp.graph.edges, rp.annotations):
        sx, sy = rp.states[x], rp.states[y]
        expected.append(
            (
                (sx.exponents[i] * eval_rate(spec, i, j, sx), x, i, j),
                (sy.exponents[j] * eval_rate(spec, j, i, sy), y, j, i),
            )
        )
    bad = [t for pair in expected for t in pair if t[0] <= 0]
    if not bad:
        mc = MasterChain(rp, spec)
        assert mc.forward == tuple(fwd[0] for fwd, _ in expected)
        assert mc.backward == tuple(bwd[0] for _, bwd in expected)
        return
    val, src, a, b = bad[0]
    labels = g.labels
    with pytest.raises(ModelError) as info:
        MasterChain(rp, spec)
    assert str(info.value) == (
        f"rate {labels[a]}->{labels[b]} evaluates to {val} in state "
        f"{rp.label(src)!r}; master rates must be positive"
    )


def _plain_products(mc, seq):
    fwd = bwd = F(1)
    for x, y in zip(seq, seq[1:] + seq[:1]):
        fwd *= mc.rate(x, y)
        bwd *= mc.rate(y, x)
    return fwd, bwd


def test_kolmogorov_products_equal_plain_rate_products():
    rng = random.Random(707)
    chains = [
        build_master(pentagon(), 3, pentagon_spec(32, 1, 2, 1, 3, 5, 7, 11)),
        _ring_chain(6, 3, rng, True, wide=True),
        _ring_chain(6, 3, rng, False, wide=True),
        _potential_chain(random_connected_graph(5, 3, 1), 2, rng, wide=True),
        _random_chain(random_connected_graph(5, 2, 2), 3, rng, wide=False),
    ]
    for mc in chains:
        rp = mc.rp
        bases = [
            decomposition_basis(rp.base, rp.k),
            greedy_mcb(rp),
            fundamental_cycles(rp, bfs_spanning_tree(rp.graph, 0)),
        ]
        for basis in bases:
            report = kolmogorov_check(mc, basis)
            assert len(report.checks) == len(basis.cycles)
            for check, seq in zip(report.checks, basis.cycles):
                assert (check.forward, check.backward) == _plain_products(mc, seq)


@pytest.mark.parametrize("couplings", [(), (1, 1, 2, 1, 1)])
def test_checks_and_solves_leave_the_word_index_unbuilt(couplings):
    # state_of ranks a word; no check or solve needs a word -> state index
    basis = decomposition_basis(pentagon(), 3)
    mc = MasterChain(basis.host, pentagon_spec(32, 1, 2, *couplings))
    assert kolmogorov_check(mc, basis).passed is not bool(couplings)
    for mode in ("float", "exact"):
        detailed_balance_check(steady_state(mc, mode=mode), mc)
    word = (0, 2, 4)
    assert basis.host.state_of(word[::-1]) == basis.host.states.index(Monomial.from_word(word, 5))


@pytest.mark.parametrize("couplings", [(), (1, 1, 2, 1, 1)])
def test_basis_checks_and_float_solve_leave_the_power_edge_index_unbuilt(couplings, monkeypatch):
    # every walk of the basis, embedded base cycle and square alike, finds
    # its power edges in one search over the sorted edge array
    from redpow import power, squares, verify_square_space

    built = []

    def keep(base, k):
        built.append(power.build_reduced_power(base, k))
        return built[-1]

    monkeypatch.setattr(squares, "build_reduced_power", keep)

    def edge_index_unbuilt(rp):
        with pytest.raises(AttributeError):
            Graph._edge_index.__get__(rp.graph)

    g = pentagon()
    basis = decomposition_basis(g, 3)
    assert len(built) == 1 and built[0] is basis.host
    edge_index_unbuilt(basis.host)
    assert verify_square_space(g, bfs_spanning_tree(g, 0), 3).passed
    edge_index_unbuilt(built[1])
    mc = MasterChain(basis.host, pentagon_spec(32, 1, 2, *couplings))
    assert kolmogorov_check(mc, basis).passed is not bool(couplings)
    detailed_balance_check(steady_state(mc, mode="float"), mc)
    edge_index_unbuilt(basis.host)
    rp = basis.host
    assert rp.state_of((4, 0, 0)) == 4
    assert rp.graph.has_edge(0, 1) and not rp.graph.has_edge(0, rp.num_states - 1)
    word = (0, 2, 4)
    assert basis.host.state_of(word[::-1]) == basis.host.states.index(Monomial.from_word(word, 5))


def test_exact_steady_state_of_a_reversible_chain_leaves_the_power_edge_index_unbuilt():
    # the tree potential finds its tree edges in one search over the sorted edge array
    mc = build_master(pentagon(), 3, pentagon_spec(32, 1, 2))
    ss = steady_state(mc, mode="exact")
    with pytest.raises(AttributeError):
        Graph._edge_index.__get__(mc.rp.graph)
    assert list(ss.probabilities) == _solve_sparse(mc)


def test_kolmogorov_report_passed_is_computed_once():
    g = pentagon()
    mc = build_master(g, 2, pentagon_spec(32, 1, 2, 1, 1, 2, 1, 1))
    report = kolmogorov_check(mc, decomposition_basis(g, 2))
    assert "passed" not in report.__dict__
    assert report.passed is False
    assert report.__dict__["passed"] is False
    assert report.as_dict()["passed"] is False


def _dense_float_reference(mc):
    """pi from the generator filled transition by transition, as a plain loop would."""
    n = mc.num_states
    a = np.zeros((n, n))
    for x, y, r in mc.transitions():
        a[y, x] += float(r)
        a[x, x] -= float(r)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return tuple(np.linalg.solve(a, b))


def test_float_steady_state_equals_dense_reference():
    rng = random.Random(808)
    edge = Graph("ab", [("a", "b")])
    chains = [
        _ring_chain(7, 4, rng, True, wide=False),
        _ring_chain(7, 4, rng, False, wide=True),
        _potential_chain(random_connected_graph(6, 4, 3), 3, rng, wide=True),
        _random_chain(random_connected_graph(6, 3, 4), 3, rng, wide=False),
        build_master(edge, 1, RateSpec(edge, {(0, 1): F(3), (1, 0): F(5)})),
    ]
    for mc in chains:
        ss = steady_state(mc, mode="float")
        assert ss.probabilities == _dense_float_reference(mc)
        assert 0 <= ss.residual_inf <= 1e-10


@pytest.mark.parametrize("wide", [False, True])
def test_float_tree_potential_equals_the_dense_law_on_reversible_chains(wide):
    """On every suite base at k = 1..3, and on coupled reversible rings."""
    rng = random.Random(909 + wide)
    chains = [_potential_chain(g, k, rng, wide) for g in generator_suite() for k in (1, 2, 3)]
    chains += [_ring_chain(n, k, rng, True, wide) for n, k in ((5, 2), (4, 3), (6, 3))]
    for mc in chains:
        ss = _float_tree_potential(mc)
        assert ss.mode == "float" and detailed_balance_check(ss, mc).balanced
        assert 0 <= ss.residual_inf <= 1e-10 and ss.sum_abs_error <= 1e-10
        pi = np.array(ss.probabilities)
        assert np.abs(pi - steady_state(mc, mode="float").probabilities).max() <= 1e-10
        # and entry by entry near the exact law, also where the dense law's
        # smallest entries are not
        exact = np.array([float(p) for p in reversible_steady_state(mc).probabilities])
        assert np.all(np.abs(pi - exact) <= 1e-12 * exact)


def test_float_tree_potential_refuses_what_the_dense_solve_refuses(monkeypatch):
    edge = Graph("ab", [("a", "b")])
    # pi_b / pi_a = 1e-400 underflows to zero
    mc = build_master(edge, 1, RateSpec(edge, {(0, 1): F(1, 10**200), (1, 0): F(10**200)}))
    assert _float_tree_potential(mc) is None
    assert reversible_steady_state(mc) is not None
    with pytest.raises(SolverError, match="non-positive probability"):
        steady_state(mc, mode="float")
    # a rate outside the float range, and a chain over the float state limit
    huge = build_master(pentagon(), 2, pentagon_spec(F(10) ** 400, 1, 2))
    assert _float_tree_potential(huge) is None
    mc = build_master(pentagon(), 3, pentagon_spec(32, 1, 2))
    assert _float_tree_potential(mc) is not None
    monkeypatch.setattr(ctmc, "_FLOAT_STATE_LIMIT", mc.num_states - 1)
    assert _float_tree_potential(mc) is None
    # an irreversible chain's potential is no stationary law
    assert _float_tree_potential(build_master(pentagon(), 3, pentagon_spec(33, 1, 2))) is None


# --- the tree potentials read each tree transition by its id ---


def _tree_chains(wide):
    """Potential chains on every suite base at k = 1..3, and the (14,10,3) one at k = 4 (2380 states)."""
    rng = random.Random(5100 + wide)
    chains = [_potential_chain(g, k, rng, wide) for g in generator_suite() for k in (1, 2, 3)]
    return chains + [_potential_chain(random_connected_graph(14, 10, 3), 4, rng, wide)]


def test_each_tree_step_is_the_transition_from_the_parent_to_the_child():
    for mc in _tree_chains(wide=False):
        tree = bfs_spanning_tree(mc.rp.graph)
        children, parents, steps = ctmc._tree_steps(mc)
        assert children == list(tree.order[1:]) and parents == [tree.parent[y] for y in children]
        src, dst = ctmc._transition_ends(mc)
        assert src[steps].tolist() == parents and dst[steps].tolist() == children


def _per_edge_float_potential(mc):
    """The float tree potential's law as its per-edge form reads it: the ratio along x < y, negated for a child below its parent."""
    rates = mc._floats
    ratio = np.log(rates[0::2]) - np.log(rates[1::2])
    tree = bfs_spanning_tree(mc.rp.graph)
    log_pi = [0.0] * mc.num_states
    for y in tree.order[1:]:
        x = tree.parent[y]
        e = mc.rp.graph.edge_index[(x, y) if x < y else (y, x)]
        log_pi[y] = log_pi[x] + (1.0 if x < y else -1.0) * float(ratio[e])
    pi = np.exp(np.array(log_pi) - max(log_pi))
    return pi / pi.sum()


@pytest.mark.parametrize("wide", [False, True])
def test_the_float_tree_potential_equals_its_per_edge_form_bit_for_bit(wide):
    rng = random.Random(5110 + wide)
    chains = _tree_chains(wide) + [_ring_chain(n, k, rng, True, wide) for n, k in ((5, 2), (4, 3), (6, 3))]
    for mc in chains:
        ss = _float_tree_potential(mc)
        assert ss is not None and _bits(ss.probabilities) == _bits(_per_edge_float_potential(mc))


def test_both_tree_potentials_refuse_a_disconnected_chain_naming_the_first_unreached_state():
    g = Graph("abcd", [("a", "b"), ("c", "d")])
    mc = build_master(g, 1, RateSpec(g, {pair: F(1) for i, j in g.edges for pair in ((i, j), (j, i))}))
    for potential in (reversible_steady_state, _float_tree_potential):
        with pytest.raises(GraphError, match="^graph must be connected: vertex 'c' is unreachable$"):
            potential(mc)


def test_float_steady_state_refuses_a_failed_solve(monkeypatch):
    mc = build_master(pentagon(), 2, pentagon_spec(32, 1, 2))

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError) as caught:
        steady_state(mc, mode="float")
    assert str(caught.value) == "steady-state solve failed: Singular matrix"


def test_float_steady_state_refuses_a_residual_over_its_tolerance():
    mc = build_master(pentagon(), 3, pentagon_spec(32, 1, 2, 1, 1, 2, 1, 1))
    ss = steady_state(mc, mode="float")
    assert max(ss.residual_inf, ss.sum_abs_error) > 1e-30
    with pytest.raises(SolverError) as caught:
        steady_state(mc, mode="float", tol=1e-30)
    assert str(caught.value) == (
        f"steady-state residual {ss.residual_inf:.3e} exceeds tolerance 1.000e-30"
    )


@pytest.mark.parametrize("rate,magnitude", [(F(10) ** 400, "1e+400"), (F(1, 10**400), "1e-400")])
def test_float_steady_state_rejects_rates_outside_the_float_range(rate, magnitude):
    spec = pentagon_spec(rate, 1, 2)
    mc = build_master(pentagon(), 2, spec)
    with pytest.raises(SolverError) as info:
        steady_state(mc, mode="float")
    assert str(info.value) == (
        f"rate a->b in state 'a^2' is about {magnitude}, outside the float range; "
        "rerun with --exact"
    )
    assert detailed_balance_check(steady_state(mc, mode="exact"), mc).balanced is False


# --- model documents from arbitrary JSON ---


GRAPH_DOCS = [
    {"vertices": ["a", "b"], "edges": [["a", "b"]]},
    {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]},
    {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
]
RATE_TEXT = st.integers(1, 10**6) | st.sampled_from(["1/3", "7/2", "-1", "0", "1e400", "1e-400"])


@st.composite
def model_docs(draw):
    """A well-formed model document, then up to three slots overwritten or dropped."""
    graph = draw(st.sampled_from(GRAPH_DOCS))
    rates = {}
    for a, b in graph["edges"]:
        for src, dst in ((a, b), (b, a)):
            entry = {"base": draw(RATE_TEXT)}
            coupling = draw(st.dictionaries(st.sampled_from(graph["vertices"]), RATE_TEXT))
            if coupling:
                entry["coupling"] = coupling
            rates[f"{src}->{dst}"] = entry
    doc = {"graph": json.loads(json.dumps(graph)), "k": draw(st.integers(1, 3)), "rates": rates}
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(_slots(doc)))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(LABELS | JSON_VALUES)
    return doc


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    return [slot for key, child in items for slot in [(node, key), *_slots(child)]]


@settings(max_examples=200, deadline=None)
@given(model_docs() | JSON_VALUES)
def test_model_from_dict_raises_only_redpow_errors(doc):
    try:
        g, k, spec = model_from_dict(doc)
    except RedpowError:
        return
    if k > 3:  # a mutated k can be huge; the power of it would not fit in memory
        return
    # an accepted model builds and solves, or is refused with a RedpowError
    try:
        steady_state(build_master(g, k, spec), mode="float")
    except RedpowError:
        pass


# --- exponent bound in rational strings ---


@pytest.mark.parametrize("rate", ["1e10000000", "1e-10000000"])
@pytest.mark.parametrize("field", ["base", "coupling"])
def test_model_from_dict_rejects_huge_exponents(rate, field):
    doc = model_doc()
    entry = doc["rates"]["a->b"]
    if field == "base":
        entry["base"] = rate
        where = "rates['a->b'].base"
    else:
        entry["coupling"]["b"] = rate
        where = "rates['a->b'].coupling['b']"
    with pytest.raises(ModelError, match=re.escape(f"{where}: exponent of '{rate}'")):
        model_from_dict(doc)


@pytest.mark.parametrize("rate", ["1_000", "1_0/3", "1e4_3"])
@pytest.mark.parametrize("field", ["base", "coupling"])
def test_model_from_dict_refuses_underscores_in_rates(rate, field):
    # Fraction reads PEP 515 underscores from Python 3.11 on; refused on every version
    doc = model_doc()
    entry = doc["rates"]["a->b"]
    if field == "base":
        entry["base"] = rate
        where = "rates['a->b'].base"
    else:
        entry["coupling"]["b"] = rate
        where = "rates['a->b'].coupling['b']"
    with pytest.raises(ModelError, match=re.escape(f"{where}: underscores are not allowed")):
        model_from_dict(doc)


@pytest.mark.parametrize("field", ["base", "coupling"])
def test_model_from_dict_keeps_moderate_exponents(field):
    for rate, value in (("1e400", F(10) ** 400), ("1e-400", F(1, 10**400))):
        doc = model_doc()
        if field == "base":
            doc["rates"]["a->b"]["base"] = rate
            assert model_from_dict(doc)[2].base_rate(0, 1) == value
        else:
            doc["rates"]["a->b"]["coupling"]["b"] = rate
            assert model_from_dict(doc)[2].coupling_vector(0, 1)[1] == value


# --- float detailed balance on the chain's float rates ---


def _float_balance_reference(ss, mc, rel_tol=1e-9):
    """Per-edge float(Fraction) form of the float detailed-balance test."""
    flags, bad = [], []
    for (x, y), qxy, qyx in zip(mc.rp.graph.edges, mc.forward, mc.backward):
        lhs = ss.probabilities[x] * float(qxy)
        rhs = ss.probabilities[y] * float(qyx)
        ok = abs(lhs - rhs) <= rel_tol * max(abs(lhs), abs(rhs), 1e-300)
        flags.append(ok)
        if not ok:
            bad.append((mc.rp.label(x), mc.rp.label(y), lhs, rhs))
    return all(flags), bad


def test_float_detailed_balance_equals_per_edge_float_reference():
    rng = random.Random(909)
    chains = [
        _ring_chain(6, 3, rng, True, wide=False),
        _ring_chain(6, 3, rng, False, wide=False),
        _ring_chain(7, 3, rng, True, wide=True),
        _ring_chain(7, 3, rng, False, wide=True),
        _potential_chain(random_connected_graph(6, 4, 5), 3, rng, wide=True),
        _random_chain(random_connected_graph(5, 3, 6), 3, rng, wide=True),
    ]
    outcomes = set()
    for mc in chains:
        ss = steady_state(mc, mode="float")
        rep = detailed_balance_check(ss, mc)
        balanced, bad = _float_balance_reference(ss, mc)
        assert rep.mode == "float"
        assert rep.balanced == balanced
        assert [(v.x, v.y, v.flow_xy, v.flow_yx) for v in rep.violations] == bad
        outcomes.add(balanced)
    assert outcomes == {True, False}


def test_float_rates_are_converted_once_per_chain(monkeypatch):
    mc = build_master(pentagon(), 3, pentagon_spec(33, 1, 2, beta=1))
    made = _count_rate_makers(monkeypatch)
    calls = []
    to_float = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda q: calls.append(q) or to_float(q))
    ss = steady_state(mc, mode="float")
    assert not detailed_balance_check(ss, mc).balanced
    assert not detailed_balance_check(ss, mc).balanced
    assert calls == []
    assert made == ["_make__floats"]


def test_float_detailed_balance_rejects_rates_outside_the_float_range():
    mc = build_master(pentagon(), 2, pentagon_spec(F(10) ** 400, 1, 2))
    uniform = SteadyState((1 / mc.num_states,) * mc.num_states, "float", 0.0, 0.0)
    with pytest.raises(SolverError) as info:
        detailed_balance_check(uniform, mc)
    assert str(info.value) == (
        "rate a->b in state 'a^2' is about 1e+400, outside the float range; "
        "rerun with --exact"
    )


# --- float rates read off the integer record ---


def _float_reference(mc):
    """Every transition's rate as ``float(Fraction(num, spec._den))``, in transitions order."""
    return [float(F(num, mc.spec._den)) for pair in zip(*mc._ints) for num in pair]


def _bits(floats):
    return np.asarray(floats, dtype=np.float64).tobytes()


@pytest.mark.parametrize("wide", [False, True])
def test_float_rates_are_the_fraction_floats_bit_for_bit_on_the_suite(wide):
    rng = random.Random(48 + wide)
    for g in generator_suite():
        for k in range(1, 5):
            mc = _random_chain(g, k, rng, wide)
            assert _bits(mc._floats) == _bits(_float_reference(mc))


@pytest.mark.parametrize("wide", [False, True])
def test_float_rates_are_the_fraction_floats_bit_for_bit_on_a_potential_model(wide):
    mc = _potential_chain(random_connected_graph(14, 10, 3), 4, random.Random(99), wide)
    assert mc.num_states == 2380
    if wide:  # numerators and _den past 2^53: a division of rounded floats would round twice
        assert mc.spec._den.bit_length() >= 500
    else:
        assert max(mc.spec._den, *mc._ints[0], *mc._ints[1]) < 2**53
    assert _bits(mc._floats) == _bits(_float_reference(mc))


def test_float_rates_at_the_edges_of_the_float_range():
    g = path_graph(2)
    for big, tiny in ((F(1.5e308), F(1e-320)), (F(15 * 10**307), F(1, 10**320))):
        mc = build_master(g, 1, RateSpec(g, {(0, 1): big, (1, 0): tiny}))
        assert _bits(mc._floats) == _bits([1.5e308, 1e-320]) == _bits(_float_reference(mc))
    for rate, magnitude in ((F(10) ** 400, "1e+400"), (F(1, 10**400), "1e-400")):
        mc = build_master(pentagon(), 1, pentagon_spec(rate, 1, 2))
        with pytest.raises(SolverError) as info:
            mc._floats
        assert str(info.value) == (
            f"rate a->b in state 'a' is about {magnitude}, outside the float range; rerun with --exact"
        )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2),
    st.lists(
        st.builds(
            lambda a, b, e: F(a, b) * F(2) ** e,
            st.integers(1, 2**80),
            st.integers(1, 2**80),
            st.integers(-1120, 1060),
        ),
        min_size=6,
        max_size=6,
    ),
)
def test_float_rates_are_the_fraction_floats_on_random_rationals(k, rates):
    g = cycle_graph(3)
    pairs = [pair for i, j in g.edges for pair in ((i, j), (j, i))]
    mc = build_master(g, k, RateSpec(g, dict(zip(pairs, rates))))
    try:
        expected = [float(q) for _, _, q in mc.transitions()]
    except OverflowError:
        expected = None
    if expected is not None and all(expected):
        assert _bits(mc._floats) == _bits(expected)
        return
    # the first rate that rounds past the largest float, or to 0
    first = next(q for _, _, q in mc.transitions() if q >= 2**1024 - 2**970 or not float(q))
    magnitude = round(math.log10(first.numerator) - math.log10(first.denominator))
    about = re.escape(f"is about 1e{magnitude:+d}, outside the float range")
    with pytest.raises(SolverError, match=rf"^rate \S+ in state '[^']+' {about}"):
        mc._floats


def test_unknown_rate_field_error_names_the_first_field_under_every_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import redpow

    doc = model_doc()
    doc["rates"]["a->b"].update(zeta=1, alpha=1)
    script = (
        "import json, sys\n"
        "from redpow import ModelError, model_from_dict\n"
        "try:\n"
        "    model_from_dict(json.loads(sys.stdin.read()))\n"
        "except ModelError as exc:\n"
        "    print(exc)\n"
    )
    messages = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": str(Path(redpow.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script], input=json.dumps(doc),
                             capture_output=True, text=True, env=env, check=True)
        messages.add(run.stdout)
    assert messages == {"rates['a->b'] has unknown field 'zeta'\n"}


# --- fraction-free exact solve against the Fraction elimination it replaced ---


def _reference_solve_sparse(mc):
    """Sparse Markowitz elimination over Fractions, with pi_0 = 1 pinned."""
    n = mc.num_states
    rows = {y: {y: F(0)} for y in range(1, n)}
    rhs = {y: F(0) for y in range(1, n)}
    for x, y, r in mc.transitions():
        if x == 0:
            rhs[y] -= r
            continue
        rows[x][x] -= r
        if y:
            rows[y][x] = r
    cols = {c: set() for c in range(1, n)}
    for y, row in rows.items():
        for c in row:
            cols[c].add(y)
    pivots = []
    while cols:
        c = min(cols, key=lambda col: len(cols[col]))
        candidates = cols.pop(c)
        assert candidates, "singular system"
        r = min(candidates, key=lambda row: len(rows[row]))
        candidates.discard(r)
        prow = rows[r]
        pivot = prow.pop(c)
        for col in prow:
            cols[col].discard(r)
        for r2 in candidates:
            row2 = rows[r2]
            factor = row2.pop(c) / pivot
            for col, val in prow.items():
                old = row2.get(col)
                if old is None:
                    row2[col] = -factor * val
                    cols[col].add(r2)
                elif new := old - factor * val:
                    row2[col] = new
                else:
                    del row2[col]
                    cols[col].discard(r2)
            if rhs[r]:
                rhs[r2] -= factor * rhs[r]
        pivots.append((r, c, pivot))
    pi = [F(0)] * n
    pi[0] = F(1)
    for r, c, pivot in reversed(pivots):
        acc = rhs[r]
        for col, val in rows[r].items():
            acc -= val * pi[col]
        pi[c] = acc / pivot
    total = sum(pi)
    return [p / total for p in pi]


# (n, k) with C(n + k - 1, k) <= 56 states: a wide 84-state ring costs the
# Fraction reference up to 2 s; the fixed C7 k=4 point covers a larger chain
_SMALL_RINGS = [(n, k) for n in range(3, 9) for k in (2, 3, 4) if math.comb(n + k - 1, k) <= 56]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_integer_elimination_equals_fraction_elimination(data):
    if data.draw(st.booleans(), label="ring"):
        n, k = data.draw(st.sampled_from(_SMALL_RINGS))
        g = cycle_graph(n)
        mu, nu = data.draw(_wide([1])), data.draw(_wide([1]))
        base = {}
        for i in range(n):
            base[(i, (i + 1) % n)], base[((i + 1) % n, i)] = mu, nu
        pair = (0, 1)
    else:
        g = data.draw(
            st.sampled_from(
                [path_graph(4), complete_graph(4), random_connected_graph(5, 2, seed=7)]
            )
        )
        k = data.draw(st.integers(2, 4 if g.num_vertices == 4 else 3))
        phi = [data.draw(_wide([1])) for _ in range(g.num_vertices)]
        base = {}
        for i, j in g.edges:
            s = data.draw(_wide([1]))
            base[(i, j)], base[(j, i)] = s * phi[j], s * phi[i]
        pair = data.draw(st.sampled_from(sorted(base)))
    coup = tuple(data.draw(_wide([-1, 0, 1])) for _ in range(g.num_vertices))
    # k - 1 other tokens at most, so this shift keeps every coupled rate positive
    base[pair] = data.draw(_wide([1])) + (k - 1) * max(F(0), -min(coup))
    mc = build_master(g, k, RateSpec(g, base, {pair: coup}))
    assert mc.num_states <= 56
    assert _solve_sparse(mc) == _reference_solve_sparse(mc)


def test_integer_elimination_on_an_irreversible_c7_k4_ring():
    mc = _ring_chain(7, 4, random.Random(707), reversible=False, wide=False)
    assert mc.num_states == 210
    assert reversible_steady_state(mc) is None
    pi = _solve_sparse(mc)
    assert pi == _reference_solve_sparse(mc)
    assert steady_state(mc, mode="exact").probabilities == tuple(pi)


@pytest.mark.parametrize("n,k,wide", [(5, 3, True), (6, 3, False), (7, 4, False)])
def test_integer_elimination_keeps_every_row_primitive(n, k, wide):
    mc = _ring_chain(n, k, random.Random(n * k), reversible=False, wide=wide)
    steps = _eliminate(mc)
    assert sorted(c for c, _, _, _ in steps) == list(range(1, mc.num_states))
    for c, pivot, row, b in steps:
        assert pivot and c not in row
        assert math.gcd(pivot, b, *row.values()) == 1



def test_kolmogorov_violations_are_found_once_and_handed_out_fresh(monkeypatch):
    from redpow.ctmc import CycleCheck

    g = pentagon()
    mc = build_master(g, 2, pentagon_spec(32, 1, 2, 1, 1, 2, 1, 1))
    report = kolmogorov_check(mc, decomposition_basis(g, 2))
    calls = []
    passed = CycleCheck.passed
    monkeypatch.setattr(CycleCheck, "passed", property(lambda c: calls.append(c) or passed.fget(c)))
    first = report.violations()
    assert len(calls) == len(report.checks)
    assert first == [c for c in report.checks if not passed.fget(c)] != []
    first.clear()
    second, third = report.violations(), report.violations()
    assert second == third != [] and second is not third
    assert report.passed is False
    assert len(calls) == len(report.checks)


def test_model_from_dict_shares_one_zero_coupling_on_a_long_path():
    # a dense zero vector per rate entry would hold 2 * 2999 * 3000 references
    n = 3000
    labels = [f"v{i}" for i in range(n)]
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    rates = {f"{a}->{b}": {"base": "1"} for a, b in edges}
    rates.update({f"{b}->{a}": {"base": "2"} for a, b in edges})
    rates["v0->v1"]["coupling"] = {"v2": "1/3"}
    doc = {"graph": {"vertices": labels, "edges": edges}, "k": 2, "rates": rates}
    g, k, spec = model_from_dict(doc)
    coupled = spec.coupling_vector(0, 1)
    assert len(coupled) == n and coupled[2] == F(1, 3) and sum(coupled) == F(1, 3)
    shared = {id(spec.coupling_vector(i, j)) for i, j in spec.directed_pairs() if (i, j) != (0, 1)}
    assert len(shared) == 1
    assert spec.coupling_vector(1, 0) == (F(0),) * n
    assert (g.num_vertices, k, spec.base_rate(1, 0)) == (n, 2, F(2))


def long_path_doc(n, k=1):
    """A path model on ``n`` vertices whose one coupled pair is v0 -> v1."""
    labels = [f"v{i}" for i in range(n)]
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    rates = {f"{a}->{b}": {"base": "1"} for a, b in edges}
    rates.update({f"{b}->{a}": {"base": "2"} for a, b in edges})
    rates["v0->v1"]["coupling"] = {"v2": "1/3"}
    return {"graph": {"vertices": labels, "edges": edges}, "k": k, "rates": rates}


def test_master_chain_reads_denominators_per_coupled_entry_not_per_vertex(monkeypatch):
    # a per-pair scan of a v-long coupling vector reads about 4 * E * v denominators
    g, k, spec = model_from_dict(long_path_doc(1000))
    rp = build_reduced_power(g, k)
    calls = []
    denominator = Fraction.denominator
    monkeypatch.setattr(
        Fraction, "denominator", property(lambda q: calls.append(q) or denominator.fget(q))
    )
    mc = MasterChain(rp, spec)
    monkeypatch.undo()
    assert len(calls) <= 8 * g.num_edges + 4 * g.num_vertices
    # at k = 1 no other token is there to couple to
    assert mc.forward == (F(1),) * g.num_edges and mc.backward == (F(2),) * g.num_edges


def test_a_spec_and_its_chain_on_a_4000_vertex_ring_peak_at_a_few_megabytes():
    # with a v x v pair code and a dense (2E x v) coupling matrix this case peaked at 386 MB
    n = 4000
    g = cycle_graph(n)
    base = {pair: F(1 + (pair[0] > pair[1])) for i, j in g.edges for pair in ((i, j), (j, i))}
    coupling = {(0, 1): (F(0), F(0), F(1, 3)) + (F(0),) * (n - 3)}
    rp = build_reduced_power(g, 1)
    tracemalloc.start()
    try:
        mc = MasterChain(rp, RateSpec(g, base, coupling))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # at k = 1 no other token is there to couple to
    assert [mc.rate(x, y) for x, y in ((0, 1), (1, 0), (0, n - 1), (n - 1, 0))] == [1, 2, 1, 2]


@pytest.mark.parametrize("doc", [long_path_doc(1000), model_doc()], ids=["path", "pentagon"])
def test_master_chain_reads_no_rate_denominator(monkeypatch, doc):
    # the spec holds its rates as integers over one denominator already
    g, k, spec = model_from_dict(doc)
    rp = build_reduced_power(g, k)
    calls = []
    denominator = Fraction.denominator
    monkeypatch.setattr(
        Fraction, "denominator", property(lambda q: calls.append(q) or denominator.fget(q))
    )
    mc = MasterChain(rp, spec)
    monkeypatch.undo()
    assert calls == [] and len(mc.forward) == mc.rp.num_edges


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rates_round_trip_exactly_through_the_integer_form(data):
    g = data.draw(st.sampled_from([cycle_graph(3), path_graph(4), complete_graph(4)]))
    v, labels = g.num_vertices, g.labels
    pairs = [pair for i, j in g.edges for pair in ((i, j), (j, i))]
    base = {pair: data.draw(_wide([1])) for pair in pairs}
    coupling = {
        pair: tuple(data.draw(_wide([-1, 0, 1])) for _ in range(v))
        for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True))
    }
    spec = RateSpec(g, base, coupling)
    rates = {}
    for i, j in pairs:
        coeffs = coupling.get((i, j), (F(0),) * v)
        assert spec.base_rate(i, j) == base[(i, j)]
        assert spec.coupling_vector(i, j) == coeffs
        entry = {"base": str(base[(i, j)])}
        if any(coeffs):
            entry["coupling"] = {labels[l]: str(c) for l, c in enumerate(coeffs) if c}
        rates[f"{labels[i]}->{labels[j]}"] = entry
    doc = {"graph": graph_to_dict(g), "k": 2, "rates": rates}
    assert model_to_dict(*model_from_dict(doc))["rates"] == doc["rates"]


@pytest.mark.parametrize("n", [5, 6])
def test_scaling_every_rate_leaves_the_exact_solve_unchanged(n):
    mc = _ring_chain(n, 3, random.Random(n), reversible=False, wide=True)
    s = F(7**40, 10**30 + 3)
    spec, pairs = mc.spec, mc.spec.directed_pairs()
    scaled = MasterChain(
        mc.rp,
        RateSpec(
            mc.rp.base,
            {pair: s * spec.base_rate(*pair) for pair in pairs},
            {pair: tuple(s * c for c in spec.coupling_vector(*pair)) for pair in pairs},
        ),
    )
    assert scaled.forward == tuple(s * r for r in mc.forward)
    assert scaled.spec._den != spec._den
    assert _eliminate(scaled) == _eliminate(mc)
    assert _solve_sparse(scaled) == _solve_sparse(mc)


def test_model_to_dict_round_trips_a_long_path_model():
    doc = long_path_doc(1000)
    g, k, spec = model_from_dict(doc)
    out = model_to_dict(g, k, spec)
    assert out["rates"] == doc["rates"] and out["k"] == 1
    again = model_from_dict(json.loads(json.dumps(out)))
    assert again[0] == g and model_to_dict(*again) == out


@pytest.mark.parametrize("labels", [["a", "b->c"], ["a->b", "c"]])
def test_rate_keys_round_trip_when_labels_hold_an_arrow(labels):
    x, y = labels
    rates = {f"{x}->{y}": {"base": "3"}, f"{y}->{x}": {"base": "1/2"}}
    doc = {"graph": {"vertices": labels, "edges": [labels]}, "k": 2, "rates": rates}
    g, k, spec = model_from_dict(doc)
    assert spec.base_rate(0, 1) == 3 and spec.base_rate(1, 0) == F(1, 2)
    out = model_to_dict(g, k, spec)
    assert out["rates"] == rates and model_to_dict(*model_from_dict(out)) == out


def test_a_rate_key_with_two_label_splits_is_ambiguous():
    labels = ["a", "a->b", "b->c", "c"]
    edges = [["a", "b->c"], ["a->b", "c"], ["a", "a->b"]]
    doc = {"graph": {"vertices": labels, "edges": edges}, "k": 1,
           "rates": {"a->b->c": {"base": "1"}}}
    with pytest.raises(ModelError, match=re.escape("rate key 'a->b->c' is ambiguous")):
        model_from_dict(doc)


@pytest.mark.parametrize("coupling", [{}, {"c": "0", "a": "0/7"}])
def test_an_explicit_zero_coupling_is_no_coupling(coupling):
    plain = model_doc()
    del plain["rates"]["a->b"]["coupling"]
    doc = model_doc()
    doc["rates"]["a->b"]["coupling"] = coupling
    g, k, spec = model_from_dict(doc)
    zero = spec.coupling_vector(1, 0)
    assert spec.coupling_vector(0, 1) is zero and zero == (F(0),) * g.num_vertices
    assert spec.is_uncoupled()
    out = model_to_dict(g, k, spec)
    assert out == model_to_dict(*model_from_dict(plain)) and out["rates"] == plain["rates"]
    with pytest.raises(ModelError, match=re.escape("(0, 2) is not a directed edge")):
        spec.coupling_vector(0, 2)
    mc, reference = build_master(g, k, spec), build_master(*model_from_dict(plain))
    assert (mc.forward, mc.backward) == (reference.forward, reference.backward)


def test_both_loaders_keep_their_read_and_parse_messages(tmp_path):
    from redpow import GraphError, load_graph, load_model

    missing, broken = tmp_path / "missing.json", tmp_path / "broken.json"
    broken.write_text("{")
    for load, kind, error in ((load_graph, "graph", GraphError), (load_model, "model", ModelError)):
        with pytest.raises(error) as info:
            load(missing)
        assert type(info.value) is error
        assert str(info.value) == (
            f"cannot read {kind} file {missing}: "
            f"[Errno 2] No such file or directory: '{missing}'"
        )
        with pytest.raises(error) as info:
            load(broken)
        assert type(info.value) is error
        assert str(info.value) == (
            f"{kind} file {broken} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        )


# --- the exact steady state on integers against Fraction references ---


def _shared_speed_chain(g, k, rng):
    """Rates i->j = phi(j) + c (k - 1), one coupling c for every vertex: reversible."""
    phi = [_rational(rng, True) for _ in range(g.num_vertices)]
    c = _rational(rng, False)
    base = {pair: phi[pair[1]] for i, j in g.edges for pair in ((i, j), (j, i))}
    return build_master(g, k, RateSpec(g, base, {pair: (c,) * g.num_vertices for pair in base}))


def _numerators(ss):
    """The exact law's numerators over their common denominator, and that denominator."""
    common = math.lcm(*(p.denominator for p in ss.probabilities))
    return [p.numerator * (common // p.denominator) for p in ss.probabilities], common


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tree_potential_equals_sparse_elimination_on_the_suite(suite, k):
    rng = random.Random(2100 + k)
    for g in suite:
        for mc in (
            _potential_chain(g, k, rng, wide=False),
            _potential_chain(g, k, rng, wide=True),
            _shared_speed_chain(g, k, rng),
        ):
            tree = reversible_steady_state(mc)
            assert tree is not None and tree.mode == "exact"
            assert list(tree.probabilities) == _solve_sparse(mc)
            assert all(type(p) is Fraction for p in tree.probabilities)


def _exact_balance_reference(ss, mc):
    """Per-edge Fraction form of the exact detailed-balance test."""
    labels, bad = mc.rp.graph.labels, []
    for (x, y), qxy, qyx in zip(mc.rp.graph.edges, mc.forward, mc.backward):
        lhs, rhs = ss.probabilities[x] * qxy, ss.probabilities[y] * qyx
        if lhs != rhs:
            bad.append((labels[x], labels[y], lhs, rhs))
    return bad


def test_exact_detailed_balance_equals_the_fraction_reference():
    rng = random.Random(2121)
    cases = []
    for n, k in ((5, 3), (6, 3), (7, 2)):
        mc = _ring_chain(n, k, rng, reversible=False, wide=True)
        cases.append((steady_state(mc, mode="exact"), mc))
    # a reversible law with one entry moved fails on that state's edges only,
    # and the same law unnormalised, as ints, balances like its Fractions
    mc = _ring_chain(6, 3, rng, reversible=True, wide=True)
    ss = steady_state(mc, mode="exact")
    moved = list(ss.probabilities)
    moved[7] *= F(10**12 + 1, 10**12)
    ints, _ = _numerators(ss)
    for law in (ss.probabilities, moved, ints):
        cases.append((SteadyState(tuple(law), "exact", 0.0, 0.0), mc))
    counts = []
    for ss, mc in cases:
        rep = detailed_balance_check(ss, mc)
        bad = _exact_balance_reference(ss, mc)
        assert rep.mode == "exact" and rep.balanced == (not bad)
        assert [(v.x, v.y, v.flow_xy, v.flow_yx) for v in rep.violations] == bad
        counts.append(len(bad))
    assert min(counts[:3]) > 0 and counts[3] == counts[5] == 0
    assert 0 < counts[4] <= len(mc.rp.graph.adjacency(7))


# --- a balance report holds its violations as columns ---


def _c7_potential_doc(rng):
    """A narrow irreversible C7 model at k = 4 (210 states), as the float ladder draws them.

    Rates i->j are phi(j) plus one coupling c shared by every vertex, but
    the directed edge p0->p1 has pairwise distinct couplings.
    """
    labels = [f"p{i}" for i in range(7)]
    edges = [[a, labels[(i + 1) % 7]] for i, a in enumerate(labels)]
    phi = [str(F(rng.randint(1, 20), rng.randint(1, 6))) for _ in labels]
    c = F(rng.randint(1, 4), rng.randint(1, 6))
    rates = {}
    for a, b in edges:
        for src, dst in ((a, b), (b, a)):
            coupling = {lab: str(c) for lab in labels}
            rates[f"{src}->{dst}"] = {"base": phi[labels.index(dst)], "coupling": coupling}
    order = rng.sample(range(7), 7)
    rates["p0->p1"]["coupling"] = {lab: str(c + c * order[i]) for i, lab in enumerate(labels)}
    return {"graph": {"vertices": labels, "edges": edges}, "k": 4, "rates": rates}


def _old_flow_text(flow):
    """A flow as each violation once wrote it: ``repr`` for a float, ``_rational_str`` otherwise."""
    return repr(flow) if isinstance(flow, float) else ctmc._rational_str(flow)


def test_balance_report_columns_equal_the_per_violation_reference():
    rng = random.Random(5252)
    chains = [_ring_chain(6, 3, rng, rev, wide) for rev in (True, False) for wide in (False, True)]
    chains.append(_random_chain(random_connected_graph(5, 3, 6), 3, rng, wide=True))
    chains.append(build_master(*model_from_dict(_c7_potential_doc(rng))))
    counts = []
    for mc in chains:
        for mode in ("float", "exact"):
            ss = steady_state(mc, mode=mode)
            rep = detailed_balance_check(ss, mc)
            if mode == "float":
                bad = [(x, y, float(a), float(b)) for x, y, a, b in _float_balance_reference(ss, mc)[1]]
            else:
                bad = _exact_balance_reference(ss, mc)
            rows = [(v.x, v.y, v.flow_xy, v.flow_yx) for v in rep.violations]
            assert rows == bad and rep.balanced == (not bad) and rep.mode == mode
            assert {type(flow) for row in rows for flow in row[2:]} <= {float if mode == "float" else F}
            assert rep.as_dict() == {
                "balanced": not bad,
                "mode": mode,
                "violations": [
                    {"x": x, "y": y, "flow_xy": _old_flow_text(a), "flow_yx": _old_flow_text(b)}
                    for x, y, a, b in bad
                ],
            }
            counts.append(len(bad))
    assert counts[:4] == [0, 0, 0, 0] and min(counts[4:]) > 0
    assert counts[-2] == counts[-1] == chains[-1].rp.num_edges == 588  # every C7 edge fails


def test_a_balance_report_made_by_replace_keeps_its_violations_and_its_text():
    import dataclasses

    mc = build_master(*model_from_dict(_c7_potential_doc(random.Random(5253))))
    for mode in ("float", "exact"):
        rep = detailed_balance_check(steady_state(mc, mode=mode), mc)
        copy, flipped = dataclasses.replace(rep), dataclasses.replace(rep, balanced=True)
        assert copy == rep and copy.violations == rep.violations and not rep.balanced
        assert json.dumps(copy.as_dict()) == json.dumps(rep.as_dict())
        assert json.dumps(flipped.as_dict()) == json.dumps({**rep.as_dict(), "balanced": True})
    empty = ctmc.BalanceReport(balanced=True, mode="float", violations=())
    assert empty.as_dict() == {"balanced": True, "mode": "float", "violations": []}


def test_a_refuted_float_run_builds_balance_violations_only_when_read(tmp_path, monkeypatch):
    from redpow import cli

    doc = _c7_potential_doc(random.Random(5254))
    model, out = tmp_path / "m.json", tmp_path / "report.json"
    model.write_text(json.dumps(doc))
    made = []
    init = ctmc.BalanceViolation.__init__

    def recording(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ctmc.BalanceViolation, "__init__", recording)
    assert cli.main(["check-reversibility", "--model", str(model), "--out", str(out)]) == 2
    written = json.loads(out.read_text())["detailed_balance"]
    assert written["mode"] == "float" and len(written["violations"]) == 588
    assert made == []
    balance = cli.check_reversibility(*model_from_dict(doc)).balance
    assert made == []
    violations = balance.violations
    assert balance.violations is violations and len(made) == len(violations) == 588
    assert [v.flow_xy for v in violations] == [float(w["flow_xy"]) for w in written["violations"]]


def test_exact_detailed_balance_refuses_an_entry_that_is_not_exact():
    mc = build_master(pentagon(), 1, pentagon_spec(1, 1, 1))
    n = mc.num_states
    assert detailed_balance_check(SteadyState((1,) * n, "exact", 0.0, 0.0), mc).balanced
    for entry in (1.0, np.int64(1), "1"):
        law = SteadyState((F(1),) * (n - 1) + (entry,), "exact", 0.0, 0.0)
        with pytest.raises(ModelError) as info:
            detailed_balance_check(law, mc)
        assert str(info.value) == (
            f"exact steady state entry {n - 1} is a {type(entry).__name__}, "
            "not an int or Fraction"
        )


@pytest.mark.parametrize("n", [3, 40])
def test_tree_potential_fails_on_one_unbalanced_chord(n):
    # one token on C_n: the state graph is the ring itself, so the BFS tree
    # leaves out one chord, and mu^n != nu^n unbalances exactly that edge
    g = cycle_graph(n)
    base = {}
    for i in range(n):
        base[(i, (i + 1) % n)], base[((i + 1) % n, i)] = F(2), F(3)
    mc = build_master(g, 1, RateSpec(g, base))
    tree = bfs_spanning_tree(mc.rp.graph)
    pi = {tree.root: F(1)}
    for y in tree.order[1:]:
        x = tree.parent[y]
        pi[y] = pi[x] * mc.rate(x, y) / mc.rate(y, x)
    failing = [
        (x, y) for x, y in mc.rp.graph.edges if pi[x] * mc.rate(x, y) != pi[y] * mc.rate(y, x)
    ]
    assert len(failing) == 1 and tree.parent[failing[0][1]] != failing[0][0]
    assert tree.parent[failing[0][0]] != failing[0][1]
    assert reversible_steady_state(mc) is None
    assert steady_state(mc, mode="exact").probabilities == tuple(_solve_sparse(mc))


def test_checked_exact_rejects_a_wrong_law():
    mc = _ring_chain(5, 3, random.Random(2131), reversible=True, wide=True)
    ss = reversible_steady_state(mc)
    num, total = _numerators(ss)
    assert _checked_exact(mc, num, total) == ss
    off = num.copy()
    off[4] += 1
    with pytest.raises(SolverError, match="fails pi Q = 0"):
        _checked_exact(mc, off, sum(off))
    with pytest.raises(SolverError, match="does not sum to one"):
        _checked_exact(mc, num, total + 1)
    zero = num.copy()
    zero[2] = 0
    with pytest.raises(SolverError, match="fails pi Q = 0"):
        _checked_exact(mc, zero, sum(zero))
    # the all-zero law balances every flow and sums to its total, 0
    with pytest.raises(SolverError, match="non-positive probability"):
        _checked_exact(mc, [0] * mc.num_states, 0)


# --- the lifted exact solve against the sparse elimination it replaced ---


@st.composite
def _elimination_chains(draw):
    """The chains of ``test_integer_elimination_equals_fraction_elimination``, drawn alike."""
    if draw(st.booleans(), label="ring"):
        n, k = draw(st.sampled_from(_SMALL_RINGS))
        g = cycle_graph(n)
        mu, nu = draw(_wide([1])), draw(_wide([1]))
        base = {}
        for i in range(n):
            base[(i, (i + 1) % n)], base[((i + 1) % n, i)] = mu, nu
        pair = (0, 1)
    else:
        g = draw(
            st.sampled_from(
                [path_graph(4), complete_graph(4), random_connected_graph(5, 2, seed=7)]
            )
        )
        k = draw(st.integers(2, 4 if g.num_vertices == 4 else 3))
        phi = [draw(_wide([1])) for _ in range(g.num_vertices)]
        base = {}
        for i, j in g.edges:
            s = draw(_wide([1]))
            base[(i, j)], base[(j, i)] = s * phi[j], s * phi[i]
        pair = draw(st.sampled_from(sorted(base)))
    coup = tuple(draw(_wide([-1, 0, 1])) for _ in range(g.num_vertices))
    base[pair] = draw(_wide([1])) + (k - 1) * max(F(0), -min(coup))
    return build_master(g, k, RateSpec(g, base, {pair: coup}))


def _lifted(mc):
    num, total = _lifted_pi(mc)
    return [F(v, total) for v in num]


@settings(max_examples=25, deadline=None)
@given(_elimination_chains())
def test_lifted_steady_state_equals_sparse_elimination(mc):
    pi = _solve_sparse(mc)
    assert _lifted(mc) == pi
    assert steady_state(mc, mode="exact").probabilities == tuple(pi)


def _triangle_1e4300():
    labels = ("a", "b", "c")
    rates = {f"{x}->{y}": {"base": "1"} for x, y in ("ab", "ba", "bc", "cb", "ca", "ac")}
    rates["a->b"] = {"base": "1e4300"}
    doc = {"graph": {"vertices": list(labels), "edges": [["a", "b"], ["b", "c"], ["c", "a"]]},
           "k": 2, "rates": rates}
    return build_master(*model_from_dict(doc))


def test_kept_integer_rates_are_the_rates_over_the_common_denominator():
    rng = random.Random(2401)
    chains = [
        _random_chain(g, k, rng, wide)
        for g in generator_suite() for k in (1, 2, 3) for wide in (False, True)
    ]
    chains += [
        _ring_chain(5, 3, random.Random(2301), reversible=False, wide=True),
        _ring_chain(6, 3, random.Random(2302), reversible=False, wide=True),
        _triangle_1e4300(),
    ]
    for mc in chains:
        den = mc.spec._den
        converted = tuple(
            tuple(r.numerator * (den // r.denominator) for r in rates)
            for rates in (mc.forward, mc.backward)
        )
        assert mc._ints == converted


@pytest.mark.parametrize(
    "make",
    [
        lambda: _ring_chain(5, 3, random.Random(2301), reversible=False, wide=True),
        lambda: _ring_chain(6, 3, random.Random(2302), reversible=False, wide=True),
        _triangle_1e4300,
    ],
    ids=["wide-C5", "wide-C6", "triangle-1e4300"],
)
def test_lifted_steady_state_with_rates_past_int64(make):
    mc = make()
    assert max(max(rates) for rates in mc._ints) > 2**63
    assert reversible_steady_state(mc) is None
    pi = _solve_sparse(mc)
    assert _lifted(mc) == pi
    assert steady_state(mc, mode="exact").probabilities == tuple(pi)


def _singular_mod_first_prime():
    """C3, one token: the balance row of v1 is p * (-1, 1) for the first prime p."""
    p = ctmc._PRIMES[0]
    g = cycle_graph(3)
    rates = {(0, 1): 1, (1, 0): 1, (1, 2): p - 1, (2, 1): p, (2, 0): 1, (0, 2): 1}
    return build_master(g, 1, RateSpec(g, {pair: F(r) for pair, r in rates.items()}))


def test_lifted_steady_state_moves_to_the_second_prime(monkeypatch):
    mc = _singular_mod_first_prime()
    pi = _solve_sparse(mc)
    tried = []
    inverse_mod = ctmc._inverse_mod

    def spy(a, p):
        inverse = inverse_mod(a, p)
        tried.append((p, inverse is None))
        return inverse

    def refuse(mc):
        raise AssertionError("fell back to the sparse elimination")

    monkeypatch.setattr(ctmc, "_inverse_mod", spy)
    monkeypatch.setattr(ctmc, "_sparse_pi", refuse)
    assert steady_state(mc, mode="exact").probabilities == tuple(pi)
    assert tried == [(ctmc._PRIMES[0], True), (ctmc._PRIMES[1], False)]


def test_lifted_steady_state_falls_back_when_no_prime_serves(monkeypatch):
    mc = _singular_mod_first_prime()
    pi = _solve_sparse(mc)
    calls = []
    sparse_pi = ctmc._sparse_pi

    def spy(mc):
        calls.append(mc)
        return sparse_pi(mc)

    monkeypatch.setattr(ctmc, "_PRIMES", ctmc._PRIMES[:1])
    monkeypatch.setattr(ctmc, "_sparse_pi", spy)
    assert steady_state(mc, mode="exact").probabilities == tuple(pi)
    assert calls == [mc]


def test_lifted_pi_stops_at_the_hadamard_bound(monkeypatch):
    """With every reconstruction refused, the digit count doubles from 8 up to the bound, then fails."""
    mc = _ring_chain(5, 2, random.Random(2304), reversible=False, wide=True)
    p = ctmc._PRIMES[0]
    moduli = []

    def refuse(residues, modulus):
        moduli.append(modulus)
        return None

    monkeypatch.setattr(ctmc, "_reconstruct", refuse)
    with pytest.raises(SolverError, match="^p-adic lifting found no law within the Hadamard bound$"):
        _lifted_pi(mc)
    digits = [round(math.log(m, p)) for m in moduli]
    assert moduli == [p**d for d in digits]
    assert digits[:-1] == [8 * 2**i for i in range(len(digits) - 1)] and len(digits) > 2
    assert digits[-2] < digits[-1] < 2 * digits[-2]


def test_sparse_elimination_refuses_a_singular_system():
    # two separate edges: states c and d are unreachable from a, so their balance has no pivot
    g = Graph("abcd", [("a", "b"), ("c", "d")])
    mc = build_master(g, 1, RateSpec(g, {pair: F(1) for i, j in g.edges for pair in ((i, j), (j, i))}))
    with pytest.raises(SolverError, match="^singular system in exact steady-state solve$"):
        _solve_sparse(mc)


def test_lifted_pi_on_a_reversible_chain_and_on_one_state():
    rng = random.Random(2303)
    for wide in (False, True):
        mc = _ring_chain(5, 2, rng, reversible=True, wide=wide)
        assert _lifted(mc) == list(reversible_steady_state(mc).probabilities)
    g = path_graph(1)
    lone = build_master(g, 3, RateSpec(g, {}))
    assert lone.num_states == 1
    assert _lifted_pi(lone) == ([1], 1)
    assert steady_state(lone, mode="exact").probabilities == (1,)


def test_lifted_pi_rejects_a_reconstruction_that_does_not_balance():
    # x = pi_1 / pi_0 = a / b needs about 640 bits; the first try, 8 digits
    # of 26 bits, reconstructs a rational that is not a / b
    a, b = 3**200, 2**200 + 1
    modulus = ctmc._PRIMES[0] ** 8
    early = _reconstruct([a * pow(b, -1, modulus) % modulus], modulus)
    assert early is not None and early != (b, [a])
    g = path_graph(2)
    mc = build_master(g, 1, RateSpec(g, {(0, 1): F(a), (1, 0): F(b)}))
    assert _lifted_pi(mc) == ([b, a], a + b)


def test_exact_steady_state_verifies_the_lifted_law(monkeypatch):
    mc = _ring_chain(5, 2, random.Random(2304), reversible=False, wide=False)
    num, total = _lifted_pi(mc)
    num[1] += 1
    monkeypatch.setattr(ctmc, "_lifted_pi", lambda mc: (num, total + 1))
    with pytest.raises(SolverError, match="fails pi Q = 0"):
        steady_state(mc, mode="exact")


def test_inverse_mod_pivots_past_a_zero_column_head_and_refuses_a_singular_matrix():
    p = ctmc._PRIMES[0]
    a = np.random.default_rng(23).integers(0, p, (7, 7))
    a[:3, 0] = 0  # the first pivot comes from row 3
    inverse = ctmc._inverse_mod(a, p)
    assert (a.astype(object) @ inverse.astype(object) % p == np.eye(7, dtype=int)).all()
    a[5] = a[1] * 2 % p
    assert ctmc._inverse_mod(a, p) is None


# --- the dense float solve's state limit ---


def test_float_steady_state_refuses_past_its_state_limit_before_allocating(monkeypatch):
    mc = build_master(pentagon(), 3, pentagon_spec(1, 1, 1))
    assert mc.num_states == 35
    converted = []

    def float_of(q):
        converted.append(q)
        return q.numerator / q.denominator

    def refuse(*args, **kwargs):
        raise AssertionError("the dense system was allocated")

    monkeypatch.setattr(ctmc, "_FLOAT_STATE_LIMIT", 34)
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__float__", float_of)
        patch.setattr(np, "zeros", refuse)
        with pytest.raises(SolverError, match="float mode supports up to 34 states, got 35"):
            steady_state(mc, mode="float")
    assert converted == []
    monkeypatch.setattr(ctmc, "_FLOAT_STATE_LIMIT", 35)
    assert steady_state(mc, mode="float").mode == "float"


# --- float solve past the float range ---


def overflow_triangle(c_to_b: str) -> MasterChain:
    """A k = 1 triangle whose rates a->b and a->c fit a float, but not their sum at a.

    It is reversible when ``c_to_b`` is "2", the rate b->c.
    """
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    rates = {"a->b": "1.5e308", "a->c": "1.5e308", "b->a": "1", "c->a": "1", "b->c": "2"}
    rates["c->b"] = c_to_b
    doc = {key: {"base": v} for key, v in rates.items()}
    _, k, spec = model_from_dict({"graph": graph_to_dict(tri), "k": 1, "rates": doc})
    return build_master(tri, k, spec)


@pytest.mark.parametrize("c_to_b,reversible", [("2", True), ("3", False)])
def test_float_steady_state_refuses_an_exit_rate_past_the_float_range(c_to_b, reversible):
    import warnings

    mc = overflow_triangle(c_to_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as caught:
            steady_state(mc, mode="float")
        assert str(caught.value) == (
            "exit rate of state 'a' overflows the float range; rerun with --exact"
        )
        assert (reversible_steady_state(mc) is not None) is reversible
        assert detailed_balance_check(steady_state(mc, mode="exact"), mc).balanced is reversible


def test_float_steady_state_refuses_a_law_of_nans(monkeypatch):
    """A NaN fails the residual check.

    On this chain LAPACK returns an all-NaN law, with no warning, which the
    checks once let through; the patched solve pins that case on any LAPACK.
    """
    import warnings

    g = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    rates = {
        "a->b": "3", "b->a": "1e-300", "a->c": "1e-154", "c->a": "1e308", "a->d": "1e-320",
        "d->a": "1.5e308", "b->c": "1e-154", "c->b": "1e-320", "b->d": "1", "d->b": "1e300",
    }
    doc = {key: {"base": v} for key, v in rates.items()}
    doc = {"graph": graph_to_dict(g), "k": 1, "rates": doc}
    mc = build_master(g, 1, model_from_dict(doc)[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError):
            steady_state(mc, mode="float")
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(len(b), np.nan))
        for chain in (mc, build_master(pentagon(), 2, pentagon_spec(32, 1, 2))):
            with pytest.raises(SolverError, match="^steady-state residual nan exceeds"):
                steady_state(chain, mode="float")


# --- state indices follow the integer rule ---


@pytest.mark.parametrize(
    "bad,message",
    [
        (1.0, "vertex index 1.0 is not an integer"),
        ("1", "vertex index '1' is not an integer"),
        (-1, "vertex index -1 is out of range"),
        (10**5000, "vertex index of more than 4000 digits is out of range"),
    ],
    ids=["float", "string", "negative", "far"],
)
def test_rate_and_exit_rate_refuse_a_state_by_the_integer_rule(bad, message):
    mc = build_master(pentagon(), 2, pentagon_spec(3, 1, 2))
    for call in (lambda: mc.rate(0, bad), lambda: mc.rate(bad, 0), lambda: mc.exit_rate(bad)):
        with pytest.raises(GraphError) as info:
            call()
        assert str(info.value) == message


def test_rate_and_exit_rate_of_every_integer_type_keep_their_results():
    mc = build_master(pentagon(), 2, pentagon_spec(3, 1, 2))
    x, y = mc.rp.graph.edges[0]
    for cast in (np.int64, np.int32):
        assert mc.rate(cast(x), cast(y)) == mc.rate(x, y) == mc.forward[0]
        assert mc.rate(cast(y), cast(x)) == mc.backward[0]
        assert mc.exit_rate(cast(x)) == mc.exit_rate(x) > 0
    assert mc.rate(True, False) == mc.rate(1, 0) and mc.exit_rate(True) == mc.exit_rate(1)


@pytest.mark.parametrize(
    "field,reason",
    [
        ("[" * 3000 + "]" * 3000, "maximum recursion depth exceeded"),
        ("1" + "0" * 4999, "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep", "long-int"],
)
def test_load_model_refuses_a_file_json_cannot_parse_naming_it(tmp_path, field, reason):
    g = pentagon()
    doc = json.dumps(model_to_dict(g, 2, pentagon_spec(3, 1, 2)))
    path = tmp_path / "model.json"
    path.write_text(doc.replace('"k": 2', '"k": ' + field))
    with pytest.raises(ModelError) as info:
        load_model(path)
    assert str(info.value).startswith(f"model file {path} cannot be parsed: {reason}")


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


_TWO = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
_RATES = {"a->b": {"base": "1"}, "b->a": {"base": "1"}}


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"graph": {"vertices": ["a", "b"], "edges": [list(range(300))]}, "k": 1, "rates": {}},
            "edge entry [0, 1, 2, 3, 4, 5, ...] must be a pair of labels (strings)",
        ),
        ({"graph": _TWO, "k": _nested(960), "rates": _RATES}, "'k' must be a positive integer, got [[...]]"),
        (
            {"graph": _TWO, "k": -(10**5000), "rates": _RATES},
            "'k' must be a positive integer, got of more than 4000 digits",
        ),
    ],
    ids=["long-edge-entry", "deep-k", "far-k"],
)
def test_model_from_dict_echoes_an_outside_value_in_a_bounded_form(doc, message):
    # these once printed 1436 and about 1900 characters, or leaked a ValueError
    with pytest.raises(RedpowError) as info:
        model_from_dict(doc)
    assert len(str(info.value)) <= 300
    assert str(info.value) == message


def test_model_from_dict_echoes_a_long_rate_key_in_a_bounded_form():
    key = "a" * 300 + "->b"
    with pytest.raises(ModelError) as info:
        model_from_dict({"graph": _TWO, "k": 1, "rates": {key: {"base": "1"}}})
    cut = "'" + "a" * 12 + "..."
    assert str(info.value) == f"rate key {cut}{'a' * 10}->b': unknown vertex label {cut}{'a' * 13}'"


@pytest.mark.parametrize("key, shown", [(1, "1"), (("a", "b"), "('a', 'b')"), (None, "None")])
def test_model_from_dict_refuses_a_rate_key_that_is_no_string(key, shown):
    with pytest.raises(ModelError) as info:
        model_from_dict({"graph": _TWO, "k": 1, "rates": {key: {"base": "1"}, **_RATES}})
    assert str(info.value) == f"rate key {shown} must look like 'src->dst'"


def test_model_from_dict_echoes_a_huge_int_rate_key_in_a_bounded_form():
    with pytest.raises(ModelError) as info:
        model_from_dict({"graph": _TWO, "k": 1, "rates": {10**5000: {"base": "1"}}})
    assert str(info.value) == "rate key of more than 4000 digits must look like 'src->dst'"


def test_a_passing_report_builds_its_checks_on_first_read():
    g = pentagon()
    mc = build_master(g, 3, pentagon_spec(32, 1, 2))
    basis = decomposition_basis(g, 3)
    report = kolmogorov_check(mc, basis)
    assert "checks" not in report.__dict__ and "passed" not in report.__dict__
    assert report.passed is True and report.violations() == []
    assert report.as_dict()["cycles_checked"] == betti(mc.rp.graph)
    assert "checks" not in report.__dict__
    checks = report.checks
    assert checks is report.checks and len(checks) == betti(mc.rp.graph)
    assert all(c.passed for c in checks)
    for check, seq in zip(checks, basis.cycles):
        assert check.forward == _plain_products(mc, seq)[0]
        assert check.vertices == tuple(mc.rp.graph.labels[s] for s in seq)


# --- rates built on first read ---


def _count_rate_makers(monkeypatch) -> list[str]:
    """The names of MasterChain's rate makers, one entry per call, as they are called."""
    made = []
    for name in ("_make_forward", "_make_backward", "_make__floats"):
        make = getattr(MasterChain, name)
        monkeypatch.setattr(MasterChain, name, lambda self, make=make, name=name: made.append(name) or make(self))
    return made


def test_an_exact_check_of_a_balanced_ring_builds_no_state_and_no_rate_fraction(monkeypatch):
    from redpow import power
    from redpow.cli import check_reversibility

    made = _count_rate_makers(monkeypatch)
    built_on_read = power._built_on_read

    def counted(cls, fields, **make):
        return built_on_read(cls, fields, **{n: lambda f=f, n=n: made.append(n) or f() for n, f in make.items()})

    monkeypatch.setattr(power, "_built_on_read", counted)
    verdict = check_reversibility(pentagon(), 3, pentagon_spec(32, 1, 2), exact=True)
    assert verdict.kolmogorov.passed and verdict.balance.balanced and verdict.steady_state.mode == "exact"
    assert made == []
    assert verdict.basis.host.states[-1] == Monomial((0, 0, 0, 0, 3))
    assert made == ["states"]


@pytest.mark.parametrize("couplings", [(), (1, 1, 2, 1, 1)])
def test_the_cycle_criterion_builds_no_rate_fraction(monkeypatch, couplings):
    made = _count_rate_makers(monkeypatch)
    g = pentagon()
    mc = build_master(g, 3, pentagon_spec(32, 1, 2, *couplings))
    for basis in (decomposition_basis(g, 3), greedy_mcb(mc.rp.graph)):
        report = kolmogorov_check(mc, basis)
        assert report.passed is not bool(couplings)
        assert len(report.checks) == report.as_dict()["cycles_checked"] == 41
    assert made == []
    for name in ("forward", "backward", "_floats"):
        with pytest.raises(AttributeError):
            getattr(MasterChain, name).__get__(mc)


@pytest.mark.parametrize("beta", [0, 1])
def test_a_float_run_builds_each_rate_view_once(monkeypatch, beta):
    from redpow.cli import check_reversibility

    made = _count_rate_makers(monkeypatch)
    verdict = check_reversibility(pentagon(), 3, pentagon_spec(32, 1, 2, beta=beta))
    assert verdict.kolmogorov.passed is not bool(beta) and verdict.steady_state.mode == "float"
    assert made == ["_make__floats"]


def test_kolmogorov_report_passed_is_made_once(monkeypatch):
    made = []
    make = ctmc.KolmogorovReport._make_passed
    monkeypatch.setattr(ctmc.KolmogorovReport, "_make_passed", lambda self: made.append(1) or make(self))
    g = pentagon()
    for couplings in ((), (1, 1, 2, 1, 1)):
        report = kolmogorov_check(build_master(g, 2, pentagon_spec(32, 1, 2, *couplings)), decomposition_basis(g, 2))
        assert [report.passed, report.passed, report.as_dict()["passed"]] == [not couplings] * 3
    assert made == [1, 1]


def test_an_attribute_neither_set_nor_built_on_read_is_missing_on_chains_and_reports():
    g = pentagon()
    mc = build_master(g, 2, pentagon_spec(32, 1, 2))
    for obj in (mc, kolmogorov_check(mc, decomposition_basis(g, 2))):
        for name in ("nothing", "_make_nothing"):
            with pytest.raises(AttributeError, match=rf"^'{type(obj).__name__}' object has no attribute '{name}'$"):
                getattr(obj, name)


def test_rate_spec_refuses_an_exponent_past_the_bound_before_expanding_it():
    import time

    g = Graph(["a", "b"], [("a", "b")])
    for text in ("1e1000000", "1e-1000000", "2.5E+4301", "1e1_000_000"):
        for base, coupling, what in (
            ({(0, 1): text, (1, 0): 1}, {}, "base rate for 'a->b'"),
            ({(0, 1): 1, (1, 0): 1}, {(1, 0): (0, text)}, "coupling entry for 'b->a'"),
        ):
            start = time.perf_counter()
            with pytest.raises(ModelError) as info:
                RateSpec(g, base, coupling)
            assert time.perf_counter() - start < 0.01
            assert str(info.value) == f"{what}: exponent of {text!r} exceeds 4300 in magnitude"
    for text, value in (("1e4300", F(10) ** 4300), ("1e-4300", F(10) ** -4300), ("-2e+4300", -2 * F(10) ** 4300)):
        assert RateSpec(g, {(0, 1): text, (1, 0): 1}).base_rate(0, 1) == value
        assert parse_rational(text, "w") == value


def test_rate_spec_refuses_an_underscore_on_every_python():
    # Fraction reads PEP 515 underscores from Python 3.11 on; RateSpec refuses them on every version, as the loader does
    g = Graph(["a", "b"], [("a", "b")])
    for text in ("1_000", "1_0/3", "1e4_3"):
        for base, coupling, what in (
            ({(0, 1): text, (1, 0): 1}, {}, "base rate for 'a->b'"),
            ({(0, 1): 1, (1, 0): 1}, {(1, 0): (0, text)}, "coupling entry for 'b->a'"),
        ):
            with pytest.raises(ModelError) as info:
                RateSpec(g, base, coupling)
            assert str(info.value) == f"{what} is {text!r}, not a rational"
        with pytest.raises(ModelError, match="underscores are not allowed"):
            parse_rational(text, "w")


# --- transition numerators in one array pass ---


def _eval_rate_transitions(rp, spec):
    """Every transition's rate from ``eval_rate``, in ``transitions()`` order, with its hop and source state."""
    out = []
    for (x, y), (i, j, _) in zip(rp.graph.edges, rp.annotations):
        for src, a, b in ((x, i, j), (y, j, i)):
            state = rp.states[src]
            out.append((state.exponents[a] * eval_rate(spec, a, b, state), a, b, src))
    return out


def _random_spec(g, rng):
    """Positive base rates on every directed pair, nonnegative couplings on about half of them."""
    pairs = [pair for i, j in g.edges for pair in ((i, j), (j, i))]
    base = {pair: _rational(rng, False) for pair in pairs}
    coupled = rng.sample(pairs, len(pairs) // 2)
    return base, {pair: tuple(_rational(rng, False, lo=0) for _ in range(g.num_vertices)) for pair in coupled}


# a prime past 2^63: scaling every rate by it divides no denominator away
_M89 = 2**89 - 1


def test_array_numerators_equal_eval_rate_on_the_suite_on_both_dtypes():
    rng = random.Random(4201)
    for g in generator_suite():
        base, coupling = _random_spec(g, rng)
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            for scale, dtype in ((1, np.int64), (_M89, object)):
                spec = RateSpec(
                    g,
                    {pair: scale * q for pair, q in base.items()},
                    {pair: tuple(scale * c for c in cs) for pair, cs in coupling.items()},
                )
                expected = [rate * spec._den for rate, *_ in _eval_rate_transitions(rp, spec)]
                assert all(num.denominator == 1 for num in expected)
                nums = ctmc._numerators(rp, spec)
                assert nums.dtype == dtype
                assert nums.tolist() == expected
                assert MasterChain(rp, spec)._ints == (tuple(expected[0::2]), tuple(expected[1::2]))


def test_a_spec_gives_back_every_rate_it_was_given_on_both_dtypes():
    rng = random.Random(4301)
    for g in generator_suite():
        base, coupling = _random_spec(g, rng)
        zero = (F(0),) * g.num_vertices
        for scale in (1, _M89):
            spec = RateSpec(
                g,
                {pair: scale * q for pair, q in base.items()},
                {pair: tuple(scale * c for c in cs) for pair, cs in coupling.items()},
            )
            assert spec.directed_pairs() == sorted(base)
            for pair, q in base.items():
                assert spec.base_rate(*pair) == scale * q
                assert spec.coupling_vector(*pair) == tuple(scale * c for c in coupling.get(pair, zero))
            assert spec.is_uncoupled() == (not any(map(any, coupling.values())))
            again = model_from_dict(json.loads(json.dumps(model_to_dict(g, 1, spec))))[2]
            assert all(
                (again.base_rate(*pair), again.coupling_vector(*pair))
                == (spec.base_rate(*pair), spec.coupling_vector(*pair))
                for pair in base
            )


def _shared_coupling_spec(g, rng, reversible, wide):
    """Rates i->j = phi(j) + c (k - 1): every hop coupled by one shared nonzero vector (c, ..., c).

    The irreversible variant gives one hop a second vector of its own.
    """
    v = g.num_vertices
    phi = [_rational(rng, wide) for _ in range(v)]
    shared = (_rational(rng, wide),) * v
    base, coupling = {}, {}
    for i, j in g.edges:
        for a, b in ((i, j), (j, i)):
            base[(a, b)], coupling[(a, b)] = phi[b], shared
    if not reversible:
        coupling[rng.choice(sorted(base))] = tuple(shared[0] * (l + 1) for l in range(v))
    return RateSpec(g, base, coupling)


@pytest.mark.parametrize("wide", [False, True])
def test_a_shared_coupling_vector_is_one_row_on_the_2380_state_potential_models(wide):
    """The (14,10,3) base has 46 hops; the record keeps the zero row and one per distinct vector."""
    g = random_connected_graph(14, 10, 3)
    rp = build_reduced_power(g, 4)
    assert rp.num_states == 2380
    rng = random.Random(5001 + wide)
    for reversible, rows in ((True, 2), (False, 3)):
        spec = _shared_coupling_spec(g, rng, reversible, wide)
        assert len(spec._rows) == rows
        expected = [rate * spec._den for rate, *_ in _eval_rate_transitions(rp, spec)]
        assert ctmc._numerators(rp, spec).dtype == (object if wide else np.int64)
        assert MasterChain(rp, spec)._ints == (tuple(expected[0::2]), tuple(expected[1::2]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_spec_keeps_one_row_per_distinct_coupling_vector(data):
    """Each hop draws its coupling from a pool: none, the zero vector, and two vectors each in several forms."""
    from decimal import Decimal

    g = data.draw(st.sampled_from(generator_suite()))
    v = g.num_vertices
    entries = st.lists(st.integers(-3, 3), min_size=v, max_size=v).filter(any)
    ints, quarters = data.draw(entries), data.draw(entries)
    pool = [
        None,
        (0,) * v,
        tuple(map(Decimal, (0,) * v)),
        tuple(ints),
        tuple(map(F, ints)),
        tuple(map(Decimal, ints)),
        tuple(F(n, 4) for n in quarters),
        tuple(Decimal(n) / 4 for n in quarters),
    ]
    pairs = [pair for i, j in g.edges for pair in ((i, j), (j, i))]
    drawn = {pair: data.draw(st.sampled_from(pool)) for pair in pairs}
    coupling = {pair: vec for pair, vec in drawn.items() if vec is not None}
    values = {pair: tuple(map(F, vec)) for pair, vec in coupling.items() if any(vec)}
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    base = {pair: _rational(rng, False) for pair in pairs}
    for scale in (1, _M89):
        spec = RateSpec(g, {pair: scale * q for pair, q in base.items()}, coupling)
        assert len(spec._rows) == 1 + len(set(values.values()))
        for pair in pairs:
            if pair in values:
                assert spec.coupling_vector(*pair) == values[pair]
            else:
                assert spec.coupling_vector(*pair) is spec._zero
        assert spec.is_uncoupled() == (not values)
        doc = json.loads(json.dumps(model_to_dict(g, 1, spec)))
        assert model_to_dict(*model_from_dict(doc)) == doc
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            expected = [rate * spec._den for rate, *_ in _eval_rate_transitions(rp, spec)]
            nums = ctmc._numerators(rp, spec)
            assert nums.dtype == (np.int64 if scale == 1 else object)
            assert nums.tolist() == expected


@pytest.mark.parametrize("top, c", [(2**62, 0), (2**61, 2**61)])
def test_a_spec_one_unit_past_the_int64_bound_takes_the_object_path(top, c):
    """Two tokens on a two-vertex path: k (max|B| + (k - 1) max|C|) is 2^63, and one less is int64."""
    g = path_graph(2)
    for b, dtype in ((top, object), (top - 1, np.int64)):
        spec = RateSpec(g, {(0, 1): F(b), (1, 0): F(1)}, {(0, 1): (F(c), F(0))})
        mc = build_master(g, 2, spec)
        den = spec._den
        converted = tuple(
            tuple(r.numerator * (den // r.denominator) for r in rates)
            for rates in (mc.forward, mc.backward)
        )
        assert ctmc._numerators(mc.rp, spec).dtype == dtype
        assert mc._ints == converted
        assert max(mc._ints[0]) == 2 * (b + c) == 2**63 - (2 if dtype is np.int64 else 0)


def test_a_chain_over_a_power_from_the_public_constructor_equals_one_over_the_builders():
    from redpow import ReducedPowerGraph

    rng = random.Random(4202)
    for g in generator_suite():
        spec = RateSpec(g, *_random_spec(g, rng))
        for k in (1, 2, 3):
            built = build_reduced_power(g, k)
            public = ReducedPowerGraph(g, k, built.states, built.graph, built.annotations)
            assert np.array_equal(public._moves[:, :2], built._moves[:, :2])
            stays = [rp._stay_counts[rp._moves[:, 2]] for rp in (public, built)]
            assert np.array_equal(*stays)
            assert MasterChain(public, spec)._ints == MasterChain(built, spec)._ints


@pytest.mark.parametrize("c", [F(-1), F(-3, 2)])
def test_the_first_nonpositive_rate_is_named_where_it_is_not_the_first_transition(c):
    """On C4 with k = 3, the hop v2 -> v3 fails once a token besides the mover sits on v0."""
    g = cycle_graph(4)
    base = {pair: F(1) for i, j in g.edges for pair in ((i, j), (j, i))}
    spec = RateSpec(g, base, {(2, 3): (c, F(0), F(0), F(0))})
    rp = build_reduced_power(g, 3)
    transitions = _eval_rate_transitions(rp, spec)
    t = next(t for t, (rate, *_) in enumerate(transitions) if rate <= 0)
    assert t > 1 and sum(rate <= 0 for rate, *_ in transitions) > 1
    rate, a, b, src = transitions[t]
    with pytest.raises(ModelError) as info:
        MasterChain(rp, spec)
    assert str(info.value) == (
        f"rate {g.labels[a]}->{g.labels[b]} evaluates to {rate} in state "
        f"{rp.label(src)!r}; master rates must be positive"
    )


def test_rate_spec_refuses_a_decimal_past_the_exponent_bound_before_expanding_it():
    import time
    from decimal import Decimal

    g = Graph(["a", "b"], [("a", "b")])
    for value in (Decimal("1e1000000"), Decimal("-2.5e-1000000")):
        for base, coupling, what in (
            ({(0, 1): value, (1, 0): 1}, {}, "base rate for 'a->b'"),
            ({(0, 1): 1, (1, 0): 1}, {(1, 0): (0, value)}, "coupling entry for 'b->a'"),
        ):
            start = time.perf_counter()
            with pytest.raises(ModelError) as info:
                RateSpec(g, base, coupling)
            assert time.perf_counter() - start < 0.01
            assert str(info.value) == f"{what}: exponent of {str(value)!r} exceeds 4300 in magnitude"
    spec = RateSpec(g, {(0, 1): Decimal("2.5e3"), (1, 0): Decimal("1e-4300")})
    assert (spec.base_rate(0, 1), spec.base_rate(1, 0)) == (2500, F(1, 10**4300))


# --- a refuted criterion reads each walk's tag and base edges off its basis's family record ---


def _bases_with_info(g, k):
    """A decomposition, greedy, fundamental and constructor basis of the k-th power of ``g``, with its info.

    The constructor basis has the decomposition's walks and its own info:
    three tags taken in turn, and each walk's base edges one base edge or none.
    """
    from redpow import CycleBasis, ElementInfo

    decomposition = decomposition_basis(g, k)
    rp = decomposition.host
    own = tuple(
        ElementInfo(f"own-{i % 3}", (g.edges[i % g.num_edges],) * (i % 2)) for i in range(len(decomposition.cycles))
    )
    made = [
        decomposition,
        greedy_mcb(rp),
        fundamental_cycles(rp, bfs_spanning_tree(rp.graph, 0)),
        CycleBasis(rp, None, "own", decomposition.cycles, False, own),
    ]
    # the lazy bases' info is read from fresh copies, so their criteria run with it unread
    infos = [decomposition_basis(g, k).info, greedy_mcb(rp).info, made[2].info, own]
    return made, infos


def test_each_check_of_a_refuted_criterion_has_its_walks_tag_and_base_edges():
    for g, k, spec in (
        (pentagon(), 2, pentagon_spec(32, 1, 2, alpha=1, beta=1, gamma=2, delta=1, eps=1)),
        (pentagon(), 3, pentagon_spec(7, 1, 2, alpha=0, beta=3, gamma=1, delta=0, eps=2)),
    ):
        mc = build_master(g, k, spec)
        labels = g.labels
        for basis, info in zip(*_bases_with_info(g, k)):
            report = kolmogorov_check(mc, basis)
            assert not report.passed and len(report.checks) == len(info), basis.kind
            assert "info" not in vars(basis) or basis.kind in ("fundamental", "own")  # the criterion reads no info
            for check, record in zip(report.checks, info):
                assert check.tag == record.tag, (basis.kind, check.index)
                assert check.base_edges == tuple((labels[i], labels[j]) for i, j in record.base_edges)


def test_a_refuted_c7_k_4_criterion_builds_one_element_info_per_family(monkeypatch):
    from redpow import ElementInfo

    g = cycle_graph(7)
    coupling = (F(1), F(0), F(3), F(0), F(2), F(0), F(1))
    base = {pair: F(1 + pair[0] % 2) for i, j in g.edges for pair in ((i, j), (j, i))}
    mc = build_master(g, 4, RateSpec(g, base, {(0, 1): coupling}))
    basis = decomposition_basis(g, 4)
    made = []
    init = ElementInfo.__init__
    monkeypatch.setattr(ElementInfo, "__init__", lambda self, *a, **kw: made.append(1) or init(self, *a, **kw))
    report = kolmogorov_check(mc, basis)
    assert not report.passed and len(report.checks) == 379
    assert len(made) == 22 == len({(c.tag, c.base_edges) for c in report.checks})
