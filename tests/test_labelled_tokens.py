"""An oracle for the master chain: k labelled tokens on the k-fold product G^k.

Each token hops on its own, at the per-token rate of the model applied to
the occupancy of the other tokens, so no multiplicity factor, power, basis
or solver is involved. The master chain is this chain with the tokens'
labels forgotten: it is reversible exactly when the labelled one is, and
its law is the labelled law summed over each orbit of tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from redpow import RateSpec, build_master, steady_state
from redpow.cli import check_reversibility

from conftest import pentagon, pentagon_spec, random_connected_graph


def labelled_law(g, k: int, spec: RateSpec) -> dict[tuple[int, ...], Fraction] | None:
    """The stationary law of k labelled tokens on ``g`` if it is detailed-balanced, else None.

    A state is a k-tuple of base vertices. Token m hops from a = t[m] to a
    neighbour b at ``base_rate(a, b) + coupling_vector(a, b) . others``,
    ``others`` the occupancy of the other tokens. The law is the potential
    of rate ratios along a breadth-first tree from (0, ..., 0), tested on
    every transition, in Fractions.
    """
    v = g.num_vertices
    hops = {(a, b): (spec.base_rate(a, b), spec.coupling_vector(a, b)) for a, b in spec.directed_pairs()}

    def moves(t: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        out = {}
        for m, a in enumerate(t):
            others = [0] * v
            for n, c in enumerate(t):
                others[c] += n != m
            for b in g.adjacency(a):
                base, coupling = hops[a, b]
                out[t[:m] + (b,) + t[m + 1 :]] = base + sum(c * o for c, o in zip(coupling, others))
        return out

    out = {t: moves(t) for t in product(range(v), repeat=k)}
    root = (0,) * k
    pi, order = {root: Fraction(1)}, [root]
    for t in order:  # the list grows while it is walked, so it is the queue
        for u, q in out[t].items():
            if u not in pi:
                pi[u] = pi[t] * q / out[u][t]
                order.append(u)
    if any(pi[t] * q != pi[u] * out[u][t] for t in out for u, q in out[t].items()):
        return None
    total = sum(pi.values())
    return {t: p / total for t, p in pi.items()}


def _lumped(law: dict[tuple[int, ...], Fraction], rp) -> list[Fraction]:
    """The law summed over each orbit of tuples, by the state of the power the orbit is."""
    sums = [Fraction(0)] * rp.num_states
    for t, p in law.items():
        sums[rp.state_of(t)] += p
    return sums


@pytest.mark.parametrize("k, reversible", [(2, False), (3, True), (4, False)])
def test_the_pentagon_on_labelled_tokens_gets_the_verdict_of_the_exact_check(k, reversible):
    spec = pentagon_spec(30, 1, 2, 1, 1, 1, 1, 1)
    assert (labelled_law(pentagon(), k, spec) is not None) is reversible
    assert check_reversibility(pentagon(), k, spec, exact=True).kolmogorov.passed is reversible


def test_the_labelled_law_summed_over_orbits_is_the_exact_steady_state():
    spec = pentagon_spec(30, 1, 2, 1, 1, 1, 1, 1)
    mc = build_master(pentagon(), 3, spec)
    law = labelled_law(pentagon(), 3, spec)
    assert _lumped(law, mc.rp) == list(steady_state(mc, "exact").probabilities)


def _random_spec(g, rng: random.Random, reversible: bool) -> RateSpec:
    """Rates with small integer entries; reversible ones are ``s_ab h_b (beta + gamma . others)``.

    There ``s`` is symmetric and ``beta``, ``gamma`` are shared by every
    hop: a hop and its reverse see the same other tokens, so the factor in
    brackets cancels from their ratio and the law is a product of ``h``.
    """
    v = g.num_vertices
    h = [rng.randint(1, 3) for _ in range(v)]
    beta, gamma = rng.randint(1, 2), [rng.randint(0, 2) for _ in range(v)]
    base, coupling = {}, {}
    for i, j in g.edges:
        s = rng.randint(1, 3)
        for a, b in ((i, j), (j, i)):
            if reversible:
                base[a, b] = s * h[b] * beta
                coupling[a, b] = tuple(s * h[b] * c for c in gamma)
            else:
                base[a, b] = rng.randint(1, 4)
                coupling[a, b] = tuple(rng.choice((0, 0, 1, 2)) for _ in range(v))
    return RateSpec(g, base, coupling)


def test_labelled_tokens_agree_with_the_exact_check_on_random_models():
    verdicts = set()
    for seed in range(24):
        rng = random.Random(seed)
        v, k = rng.randint(3, 5), rng.choice((2, 3))
        g = random_connected_graph(v, rng.randint(1, 2), seed)
        spec = _random_spec(g, rng, reversible=seed % 2 == 0)
        law = labelled_law(g, k, spec)
        verdict = check_reversibility(g, k, spec, exact=True)
        assert (law is not None) is verdict.kolmogorov.passed, seed
        if law is not None:
            assert _lumped(law, verdict.basis.host) == list(verdict.steady_state.probabilities), seed
        verdicts.add(verdict.kolmogorov.passed)
    assert verdicts == {True, False}
