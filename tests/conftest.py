"""Shared graph builders, the desk-scale host suite, and model helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from redpow import Graph, PowerError, RateSpec


def cycle_graph(n: int, labels: str | None = None) -> Graph:
    labs = list(labels) if labels else [f"v{i}" for i in range(n)]
    edges = [(labs[i], labs[(i + 1) % n]) for i in range(n)]
    return Graph(labs, edges)


def path_graph(n: int, labels: str | None = None) -> Graph:
    labs = list(labels) if labels else [f"v{i}" for i in range(n)]
    edges = [(labs[i], labs[i + 1]) for i in range(n - 1)]
    return Graph(labs, edges)


def complete_graph(n: int) -> Graph:
    labs = [f"v{i}" for i in range(n)]
    edges = [(labs[i], labs[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(labs, edges)


def pentagon() -> Graph:
    return cycle_graph(5, "abcde")


def random_connected_graph(v: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus a sample of extra chords."""
    rng = random.Random(seed)
    labs = [f"v{i}" for i in range(v)]
    edges = set()
    for i in range(1, v):
        p = rng.randrange(i)
        edges.add((min(i, p), max(i, p)))
    pool = [
        (i, j)
        for i in range(v)
        for j in range(i + 1, v)
        if (i, j) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return Graph(labs, [(labs[i], labs[j]) for i, j in sorted(edges)])


def generator_suite() -> list[Graph]:
    """Connected graphs with v <= 6 exercising all structural cases."""
    suite = [
        path_graph(2),
        path_graph(4),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5, "abcde"),
        cycle_graph(6),
        complete_graph(4),
        random_connected_graph(5, 2, seed=7),
        random_connected_graph(6, 4, seed=11),
        random_connected_graph(6, 7, seed=13),
    ]
    return suite


def pentagon_spec(lam, mu, nu, alpha=0, beta=0, gamma=0, delta=0, eps=0) -> RateSpec:
    """Five-state ring model: one functional rate, constant elsewhere.

    Forward direction a->b->c->d->e->a runs at mu except a->b, which is
    lam plus occupancy couplings (alpha..eps by vertex); every backward
    rate is nu.
    """
    g = pentagon()
    base = {}
    for i in range(5):
        j = (i + 1) % 5
        base[(i, j)] = Fraction(mu)
        base[(j, i)] = Fraction(nu)
    base[(0, 1)] = Fraction(lam)
    coupling = {
        (0, 1): tuple(Fraction(c) for c in (alpha, beta, gamma, delta, eps))
    }
    return RateSpec(g, base, coupling)


@pytest.fixture(scope="session")
def suite() -> list[Graph]:
    return generator_suite()


@pytest.fixture(scope="session")
def c5() -> Graph:
    return pentagon()


# --- JSON-shaped documents for loader fuzzing ---

LABELS = st.sampled_from(["a", "b", "c", "d"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def graph_docs():
    """JSON-shaped graph documents: mostly well formed, with stray values."""
    endpoint = LABELS | JSON_VALUES
    edge = st.lists(endpoint, min_size=2, max_size=2) | st.lists(endpoint, max_size=3)
    doc = st.fixed_dictionaries(
        {
            "vertices": st.lists(LABELS, min_size=1, max_size=4, unique=True)
            | st.lists(LABELS | JSON_VALUES, max_size=4)
            | JSON_VALUES,
            "edges": st.lists(edge, max_size=5) | JSON_VALUES,
        }
    )
    return doc | JSON_VALUES


COUNT_KINDS = ["float", "string", "below", "negative", "far"]


def assert_count_refused(call, what: str, miss: str, least: int, kind: str) -> None:
    """``call`` of a count the integer rule refuses raises the PowerError that names it.

    The count is no integer (a float or a string) or an int below ``least``:
    one below, -1, or one past the int string limit (a large count would be built).
    """
    bad = {"float": 2.0, "string": "2", "below": least - 1, "negative": -1, "far": -(10**5000)}[kind]
    with pytest.raises(PowerError) as info:
        call(bad)
    assert str(info.value) == (miss if isinstance(bad, int) else f"{what} {bad!r} is not an integer")
