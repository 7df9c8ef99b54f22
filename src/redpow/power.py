"""Reduced powers of simple graphs.

The k-th reduced power of a graph G tracks k indistinguishable tokens
placed on the vertices of G, any number per vertex. A state is a
degree-k monomial in the vertex labels (exponent = occupancy), and two
states are adjacent when one token moves along a single edge of G.
Equivalently it is the quotient of the k-fold Cartesian product of G
by the coordinate-permuting action of the symmetric group.

States are enumerated in ascending multiset-word order, the order
``itertools.combinations_with_replacement`` produces over vertex
indices. For k = 1 this reproduces the base graph exactly.

A state is keyed by its word, the sorted tuple of the vertex indices
its tokens occupy (``ReducedPowerGraph.state_of``); ``Monomial`` is the
public view, built once per state and per stationary monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb, factorial

from .errors import PowerError
from .graph import Graph

__all__ = [
    "Monomial",
    "ReducedPowerGraph",
    "vertex_count",
    "edge_count",
    "orbit_size",
    "build_reduced_power",
    "degree_of",
    "cartesian_power",
    "quotient_by_symmetry",
]

# a power's moves: {(x, y) with x < y: (i, j, stay_word)}
_Moves = dict[tuple[int, int], tuple[int, int, tuple[int, ...]]]


@dataclass(frozen=True)
class Monomial:
    """Occupancy vector of tokens over the base vertices.

    ``exponents[i]`` counts tokens on vertex ``i``. The word form is the
    sorted tuple of occupied vertex indices with multiplicity, which is
    the canonical enumeration key.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise PowerError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def from_word(cls, word: tuple[int, ...], size: int) -> "Monomial":
        exps = [0] * size
        for idx in word:
            if not 0 <= idx < size:
                raise PowerError(f"vertex index {idx} out of range for size {size}")
            exps[idx] += 1
        return cls(tuple(exps))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def word(self) -> tuple[int, ...]:
        out: list[int] = []
        for i, e in enumerate(self.exponents):
            out.extend([i] * e)
        return tuple(out)

    def times(self, i: int) -> "Monomial":
        """Multiply by vertex ``i`` (add one token there)."""
        if not 0 <= i < len(self.exponents):
            raise PowerError(f"vertex index {i} out of range")
        exps = list(self.exponents)
        exps[i] += 1
        return Monomial(tuple(exps))

    def to_string(self, labels: tuple[str, ...]) -> str:
        return self._render(labels, "")

    def _render(self, labels: tuple[str, ...], sep: str) -> str:
        """The factors ``lab`` or ``lab^e`` in vertex order, joined by ``sep``."""
        if len(labels) != len(self.exponents):
            raise PowerError("label tuple does not match exponent length")
        if self.degree == 0:
            return "1"
        parts = []
        for lab, e in zip(labels, self.exponents):
            if e == 1:
                parts.append(lab)
            elif e > 1:
                parts.append(f"{lab}^{e}")
        return sep.join(parts)


class ReducedPowerGraph:
    """A reduced power together with its state and edge annotations.

    ``graph`` is the plain labeled graph of the power (labels are the
    monomial strings, with ``*`` between factors if the plain strings of
    two states coincide). ``annotations[e]`` records, for edge ``e`` of
    that graph, the base edge ``(i, j)`` the moving token crosses and
    the degree-(k-1) monomial of the tokens that stay put. The edge
    joins states ``f * i`` and ``f * j``; since ``i < j``, ``f * i`` is
    its lower-indexed end.
    """

    __slots__ = ("base", "k", "states", "graph", "annotations", "_index")

    def __init__(
        self,
        base: Graph,
        k: int,
        states: tuple[Monomial, ...],
        graph: Graph,
        annotations: tuple[tuple[int, int, Monomial], ...],
    ):
        self.base = base
        self.k = k
        self.states = states
        self.graph = graph
        self.annotations = annotations
        self._index = {m.word(): i for i, m in enumerate(states)}

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def state_of(self, tokens: tuple[int, ...]) -> int:
        """Index of the state whose tokens sit on ``tokens``, in any order."""
        try:
            return self._index[tuple(sorted(tokens))]
        except KeyError:
            raise PowerError(f"tokens {tokens} are not a state of this power") from None

    def state_index(self, m: Monomial) -> int:
        if len(m.exponents) != self.base.num_vertices:
            raise PowerError(f"{m.exponents} is not a state of this power")
        return self.state_of(m.word())

    def label(self, i: int) -> str:
        return self.graph.labels[i]

    def annotation(self, edge: int) -> tuple[int, int, Monomial]:
        return self.annotations[edge]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReducedPowerGraph):
            return NotImplemented
        return self.base == other.base and self.k == other.k and self.graph == other.graph

    def __hash__(self) -> int:
        return hash((self.base, self.k, self.graph))

    def __repr__(self) -> str:
        return f"ReducedPowerGraph(k={self.k}, states={self.num_states}, edges={self.num_edges})"


def vertex_count(v: int, k: int) -> int:
    """Number of states: multisets of size k over v vertices."""
    if v < 1 or k < 1:
        raise PowerError("vertex_count needs v >= 1 and k >= 1")
    return comb(k + v - 1, k)


def edge_count(e: int, v: int, k: int) -> int:
    """Number of edges: one per base edge and degree-(k-1) monomial."""
    if v < 1 or k < 1 or e < 0:
        raise PowerError("edge_count needs v >= 1, k >= 1, e >= 0")
    return e * comb(k + v - 2, k - 1)


def orbit_size(m: Monomial) -> int:
    """Size of the coordinate-permutation orbit mapping onto state m."""
    size = factorial(m.degree)
    for e in m.exponents:
        size //= factorial(e)
    return size


def build_reduced_power(base: Graph, k: int) -> ReducedPowerGraph:
    """Construct the k-th reduced power directly from monomials."""
    if k < 1:
        raise PowerError("k must be >= 1")
    v = base.num_vertices
    words = list(combinations_with_replacement(range(v), k))
    word_index = {w: i for i, w in enumerate(words)}

    moves: _Moves = {}
    for i, j in base.edges:
        for fw in combinations_with_replacement(range(v), k - 1):
            x = word_index[tuple(sorted(fw + (i,)))]
            y = word_index[tuple(sorted(fw + (j,)))]
            moves[(x, y) if x < y else (y, x)] = (i, j, fw)
    return _assemble(base, k, words, moves)


def _state_labels(base: Graph, states: tuple[Monomial, ...]) -> tuple[str, ...]:
    """Plain state labels, or with ``*`` between factors when plain ones collide.

    Multi-character base labels can run together: on labels a, bc, ab, c
    the states a*bc and ab*c both render plainly as 'abc'.
    """
    labels = tuple(m.to_string(base.labels) for m in states)
    if len(set(labels)) == len(labels):
        return labels
    seen: dict[str, Monomial] = {}
    for m in states:
        lab = m._render(base.labels, "*")
        if lab in seen:
            names = [tuple(base.labels[i] for i in s.word()) for s in (seen[lab], m)]
            raise PowerError(f"states {names[0]} and {names[1]} both render as {lab!r}")
        seen[lab] = m
    return tuple(seen)


def _assemble(base: Graph, k: int, words: list, moves: _Moves) -> ReducedPowerGraph:
    """Power from its state words and moves; one ``Monomial`` per stay word."""
    v = base.num_vertices
    states = tuple(Monomial.from_word(w, v) for w in words)
    labels = _state_labels(base, states)
    stays = {fw: Monomial.from_word(fw, v) for fw in {move[2] for move in moves.values()}}
    graph = Graph(labels, ((labels[x], labels[y]) for x, y in sorted(moves)))
    annotations = tuple(
        (i, j, stays[fw]) for i, j, fw in (moves[pair] for pair in graph.edges)
    )
    return ReducedPowerGraph(base, k, states, graph, annotations)


def degree_of(rp: ReducedPowerGraph, m: Monomial) -> int:
    """Degree of a state: sum of base degrees over occupied vertices."""
    idx = rp.state_index(m)
    total = sum(rp.base.degree(i) for i, e in enumerate(m.exponents) if e >= 1)
    assert total == rp.graph.degree(idx)
    return total


def cartesian_power(base: Graph, k: int, budget: int = 10**6) -> Graph:
    """k-fold Cartesian product of the base graph with itself.

    Vertices are comma-joined k-tuples of base labels; edges join tuples
    differing in one coordinate by a base edge. Raises when the v**k
    state count would exceed ``budget``.
    """
    if k < 1:
        raise PowerError("k must be >= 1")
    v = base.num_vertices
    if v**k > budget:
        raise PowerError(f"cartesian power has {v}^{k} vertices, over budget {budget}")
    if any("," in lab for lab in base.labels):
        raise PowerError("base labels must not contain ',' for product labeling")

    tuples = list(product(range(v), repeat=k))
    labels = [",".join(base.labels[i] for i in tup) for tup in tuples]
    edges: list[tuple[str, str]] = []
    for ti, tup in enumerate(tuples):
        for pos in range(k):
            for nbr in base.adjacency(tup[pos]):
                if nbr > tup[pos]:
                    other = tup[:pos] + (nbr,) + tup[pos + 1 :]
                    edges.append((labels[ti], ",".join(base.labels[i] for i in other)))
    return Graph(labels, edges)


def quotient_by_symmetry(power: Graph, base: Graph, k: int) -> ReducedPowerGraph:
    """Collapse a k-fold Cartesian power by coordinate permutations.

    Independent oracle for :func:`build_reduced_power`: it never looks
    at monomial arithmetic, only at the tuple structure of the product
    graph. Raises PowerError if ``power`` is not the k-fold Cartesian
    power of ``base`` produced by :func:`cartesian_power`.
    """
    if k < 1:
        raise PowerError("k must be >= 1")
    v = base.num_vertices
    if power.num_vertices != v**k:
        raise PowerError(
            f"power has {power.num_vertices} vertices, expected {v}^{k} = {v**k}"
        )

    tuples: list[tuple[int, ...]] = []
    for lab in power.labels:
        parts = lab.split(",")
        if len(parts) != k:
            raise PowerError(f"vertex label {lab!r} is not a {k}-tuple of base labels")
        tuples.append(tuple(base.index_of(p) for p in parts))
    if len(set(tuples)) != len(tuples):
        raise PowerError("product vertices are not distinct tuples")

    expected_edges = k * base.num_edges * v ** (k - 1)
    if power.num_edges != expected_edges:
        raise PowerError(
            f"power has {power.num_edges} edges, expected {expected_edges}"
        )

    words = sorted({tuple(sorted(t)) for t in tuples})
    word_index = {w: i for i, w in enumerate(words)}

    moves: _Moves = {}
    for pi, pj in power.edges:
        tx, ty = tuples[pi], tuples[pj]
        diff = [pos for pos in range(k) if tx[pos] != ty[pos]]
        if len(diff) != 1:
            raise PowerError("product edge changes more than one coordinate")
        pos = diff[0]
        a, b = tx[pos], ty[pos]
        if not base.has_edge(a, b):
            raise PowerError("product edge does not project onto a base edge")
        x = word_index[tuple(sorted(tx))]
        y = word_index[tuple(sorted(ty))]
        if x == y:
            raise PowerError("product edge collapses to a single state")
        pair = (x, y) if x < y else (y, x)
        move = (min(a, b), max(a, b), tuple(sorted(tx[:pos] + tx[pos + 1 :])))
        prev = moves.get(pair)
        if prev is not None and prev != move:
            raise PowerError("inconsistent annotations for a quotient edge")
        moves[pair] = move
    return _assemble(base, k, words, moves)
