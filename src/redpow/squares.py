"""Cartesian squares in reduced powers and the structured cycle basis.

Moving one token along a base edge while a second token sits on either
end of another base edge traces a 4-cycle in the reduced power, the
Cartesian square of the two edges relative to a stationary monomial f
of degree k-2. These squares span the kernel of the projection onto
the base cycle space, and two spanning tree indexed families of them
give that kernel a basis:

* tree pair squares combine two distinct tree edges, the deeper one
  indexed j, with f running over monomials on the first j vertices in
  tree order;
* chord pair squares combine a non-tree edge with each tree edge under
  the same f convention.

Adjoining one embedded copy of a minimum cycle basis of the base graph
(all stationary tokens parked on the root) then yields a basis of the
whole cycle space of the power. Its total length is minimum exactly
when the base graph has no triangles: every cycle of a triangle-free
base has length at least four, so no basis can beat squares, while an
embedded triangle of length three would be shorter than any square
that could replace it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement
from math import comb

from .errors import GraphError, PowerError
from .graph import Graph, RootedTree, betti, bfs_spanning_tree, check_spanning_tree, has_triangles
from .power import Monomial, ReducedPowerGraph, build_reduced_power
from .cyclespace import (
    CycleBasis,
    EdgeVector,
    ElementInfo,
    Gf2Span,
    _canonical_cycle,
    cycle_edge_vector,
    greedy_mcb,
    project_to_base,
)

__all__ = [
    "CartesianSquare",
    "tree_pair_squares",
    "chord_pair_squares",
    "tree_square_count",
    "chord_square_count",
    "embed_cycle",
    "decomposition_basis",
    "SquareSpaceReport",
    "verify_square_space",
]


@dataclass(frozen=True)
class CartesianSquare:
    """4-cycle swapping single-token moves along two base edges.

    With edge1 = (a, b), edge2 = (c, d) and stationary monomial f the
    cycle visits acf, bcf, bdf, adf. The two edges must be distinct as
    unordered pairs; sharing an endpoint is fine.
    """

    edge1: tuple[int, int]
    edge2: tuple[int, int]
    f: Monomial

    def __post_init__(self):
        if frozenset(self.edge1) == frozenset(self.edge2):
            raise PowerError("a Cartesian square needs two distinct edges")

    def states(self, rp: ReducedPowerGraph) -> tuple[int, int, int, int]:
        fw = _stationary_word(rp, self.f, rp.k - 2)
        for pair in (self.edge1, self.edge2):
            if not rp.base.has_edge(*pair):
                raise PowerError(f"{pair} is not an edge of the base graph")
        a, b = self.edge1
        c, d = self.edge2
        return tuple(rp.state_of(fw + pair) for pair in ((c, a), (c, b), (d, b), (d, a)))

    def edge_vector(self, rp: ReducedPowerGraph) -> EdgeVector:
        return cycle_edge_vector(rp, self.states(rp))

    def describe(self, labels: tuple[str, ...]) -> str:
        a, b = self.edge1
        c, d = self.edge2
        fs = self.f.to_string(labels)
        return f"({labels[a]}{labels[b]} x {labels[c]}{labels[d]}) f={fs}"


def _stationary_word(rp: ReducedPowerGraph, f: Monomial, degree: int) -> tuple[int, ...]:
    """Word of a stationary monomial, checked against the power's base and k."""
    if f.degree != degree:
        raise PowerError(f"stationary monomial has degree {f.degree}, need {degree}")
    if len(f.exponents) != rp.base.num_vertices:
        raise PowerError(f"{f.exponents} is not a monomial over the base vertices")
    return f.word()


def _square_words(g: Graph, t: RootedTree, k: int) -> list[tuple]:
    """Both square families, tree pairs first, as (tag, edge1, edge2, sorted stay word).

    Checks the tree once; for k < 2 it warns and returns no squares.
    Each tree edge is oriented (parent, child), and its stay words are
    built once per tree-order position.
    """
    check_spanning_tree(g, t)
    if not t.is_depth_ordered():
        raise GraphError("tree order must be non-decreasing in depth")
    if k < 2:
        warnings.warn("no Cartesian squares exist for k < 2", stacklevel=4)
        return []
    levels = []  # (tree edge, stay words) at tree-order positions 1, 2, ...
    for j in range(1, len(t.order)):
        v = t.order[j]
        words = combinations_with_replacement(t.order[: j + 1], k - 2)
        levels.append(((t.parent[v], v), [tuple(sorted(w)) for w in words]))
    tree_pairs = t.tree_pairs()
    out = [
        ("tree-square", low, high, w)
        for j, (high, words) in enumerate(levels)
        for low, _ in levels[:j]
        for w in words
    ]
    out.extend(
        ("chord-square", chord, edge, w)
        for chord in g.edges
        if chord not in tree_pairs
        for edge, words in levels
        for w in words
    )
    return out


def _family(g: Graph, t: RootedTree, k: int, tag: str) -> list[CartesianSquare]:
    v = g.num_vertices
    return [
        CartesianSquare(e1, e2, Monomial.from_word(w, v))
        for sq_tag, e1, e2, w in _square_words(g, t, k)
        if sq_tag == tag
    ]


def tree_pair_squares(g: Graph, t: RootedTree, k: int) -> list[CartesianSquare]:
    """Squares built from two distinct tree edges.

    For the deeper edge at tree-order position j (0-based, so j >= 2)
    the shallower edge ranges over positions 1..j-1 and f over degree
    k-2 monomials on the first j+1 vertices in tree order.
    """
    return _family(g, t, k, "tree-square")


def chord_pair_squares(g: Graph, t: RootedTree, k: int) -> list[CartesianSquare]:
    """Squares pairing each non-tree edge with each tree edge.

    The tree edge at position j (0-based, j >= 1) contributes with f
    over degree k-2 monomials on the first j+1 vertices in tree order;
    chords iterate in ascending edge-index order.
    """
    return _family(g, t, k, "chord-square")


def tree_square_count(v: int, k: int) -> int:
    """Closed form for the tree pair family size."""
    return (v - 1) * comb(k + v - 2, k - 1) - comb(k + v - 1, k) + 1


def chord_square_count(beta: int, v: int, k: int) -> int:
    """Closed form for the chord pair family size."""
    return beta * (comb(k + v - 2, k - 1) - 1)


def embed_cycle(rp: ReducedPowerGraph, cycle: tuple[int, ...], f: Monomial) -> EdgeVector:
    """Copy of a base cycle inside the power, stationary tokens on f.

    ``cycle`` is a simple cycle of the base graph as a vertex sequence;
    ``f`` must have degree k-1. Base vertex c maps to state c*f.
    """
    fw = _stationary_word(rp, f, rp.k - 1)
    cycle_edge_vector(rp.base, cycle)  # validates the base cycle
    return cycle_edge_vector(rp, [rp.state_of(fw + (c,)) for c in cycle])


def _structured_cycles(
    base: Graph, tree: RootedTree, k: int
) -> tuple[ReducedPowerGraph, list[tuple[int, ...]], list[ElementInfo]]:
    """The power, with the canonical walks and records of its structured cycles.

    First one embedded copy of a greedy minimum cycle basis of the base,
    the k-1 stationary tokens parked on the tree's root; then the tree
    pair and chord pair squares of the tree in enumeration order.
    """
    rp = build_reduced_power(base, k)
    squares = _square_words(base, tree, k)
    parked = (tree.root,) * (k - 1)
    f_root = Monomial.from_word(parked, base.num_vertices)
    cycles = []
    infos = []
    for seq in greedy_mcb(base).cycles:
        cycles.append(_canonical_cycle([rp.state_of(parked + (c,)) for c in seq]))
        infos.append(ElementInfo(tag="embedded", f=f_root))
    fs = {w: Monomial.from_word(w, base.num_vertices) for w in {sq[3] for sq in squares}}
    for tag, (a, b), (c, d), w in squares:
        walk = [rp.state_of(w + pair) for pair in ((c, a), (c, b), (d, b), (d, a))]
        cycles.append(_canonical_cycle(walk))
        edges = (tuple(sorted((a, b))), tuple(sorted((c, d))))
        infos.append(ElementInfo(tag=tag, base_edges=edges, f=fs[w]))
    return rp, cycles, infos


def decomposition_basis(base: Graph, k: int, root: int = 0) -> CycleBasis:
    """Cycle basis of the k-th reduced power from base MCB plus squares.

    Combines one embedded copy of a greedy minimum cycle basis of the
    base (stationary tokens parked on the root) with the tree pair and
    chord pair square families of a breadth-first spanning tree rooted
    there. The result is always a basis; it is a certified minimum
    cycle basis exactly when the base graph has no triangles.
    """
    if k < 2:
        raise PowerError("the decomposition basis needs k >= 2")
    rp, cycles, infos = _structured_cycles(base, bfs_spanning_tree(base, root), k)
    return CycleBasis(
        host=rp,
        elements=tuple(cycle_edge_vector(rp, seq) for seq in cycles),
        kind="decomposition",
        cycles=tuple(cycles),
        certified_minimum=not has_triangles(base),
        info=tuple(infos),
    )


@dataclass(frozen=True)
class SquareSpaceReport:
    """Outcome of the square-space rank and projection checks."""

    k: int
    tree_squares: int
    chord_squares: int
    tree_squares_formula: int
    chord_squares_formula: int
    betti_base: int
    betti_power: int
    rank_squares: int
    counts_match: bool
    independent: bool
    projects_to_zero: bool
    spans_kernel: bool
    direct_sum: bool

    @property
    def passed(self) -> bool:
        return (
            self.counts_match
            and self.independent
            and self.projects_to_zero
            and self.spans_kernel
            and self.direct_sum
        )

    def as_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed}


def verify_square_space(base: Graph, tree: RootedTree, k: int) -> SquareSpaceReport:
    """Check the square families against the kernel of the projection.

    Asserts four facts about the families over the given tree: their
    sizes match the closed forms, they are linearly independent, every
    square projects to zero in the base cycle space, and together with
    an embedded base MCB they span the full cycle space of the power.
    """
    rp, cycles, infos = _structured_cycles(base, tree, k)
    tags = Counter(info.tag for info in infos)
    n_tree, n_chord, n_embedded = tags["tree-square"], tags["chord-square"], tags["embedded"]
    beta_base = betti(base)
    beta_power = betti(rp.graph)
    tsq_formula = tree_square_count(base.num_vertices, k)
    csq_formula = chord_square_count(beta_base, base.num_vertices, k)

    span = Gf2Span()
    zero_proj = True
    for seq in cycles[n_embedded:]:
        vec = cycle_edge_vector(rp, seq)
        span.add(vec.bits)
        zero_proj = zero_proj and project_to_base(vec).is_zero
    rank_squares = span.rank
    # the square span grows into the span of squares plus embedded base MCB
    for seq in cycles[:n_embedded]:
        span.add(cycle_edge_vector(rp, seq).bits)

    return SquareSpaceReport(
        k=k,
        tree_squares=n_tree,
        chord_squares=n_chord,
        tree_squares_formula=tsq_formula,
        chord_squares_formula=csq_formula,
        betti_base=beta_base,
        betti_power=beta_power,
        rank_squares=rank_squares,
        counts_match=n_tree == tsq_formula and n_chord == csq_formula,
        independent=rank_squares == n_tree + n_chord,
        projects_to_zero=zero_proj,
        spans_kernel=rank_squares == beta_power - beta_base,
        direct_sum=span.rank == beta_power,
    )
