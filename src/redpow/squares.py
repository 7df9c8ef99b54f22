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


def _squares_exist(g: Graph, t: RootedTree, k: int) -> bool:
    """Check the tree for the square families; False (with a warning) for k < 2."""
    check_spanning_tree(g, t)
    if not t.is_depth_ordered():
        raise GraphError("tree order must be non-decreasing in depth")
    if k < 2:
        warnings.warn("no Cartesian squares exist for k < 2", stacklevel=3)
    return k >= 2


def _stationary_word(rp: ReducedPowerGraph, f: Monomial, degree: int) -> tuple[int, ...]:
    """Word of a stationary monomial, checked against the power's base and k."""
    if f.degree != degree:
        raise PowerError(f"stationary monomial has degree {f.degree}, need {degree}")
    if len(f.exponents) != rp.base.num_vertices:
        raise PowerError(f"{f.exponents} is not a monomial over the base vertices")
    return f.word()


def _prefix_monomials(t: RootedTree, degree: int) -> list[list[Monomial]]:
    """Entry j: the monomials of the given degree on the first j+1 tree vertices.

    Enumeration follows combinations with replacement over the prefix
    in tree order, so square families are reproducible.
    """
    v = len(t.order)
    return [
        [Monomial.from_word(w, v) for w in combinations_with_replacement(t.order[: j + 1], degree)]
        for j in range(v)
    ]


def _tree_edges_in_order(t: RootedTree) -> list[tuple[int, int]]:
    """Tree edges keyed by their deeper endpoint, in tree order.

    Entry p - 1 (p >= 1) is the edge oriented (parent, child) whose
    child is the p-th vertex of the tree order, so callers read the edge
    at tree-order position j as ``edges[j - 1]``.
    """
    return [(t.parent[v], v) for v in t.order[1:]]


def tree_pair_squares(g: Graph, t: RootedTree, k: int) -> list[CartesianSquare]:
    """Squares built from two distinct tree edges.

    For the deeper edge at tree-order position j (0-based, so j >= 2)
    the shallower edge ranges over positions 1..j-1 and f over degree
    k-2 monomials on the first j+1 vertices in tree order.
    """
    if not _squares_exist(g, t, k):
        return []
    fs = _prefix_monomials(t, k - 2)
    edges = _tree_edges_in_order(t)
    out: list[CartesianSquare] = []
    for j in range(2, g.num_vertices):
        for i in range(1, j):
            out.extend(CartesianSquare(edges[i - 1], edges[j - 1], f) for f in fs[j])
    return out


def chord_pair_squares(g: Graph, t: RootedTree, k: int) -> list[CartesianSquare]:
    """Squares pairing each non-tree edge with each tree edge.

    The tree edge at position j (0-based, j >= 1) contributes with f
    over degree k-2 monomials on the first j+1 vertices in tree order;
    chords iterate in ascending edge-index order.
    """
    if not _squares_exist(g, t, k):
        return []
    fs = _prefix_monomials(t, k - 2)
    tree_pairs = t.tree_pairs()
    chords = [pair for pair in g.edges if pair not in tree_pairs]
    edges = _tree_edges_in_order(t)
    out: list[CartesianSquare] = []
    for chord in chords:
        for j in range(1, g.num_vertices):
            out.extend(CartesianSquare(chord, edges[j - 1], f) for f in fs[j])
    return out


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
    rp = build_reduced_power(base, k)
    tree = bfs_spanning_tree(base, root)
    base_mcb = greedy_mcb(base)
    parked = (root,) * (k - 1)
    f_root = Monomial.from_word(parked, base.num_vertices)

    cycles: list[tuple[int, ...]] = []
    infos: list[ElementInfo] = []
    for seq in base_mcb.cycles:
        cycles.append(_canonical_cycle([rp.state_of(parked + (c,)) for c in seq]))
        infos.append(ElementInfo(tag="embedded", f=f_root))
    for tag, family in (
        ("tree-square", tree_pair_squares(base, tree, k)),
        ("chord-square", chord_pair_squares(base, tree, k)),
    ):
        for sq in family:
            cycles.append(_canonical_cycle(sq.states(rp)))
            edges = (tuple(sorted(sq.edge1)), tuple(sorted(sq.edge2)))
            infos.append(ElementInfo(tag=tag, base_edges=edges, f=sq.f))

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
    rp = build_reduced_power(base, k)
    tsq = tree_pair_squares(base, tree, k)
    csq = chord_pair_squares(base, tree, k)
    beta_base = betti(base)
    beta_power = betti(rp.graph)

    span = Gf2Span()
    zero_proj = True
    for sq in tsq + csq:
        vec = sq.edge_vector(rp)
        span.add(vec.bits)
        if not project_to_base(vec).is_zero:
            zero_proj = False
    rank_squares = span.rank
    tsq_formula = tree_square_count(base.num_vertices, k)
    csq_formula = chord_square_count(beta_base, base.num_vertices, k)

    # the square span grows into the span of squares plus embedded base MCB
    f_root = Monomial.from_word((tree.root,) * (k - 1), base.num_vertices)
    for seq in greedy_mcb(base).cycles:
        span.add(embed_cycle(rp, seq, f_root).bits)

    return SquareSpaceReport(
        k=k,
        tree_squares=len(tsq),
        chord_squares=len(csq),
        tree_squares_formula=tsq_formula,
        chord_squares_formula=csq_formula,
        betti_base=beta_base,
        betti_power=beta_power,
        rank_squares=rank_squares,
        counts_match=len(tsq) == tsq_formula and len(csq) == csq_formula,
        independent=rank_squares == len(tsq) + len(csq),
        projects_to_zero=zero_proj,
        spans_kernel=rank_squares == beta_power - beta_base,
        direct_sum=span.rank == beta_power,
    )
