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

The squares are built as index arrays. States are numbered by the rank
of their sorted token words (see :mod:`redpow.power`), and each state
the basis visits, a square corner or a parked base cycle vertex, is read
off :func:`~redpow.power._insert_ranks` tables, not ranked from a token
row. With both edges sorted a square's least corner comes first, so its
canonical walk needs only a direction check. The walks leave untraced,
as one int64 vertex array. A square's four power edges are arithmetic
too: on a builder's power they are read off its slot table of (stay
rank, base edge), which checks the move record, and the one walk tracer
of :mod:`redpow.cyclespace` checks each against its step and searches
only the embedded cycles' steps, for the basis and for the square-space
check alike. Both prove independence by peeling the traced walks, and
both read the power's cycle-space dimension off its checked move record,
with no breadth-first search of the power. The basis builds its
per-element objects only when they are read.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from .errors import GraphError, PowerError
from .graph import (
    Graph,
    RootedTree,
    _edge_ids,
    _index,
    betti,
    bfs_spanning_tree,
    check_spanning_tree,
    has_triangles,
)
from .power import Monomial, ReducedPowerGraph, _count, _insert_ranks, _word_ranks, build_reduced_power
from .cyclespace import (
    CycleBasis,
    EdgeVector,
    ElementInfo,
    _base_mcb,
    _cycle_rank,
    _trace_flat,
    _walk_rank,
    cycle_edge_vector,
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
        try:
            same = frozenset(self.edge1) == frozenset(self.edge2)
        except TypeError:  # an unhashable end: the integer rule names the first it refuses
            one, two = (
                {_index(x, None, PowerError, "square edge end") for x in e} for e in (self.edge1, self.edge2)
            )
            same = one == two
        if same:
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


def _square_words(g: Graph, t: RootedTree, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Both square families, tree pairs first: the tree pair count, their rows, the stay words.

    Row ``(a, b, c, d, w)`` is the square of edges ``(a, b)`` and ``(c, d)``
    whose stationary tokens sit on word ``w`` of ``stays``, the (k-2)-words
    in rank order. Checks the tree once; for k < 2 it warns and returns no
    squares. Each tree edge is oriented (parent, child); its stay words are
    those whose largest letter, read as a tree-order position, is at most
    the child's. The rows are whole arrays read off one mask, tree edge
    by stay word, in row order: its true entries give each chord's rows,
    and those under every shallower tree edge the tree pair rows.
    """
    depth = check_spanning_tree(g, t)
    if any(depth[a] > depth[b] for a, b in zip(t.order, t.order[1:])):
        raise GraphError("tree order must be non-decreasing in depth")
    k = _count(k)
    if k < 2:
        warnings.warn("no Cartesian squares exist for k < 2", stacklevel=4)
        return 0, np.empty((0, 5), dtype=np.int64), np.empty((0, 0), dtype=np.int64)
    v = g.num_vertices
    stays = np.array(_insert_ranks(v, k - 1)[0], np.int64, ndmin=2)  # the (k-2)-words
    ranks = _word_ranks(np.array(t.order, dtype=np.int64)[stays], v)
    # tree edge j, whose child sits at tree-order position j + 1, takes the words of top at most j + 1
    fits = stays.max(axis=1, initial=0) <= np.arange(1, v)[:, None]
    level, word = np.nonzero(fits)
    deeper, shallower, tree_word = np.nonzero(np.tri(v - 1, k=-1, dtype=bool)[:, :, None] & fits[:, None, :])
    tree_edges = np.array([(t.parent[c], c) for c in t.order[1:]], dtype=np.int64).reshape(-1, 2)
    tree_rows = np.column_stack([tree_edges[shallower], tree_edges[deeper], ranks[tree_word]])
    tree_pairs = t.tree_pairs()
    chords = np.array([e for e in g.edges if e not in tree_pairs], dtype=np.int64).reshape(-1, 2)
    level_rows = np.column_stack([tree_edges[level], ranks[word]])
    chord_rows = np.column_stack([np.repeat(chords, len(level), axis=0), np.tile(level_rows, (len(chords), 1))])
    return len(tree_rows), np.concatenate([tree_rows, chord_rows]), stays


def _family(g: Graph, t: RootedTree, k: int, tag: str) -> list[CartesianSquare]:
    n_tree, rows, stays = _square_words(g, t, k)
    rows = rows[:n_tree] if tag == "tree-square" else rows[n_tree:]
    fs = Monomial._of_words(stays.tolist(), g.num_vertices)
    return [CartesianSquare((a, b), (c, d), fs[w]) for a, b, c, d, w in rows.tolist()]


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
    miss = "tree_square_count needs v >= 1 and k >= 1"
    v, k = _count(v, "v", miss), _count(k, "k", miss)
    return (v - 1) * comb(k + v - 2, k - 1) - comb(k + v - 1, k) + 1


def chord_square_count(beta: int, v: int, k: int) -> int:
    """Closed form for the chord pair family size."""
    miss = "chord_square_count needs v >= 1, k >= 1, beta >= 0"
    beta, v, k = _count(beta, "beta", miss, 0), _count(v, "v", miss), _count(k, "k", miss)
    return beta * (comb(k + v - 2, k - 1) - 1)


def embed_cycle(rp: ReducedPowerGraph, cycle: tuple[int, ...], f: Monomial) -> EdgeVector:
    """Copy of a base cycle inside the power, stationary tokens on f.

    ``cycle`` is a simple cycle of the base graph as a vertex sequence;
    ``f`` must have degree k-1. Base vertex c maps to state c*f.
    """
    fw = _stationary_word(rp, f, rp.k - 1)
    cycle_edge_vector(rp.base, cycle)  # validates the base cycle
    return cycle_edge_vector(rp, [rp.state_of(fw + (c,)) for c in cycle])


def _structured_cycles(rp: ReducedPowerGraph, tree: RootedTree) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The squares, walk vertices and walk lengths of :func:`_structured_walks`, without its edges."""
    return _structured_walks(rp, tree)[:3]


def _structured_walks(
    rp: ReducedPowerGraph, tree: RootedTree
) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray | None]:
    """The structured cycles of the power ``rp``: squares, walks untraced as arrays, and the squares' edges.

    The squares are :func:`_square_words`'s count, rows (each edge pair
    sorted) and stay words. The walks are first one embedded copy of a
    greedy minimum cycle basis of the base, the k-1 stationary tokens
    parked on the tree's root, then the squares in enumeration order,
    four steps each, laid end to end in one int64 vertex array, with their
    lengths; :func:`~redpow.cyclespace._trace_flat` traces them. States are
    read off :func:`~redpow.power._insert_ranks` tables: corner ``w + p + q``
    is ``into[onto[w, p], q]``, parked vertex ``c`` is ``into[root^(k-1), c]``.

    The squares' steps, four a square, are read off the power's checked
    slot table ``_edge_of`` by arithmetic, or None when it has none (a power
    of the public constructor). Square ``(a, b, c, d, w)`` steps from
    ``w + c + a`` along ``ab`` under stay ``w + c``, along ``cd`` under
    ``w + b``, along ``ab`` under ``w + d`` and along ``cd`` under ``w + a``;
    a walk turned to its canonical direction takes them in reverse order.
    """
    base, k, v = rp.base, rp.k, rp.base.num_vertices
    n_tree, rows, stays = _square_words(base, tree, k)
    into = _insert_ranks(v, k)[1]  # (k-1)-word s plus a token on x: state into[s, x]
    # base vertex c -> state c * root^(k-1), increasing in c, so the canonical base walks stay canonical
    parked = into[_word_ranks(np.full(k - 1, tree.root), v)]
    embedded = [parked[list(seq)] for seq in _base_mcb(base).cycles]
    # corner w + p + q; with a < b and c < d, w + c + a is the pointwise least word, so it leads
    first, second = rows[:, 0:4:2], rows[:, 1:4:2]  # (a, c) and (b, d)
    first[...], second[...] = np.minimum(first, second), np.maximum(first, second)
    # (k-2)-word w plus x: (k-1)-word onto[w, x], w in the order of stays; k = 1 has neither
    onto = _insert_ranks(v, k - 1)[1] if len(rows) else np.empty((0, 0), np.int64)
    stay = onto[rows[:, 4:], rows[:, [2, 1, 3, 0]]]  # w + c, w + b, w + d, w + a
    walks = into[stay[:, [0, 0, 2, 2]], rows[:, [0, 1, 1, 0]]]
    flip = walks[:, 3] < walks[:, 1]
    walks = np.where(flip[:, None], walks[:, [0, 3, 2, 1]], walks)
    vertices = np.concatenate([*embedded, walks.ravel()])
    lengths = np.concatenate([np.array(list(map(len, embedded)), np.int64), np.full(len(rows), 4)])
    steps = None
    if rp._edge_of is not None:
        moved = _edge_ids(base, first, second)  # ab, cd
        steps = rp._edge_of[stay * base.num_edges + moved[:, [0, 1, 0, 1]]]
        steps = np.where(flip[:, None], steps[:, ::-1], steps).ravel()
    return (n_tree, rows, stays), vertices, lengths, steps


def decomposition_basis(base: Graph, k: int, root: int = 0) -> CycleBasis:
    """Cycle basis of the k-th reduced power from base MCB plus squares.

    Combines one embedded copy of a greedy minimum cycle basis of the
    base (stationary tokens parked on the root) with the tree pair and
    chord pair square families of a breadth-first spanning tree rooted
    there. The result is always a basis; it is a certified minimum
    cycle basis exactly when the base graph has no triangles. Its
    elements, cycles and info are built on first read.
    """
    k = _count(k, "k", "the decomposition basis needs k >= 2", 2)
    tree = bfs_spanning_tree(base, root)
    return _decomposition_on(build_reduced_power(base, k), tree)


def _decomposition_on(rp: ReducedPowerGraph, tree: RootedTree) -> CycleBasis:
    """:func:`decomposition_basis` on the power ``rp`` already built, from ``tree`` of its base.

    A builder's power has its square edges gathered (:func:`_structured_walks`)
    and its dimension read off its checked move record; the embedded base
    cycles alone are searched. A power from the public constructor, whose
    stays are not in rank order, has every walk searched and its graph
    searched breadth-first. The family record is built on read: the embedded
    walks are one family, and each square edge pair one, its rows contiguous
    in :func:`_square_words`' order; ``info`` reads it.
    """
    base, k = rp.base, rp.k
    (n_tree, rows, stays), vertices, lengths, gathered = _structured_walks(rp, tree)

    n_embedded = len(lengths) - len(rows)

    @functools.cache
    def families() -> tuple[np.ndarray, tuple[ElementInfo, ...]]:
        # a walk's key: -1 for the embedded walks, one family, else its square's edge pair read in base v
        key = np.concatenate([np.full(n_embedded, -1), rows[:, :4] @ base.num_vertices ** np.arange(3, -1, -1)])
        new = np.diff(key, prepend=-2) != 0  # a family's walks are contiguous: it starts where the key changes
        firsts = new.nonzero()[0]
        kinds = np.searchsorted([n_embedded, n_embedded + n_tree], firsts, "right").tolist()
        pairs = [((a, b), (c, d)) for a, b, c, d in rows[firsts[firsts >= n_embedded] - n_embedded, :4].tolist()]
        tags = map(("embedded", "tree-square", "chord-square").__getitem__, kinds)
        made = map(ElementInfo, tags, [()] * (len(firsts) - len(pairs)) + pairs)  # the embedded family has none
        return new.cumsum() - 1, tuple(made)

    def info() -> tuple[ElementInfo, ...]:
        ids, fam = families()
        fs = [Monomial.from_word((tree.root,) * (k - 1), base.num_vertices)] * n_embedded
        fs += map(Monomial._of_words(stays.tolist(), base.num_vertices).__getitem__, rows[:, 4].tolist())
        return tuple(ElementInfo(x.tag, x.base_edges, f) for x, f in zip(map(fam.__getitem__, ids.tolist()), fs))

    certified = not has_triangles(base)
    return CycleBasis._of_walks(rp, "decomposition", certified, vertices, lengths, info, families, gathered)


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
    Both ranks come from peeling the traced walks
    (:func:`~redpow.cyclespace._walk_rank`), so bitsets are built only for
    walks the peel leaves; the squares are peeled on their own only when
    the walks together are dependent. The squares' edges are gathered
    (:func:`_structured_walks`), and the power's cycle-space dimension is read
    off its checked move record (:func:`~redpow.cyclespace._cycle_rank`),
    with no search of the power but the embedded cycles' steps.
    """
    rp = build_reduced_power(base, k)
    k = rp.k
    (n_tree, rows, _), vertices, lengths, steps = _structured_walks(rp, tree)
    starts, edge, _ = _trace_flat(rp.graph, vertices, lengths, steps)
    n_chord, n_embedded = len(rows) - n_tree, len(lengths) - len(rows)
    beta_base = betti(base)
    beta_power = _cycle_rank(rp)
    tsq_formula = tree_square_count(base.num_vertices, k)
    csq_formula = chord_square_count(beta_base, base.num_vertices, k)

    walks = np.arange(len(lengths))  # the embedded base MCB first, then the squares
    rank_all = _walk_rank(starts, edge, walks)
    # all the walks independent makes the squares among them independent: no second peel
    rank_squares = len(rows) if rank_all == len(walks) else _walk_rank(starts, edge, walks[n_embedded:])
    # a square projects to zero when the base edges its four power edges
    # cross (by the power's moves) pair up
    square_edges = edge[len(edge) - 4 * len(rows) :].reshape(-1, 4)  # the walks' last steps
    crossed = rp._moves[:, 3][square_edges]
    crossed.sort(axis=1)
    zero_proj = bool(((crossed[:, 0] == crossed[:, 1]) & (crossed[:, 2] == crossed[:, 3])).all())

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
        direct_sum=rank_all == beta_power,
    )
