"""F2 edge space, cycle space, and cycle bases of a host graph.

An edge subset is an integer bitset over the host's dense edge index.
Symmetric difference is XOR, so linear algebra over F2 reduces to
integer operations. The cycle space is the kernel of the boundary map
sending an edge to its endpoint pair; its dimension for a connected
host is e - v + 1.

A host is either a plain Graph or a ReducedPowerGraph; the latter
records the base edge of each of its edges, which the projection onto
the base cycle space reads.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CycleSpaceError
from .graph import Graph, RootedTree, _bfs, _edge_ids, _index, betti, check_spanning_tree
from .graph import _BuiltOnRead, _built_on_read
from .power import Monomial, ReducedPowerGraph

__all__ = [
    "EdgeVector",
    "Gf2Span",
    "ElementInfo",
    "CycleBasis",
    "host_graph",
    "boundary",
    "is_cycle",
    "rank",
    "cycle_edge_vector",
    "fundamental_cycles",
    "greedy_mcb",
    "project_to_base",
    "cycle_decomposition",
    "enumerate_simple_cycles",
    "total_length",
]


def host_graph(host) -> Graph:
    """Plain graph of a host (identity on Graph instances)."""
    if isinstance(host, ReducedPowerGraph):
        return host.graph
    if isinstance(host, Graph):
        return host
    raise CycleSpaceError(f"{type(host).__name__} cannot host edge vectors")


@dataclass(frozen=True)
class EdgeVector:
    """Subset of host edges encoded as a bitset over edge indices."""

    host: object
    bits: int

    def __post_init__(self):
        g = host_graph(self.host)
        if not isinstance(self.bits, int) or self.bits < 0:
            raise CycleSpaceError("bits must be a non-negative integer")
        if self.bits.bit_length() > g.num_edges:
            raise CycleSpaceError("bits reference edges outside the host")

    @classmethod
    def _traced(cls, host, bits: int) -> "EdgeVector":
        """The edge vector of a walk traced on ``host``, made without re-checking its bits."""
        x = object.__new__(cls)
        object.__setattr__(x, "host", host)
        object.__setattr__(x, "bits", bits)
        return x

    @classmethod
    def from_edges(cls, host, pairs: Iterable[tuple[int, int]]) -> "EdgeVector":
        g = host_graph(host)
        bits = 0
        for i, j in pairs:
            bits ^= 1 << g.edge_position(i, j)
        return cls(host, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def edge_indices(self) -> list[int]:
        return _bit_indices(self.bits)

    def edge_pairs(self) -> list[tuple[int, int]]:
        g = host_graph(self.host)
        return [g.edges[e] for e in self.edge_indices()]

    def __xor__(self, other: "EdgeVector") -> "EdgeVector":
        if not isinstance(other, EdgeVector):
            return NotImplemented
        if host_graph(self.host) != host_graph(other.host):
            raise CycleSpaceError("edge vectors live on different hosts")
        return EdgeVector(self.host, self.bits ^ other.bits)


def boundary(x: EdgeVector) -> frozenset[int]:
    """Vertices of odd degree in the edge subset."""
    g = host_graph(x.host)
    odd: set[int] = set()
    for e in x.edge_indices():
        for end in g.edges[e]:
            if end in odd:
                odd.remove(end)
            else:
                odd.add(end)
    return frozenset(odd)


def is_cycle(x: EdgeVector) -> bool:
    """True when every vertex has even degree in the subset."""
    return not boundary(x)


class Gf2Span:
    """Incrementally built row space over F2 with leading-bit pivots."""

    def __init__(self):
        self._pivots: dict[int, int] = {}

    def reduce(self, bits: int) -> int:
        while bits:
            lead = bits.bit_length() - 1
            row = self._pivots.get(lead)
            if row is None:
                break
            bits ^= row
        return bits

    def add(self, bits: int) -> bool:
        """Insert a vector; returns False if it was already in the span."""
        residue = self.reduce(bits)
        if residue == 0:
            return False
        self._pivots[residue.bit_length() - 1] = residue
        return True

    def contains(self, bits: int) -> bool:
        return self.reduce(bits) == 0

    @property
    def rank(self) -> int:
        return len(self._pivots)


def rank(vectors: Sequence[EdgeVector]) -> int:
    """Dimension of the span of the given edge vectors."""
    if not vectors:
        return 0
    g = host_graph(vectors[0].host)
    span = Gf2Span()
    for x in vectors:
        if host_graph(x.host) != g:
            raise CycleSpaceError("edge vectors live on different hosts")
        span.add(x.bits)
    return span.rank


def _bit_indices(bits: int) -> list[int]:
    """Positions of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _trace_walks(g: Graph, walks: Sequence[Sequence[int]]) -> tuple[np.ndarray, ...]:
    """Closed walks on ``g`` traced: their first steps, step edges and directions.

    Walk ``w`` takes steps ``starts[w]`` to ``starts[w] + len(walks[w]) - 1``,
    its last back to its first vertex; a direction is True where a step runs
    from its edge's higher end. Vertices are read by the integer rule of
    ``operator.index``; a vertex it refuses, or one past int64, has every
    walk checked so, in order. :func:`_trace_flat` traces the vertices read.
    """
    lengths = np.fromiter(map(len, walks), np.int64, len(walks))
    try:
        vertices = map(operator.index, chain.from_iterable(walks))
        src = np.fromiter(vertices, np.int64, int(lengths.sum()))
    except (TypeError, OverflowError):  # some walk has a vertex that is no int64: the first such walk raises
        for seq in walks:
            cycle_edge_vector(g, seq)
    return _trace_flat(g, src, lengths)


def _trace_flat(g: Graph, src: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_trace_walks` of the walks laid end to end in the int64 array ``src``.

    Walk ``w`` has ``lengths[w]`` vertices. One search finds every step's
    edge. Array checks then find every walk that is no simple cycle of
    ``g`` (fewer than three vertices, a repeated vertex, a step that is no
    edge), and the first of them raises its own :func:`cycle_edge_vector`
    error, as a walk-by-walk check would, on its vertices read back from
    ``src``; for a walk of integers that is the message the walk as given
    raises. :func:`_walk_bitsets` makes bitsets of the traced walks.
    """
    starts = np.cumsum(lengths) - lengths
    nxt = np.arange(1, len(src) + 1)
    closing = lengths > 0
    nxt[(starts + lengths - 1)[closing]] = starts[closing]
    dst = src[nxt]
    edge = _edge_ids(g, src, dst)
    n = g.num_vertices
    owner = np.repeat(np.arange(len(lengths)), lengths)
    bad = lengths < 3
    bad[owner[edge < 0]] = True
    # a vertex out of range steps to no edge, so folding it into range flags no good walk
    key = np.sort(owner * n + src % n)
    bad[key[1:][key[1:] == key[:-1]] // n] = True
    if bad.any():
        w = int(np.argmax(bad))
        cycle_edge_vector(g, src[starts[w] : starts[w] + lengths[w]].tolist())
    return starts, edge, src > dst


def _walk_bitsets(starts: np.ndarray, edge: np.ndarray, walks: np.ndarray | None = None) -> list[int]:
    """Edge bitsets of the traced walks ``walks``, of every walk when None.

    Walks of one length go together, each with its edges sorted, as the
    rows of :func:`_row_bitsets`.
    """
    walks = np.arange(len(starts)) if walks is None else walks
    first, lengths = starts[walks], (np.append(starts[1:], len(edge)) - starts)[walks]
    out = [0] * len(walks)
    for size in np.bincount(lengths).nonzero()[0].tolist():
        at = (lengths == size).nonzero()[0]
        rows = _row_bitsets(np.sort(edge[first[at, None] + np.arange(size)], axis=1))
        for i, x in zip(at.tolist(), rows):
            out[i] = x
    return out


def _row_bitsets(rows: np.ndarray) -> Iterator[int]:
    """The bitset of each row of distinct edge ids, sorted ascending along the row.

    A bitset is built from its highest edge down, shifting by the gap to
    the next edge and setting bit 0, so only the last shift, by the lowest
    edge, makes an integer as long as the bitset.
    """
    bits = repeat(1)
    for gap in np.diff(rows, axis=1)[:, ::-1].T.tolist():
        bits = map(operator.or_, map(operator.lshift, bits, gap), repeat(1))
    return map(operator.lshift, bits, rows[:, 0].tolist())


# The peel stops after this many rounds and hands what is left to Gf2Span.
# A round is one pass over the steps of the walks still in. The decomposition
# bases of the test suite's and the benchmark's bases, up to 4368 states,
# peeled completely in at most 17 rounds; the overlapping rectangles of a
# ladder peel two a round, from one end.
_PEEL_ROUNDS = 32


def _peel(starts: np.ndarray, edge: np.ndarray, walks: np.ndarray) -> np.ndarray:
    """The traced walks of ``walks`` that peeling leaves, ascending.

    A round removes every walk that owns an edge no other walk still in
    crosses. Such a walk lies in no dependency of the walks still in, so
    the rank of ``walks`` is the number peeled plus the rank of those left
    (:func:`_walk_rank`). Rounds stop when none is removed, or after
    ``_PEEL_ROUNDS``.
    """
    owner = np.repeat(np.arange(len(starts)), np.append(starts[1:], len(edge)) - starts)
    inside = np.zeros(len(starts), dtype=bool)
    inside[walks] = True
    on = inside[owner]
    owner, steps = owner[on], edge[on]
    for _ in range(_PEEL_ROUNDS):
        alone = np.bincount(steps)[steps] == 1
        if not alone.any():
            break
        inside[owner[alone]] = False
        on = inside[owner]
        owner, steps = owner[on], steps[on]
    return inside.nonzero()[0]


def _walk_rank(starts: np.ndarray, edge: np.ndarray, walks: np.ndarray) -> int:
    """Rank over F2 of the traced walks ``walks``: those peeled, plus the Gf2Span rank of the rest."""
    left = _peel(starts, edge, walks)
    span = Gf2Span()
    for bits in _walk_bitsets(starts, edge, left) if len(left) else ():
        span.add(bits)
    return len(walks) - len(left) + span.rank


def cycle_edge_vector(host, seq: Sequence[int]) -> EdgeVector:
    """Edge vector of a closed vertex walk with no repeated vertices.

    A walk of fewer than three vertices is refused first, then one that
    repeats a vertex (one with an unhashable vertex names the first vertex
    the integer rule refuses), then its first step that is no edge of the
    host (:meth:`Graph.edge_position` raises).
    """
    g = host_graph(host)
    if len(seq) < 3:
        raise CycleSpaceError("a simple cycle needs at least three vertices")
    try:
        repeats = len(set(seq)) != len(seq)
    except TypeError:  # an unhashable vertex: the integer rule names the first it refuses
        repeats = len({_index(v, g.num_vertices) for v in seq}) != len(seq)
    if repeats:
        raise CycleSpaceError("cycle sequence repeats a vertex")
    bits = 0
    for i, j in zip(seq, (*seq[1:], seq[0])):
        bits |= 1 << g.edge_position(i, j)
    return EdgeVector(host, bits)


def _canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate and reflect so the smallest vertex leads, smaller neighbor second."""
    n = len(seq)
    start = min(range(n), key=lambda i: seq[i])
    rot = [seq[(start + i) % n] for i in range(n)]
    if n >= 3 and rot[-1] < rot[1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


@dataclass(frozen=True)
class ElementInfo:
    """Construction record for one basis element.

    ``tag`` names the family the element came from; ``base_edges``
    lists the base-graph edges involved (square generators only);
    ``f`` is the stationary monomial for embedded or square elements.
    """

    tag: str
    base_edges: tuple[tuple[int, int], ...] = ()
    f: Monomial | None = None


@dataclass(frozen=True)
class CycleBasis(_BuiltOnRead):
    """A basis of the cycle space with oriented vertex sequences.

    Every element is a simple cycle; ``cycles[i]`` is its vertex
    sequence (consecutive vertices adjacent, last wraps to first).
    Construction traces the walks once (:func:`_trace_walks`): it checks
    that they trace the given ``elements``, or takes the traced bitsets as
    the elements when ``elements`` is None, then checks that the elements
    are independent and span the cycle space. Independence is proved on
    the trace by peeling (:func:`_peel`); only the walks the peel leaves
    go to :class:`Gf2Span`. It keeps the trace as ``_trace``, which the
    cycle check reads.

    A basis made by :meth:`_of_walks`, from walk arrays, is checked the
    same way on the trace alone; its ``elements``, ``cycles`` and ``info``
    are built on first read and kept (:class:`~redpow.graph._BuiltOnRead`).
    ``_tags``, each element's ``info.tag``, is too; such a basis makes it
    without ``info``.
    """

    host: object
    elements: tuple[EdgeVector, ...] | None
    kind: str
    cycles: tuple[tuple[int, ...], ...]
    certified_minimum: bool
    info: tuple[ElementInfo, ...]
    _trace: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = host_graph(self.host)
        n = len(self.cycles if self.elements is None else self.elements)
        _check_dimension(g, n)
        if len(self.cycles) != n:
            raise CycleSpaceError("every element needs a vertex sequence")
        if len(self.info) != n:
            raise CycleSpaceError("info records do not match element count")
        # a walk on m >= 3 distinct vertices crosses m distinct edges,
        # so a traced element is a single simple cycle
        trace = _trace_walks(g, self.cycles)
        traced = _walk_bitsets(*trace[:2])
        if self.elements is None:
            object.__setattr__(self, "elements", tuple(EdgeVector._traced(self.host, x) for x in traced))
            bad = n
        else:
            mismatched = (host_graph(x.host) != g or x.bits != b for x, b in zip(self.elements, traced))
            bad = next((i for i, no in enumerate(mismatched) if no), n)
        # the elements ahead of the first mismatched one are checked first,
        # so the error is the one a check element by element would raise
        _check_independent(trace, bad)
        if bad < n:
            if host_graph(self.elements[bad].host) != g:
                raise CycleSpaceError("basis element lives on a different host")
            raise CycleSpaceError("vertex sequence does not trace its element")
        object.__setattr__(self, "_trace", trace)

    def _make__tags(self) -> tuple[str, ...]:
        return tuple(record.tag for record in self.info)

    @classmethod
    def _of_walks(
        cls, host, kind: str, certified_minimum: bool, vertices: np.ndarray, lengths: np.ndarray, info, tags=None
    ) -> "CycleBasis":
        """The basis of the walks laid end to end in ``vertices``, ``lengths[w]`` each.

        Checks, as the constructor does, that there are as many walks as
        the cycle space's dimension, that each traces a simple cycle, and
        that they are independent. The elements are the traced bitsets, the
        cycles the walks as tuples, ``info()`` gives the info records and
        ``tags()``, if given, their tags without them.
        """
        g = host_graph(host)
        _check_dimension(g, len(lengths))
        trace = _trace_flat(g, vertices, lengths)
        _check_independent(trace, len(lengths))
        starts, edge, _ = trace

        def elements():
            return tuple(EdgeVector._traced(host, x) for x in _walk_bitsets(starts, edge))

        def cycles():
            flat, bounds = vertices.tolist(), starts.tolist() + [len(vertices)]
            return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

        fields = dict(host=host, kind=kind, certified_minimum=certified_minimum, _trace=trace)
        made = dict(elements=elements, cycles=cycles, info=info)
        if tags is not None:
            made["_tags"] = tags
        return _built_on_read(cls, fields, **made)

    @property
    def total_length(self) -> int:
        # a traced walk crosses one edge a step, each edge once
        return len(self._trace[1])


def _check_dimension(g: Graph, n: int) -> None:
    """Raise unless ``n`` elements are as many as the dimension of ``g``'s cycle space."""
    dim = betti(g)
    if n != dim:
        raise CycleSpaceError(f"basis has {n} elements, cycle space has dimension {dim}")


def _check_independent(trace: tuple[np.ndarray, ...], n: int) -> None:
    """Raise unless the first ``n`` walks of ``trace`` are independent over F2."""
    if _walk_rank(*trace[:2], np.arange(n)) < n:
        raise CycleSpaceError("basis elements are linearly dependent")


def total_length(basis: CycleBasis) -> int:
    return basis.total_length


def _basis_of_bitsets(host, kind: str, minimum: bool, bitsets: Iterable[int], tag: str) -> CycleBasis:
    """The basis of the simple cycles ``bitsets``, walked here; the constructor takes their traced edges."""
    cycles = tuple(cycle_decomposition(EdgeVector._traced(host, bits))[0] for bits in bitsets)
    info = tuple(ElementInfo(tag=tag) for _ in cycles)
    return CycleBasis(host, None, kind, cycles, minimum, info)


def fundamental_cycles(host, tree: RootedTree) -> CycleBasis:
    """Fundamental cycle basis of a spanning tree.

    Each non-tree edge closes exactly one cycle through the tree; the
    resulting vectors are independent because each contains a non-tree
    edge no other vector touches. A chord's cycle is the chord plus the
    symmetric difference of its ends' tree paths to the root; its walk is
    read off that bitset by :func:`cycle_decomposition`.
    """
    g = host_graph(host)
    check_spanning_tree(g, tree)
    tree_pairs = tree.tree_pairs()
    path = [0] * g.num_vertices
    for v in sorted(tree.parent, key=tree.depths().__getitem__):  # parents first
        path[v] = path[tree.parent[v]] | 1 << g.edge_position(v, tree.parent[v])
    cycles = (path[i] ^ path[j] | 1 << e for e, (i, j) in enumerate(g.edges) if (i, j) not in tree_pairs)
    return _basis_of_bitsets(host, "fundamental", False, cycles, "fundamental")


# greedy_mcb takes its sources in blocks: a block's tree and edge tables,
# and each batch of its candidate rows, hold at most this many entries
# (512 KiB as int64), unless one source's table row alone is longer.
_BLOCK_ENTRIES = 1 << 16


def _source_trees(g: Graph, sources: range) -> tuple[np.ndarray, ...]:
    """The BFS tree of every source, one row each: parent, parent edge, depth and first hop.

    A source is its own parent and first hop, at depth 0 with parent
    edge -1. Depth and first hop come from pointer doubling on the
    parent table: ``up`` jumps 2^t steps toward the source and ``depth``
    counts them, while ``hop`` jumps along the same path but stops at
    the vertex below the source.
    """
    parent = np.empty((len(sources), g.num_vertices), dtype=np.int64)
    for row, x in zip(parent, sources):
        par = _bfs(g, x)[0]
        par[x] = x
        row[:] = par
    cols = np.arange(g.num_vertices)
    root = np.asarray(sources)[:, None]
    row = np.arange(len(sources))[:, None]
    up_edge = _edge_ids(g, np.broadcast_to(cols, parent.shape), parent)
    up, depth = parent, (parent != cols).astype(np.int64)
    hop = np.where(parent == root, cols, parent)
    while (up != root).any():
        depth += depth[row, up]
        up = up[row, up]
        hop = hop[row, hop]
    return parent, up_edge, depth, hop


def _candidate_rows(g: Graph, sources: range) -> Iterator[tuple[int, np.ndarray]]:
    """The shortest-path candidates from ``sources``: (length, rows of sorted edge ids).

    Edge ``{u, w}`` closes a candidate from source ``x`` exactly when the
    first hops of ``u`` and ``w`` differ: tree paths that part at ``x``
    never meet again, so the candidate is both paths and the edge, of
    length ``depth[u] + depth[w] + 1``. An edge at ``x`` has length 2,
    every other edge at least 3. Each row walks both ends up their
    paths; a walk that reaches ``x`` early stays there and reads parent
    edge -1, which sorts ahead of the row's edges.
    """
    parent, up_edge, depth, hop = _source_trees(g, sources)
    u, w = g.pairs.T
    length = depth[:, u] + depth[:, w] + 1
    src, edge = np.nonzero((hop[:, u] != hop[:, w]) & (length > 2))
    length = length[src, edge]
    for size in np.flatnonzero(np.bincount(length)).tolist():
        at = np.flatnonzero(length == size)
        chunk = max(1, _BLOCK_ENTRIES // (2 * size - 3))
        for lo in range(0, len(at), chunk):
            s, e = src[at[lo : lo + chunk]], edge[at[lo : lo + chunk]]
            steps = [e]
            for end in (u[e], w[e]):
                v = end
                for _ in range(depth[s, end].max()):
                    steps.append(up_edge[s, v])
                    v = parent[s, v]
            yield size, _distinct_rows(np.sort(np.stack(steps, axis=1), axis=1)[:, -size:])


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of non-negative ints, in lexicographic order.

    Each row is viewed as one byte string of big-endian words, whose byte
    order is the rows' lexicographic order.
    """
    keys = np.sort(np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * rows.shape[1]}").ravel())
    return keys[np.r_[True, keys[1:] != keys[:-1]]].view(">i8").reshape(-1, rows.shape[1])


def greedy_mcb(host) -> CycleBasis:
    """Minimum cycle basis by matroid greedy over shortest-path cycles.

    Candidates are the cycles formed by two shortest paths from a
    common vertex to the endpoints of an edge, over all vertex and edge
    choices. Candidates are sorted by length with a lexicographic
    edge-index tie-break and inserted greedily while independent.

    One BFS tree per source gives every candidate as a sorted row of edge
    ids, grouped by length (:func:`_candidate_rows`). Sources go in
    blocks, so no working array outgrows ``_BLOCK_ENTRIES``. The distinct
    rows of a length class, over all its blocks' parts and in row order,
    are its candidates in edge-index order; only the classes and rows up
    to the one that completes the basis are sorted and become bitsets.
    Walks are read off the kept elements by :func:`cycle_decomposition`.
    """
    g = host_graph(host)
    dim = betti(g)
    if dim == 0:
        return CycleBasis(host, (), "greedy-mcb", (), certified_minimum=True, info=())

    n = g.num_vertices
    per_block = max(1, _BLOCK_ENTRIES // max(n, g.num_edges))
    classes: dict[int, list[np.ndarray]] = {}
    for lo in range(0, n, per_block):
        for size, rows in _candidate_rows(g, range(lo, min(lo + per_block, n))):
            classes.setdefault(size, []).append(rows)

    def ordered():
        for size in sorted(classes):
            yield from _row_bitsets(_distinct_rows(np.concatenate(classes[size])))

    span = Gf2Span()
    kept = islice(filter(span.add, ordered()), dim)  # each independent of those before
    return _basis_of_bitsets(host, "greedy-mcb", True, kept, "greedy")


@functools.lru_cache(maxsize=1)
def _base_mcb(base: Graph) -> CycleBasis:
    """:func:`greedy_mcb` of a base graph, kept until the next call on another base.

    :func:`~redpow.cli.check_reversibility` at k >= 2 reads it twice: in
    the single-automaton check, whose k = 1 power has the base as its
    graph, and as the embedded base cycles of the decomposition basis.
    """
    return greedy_mcb(base)


def project_to_base(x: EdgeVector) -> EdgeVector:
    """Project an edge vector of a reduced power onto the base graph.

    Linear over F2: each power edge maps to the base edge its moving
    token crosses, read off the power's moves. Cycles project to cycles.
    """
    rp = x.host
    if not isinstance(rp, ReducedPowerGraph):
        raise CycleSpaceError("projection needs a reduced power host with annotations")
    bits = 0
    for b in rp._moves[x.edge_indices(), 3].tolist():
        bits ^= 1 << b
    return EdgeVector(rp.base, bits)


def cycle_decomposition(x: EdgeVector) -> list[tuple[int, ...]]:
    """Split an even-degree edge subset into edge-disjoint simple cycles.

    Walks from the smallest active vertex, always taking the smallest
    unused edge other than the one just arrived by, until a vertex
    repeats; the enclosed portion is emitted and removed. Raises if the
    subset has odd-degree vertices.
    """
    if not is_cycle(x):
        raise CycleSpaceError("only even-degree subsets decompose into cycles")
    g = host_graph(x.host)
    remaining: dict[int, set[int]] = {}
    for e in x.edge_indices():
        i, j = g.edges[e]
        remaining.setdefault(i, set()).add(j)
        remaining.setdefault(j, set()).add(i)

    out: list[tuple[int, ...]] = []
    while remaining:
        start = min(remaining)
        path = [start]
        pos = {start: 0}
        prev: int | None = None
        while True:
            cur = path[-1]
            choices = remaining[cur]
            nxt = min(c for c in choices if c != prev) if len(choices) > 1 else min(choices)
            if nxt in pos:
                cyc = path[pos[nxt] :]
                for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
                    remaining[a].discard(b)
                    remaining[b].discard(a)
                for vtx in cyc:
                    if vtx in remaining and not remaining[vtx]:
                        del remaining[vtx]
                out.append(_canonical_cycle(cyc))
                break
            path.append(nxt)
            pos[nxt] = len(path) - 1
            prev = cur
    return out


def enumerate_simple_cycles(host) -> list[tuple[int, ...]]:
    """All simple cycles of the host, canonically oriented.

    Exhaustive depth-first search; intended for small graphs used as
    test oracles. Each cycle appears once, anchored at its smallest
    vertex with the smaller neighbor second.
    """
    g = host_graph(host)
    cycles: list[tuple[int, ...]] = []
    n = g.num_vertices
    for s in range(n):
        path = [s]
        on_path = {s}

        def extend():
            cur = path[-1]
            for nbr in g.adjacency(cur):
                if nbr == s and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif nbr > s and nbr not in on_path:
                    path.append(nbr)
                    on_path.add(nbr)
                    extend()
                    path.pop()
                    on_path.remove(nbr)

        extend()
    return cycles
