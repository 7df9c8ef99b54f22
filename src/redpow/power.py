"""Reduced powers of simple graphs.

The k-th reduced power of a graph G tracks k indistinguishable tokens
placed on the vertices of G, any number per vertex. A state is a
degree-k monomial in the vertex labels (exponent = occupancy), and two
states are adjacent when one token moves along a single edge of G.
Equivalently it is the quotient of the k-fold Cartesian product of G
by the coordinate-permuting action of the symmetric group.

States are enumerated in ascending multiset-word order, the order
``itertools.combinations_with_replacement`` produces over vertex
indices, so a state's index is the lexicographic rank of its word among
the multisets of size k. For k = 1 this reproduces the base graph
exactly.

A power keeps one record of its moves, ``ReducedPowerGraph._moves`` and
``_stays``; its other views of them are made from it on first read.
Each builder names a move's base edge ``b`` alone, and the record's
ends ``(i, j)`` are read off ``base.pairs[b]`` in one place.
A state is keyed by its word, the sorted tuple of the vertex indices
its tokens occupy; ``Monomial`` is the public view (``states`` is built
on first read). No state is looked up by its word: its
index is the word's rank, a sum of entries of a small binomial table
(:func:`_word_ranks`), every one below the state count, so ranks fit
int64 where ``v**k`` radix codes would not. ``state_of`` ranks one word.
One array gives the rank of every stay word plus every vertex
(:func:`_insert_ranks`), and each base edge then reads the ends of all
its moves off two of its columns.

The independent oracle, :func:`cartesian_power` followed by
:func:`quotient_by_symmetry`, runs as array kernels: the product's edges
come from arithmetic on mixed-radix vertex indices, each product
vertex's tuple is found by looking the joined tuple up among its labels,
and each quotient check runs on arrays, over all product edges or over
the kept quotient edges alone. Both builders hand
their graphs to ``Graph`` as index-pair arrays, never as label pairs, and
the quotient reads the product's pair array, so the product never builds
its Python edge tuples, adjacency or edge index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations_with_replacement, islice, product, repeat
from math import comb, factorial

import numpy as np

from .errors import PowerError
from .graph import Graph, _BuiltOnRead, _built_on_read, _edge_ids, _index, _label_ids, _shown

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

@dataclass(frozen=True)
class Monomial:
    """Occupancy vector of tokens over the base vertices.

    ``exponents[i]`` counts tokens on vertex ``i``. The word form is the
    sorted tuple of occupied vertex indices with multiplicity, which is
    the canonical enumeration key.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = self.exponents
        miss = "negative exponent in {1}"
        exps = tuple(_index(e, None, PowerError, "exponent", miss, exps) for e in exps)
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _of_words(cls, words: list[tuple[int, ...]], size: int) -> list["Monomial"]:
        """One monomial per word of indices below ``size``, as the builders make them.

        Each word's tokens are counted into its own exponent list, and the
        checks of the public constructors are skipped.
        """
        out = []
        for word in words:
            exps = [0] * size
            for idx in word:
                exps[idx] += 1
            m = cls.__new__(cls)
            object.__setattr__(m, "exponents", tuple(exps))
            out.append(m)
        return out

    @classmethod
    def from_word(cls, word: tuple[int, ...], size: int) -> "Monomial":
        miss = "vertex index {} out of range for size {}"
        word = [_index(idx, size, PowerError, "vertex index", miss, size) for idx in word]
        return cls._of_words([word], size)[0]

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
        miss = "vertex index {} out of range"
        i = _index(i, len(self.exponents), PowerError, "vertex index", miss)
        exps = list(self.exponents)
        exps[i] += 1
        return Monomial(tuple(exps))

    def to_string(self, labels: tuple[str, ...]) -> str:
        """The factors ``lab`` or ``lab^e`` in vertex order, or ``1`` for no token."""
        if len(labels) != len(self.exponents):
            raise PowerError("label tuple does not match exponent length")
        return _render_word(labels, self.word(), "")


class ReducedPowerGraph(_BuiltOnRead):
    """A reduced power together with its state and edge annotations.

    ``graph`` is the plain labeled graph of the power (labels are the
    monomial strings, with ``*`` between factors if the plain strings of
    two states coincide). The builders make ``states`` on first read,
    from their state words (:class:`~redpow.graph._BuiltOnRead`).

    One record holds the moves: edge ``e`` of ``graph`` moves a token
    across base edge ``b = (i, j)`` of ``base.pairs`` while the tokens of
    the degree-(k-1) monomial ``f = _stays[s]`` stay, and ``_moves[e]`` is
    ``(i, j, s, b)``. It joins states ``f * i`` and ``f * j``; ``i < j``
    makes ``f * i`` the lower. Read from the record: ``annotations[e] =
    (i, j, f)``, made on first read, ``annotation(e)``, and ``_stay_counts``,
    the exponents of ``_stays`` stacked. This constructor lowers
    ``annotations`` into it.
    """

    __slots__ = (
        "base", "k", "states", "graph", "annotations", "_make_states", "_moves", "_stays", "_stay_counts"
    )

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
        self._moves, self._stays = _lowered(base, k, annotations)
        if len(self._moves) != graph.num_edges:  # the chain would read a rate for fewer or more edges
            raise PowerError(f"{len(self._moves)} annotations for a power of {graph.num_edges} edges")

    def _make_annotations(self) -> tuple[tuple[int, int, Monomial], ...]:
        fs = self._stays
        return tuple((i, j, fs[s]) for i, j, s, _ in self._moves.tolist())

    def _make__stay_counts(self) -> np.ndarray:
        exponents = [f.exponents for f in self._stays]
        return _read_only(np.array(exponents, dtype=np.int64).reshape(-1, self.base.num_vertices))

    @property
    def num_states(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def state_of(self, tokens: tuple[int, ...]) -> int:
        """Index of the state with tokens on ``tokens`` (k vertices, any order): its word's rank."""
        v = self.base.num_vertices
        miss = "tokens {1} are not a state of this power"
        word = [_index(t, v, PowerError, miss + ": token", miss, tokens) for t in tokens]
        if len(word) != self.k:
            raise PowerError(miss.format(None, tokens))
        return int(_word_ranks(np.array(word, dtype=np.int64), v))

    def state_index(self, m: Monomial) -> int:
        if len(m.exponents) != self.base.num_vertices:
            raise PowerError(f"{m.exponents} is not a state of this power")
        return self.state_of(m.word())

    def label(self, i: int) -> str:
        miss = "state index {} is out of range"
        return self.graph.labels[_index(i, self.num_states, PowerError, "state index", miss)]

    def annotation(self, edge: int) -> tuple[int, int, Monomial]:
        miss = "edge index {} is out of range"
        i, j, s, _ = self._moves[_index(edge, self.num_edges, PowerError, "edge index", miss)].tolist()
        return i, j, self._stays[s]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReducedPowerGraph):
            return NotImplemented
        return self.base == other.base and self.k == other.k and self.graph == other.graph

    def __hash__(self) -> int:
        return hash((self.base, self.k, self.graph))

    def __repr__(self) -> str:
        return f"ReducedPowerGraph(k={self.k}, states={self.num_states}, edges={self.num_edges})"


def _count(n: object, what: str = "k", miss: str = "k must be >= 1", least: int = 1) -> int:
    """``n`` as an int of at least ``least``, by :func:`~redpow.graph._index`'s rule.

    Anything else is a ``PowerError``: ``what`` names a non-integer, and
    ``miss`` is the message for an int below ``least``.
    """
    return _index(n, None, PowerError, what, miss, start=least)


# No power of more states, or with a larger k, is built: build_reduced_power
# refuses it before allocating, and the CLI refuses it before building
# anything. ctmc's float state limit is the same number.
_STATE_BUDGET = 5000


def _capped_vertex_count(v: int, k: int, cap: int) -> int | None:
    """``vertex_count(v, k)``, or None once it is known to exceed ``cap``.

    Builds C(v+k-1, i) for i = 0, 1, ... up to min(v-1, k); the sequence
    rises strictly, so it passes ``cap`` within about log2(cap) steps at any
    ``v`` and ``k`` and the numbers stay small.
    """
    n = v + k - 1
    count = 1
    for i in range(min(v - 1, k)):
        count = count * (n - i) // (i + 1)
        if count > cap:
            return None
    return count


def _check_state_budget(what: str, v: int, k: int, budget: int = _STATE_BUDGET) -> None:
    """Refuse, by a PowerError naming ``what``, a k-th power of a ``v``-vertex base over ``budget``.

    Over it are more than ``budget`` states, or a k larger than ``budget``.
    """
    # k may have thousands of digits: a count past 10^30 is neither computed
    # in full nor written out
    states = _capped_vertex_count(v, k, 10**30)
    if states is None or states > budget:
        shown = "more than 10^30" if states is None else states
        raise PowerError(f"{what} has {shown} states, over the budget of {budget}")
    # k is held to the same bound: with v >= 2 the count C(k+v-1, k) >= k + 1
    # already is, and one vertex gives one state at any k, every word k long
    if k > budget:
        shown = "10^30 or more" if k >= 10**30 else k
        raise PowerError(f"{what} has k = {shown}, over the budget of {budget}")


def vertex_count(v: int, k: int) -> int:
    """Number of states: multisets of size k over v vertices."""
    miss = "vertex_count needs v >= 1 and k >= 1"
    v, k = _count(v, "v", miss), _count(k, "k", miss)
    return comb(k + v - 1, k)


def edge_count(e: int, v: int, k: int) -> int:
    """Number of edges: one per base edge and degree-(k-1) monomial."""
    miss = "edge_count needs v >= 1, k >= 1, e >= 0"
    e, v, k = _count(e, "e", miss, 0), _count(v, "v", miss), _count(k, "k", miss)
    return e * comb(k + v - 2, k - 1)


def orbit_size(m: Monomial) -> int:
    """Size of the coordinate-permutation orbit mapping onto state m."""
    size = factorial(m.degree)
    for e in m.exponents:
        size //= factorial(e)
    return size


def build_reduced_power(base: Graph, k: int) -> ReducedPowerGraph:
    """Construct the k-th reduced power directly from monomials.

    The move of base edge ``b = (i, j)`` under stay word ``f`` joins states
    ``f * i`` and ``f * j``, columns ``i`` and ``j`` of the rank array of
    :func:`_insert_ranks`; since ``i < j``, ``f * i`` ranks lower. Its row
    ``(f * i, f * j, f, b)`` names no ends: they are ``base.pairs[b]``.
    """
    k = _count(k)
    v = base.num_vertices
    _check_state_budget("power", v, k)
    stays, ranks = _insert_ranks(v, k)
    ends = base.pairs
    moves = np.empty((len(stays), len(ends), 4), dtype=np.int64)  # per stay word and base edge
    moves[..., 0], moves[..., 1] = ranks[:, ends[:, 0]], ranks[:, ends[:, 1]]
    moves[..., 2] = np.arange(len(stays))[:, None]
    moves[..., 3] = np.arange(len(ends))
    words = list(combinations_with_replacement(range(v), k))
    return _from_moves(base, k, words, stays, moves.reshape(-1, 4))


def _word_ranks(words: np.ndarray, v: int) -> np.ndarray:
    """Lexicographic rank of each last-axis word among the multisets of its size over ``v`` letters.

    Words are sorted here, and leading axes kept. A sorted k-word has
    ``C(v+k-1, k) - 1 - sum_j C(c_j, k - j)`` words after it, with
    ``c_j = v + k - 2 - w_j - j`` the complement of the k-subset
    ``w_j + j`` of ``v + k - 1`` points (Knuth, TAOCP 4A, 7.2.1.3). The
    terms come from a ``v`` by ``k`` table and every one, like every
    partial sum, lies below the word count.
    """
    k = words.shape[-1]
    last, table = _rank_table(v, k)
    return last - table[np.sort(words, axis=-1), np.arange(k)].sum(axis=-1)


@cache
def _rank_table(v: int, k: int) -> tuple[int, np.ndarray]:
    """The last rank ``C(v+k-1, k) - 1`` and the read-only term table of :func:`_word_ranks`."""
    table = np.array(
        [[comb(v + k - 2 - w - j, k - j) for j in range(k)] for w in range(v)], dtype=np.int64
    ).reshape(v, k)
    return comb(v + k - 1, k) - 1, _read_only(table)


def _insert_ranks(v: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The (k-1)-words over ``v`` letters in order, and where each lands with one more letter.

    ``ranks[m, i]`` is the rank among k-words of ``stays[m]`` plus the
    letter ``i``: with the words as states of the k-th power, the state
    with the tokens of ``stays[m]`` and one more on vertex ``i``. Both come
    from :func:`_insert_table`, which makes them once per ``(v, k)``: the
    words as a fresh list, the rank array as its cached read-only one.
    """
    stays, ranks = _insert_table(v, k)
    return list(stays), ranks


# A power's build reads the table of (v, k), its decomposition basis those of
# (v, k) and (v, k - 1). A table holds C(v+k-2, k-1) * v entries, at most
# min(k, v) per state of the power.
@lru_cache(maxsize=4)
def _insert_table(v: int, k: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """:func:`_insert_ranks`' words, as a tuple, and its rank array, read-only."""
    stays = tuple(combinations_with_replacement(range(v), k - 1))
    joined = np.empty((len(stays), v, k), dtype=np.int64)
    joined[:, :, :-1] = np.array(stays, dtype=np.int64).reshape(len(stays), 1, k - 1)
    joined[:, :, -1] = np.arange(v)
    return stays, _read_only(_word_ranks(joined, v))


def _state_labels(
    base: Graph, states: tuple[Monomial, ...] | None, words: list | None = None
) -> tuple[str, ...]:
    """Plain state labels, or with ``*`` between factors when plain ones collide.

    Each label is rendered from the state's word (``words``, when the
    caller has them), one factor per run of equal indices.
    Multi-character base labels can run together: on labels a, bc, ab, c
    the states a*bc and ab*c both render plainly as 'abc'.
    """
    if words is None:
        words = [m.word() for m in states]
    labels = tuple(_render_word(base.labels, w, "") for w in words)
    if len(set(labels)) == len(labels):
        return labels
    seen: dict[str, tuple[int, ...]] = {}
    for w in words:
        lab = _render_word(base.labels, w, "*")
        if lab in seen:
            names = [tuple(base.labels[i] for i in s) for s in (seen[lab], w)]
            raise PowerError(f"states {names[0]} and {names[1]} both render as {lab!r}")
        seen[lab] = w
    return tuple(seen)


def _render_word(labels: tuple[str, ...], word: tuple[int, ...], sep: str) -> str:
    """The factors ``lab`` or ``lab^e`` of a sorted word, one per run, joined by ``sep``."""
    parts = []
    run = 0
    for t, i in enumerate(word, start=1):
        run += 1
        if t == len(word) or word[t] != i:
            parts.append(labels[i] if run == 1 else f"{labels[i]}^{run}")
            run = 0
    return sep.join(parts) if parts else "1"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _lowered(base: Graph, k: int, annotations) -> tuple[np.ndarray, tuple[Monomial, ...]]:
    """The ``_moves`` and ``_stays`` of moves ``annotations[e] = (i, j, f)``, stays in order of first use.

    A PowerError names the first annotation that is no triple, whose pair is no base edge ``(i, j)``
    with ``i < j``, or whose ``f`` has not ``v`` exponents summing to ``k - 1``: the chain would
    misread its rate.
    """
    v, index, rows = base.num_vertices, {}, []
    for t, entry in enumerate(annotations):
        try:
            i, j, f = entry
        except (TypeError, ValueError):
            raise PowerError(f"annotation {t}: {_shown(entry)} is no triple (i, j, f)") from None
        if not (base.has_edge(i, j) and i < j):
            raise PowerError(f"annotation {t}: ({_shown(i)}, {_shown(j)}) is no base edge (i, j) with i < j")
        if not (isinstance(f, Monomial) and len(f.exponents) == v and f.degree == k - 1):
            raise PowerError(f"annotation {t}: stay {_shown(f)} does not have {v} exponents summing to {k - 1}")
        rows.append((i, j, index.setdefault(f, len(index)), base.edge_position(i, j)))
    return _read_only(np.array(rows, dtype=np.int64).reshape(-1, 4)), tuple(index)


def _assemble(base: Graph, k: int, words: list, moves: dict) -> ReducedPowerGraph:
    """Power from its state words and moves ``{(x, y): (i, j, stay_word)}``, through :func:`_from_moves`."""
    stays = sorted({fw for _, _, fw in moves.values()})
    stay_index = {fw: s for s, fw in enumerate(stays)}
    rows = np.array(
        [(x, y, stay_index[fw], i, j) for (x, y), (i, j, fw) in moves.items()], dtype=np.int64
    ).reshape(-1, 5)
    rows[:, 3] = _edge_ids(base, rows[:, 3], rows[:, 4])
    return _from_moves(base, k, words, stays, rows[:, :4])


def _from_moves(
    base: Graph, k: int, words: list, stays: list, moves: np.ndarray
) -> ReducedPowerGraph:
    """Power from its state words, stay words and moves, one move per row.

    Row ``(x, y, s, b)`` joins states ``x < y``: one token crosses base
    edge ``b`` while the tokens of ``stays[s]`` stay put. The record's
    ``(i, j, s, b)`` reads the ends ``(i, j)`` off ``base.pairs[b]``. One
    ``Monomial`` is built per stay word; ``states`` is built on first read.
    """
    v = base.num_vertices
    labels = _state_labels(base, None, words)
    moves = moves[np.argsort(moves[:, 0] * len(words) + moves[:, 1], kind="stable")]
    graph = Graph._from_pairs(labels, moves[:, :2])
    moved = _read_only(np.column_stack([base.pairs[moves[:, 3]], moves[:, 2:]]))
    fields = dict(base=base, k=k, graph=graph, _moves=moved, _stays=tuple(Monomial._of_words(stays, v)))
    return _built_on_read(ReducedPowerGraph, fields, states=lambda: tuple(Monomial._of_words(words, v)))


def degree_of(rp: ReducedPowerGraph, m: Monomial) -> int:
    """Degree of a state: sum of base degrees over occupied vertices."""
    idx = rp.state_index(m)
    total = sum(rp.base.degree(i) for i, e in enumerate(m.exponents) if e >= 1)
    assert total == rp.graph.degree(idx)
    return total


# The most coordinates a tuple label of cartesian_power may have, whatever the
# budget: a one-vertex base has one state at every k, so the budget bounds
# nothing there. Its one label took 24 ms to join at k = 10^6, 2 MB of text from
# a one-letter base label, and grows linearly in k: 2 TB at k = 10^12. A base of
# two or more vertices has at least 2^k states at such a k.
_LABEL_COORDS = 10**6


def cartesian_power(base: Graph, k: int, budget: int = 10**6) -> Graph:
    """k-fold Cartesian product of the base graph with itself.

    Vertices are comma-joined k-tuples of base labels; edges join tuples
    differing in one coordinate by a base edge. Refuses more than
    ``budget`` (v**k) states, a ``k`` past ``_LABEL_COORDS``, or a base
    label with ``,``: ``redpow power`` prints each PowerError as the reason
    its cross-check is skipped.

    Tuple ``t`` is vertex number ``t``, its mixed-radix code over ``v``,
    so the edge that moves coordinate ``pos`` along base edge ``(a, b)``
    joins ``t`` to ``t + (b - a) * v**(k - 1 - pos)``: every edge end is
    computed as one array over all tuples with digit ``a`` at ``pos``.
    """
    k, budget = _count(k), _count(budget, "budget", "budget must be >= 0", 0)
    v = base.num_vertices
    # from k >= budget.bit_length() on, v >= 2 gives v^k >= 2^k > budget: no v^k is computed
    if v > 1 and k >= budget.bit_length() or v**k > budget:
        raise PowerError(f"{v}^{_shown(k, str)} states exceed budget {_shown(budget, str)}")
    if k > _LABEL_COORDS:
        raise PowerError(f"k = {_shown(k, str)} passes the bound of {_LABEL_COORDS} label coordinates")
    if any("," in lab for lab in base.labels):
        raise PowerError("base labels contain ','")

    labels = list(map(",".join, product(base.labels, repeat=k)))
    lo, step = base.pairs[:, :1], base.pairs[:, 1:] - base.pairs[:, :1]
    pairs = []
    for pos in range(k if base.num_edges else 0):  # an edgeless base moves no coordinate
        stride = v ** (k - 1 - pos)
        # (higher digits, base edge, lower digits) -> tuple with digit lo at pos
        low = np.arange(v**pos)[:, None, None] * (v * stride) + lo * stride + np.arange(stride)
        pairs.append(np.column_stack([low.ravel(), (low + step * stride).ravel()]))
    pairs = np.concatenate(pairs) if pairs else base.pairs  # the pieces are freed before the sort
    return Graph._from_pairs(labels, pairs)


def quotient_by_symmetry(power: Graph, base: Graph, k: int) -> ReducedPowerGraph:
    """Collapse a k-fold Cartesian power by coordinate permutations.

    Independent oracle for :func:`build_reduced_power`: it never looks
    at monomial arithmetic, only at the tuple structure of the product
    graph. Raises PowerError if ``power`` is not the k-fold Cartesian
    power of ``base`` produced by :func:`cartesian_power`.

    Each product vertex gets the digit row of its tuple by lookup
    (:func:`_tuple_digits`): each label's commas are counted, then every
    tuple of base labels is joined and found among the product's labels,
    and the labels are split and parsed only when one is not found. That
    each product edge changes one coordinate is checked one digit column
    at a time over all of them; the distinct quotient edges are then
    found, and only for those are the moved pair and the stay word derived
    and the move checked to run along a base edge.
    """
    k = _count(k)
    v = base.num_vertices
    n = power.num_vertices
    if v > 1 and k >= n.bit_length():  # v^k >= 2^k > n, so no v^k is computed
        raise PowerError(f"power has {n} vertices, expected {v}^{_shown(k, str)}, more than that")
    if n != v**k:
        raise PowerError(f"power has {n} vertices, expected {v}^{k} = {v**k}")

    digits = _tuple_digits(power, base, k)
    covered = np.zeros(n, dtype=bool)
    covered[_codes(digits, v)] = True
    if not covered.all():  # n codes below n cover them all exactly when distinct
        raise PowerError("product vertices are not distinct tuples")

    expected_edges = k * base.num_edges * v ** (k - 1)
    if power.num_edges != expected_edges:
        raise PowerError(
            f"power has {power.num_edges} edges, expected {expected_edges}"
        )
    src, dst = power.pairs.T
    changes = np.zeros(len(src), dtype=np.min_scalar_type(k))
    for column in digits.T:  # one column at a time: no (edges, k) temporaries
        changes += column[src] != column[dst]
    if not (changes == 1).all():
        raise PowerError("product edge changes more than one coordinate")
    del changes

    # An edge moving a token a -> b joins the distinct words S+a and S+b; edges
    # joining the same two words share e_a - e_b up to sign, so {a, b} and then
    # S, and the first product edge of each quotient edge carries its annotation.
    words = np.sort(digits, axis=1)
    codes, first, state = np.unique(_codes(words, v), return_index=True, return_inverse=True)
    num_states = len(codes)
    x, y = state[src], state[dst]
    del state
    pairs = np.minimum(x, y) * num_states + np.maximum(x, y)
    del x, y
    order = np.argsort(pairs)
    kept = order[np.diff(pairs[order], prepend=-1) != 0]
    # The kept edges so move along every base pair any product edge does. Their
    # moved pairs are checked in int64, as _edge_ids' key i * v + j overflows the
    # digits' type; one changed coordinate per row, so masking keeps one entry
    # per edge, in edge order.
    tx, ty = digits[src[kept]], digits[dst[kept]]
    changed = tx != ty
    stays = np.sort(tx[~changed].reshape(len(kept), k - 1), axis=1)
    edge = _edge_ids(base, tx[changed].astype(np.int64), ty[changed].astype(np.int64))
    if (edge < 0).any():
        raise PowerError("product edge does not project onto a base edge")
    _, stay_first, stay = np.unique(_codes(stays, v), return_index=True, return_inverse=True)
    return _from_moves(
        base,
        k,
        [tuple(w) for w in words[first].tolist()],
        [tuple(fw) for fw in stays[stay_first].tolist()],
        np.column_stack([*np.divmod(pairs[kept], num_states), stay, edge]),
    )


# Tuples joined and looked up per slice by _tuple_digits, and labels parsed per
# slice by _label_digits: the texts or parts of one slice, a str each, are
# their largest transient (about 56 bytes a part), and the process keeps the
# heap they spread over. Six benchmark basis-audit rounds, three of them with a
# B(8,3) k = 5 quotient, peaked at 67-68 MiB RSS with 16384 labels a slice and
# at 57-59 MiB with 256 to 4096; 1024 parsed fastest. That quotient's lookup,
# alone in a process, left 49.4 MiB RSS at 256 or 1024 tuples a slice, 49.7 at
# 4096 and 50.7 in one slice, in about the same time.
_PARSE_SLICE = 1024


def _tuple_digits(power: Graph, base: Graph, k: int) -> np.ndarray:
    """The ``(n, k)`` base-vertex digits of the product's labels, found by lookup.

    Raises PowerError naming the first label without ``k - 1`` commas.
    Then the tuples of base labels are joined in code order, a slice at a
    time, and looked up among the labels; the vertex found must carry
    exactly that text, as ``labels`` may be newer than the index. A text
    found so has a label's ``k - 1`` commas, so its base labels have none
    and distinct tuples are found on distinct vertices: the n tuples land
    on all n. The first miss hands the labels to :func:`_label_digits`,
    which parses them and raises on a label that is no tuple.
    """
    labels, n, v = power.labels, power.num_vertices, base.num_vertices
    commas = list(map(str.count, labels, repeat(",")))
    if commas.count(k - 1) != n:
        lab = next(lab for lab, c in zip(labels, commas) if c != k - 1)
        raise PowerError(f"vertex label {lab!r} is not a {k}-tuple of base labels")
    found = np.empty(n, dtype=np.int64)
    tuples = product(base.labels, repeat=k)
    for start in range(0, n, _PARSE_SLICE):
        texts = list(map(",".join, islice(tuples, _PARSE_SLICE)))
        at = _label_ids(power, texts)
        if (at < 0).any() or list(map(labels.__getitem__, at.tolist())) != texts:
            return _label_digits(labels, base, k)
        found[start : start + len(texts)] = at
    digits = np.empty((n, k), dtype=np.min_scalar_type(v))
    code = np.arange(n)
    for pos in range(k):
        digits[found, pos] = code // v ** (k - 1 - pos) % v
    return digits


def _label_digits(labels: tuple[str, ...], base: Graph, k: int) -> np.ndarray:
    """The ``(n, k)`` base-vertex digits of labels of ``k - 1`` commas each, parsed.

    Raises the base's GraphError for the first part that is no base label.
    Each slice's labels are joined and split again, and their parts come
    out label after label, looked up by :func:`~redpow.graph._label_ids`.
    """
    n, v = len(labels), base.num_vertices
    digits = np.empty(n * k, dtype=np.min_scalar_type(v))
    for start in range(0, n, _PARSE_SLICE):
        parts = ",".join(labels[start : start + _PARSE_SLICE]).split(",")
        at = _label_ids(base, parts)
        if (at < 0).any():
            base.index_of(parts[at.argmin()])  # raises GraphError: argmin finds the first -1
        digits[start * k : (start + _PARSE_SLICE) * k] = at
    return digits.reshape(n, k)


def _codes(rows: np.ndarray, v: int) -> np.ndarray:
    """Mixed-radix code over ``v`` of each row of digits, first digit most significant."""
    code = np.zeros(len(rows), dtype=np.min_scalar_type(v ** rows.shape[1]))
    for column in rows.T:
        code = code * v + column
    return code
