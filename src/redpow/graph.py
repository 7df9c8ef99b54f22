"""Simple undirected labeled graphs with deterministic ordering.

Vertices are string labels and keep their input order; edges are stored
as ascending index pairs sorted lexicographically, in one ``(m, 2)``
int64 array. That fixes a dense edge index map which the F2 cycle-space
layer addresses by position, and it makes every downstream tie-break
(BFS neighbor order, candidate enumeration) reproducible across runs.

``Graph(labels, edges)`` checks label pairs in input order; the package's
builders pass index pairs, or an integer array of them, to
``Graph._from_pairs``. One array fill step serves both. The Python views
(the ``edges`` tuple, adjacency tuples and the edge-index dict) are
built on first read, so a graph that is only read as an array, such as
the Cartesian power the quotient check consumes, never builds them.
"""

from __future__ import annotations

import json
import operator
import reprlib
from collections import deque
from dataclasses import dataclass
from itertools import count
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import GraphError, RedpowError

__all__ = [
    "Graph",
    "RootedTree",
    "is_connected",
    "betti",
    "has_triangles",
    "bfs_spanning_tree",
    "check_spanning_tree",
    "graph_from_dict",
    "graph_to_dict",
    "graph_to_json",
    "graph_to_dot",
    "load_graph",
    "dump_graph",
]


class _BuiltOnRead:
    """The package's one way to build on first read: a missing ``name`` is made by ``_make_<name>()``.

    The maker is a method, or a callable the instance holds
    (:func:`_built_on_read`). Its value is stored with ``object.__setattr__``,
    in a slot or the dict of a frozen dataclass, so every later read is a
    plain one; a maker's own error reaches the reader and nothing is kept.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        try:  # object's own lookup, so a missing maker does not land here again
            make = object.__getattribute__(self, f"_make_{name}")
        except AttributeError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None
        value = make()  # two threads reading at once may both build it
        object.__setattr__(self, name, value)
        return value


def _built_on_read(cls: type, fields: dict, **make) -> object:
    """An instance of ``cls``, its ``__init__`` not run, with ``fields``; those of ``make`` are built on read."""
    obj = object.__new__(cls)
    for name, value in [*fields.items(), *((f"_make_{name}", f) for name, f in make.items())]:
        object.__setattr__(obj, name, value)
    return obj


class Graph(_BuiltOnRead):
    """Simple connected-or-not undirected graph over string labels.

    Instances are immutable after construction and compare by value
    (labels plus canonical edge list), so they can be shared freely and
    used as dictionary keys.
    """

    __slots__ = ("labels", "_pairs", "_label_index", "edges", "_adj", "_edge_index")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[str, str]]):
        labels, label_index = _index_labels(labels)
        pairs: set[tuple[int, int]] = set()
        for entry in edges:  # input order, so the first faulty entry is the one named
            try:
                if isinstance(entry, str):  # a two-character string unpacks too
                    raise TypeError
                x, y = entry
            except (TypeError, ValueError):
                raise GraphError(f"edge entry {_shown(entry)} must be a pair of labels") from None
            for end in (x, y):
                if not isinstance(end, str) or end not in label_index:
                    raise GraphError(f"edge endpoint {_shown(end)} is not a vertex")
            i, j = label_index[x], label_index[y]
            if i == j:
                raise GraphError(f"loop at vertex {_shown(x)} is not allowed")
            pair = (i, j) if i < j else (j, i)
            if pair in pairs:
                raise GraphError(f"duplicate edge {_shown(x)}-{_shown(y)}")
            pairs.add(pair)
        self._fill(labels, label_index, list(pairs))

    @classmethod
    def _from_pairs(
        cls, labels: Iterable[str], pairs: np.ndarray | Sequence[tuple[int, int]]
    ) -> Graph:
        """Graph from index pairs ``(i, j)``, ``i < j``, in any order: the builders' path.

        ``pairs`` is a sequence of pairs or an ``(m, 2)`` integer array,
        whose memory is kept, behind a read-only view, when it is already
        sorted.
        """
        g = cls.__new__(cls)
        g._fill(*_index_labels(labels), pairs)
        return g

    def _fill(
        self,
        labels: tuple[str, ...],
        label_index: dict[str, int],
        pairs: np.ndarray | Sequence[tuple[int, int]],
    ) -> None:
        """Store the pairs in the canonical (sorted) order; raise on a bad or repeated one.

        A bad pair is reported before any repeat, the first one in sorted
        order. Valid pairs sort by ``i * n + j``, which orders them as tuples.
        """
        n = len(labels)
        pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        bad = (i < 0) | (i >= j) | (j >= n)
        if bad.any():
            first = min(map(tuple, pairs[bad].tolist()))
            raise GraphError(f"edge pair {first} needs 0 <= i < j < {n}")
        keys = i * n + j
        if (keys[1:] < keys[:-1]).any():
            order = np.argsort(keys)
            pairs, keys = pairs[order], keys[order]
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            raise GraphError(f"duplicate edge pair {tuple(pairs[repeat.argmax()].tolist())}")
        pairs = pairs.view()  # read-only, so no holder can change the hash or the views
        pairs.flags.writeable = False
        self.labels: tuple[str, ...] = labels
        self._label_index = label_index
        self._pairs = pairs

    def _make_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self._pairs.T.tolist()))

    def _make__adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.labels]
        for i, j in self.edges:  # edges are sorted, so every list comes out ascending
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

    def _make__edge_index(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.edges, range(len(self._pairs))))

    # --- accessors ---

    @property
    def pairs(self) -> np.ndarray:
        """The ``(m, 2)`` read-only int64 array of edges ``(i, j)``, ``i < j``, in canonical order."""
        return self._pairs

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self._pairs)

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {_shown(label)}") from None

    def adjacency(self, i: int) -> tuple[int, ...]:
        """Neighbors of vertex ``i`` (:func:`_index`) in ascending index order."""
        return self._adj[_index(i, len(self.labels))]

    def degree(self, i: int) -> int:
        return len(self.adjacency(i))

    def has_edge(self, i: int, j: int) -> bool:
        """Whether ``{i, j}`` is an edge; False for anything :func:`_index` refuses."""
        try:
            return self.edge_position(i, j) >= 0
        except GraphError:
            return False

    def edge_position(self, i: int, j: int) -> int:
        """Dense index of the edge ``{i, j}`` in the canonical edge list.

        Each end must be a vertex index (:func:`_index`); ``i`` is checked first.
        """
        i, j = _index(i, len(self.labels)), _index(j, len(self.labels))
        try:
            return self._edge_index[(i, j) if i < j else (j, i)]
        except KeyError:
            raise GraphError(
                f"no edge between {self.labels[i]!r} and {self.labels[j]!r}"
            ) from None

    @property
    def edge_index(self) -> Mapping[tuple[int, int], int]:
        return self._edge_index

    def edge_labels(self) -> list[tuple[str, str]]:
        return [(self.labels[i], self.labels[j]) for i, j in self.edges]

    # --- value semantics ---

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self._pairs, other._pairs)

    def __hash__(self) -> int:
        return hash((self.labels, self._pairs.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(v={self.num_vertices}, e={self.num_edges})"


def _edge_ids(g: Graph, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Edge index of every vertex pair ``{x[t], y[t]}``, or -1 where it is no edge of ``g``.

    One binary search on ``_fill``'s sort key ``i * n + j``. A pair with an
    end out of range or both ends equal is no edge; each caller raises.
    """
    n = g.num_vertices
    keys = g._pairs[:, 0] * n + g._pairs[:, 1]
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    key = np.where((lo >= 0) & (hi < n) & (lo < hi), lo * n + hi, -1)
    if not len(keys):
        return np.full(key.shape, -1, dtype=np.int64)
    pos = np.searchsorted(keys, key).clip(max=len(keys) - 1)
    return np.where(keys[pos] == key, pos, -1)


def _index(
    x: object,
    stop: int | None,
    error: type[RedpowError] = GraphError,
    what: str = "vertex index",
    miss: str = "vertex index {} is out of range",
    *named: object,
    start: int | None = 0,
) -> int:
    """``x`` as an int, by the package's one rule for every index and count.

    An integer is what ``operator.index`` takes: an int, bool or numpy
    integer, but no float or string. It must lie in ``range(start, stop)``,
    a None bound leaving that side open. Otherwise ``error`` names ``x``:
    ``what`` then "``x!r`` is not an integer", or ``miss`` for an int out
    of range, each formatted with the :func:`_shown` texts of ``x`` and ``named``.
    """
    try:
        i = operator.index(x)
    except TypeError:
        i = None
    if i is not None and (start is None or start <= i) and (stop is None or i < stop):
        return i
    args = [_shown(a, str) for a in (x, *named)]
    if i is None:
        raise error(f"{what.format(*args)} {_shown(x)} is not an integer")
    raise error(miss.format(*args))


_BOUNDED = reprlib.Repr()  # one level of a value: six items a container, 30 characters an item
_BOUNDED.maxlevel, _BOUNDED.maxlong, _BOUNDED.maxdict = 1, 30, 2


def _shown(v: object, form: Callable[[object], str] = repr) -> str:
    """How a message shows an outside value: ``form(v)`` up to 200 characters, else bounded."""
    ends = [*v, *v.values()] if isinstance(v, dict) else (v,)  # v, or the items it holds
    ends = v if isinstance(v, (tuple, list, set, frozenset, deque)) else ends
    if any(isinstance(e, int) and not -(10**4000) < e < 10**4000 for e in ends):
        return "of more than 4000 digits"  # str refuses an int of more than 4300 digits
    try:
        text = form(v)
    except (ValueError, RecursionError):  # such an int further in, or nesting past the stack
        text = ""
    return text if 0 < len(text) <= 200 else _BOUNDED.repr(v)  # reprlib's form, one level deep


def _index_labels(labels: Iterable[str]) -> tuple[tuple[str, ...], dict[str, int]]:
    """The labels and their index map; raises unless they are distinct non-empty strings.

    The map is built in one ``dict(zip(...))`` once every label is a
    ``str``; the loops below run only when that finds a fault, to name the first.
    """
    labels = tuple(labels)
    strings = all(issubclass(t, str) for t in set(map(type, labels)))
    label_index = dict(zip(labels, count())) if strings else {}
    if not (labels and len(label_index) == len(labels) and "" not in label_index):
        if not labels:
            raise GraphError("graph needs at least one vertex")
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise GraphError(f"vertex labels must be non-empty strings, got {_shown(lab)}")
        first: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if first.setdefault(lab, i) != i:
                raise GraphError(f"duplicate vertex label {_shown(lab)}")
    return labels, label_index


def _bfs(g: Graph, root: int = 0) -> tuple[list[int | None], list[int]]:
    """Breadth-first search from ``root`` with ascending-index tie-breaks.

    Returns the parent of every vertex (None for the root and for
    vertices ``root`` cannot reach) and the vertices in discovery order.
    """
    parent: list[int | None] = [None] * g.num_vertices
    seen = [False] * g.num_vertices
    seen[root] = True
    order = [root]
    adj = g._adj
    for cur in order:  # the list grows while it is walked, so it is the queue
        for nbr in adj[cur]:
            if not seen[nbr]:
                seen[nbr] = True
                parent[nbr] = cur
                order.append(nbr)
    return parent, order


def _require_connected(g: Graph, order: list[int]) -> None:
    """Raise unless the BFS ``order`` reached every vertex of ``g``."""
    if len(order) != g.num_vertices:
        reached = set(order)
        missing = next(i for i in range(g.num_vertices) if i not in reached)
        raise GraphError(
            f"graph must be connected: vertex {g.labels[missing]!r} is unreachable"
        )


def is_connected(g: Graph) -> bool:
    return len(_bfs(g)[1]) == g.num_vertices


def betti(g: Graph) -> int:
    """Cycle-space dimension ``e - v + 1`` of a connected graph."""
    _require_connected(g, _bfs(g)[1])
    return g.num_edges - g.num_vertices + 1


def has_triangles(g: Graph) -> bool:
    for i, j in g.edges:
        if set(g.adjacency(i)) & set(g.adjacency(j)):
            return True
    return False


@dataclass(frozen=True)
class RootedTree:
    """Rooted spanning tree given by a parent map.

    ``order`` lists the vertices in the order the tree construction
    discovered them; for trees produced by :func:`bfs_spanning_tree`
    this is a breadth-first order, so depths never decrease along it.
    The square-family constructions rely on that property and check it.
    """

    root: int
    parent: Mapping[int, int]
    order: tuple[int, ...]

    def _check_indices(self, n: int) -> None:
        """Raise GraphError unless order, parent map and root index vertices ``0..n-1``."""
        once = "tree order must list every vertex exactly once, got {1}"
        order = [_index(v, n, GraphError, "tree vertex", once, self.order) for v in self.order]
        if sorted(order) != list(range(n)):
            raise GraphError(once.format(None, self.order))
        entry = "tree parent entry {1} -> {2} is out of range"
        for child, par in self.parent.items():
            for end in (child, par):
                _index(end, n, GraphError, "tree vertex", entry, child, par)
        _index(self.root, n, GraphError, "tree root", "tree order must start at the root")

    def depths(self) -> tuple[int, ...]:
        """Depth of every vertex, indexed by vertex, by one breadth-first pass from the root.

        Raises GraphError naming the smallest vertex the root does not reach by the parent map.
        """
        n = len(self.order)
        self._check_indices(n)
        children: list[list[int]] = [[] for _ in range(n)]
        for child, par in self.parent.items():
            children[par].append(child)
        depth: list[int | None] = [None] * n
        depth[self.root] = 0
        reached = [self.root]
        for v in reached:  # the list grows while it is walked, so it is the queue
            for c in children[v]:
                if depth[c] is None:  # only the root, when it has a parent, is met again
                    depth[c] = depth[v] + 1
                    reached.append(c)
        if len(reached) < n:
            raise GraphError(f"vertex {depth.index(None)} is not reached from the root by the parent map")
        return tuple(depth)

    def tree_pairs(self) -> frozenset[tuple[int, int]]:
        """Canonical (ascending) vertex pairs of the tree edges."""
        return frozenset(
            (c, p) if c < p else (p, c) for c, p in self.parent.items()
        )

    def is_depth_ordered(self) -> bool:
        depth = self.depths()
        seq = [depth[v] for v in self.order]
        return all(a <= b for a, b in zip(seq, seq[1:]))


def bfs_spanning_tree(g: Graph, root: int = 0) -> RootedTree:
    """Breadth-first spanning tree with ascending-index tie-breaks."""
    root = _index(root, g.num_vertices, GraphError, "root index", "root index {} out of range")
    parent, order = _bfs(g, root)
    _require_connected(g, order)
    return RootedTree(
        root=root, parent={v: parent[v] for v in order[1:]}, order=tuple(order)
    )


def check_spanning_tree(g: Graph, t: RootedTree) -> None:
    """Raise GraphError unless ``t`` is a spanning tree of ``g``.

    The order must start at the root and contain every vertex once;
    every parent edge must exist in the graph. Acyclicity follows from
    the depth computation, which rejects cyclic parent maps.
    """
    t._check_indices(g.num_vertices)
    if not t.order or t.order[0] != t.root:
        raise GraphError("tree order must start at the root")
    if t.root in t.parent:
        raise GraphError("root must not have a parent")
    if len(t.parent) != g.num_vertices - 1:
        raise GraphError("parent map must cover every non-root vertex")
    for child, par in t.parent.items():
        if not g.has_edge(child, par):
            raise GraphError(
                f"tree edge {g.labels[child]!r}-{g.labels[par]!r} is not a graph edge"
            )
    t.depths()  # raises on a vertex the root does not reach


# --- serialization ---


def graph_from_dict(data: object, require_connected: bool = True) -> Graph:
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except KeyError as exc:
        raise GraphError(f"graph document is missing key {exc.args[0]!r}") from None
    if not isinstance(vertices, list) or not all(isinstance(x, str) for x in vertices):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of two-element lists")
    pairs = []
    for item in edges:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(end, str) for end in item)
        ):
            raise GraphError(f"edge entry {_shown(item)} must be a pair of labels (strings)")
        pairs.append((item[0], item[1]))
    g = Graph(vertices, pairs)
    if require_connected:
        _require_connected(g, _bfs(g)[1])
    return g


def graph_to_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.labels),
        "edges": [[g.labels[i], g.labels[j]] for i, j in g.edges],
    }


def graph_to_json(g: Graph) -> str:
    """Canonical JSON text; loading and dumping again is byte-stable.

    The text of ``json.dumps(graph_to_dict(g), indent=2) + "\\n"``, written
    from pieces: each label is encoded once, by the encoder ``json.dumps``
    itself uses for strings, and every edge reads its two ends' encodings.
    """
    quoted = list(map(encode_basestring_ascii, g.labels))
    ends = (map(quoted.__getitem__, column) for column in g.pairs.T.tolist())
    edges = ",\n".join(map("    [\n      {},\n      {}\n    ]".format, *ends))
    edges = "[\n" + edges + "\n  ]" if edges else "[]"
    vertices = ",\n    ".join(quoted)
    return '{\n  "vertices": [\n    ' + vertices + '\n  ],\n  "edges": ' + edges + "\n}\n"


def _read_json(path: str | Path, kind: str, error: type[Exception]) -> object:
    """The parsed JSON of a UTF-8 ``kind`` file; ``error`` when it cannot be read or parsed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file {path} is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # an int past 4300 digits, or deep nesting
        raise error(f"{kind} file {path} cannot be parsed: {exc}") from None


def load_graph(path: str | Path) -> Graph:
    return graph_from_dict(_read_json(path, "graph", GraphError))


def dump_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(g), encoding="utf-8")


def _dot_id(label: str) -> str:
    """Quoted DOT identifier; backslashes and quotes are escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph) -> str:
    """DOT text: one line per vertex, then one per edge; each label is quoted once."""
    quoted = list(map(_dot_id, g.labels))
    ends = (map(quoted.__getitem__, column) for column in g.pairs.T.tolist())
    lines = ["graph G {", *map("  {};".format, quoted), *map("  {} -- {};".format, *ends), "}"]
    return "\n".join(lines) + "\n"
