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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GraphError

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


class Graph:
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
                raise GraphError(f"edge entry {entry!r} must be a pair of labels") from None
            for end in (x, y):
                if not isinstance(end, str) or end not in label_index:
                    raise GraphError(f"edge endpoint {end!r} is not a vertex")
            i, j = label_index[x], label_index[y]
            if i == j:
                raise GraphError(f"loop at vertex {x!r} is not allowed")
            pair = (i, j) if i < j else (j, i)
            if pair in pairs:
                raise GraphError(f"duplicate edge {x!r}-{y!r}")
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

    def __getattr__(self, name: str):
        """Build ``edges``, ``_adj`` or ``_edge_index`` from the pair array on first read.

        Only an unset slot lands here; once set, every read is a plain slot read.
        """
        if name == "edges":
            value = tuple(zip(*self._pairs.T.tolist()))
        elif name == "_adj":
            adj: list[list[int]] = [[] for _ in self.labels]
            for i, j in self.edges:  # edges are sorted, so every list comes out ascending
                adj[i].append(j)
                adj[j].append(i)
            value = tuple(map(tuple, adj))
        elif name == "_edge_index":
            value = dict(zip(self.edges, range(len(self._pairs))))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, value)
        return value

    # --- accessors ---

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
            raise GraphError(f"unknown vertex label {label!r}") from None

    def adjacency(self, i: int) -> tuple[int, ...]:
        """Neighbors of vertex ``i`` in ascending index order."""
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def has_edge(self, i: int, j: int) -> bool:
        pair = (i, j) if i < j else (j, i)
        return pair in self._edge_index

    def edge_position(self, i: int, j: int) -> int:
        """Dense index of the edge ``{i, j}`` in the canonical edge list."""
        pair = (i, j) if i < j else (j, i)
        try:
            return self._edge_index[pair]
        except KeyError:
            for end in pair:
                if not 0 <= end < len(self.labels):
                    raise GraphError(f"vertex index {end} is out of range") from None
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


def _index_labels(labels: Iterable[str]) -> tuple[tuple[str, ...], dict[str, int]]:
    """The labels and their index map; raises unless they are distinct non-empty strings."""
    labels = tuple(labels)
    if not labels:
        raise GraphError("graph needs at least one vertex")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise GraphError(f"vertex labels must be non-empty strings, got {lab!r}")
    label_index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if label_index.setdefault(lab, i) != i:
            raise GraphError(f"duplicate vertex label {lab!r}")
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
    for cur in order:  # the list grows while it is walked, so it is the queue
        for nbr in g.adjacency(cur):
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
        """Raise GraphError unless order and parent map index vertices ``0..n-1``."""
        if sorted(self.order) != list(range(n)):
            raise GraphError(f"tree order must list every vertex exactly once, got {self.order}")
        for child, par in self.parent.items():
            if not (0 <= child < n and 0 <= par < n):
                raise GraphError(f"tree parent entry {child} -> {par} is out of range")

    def depths(self) -> tuple[int, ...]:
        """Depth of every vertex, indexed by vertex."""
        n = len(self.order)
        self._check_indices(n)
        depth: dict[int, int] = {self.root: 0}
        for v in self.order:
            if v in depth:
                continue
            chain = []
            cur = v
            while cur not in depth:
                chain.append(cur)
                if cur not in self.parent:
                    raise GraphError(f"vertex {cur} has no parent and is not the root")
                cur = self.parent[cur]
                if len(chain) > n:
                    raise GraphError("parent map contains a cycle")
            base = depth[cur]
            for step, vtx in enumerate(reversed(chain), start=1):
                depth[vtx] = base + step
        return tuple(depth[i] for i in range(n))

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
    if not 0 <= root < g.num_vertices:
        raise GraphError(f"root index {root} out of range")
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
    t.depths()  # raises on cycles or dangling parents


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
            raise GraphError(f"edge entry {item!r} must be a pair of labels (strings)")
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
    """Canonical JSON text; loading and dumping again is byte-stable."""
    return json.dumps(graph_to_dict(g), indent=2) + "\n"


def _read_json(path: str | Path, kind: str, error: type[Exception]) -> object:
    """The parsed JSON of a ``kind`` file; ``error`` when it cannot be read or parsed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None


def load_graph(path: str | Path) -> Graph:
    return graph_from_dict(_read_json(path, "graph", GraphError))


def dump_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(g))


def _dot_id(label: str) -> str:
    """Quoted DOT identifier; backslashes and quotes are escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for lab in g.labels:
        lines.append(f"  {_dot_id(lab)};")
    for i, j in g.edges:
        lines.append(f"  {_dot_id(g.labels[i])} -- {_dot_id(g.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
