"""Seeded inputs for the redpow benchmark.

Every workload is a list of rounds; a round is a fixed sequence of case
slots whose sizes (base vertices, base edges, k) never depend on the
seed. The seed only draws rational rates and, for random bases, which
edges the graph has. Files are written once during set-up and the
program receives nothing but their paths.

Each case carries the answer it must produce, derived here from how
the input was built and from closed-form counts computed with
``math.comb``, never from redpow itself. No input is ever re-drawn or
dropped because the program fails on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
from pathlib import Path

WIDE = 10**12  # numerators and denominators of wide-magnitude rationals go up to this


@dataclass(frozen=True)
class BaseGraph:
    """A base graph as the benchmark writes it, with its known shape."""

    name: str
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def e(self) -> int:
        return len(self.edges)

    def has_triangle(self) -> bool:
        adj = [set() for _ in self.labels]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return any(adj[i] & adj[j] for i, j in self.edges)

    def as_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [[self.labels[i], self.labels[j]] for i, j in self.edges],
        }


def power_counts(g: BaseGraph, k: int) -> tuple[int, int]:
    """States and edges of the k-th reduced power, by the closed forms."""
    return comb(k + g.v - 1, k), g.e * comb(k + g.v - 2, k - 1)


def power_betti(g: BaseGraph, k: int) -> int:
    states, edges = power_counts(g, k)
    return edges - states + 1


@dataclass
class Case:
    """One unit of timed work: a CLI command or one survey row.

    ``expect`` holds what the output must satisfy; ``tags`` records the
    input properties whose shares the benchmark reports.
    """

    id: str
    command: str  # CLI subcommand, or "survey" for a library survey row
    argv: list[str]
    expect: dict
    tags: frozenset = frozenset()
    out: Path | None = None
    dot: Path | None = None
    graph: Path | None = None
    k: int = 0


# --- base graphs -------------------------------------------------------


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def cycle(n: int, prefix: str = "c") -> BaseGraph:
    return BaseGraph(f"C{n}", _labels(prefix, n), tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int, prefix: str = "k") -> BaseGraph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return BaseGraph(f"K{n}", _labels(prefix, n), edges)


def house(m: int, prefix: str = "h") -> BaseGraph:
    """An m-cycle with a roof vertex joined to two adjacent cycle vertices."""
    edges = tuple((i, (i + 1) % m) for i in range(m)) + ((0, m), (1, m))
    return BaseGraph(f"house{m}", _labels(prefix, m + 1), edges)


def random_connected(v: int, extra: int, rng: random.Random, prefix: str = "r") -> BaseGraph:
    """Random spanning tree plus ``extra`` chords; the test suite's helper draws the same graph."""
    edges = set()
    for i in range(1, v):
        p = rng.randrange(i)
        edges.add((p, i))
    pool = [(i, j) for i in range(v) for j in range(i + 1, v) if (i, j) not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return BaseGraph(f"R({v},{extra})", _labels(prefix, v), tuple(sorted(edges)))


def random_bipartite(v: int, extra: int, rng: random.Random, prefix: str = "b") -> BaseGraph:
    """Random connected triangle-free graph: a random tree plus chords across its 2-colouring."""
    side = [0] * v
    edges = set()
    for i in range(1, v):
        p = rng.randrange(i)
        side[i] = 1 - side[p]
        edges.add((p, i))
    pool = [
        (i, j)
        for i in range(v)
        for j in range(i + 1, v)
        if side[i] != side[j] and (i, j) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return BaseGraph(f"B({v},{extra})", _labels(prefix, v), tuple(sorted(edges)))


def random_with_triangle(v: int, extra: int, rng: random.Random, prefix: str = "t") -> BaseGraph:
    """Random tree, one chord that closes a triangle, then ``extra - 1`` random chords."""
    parent = [0] * v
    edges = set()
    for i in range(1, v):
        parent[i] = rng.randrange(i)
        edges.add((parent[i], i))
    # vertex i and its grandparent are at distance two: joining them makes a triangle
    deep = [i for i in range(1, v) if parent[i] != 0]
    i = rng.choice(deep) if deep else None
    if i is None:  # a star: join two leaves of the centre
        edges.add((1, 2))
    else:
        edges.add((parent[parent[i]], i))
    pool = [(a, b) for a in range(v) for b in range(a + 1, v) if (a, b) not in edges]
    rng.shuffle(pool)
    edges.update(pool[: extra - 1])
    return BaseGraph(f"T({v},{extra})", _labels(prefix, v), tuple(sorted(edges)))


# --- rates ---------------------------------------------------------------


def _q(rng: random.Random, num: int, den: int, lo: int = 1) -> F:
    return F(rng.randint(lo, num), rng.randint(1, den))


def _model_doc(g: BaseGraph, k: int, base: dict, coupling: dict) -> dict:
    rates = {}
    for (i, j), b in sorted(base.items()):
        entry: dict = {"base": str(b)}
        vec = coupling.get((i, j))
        if vec is not None and any(vec):
            entry["coupling"] = {g.labels[l]: str(c) for l, c in enumerate(vec) if c}
        rates[f"{g.labels[i]}->{g.labels[j]}"] = entry
    return {"graph": g.as_dict(), "k": k, "rates": rates}


def ring_point(g: BaseGraph, k: int, rng: random.Random, reversible: bool, wide: bool):
    """A ring model in the style of acceptance criterion 10.

    Forward rates are mu, backward rates nu, except the first forward
    edge, whose per-token rate is lam plus occupancy couplings. The
    model is reversible exactly when all couplings are equal and
    (lam + c (k-1)) mu^(n-1) = nu^n: with unequal couplings two
    embedded copies of the ring with different parked tokens need
    different values of lam. Engineered points pick lam to satisfy it.
    """
    n = g.v
    num, den = (WIDE, WIDE) if wide else (6, 4)
    if reversible:
        mu, nu = _q(rng, num, den), _q(rng, num, den)
        total = nu**n / mu ** (n - 1)
        alpha = total * F(1, rng.randint(2 * k - 1, 4 * k))  # keeps lam > 0
        lam = total - (k - 1) * alpha
        coup = [alpha] * n
    elif wide:
        lam, mu, nu = (_q(rng, WIDE, WIDE) for _ in range(3))
        coup = [_q(rng, WIDE, WIDE, lo=0) for _ in range(n)]
    else:
        lam, mu, nu = (_q(rng, 50, 9) for _ in range(3))
        coup = [_q(rng, 8, 9, lo=0) for _ in range(n)]
    base, coupling = {}, {}
    for i in range(n):
        j = (i + 1) % n
        base[(i, j)] = mu
        base[(j, i)] = nu
    base[(0, 1)] = lam
    coupling[(0, 1)] = coup
    expected = len(set(coup)) == 1 and (lam + coup[0] * (k - 1)) * mu ** (n - 1) == nu**n
    return _model_doc(g, k, base, coupling), expected


def potential_spec(g: BaseGraph, k: int, rng: random.Random, reversible: bool, wide: bool):
    """Potential rates i->j = phi(j) with one coupling value shared by every vertex.

    The per-token rate phi(j) + c (k-1) never depends on the state, so
    the tokens move independently and the chain is reversible. The
    irreversible variant puts pairwise distinct couplings w on one
    directed edge (a, b): a square of (a, b) with a base edge (c, d)
    disjoint from it then has forward/backward ratio
    q_ab(f+c) / q_ab(f+d) != 1.
    """
    num, den = (WIDE, WIDE) if wide else (20, 6)
    phi = [_q(rng, num, den) for _ in range(g.v)]
    c = _q(rng, num, den, lo=0) if wide else _q(rng, 4, 6, lo=0)
    base, coupling = {}, {}
    for i, j in g.edges:
        for a, b in ((i, j), (j, i)):
            base[(a, b)] = phi[b]
            coupling[(a, b)] = [c] * g.v
    if not reversible:
        a, b = rng.choice(
            [
                pair
                for pair in g.edges
                if any(not set(pair) & set(other) for other in g.edges)
            ]
        )
        if rng.random() < 0.5:
            a, b = b, a
        order = list(range(g.v))
        rng.shuffle(order)
        step = c if c else F(1, 3)
        coupling[(a, b)] = [c + step * order[l] for l in range(g.v)]
    return _model_doc(g, k, base, coupling)


# --- workloads -----------------------------------------------------------


class Writer:
    """Writes input files under one directory and names the output paths."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.out = root / "out.json"
        self.dot = root / "out.dot"

    def write(self, name: str, doc: dict) -> Path:
        path = self.root / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path


def _reversibility_case(w: Writer, cid: str, doc: dict, g: BaseGraph, k: int,
                        reversible: bool, exact: bool, tags: set) -> Case:
    path = w.write(cid, doc)
    argv = ["check-reversibility", "--model", str(path), "--out", str(w.out)]
    if exact:
        argv.append("--exact")
    states, _ = power_counts(g, k)
    if reversible:
        tags.add("reversible")
    if g.has_triangle():
        tags.add("triangles")
    return Case(
        id=cid,
        command="check-reversibility",
        argv=argv,
        expect={
            "exit": 0 if reversible else 2,
            "reversible": reversible,
            "states": states,
            "cycles": power_betti(g, k),
            "mode": "exact" if exact else "float",
        },
        tags=frozenset(tags),
        out=w.out,
    )


# Slot pattern of one exact-sweep round: (ring size, reversible), then
# one wide-magnitude C5 point, reversible in even rounds. A run has two
# rounds, 48 cases: 30 moderate C5 points (about 0.2 s each on a 2-core
# machine), where the median falls; 16 moderate C6 points (0.6-1.2 s),
# where the case with ten beyond it falls; and two wide points (1.6 s
# irreversible, 4.4 s reversible). Wide points sit on C5 only, because a
# wide C6 point takes 12-50 s in the dense exact solve.
EXACT_SLOTS = (
    (5, False), (6, False), (5, True), (5, False), (6, True), (5, False),
    (5, False), (6, False), (5, True), (5, False), (6, False), (5, False),
    (5, True), (6, False), (5, False), (5, False), (6, True), (5, False),
    (5, False), (6, False), (5, True), (5, False), (6, False),
)


def exact_sweep(w: Writer, seed: int, rounds: int) -> tuple[list[list[Case]], Case]:
    rng = random.Random(f"exact-sweep/{seed}")
    k = 3
    bases = {n: cycle(n, "s") for n in (5, 6)}
    out = []
    for r in range(rounds):
        row = []
        slots = [(n, reversible, False) for n, reversible in EXACT_SLOTS]
        slots.append((5, r % 2 == 0, True))
        for s, (n, reversible, wide) in enumerate(slots):
            doc, expected = ring_point(bases[n], k, rng, reversible, wide)
            tags = {"wide"} if wide else set()
            cid = f"exact-r{r}s{s}-C{n}{'-wide' if wide else ''}"
            row.append(_reversibility_case(w, cid, doc, bases[n], k, expected, True, tags))
        out.append(row)
    doc, expected = ring_point(bases[5], k, rng, False, False)
    warm = _reversibility_case(w, "exact-warmup", doc, bases[5], k, expected, True, set())
    return out, warm


def float_ladder(w: Writer, seed: int, rounds: int) -> tuple[list[list[Case]], Case]:
    """C7, C8 and random connected bases, all at k=4: 210, 330, 715, 1365 and 2380 states."""
    rng = random.Random(f"float-ladder/{seed}")
    k = 4
    c7, c8 = cycle(7, "p"), cycle(8, "p")
    # A round is a run: 71 cases, 48 on C7 (about 0.12 s each on a 2-core
    # machine), where the median falls; 20 on C8 (0.15-0.27 s), where the
    # case with ten beyond it falls; then one model each on the random
    # bases of 715, 1365 and 2380 states (1, 2 and 4 s), which carry 40%
    # of the time. Those bases are the ROADMAP ladder's (10,6,seed 1),
    # (12,8,2) and (14,10,3), the same for every workload seed: drawn per
    # seed, they gave cases_per_s a spread of 0.12 over ten seeds.
    # Specs alternate by slot, so every size gets both; one model in
    # eight is wide-magnitude.
    sizes = ((10, 6, 1), (12, 8, 2), (14, 10, 3))
    large = [random_connected(v, extra, random.Random(g), prefix="q") for v, extra, g in sizes]
    unit = [c7, c7, c8, c7, c7, c7, c8, c7, c7, c8, c7, c7, c7, c8, c7, c7, c8]
    out = []
    for r in range(rounds):
        row = []
        bases = unit * 4 + large
        for s, g in enumerate(bases):
            reversible = (r + s) % 2 == 0
            wide = (r + s) % 8 == 0
            doc = potential_spec(g, k, rng, reversible, wide)
            tags = {"wide"} if wide else set()
            cid = f"float-r{r}s{s}-{g.name}-{'rev' if reversible else 'irr'}{'-wide' if wide else ''}"
            row.append(_reversibility_case(w, cid, doc, g, k, reversible, False, tags))
        out.append(row)
    warm_g = cycle(5, "p")
    doc = potential_spec(warm_g, 3, rng, False, False)
    warm = _reversibility_case(w, "float-warmup", doc, warm_g, 3, False, False, set())
    return out, warm


def _graph_case(w: Writer, cid: str, command: str, g: BaseGraph, k: int) -> Case:
    path = w.write(cid, g.as_dict())
    states, edges = power_counts(g, k)
    tags = {"triangles"} if g.has_triangle() else set()
    expect = {
        "states": states,
        "edges": edges,
        "betti": edges - states + 1,
        "triangle_free": not g.has_triangle(),
    }
    if command == "survey":
        return Case(cid, "survey", [], expect, frozenset(tags), graph=path, k=k)
    argv = [command, "--graph", str(path), "--k", str(k), "--out", str(w.out)]
    if command == "power":
        argv += ["--dot", str(w.dot)]
        expect["cross_check"] = g.v**k <= 10**6
    return Case(cid, command, argv, expect, frozenset(tags), out=w.out,
                dot=w.dot if command == "power" else None, graph=path, k=k)


def basis_audit(w: Writer, seed: int, rounds: int) -> tuple[list[list[Case]], Case]:
    """Powers with their quotient cross-check, bases, square checks and survey rows.

    Slot sizes: the B(8,3) k=5 power cross-checks 32768 product
    vertices; the C8 k=4 survey row runs greedy_mcb on 330 states.
    """
    rng = random.Random(f"basis-audit/{seed}")
    out = []
    for r in range(rounds):
        # Fifteen slots in three cost blocks: five cheap (under 0.06 s on
        # a 2-core machine); nine of 0.1-0.25 s (square checks, C8 k=4
        # powers, the T(9,5) basis, the B(7,3) survey row); one dear
        # (2-2.8 s), the B(8,3) k=5 power in even rounds and the C8 k=4
        # survey row in odd ones. Over a six-round run both the median and
        # the case with ten beyond it fall inside the middle block, 54
        # cases of similar cost, so neither jumps between case kinds.
        slots = [
            ("mcb", random_bipartite(10, 6, rng, "bq"), 2),
            ("survey", complete(4, "kx"), 3),
            ("survey", house(4, "ho"), 3),
            ("mcb", house(6, "hs"), 4),
            ("verify-squares", random_with_triangle(9, 5, rng, "tv"), 4),
            ("verify-squares", random_bipartite(9, 5, rng, "bv"), 4),
            ("verify-squares", random_with_triangle(9, 5, rng, "tw"), 4),
            ("verify-squares", random_bipartite(9, 5, rng, "bw"), 4),
            ("verify-squares", random_with_triangle(9, 5, rng, "tx"), 4),
            ("power", cycle(8, "ring"), 4),
            ("mcb", random_with_triangle(9, 5, rng, "tr"), 4),
            ("survey", random_bipartite(7, 3, rng, "bs"), 3),
            ("power", cycle(8, "loop"), 4),
            ("power", complete(5, "kn"), 4),
            ("power", random_bipartite(8, 3, rng, "bp"), 5) if r % 2 == 0
            else ("survey", cycle(8, "cy"), 4),
        ]
        out.append([
            _graph_case(w, f"audit-r{r}s{s}-{cmd}-{g.name}-k{k}", cmd, g, k)
            for s, (cmd, g, k) in enumerate(slots)
        ])
    warm = _graph_case(w, "audit-warmup", "power", cycle(5, "wu"), 2)
    return out, warm


WORKLOADS = {
    "exact-sweep": exact_sweep,
    "float-ladder": float_ladder,
    "basis-audit": basis_audit,
}

# Nominal seconds of one round, in the reference seconds of run.py. A
# run measures round(seconds / ROUND_SECONDS) whole rounds, so every run
# of a workload does the same work in the same mix: at --seconds 25, two
# exact-sweep rounds, one float-ladder round and six basis-audit rounds.
ROUND_SECONDS = {
    "exact-sweep": 11.5,
    "float-ladder": 17.0,
    "basis-audit": 4.2,
}
