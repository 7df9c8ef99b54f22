"""Master chains of coupled automata and reversibility checks.

k identical tokens hop on a base graph; the hop rate from vertex i to
vertex j is affine in the occupancies, a base rate plus per-vertex
coupling terms evaluated with the moving token excluded. The master
chain lives on the k-th reduced power: the transition rate between
adjacent states multiplies the evaluated per-token rate by the number
of tokens available to move.

Reversibility is decided two independent ways. The cycle route checks
the Kolmogorov criterion (forward and backward rate products agree) on
every element of a cycle basis, which settles all cycles by linearity.
The steady-state route finds the stationary law and tests detailed
balance edge by edge. Exactly, a reversible chain's law is the potential
of ratios q(x,y)/q(y,x) along a spanning tree of the state graph, found
and checked in O(E); any other chain is solved by p-adic lifting on
integers (Dixon): one inverse modulo a prime, then one int64 mat-vec per
digit, and rational reconstruction. All rate arithmetic is exact over the
rationals; only the optional float steady-state solve rounds, and its
residual is summed from per-transition flows in O(E).

The exact kernels work on integers. A :class:`RateSpec` lowers its rates
once, to integers over one common denominator, and a master chain
computes every transition's numerator in one array pass over the power's
moves and keeps them once, in transition order (``t = 2e`` along edge
``e``, ``t ^ 1`` back; ``_ints``, one tuple per direction, is a view built
on read), so each kernel reads a transition and its reverse by id. The
exact steady-state route is integer end to end: the tree potential, the
irreversible solve, the verification of pi Q = 0 and the exact balance
test all run on those numerators, with pi as integer numerators over one
common denominator, and one ``Fraction`` per state is built at the end
(per violating edge, two flows). The cycle check multiplies the
numerators along each basis cycle and compares the two products exactly;
it builds its ``Fraction``s only when its checks are read. Each float rate
is its numerator over the denominator in one correctly rounded int
division, so a float run builds no rate ``Fraction`` either.
:func:`eval_rate` keeps the per-token rate in its defining form.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import GraphError, ModelError, SolverError
from .graph import (
    Graph,
    _BuiltOnRead,
    _built_on_read,
    _edge_ids,
    _index,
    _read_json,
    _shown,
    bfs_spanning_tree,
    graph_from_dict,
    graph_to_dict,
)
from .power import _STATE_BUDGET, Monomial, ReducedPowerGraph, build_reduced_power
from .cyclespace import CycleBasis, _base_mcb, host_graph

__all__ = [
    "RateSpec",
    "eval_rate",
    "MasterChain",
    "build_master",
    "CycleCheck",
    "KolmogorovReport",
    "kolmogorov_check",
    "single_automaton_check",
    "SteadyState",
    "steady_state",
    "reversible_steady_state",
    "BalanceReport",
    "detailed_balance_check",
    "parse_rational",
    "model_from_dict",
    "load_model",
    "model_to_dict",
]


# Python's default digit limit for int strings; a larger decimal exponent
# would spell a longer number than digits may, and Fraction expands it in full
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")
# A plain 'n' or 'n/d' is parsed through Decimal, which has no digit limit,
# so that the loader reads the long integers model_to_dict writes. Up to a
# 4300-digit mantissa times a 4300-digit power of ten spells that many digits.
_MAX_DIGITS = 2 * _MAX_EXPONENT
_PLAIN = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*\Z")
# Python's current int-string digit limit; 0 is none, as before 3.10.7
_str_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def parse_rational(value: object, where: str) -> Fraction:
    """Exact rational from an int or a string like '3', '1/3' or '2.5e-3'."""
    if isinstance(value, bool):
        raise ModelError(f"{where}: booleans are not rates")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "_" in value:  # Fraction reads PEP 515 underscores from Python 3.11 on only
            raise ModelError(f"{where}: underscores are not allowed in rate {_shown(value)}")
        try:
            plain = _PLAIN.match(value)
            if plain:
                num, den = plain.groups()
                digits = max(len(num.lstrip("+-")), len(den or ""))
                if digits > _MAX_DIGITS:
                    raise ModelError(
                        f"{where}: {digits}-digit number exceeds {_MAX_DIGITS} digits"
                    )
                return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
            refused = _past_exponent_bound(value)
            if refused:
                raise ModelError(f"{where}: {refused}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"{where}: cannot parse rational {_shown(value)}: {exc}") from None
    if isinstance(value, float):
        raise ModelError(
            f"{where}: floats are not exact; write the rate as a string like '1/10'"
        )
    raise ModelError(f"{where}: expected an int or string, got {type(value).__name__}")


def _past_exponent_bound(text: str) -> str | None:
    """Why ``text`` is refused as a rate, if its decimal exponent passes ``_MAX_EXPONENT``, else None.

    Checked before ``Fraction(text)``, which would expand such an exponent
    in full. Underscores are dropped first, as ``Fraction`` drops them.
    """
    exp = _EXPONENT.search(text.replace("_", ""))
    if exp and abs(int(exp.group(1))) > _MAX_EXPONENT:
        return f"exponent of {_shown(text)} exceeds {_MAX_EXPONENT} in magnitude"
    return None


def _rational_str(q: Fraction) -> str:
    """``str(q)``, with the ints in full past Python's int-string digit limit.

    Past the limit ``Decimal`` converts the ints, with no such limit, and
    prints the same digits. An int of b bits has fewer than b / 3 + 1
    digits, so ``str`` serves any int of at most three bits per digit of the limit.
    """
    limit = _str_digit_limit()
    if not limit or max(q.numerator.bit_length(), q.denominator.bit_length()) <= 3 * limit:
        return str(q)
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


class RateSpec:
    """Directed per-token rates, affine in the occupancy vector.

    For each directed edge (i, j) of the base graph there is a base
    rate and one coupling coefficient per vertex. The per-token rate
    from i to j in state x is

        base(i,j) + sum_l coupling(i,j)[l] * (n_l(x) - [l == i])

    so a token never counts itself. Both directions of every base edge
    must be specified. Coupling coefficients may be negative; the
    evaluated rate must come out positive, which MasterChain checks
    state by state. The rates are stored once, as integer numerators
    over one common denominator ``_den``, per hop: hop ``2e`` leaves the
    lower end ``i`` of base edge ``e = (i, j)`` of ``graph.pairs``, and
    hop ``2e + 1`` leaves ``j``. ``_nums[h]`` is hop ``h``'s base numerator
    and ``_rows[_row[h]]`` its coupling numerators: one row per distinct
    coupling vector, row 0 the zero one, which every uncoupled hop reads.
    Both hold Python ints at every width (:func:`_numerators` picks the
    chain's). The accessors build ``Fraction``s on demand, and every
    uncoupled pair reads one zero vector.
    """

    __slots__ = ("graph", "_den", "_nums", "_row", "_rows", "_zero")

    def __init__(
        self,
        graph: Graph,
        base: Mapping[tuple[int, int], Fraction],
        coupling: Mapping[tuple[int, int], tuple[Fraction, ...]] | None = None,
    ):
        hops = [pair for i, j in graph.edges for pair in ((i, j), (j, i))]
        directed = set(hops)
        base = dict(base)
        coupling = dict(coupling or {})
        for pair in base:
            if pair not in directed:
                raise ModelError(f"rate given for non-edge pair {pair}")
        for pair in directed:
            if pair not in base:
                raise ModelError(f"missing rate for directed edge {_arc(graph, pair)}")
        v = graph.num_vertices
        for pair, coeffs in coupling.items():
            if pair not in directed:
                raise ModelError(f"coupling given for non-edge pair {pair}")
            try:
                coeffs = tuple(coeffs)
            except TypeError:
                raise ModelError(
                    f"coupling vector for {_arc(graph, pair)} is {_shown(coeffs)}, not a sequence"
                ) from None
            if len(coeffs) != v:
                raise ModelError(f"coupling vector for {pair} must have {v} entries")
            coupling[pair] = tuple(_rate(graph, pair, c, "coupling entry") for c in coeffs)
        rates = {pair: _rate(graph, pair, base[pair], "base rate") for pair in sorted(directed)}
        every = [*rates.values(), *(q for c in coupling.values() for q in c)]
        self._den = den = math.lcm(*(q.denominator for q in every))
        self.graph = graph

        def scaled(qs):
            return tuple(q.numerator * (den // q.denominator) for q in qs)

        rows = {(0,) * v: 0}  # scaled vector -> its row; row 0 is the zero vector
        row = [rows.setdefault(scaled(coupling[p]), len(rows)) if p in coupling else 0 for p in hops]
        self._nums = np.array(scaled(map(rates.get, hops)), dtype=object)
        self._rows, self._row = np.array(list(rows), dtype=object), np.array(row, dtype=np.int64)
        self._zero = (Fraction(0),) * v

    def _hop(self, i: int, j: int) -> int:
        edge = self.graph.edge_index
        for back, pair in enumerate(((i, j), (j, i))):
            if pair in edge:
                return 2 * edge[pair] + back
        raise ModelError(f"({i}, {j}) is not a directed edge")

    def base_rate(self, i: int, j: int) -> Fraction:
        return Fraction(int(self._nums[self._hop(i, j)]), self._den)

    def coupling_vector(self, i: int, j: int) -> tuple[Fraction, ...]:
        row = self._row[self._hop(i, j)]
        return tuple(Fraction(c, self._den) for c in self._rows[row].tolist()) if row else self._zero

    def directed_pairs(self) -> list[tuple[int, int]]:
        return sorted(pair for i, j in self.graph.edges for pair in ((i, j), (j, i)))

    def is_uncoupled(self) -> bool:
        return len(self._rows) == 1


def _arc(graph: Graph, pair: tuple[int, int]) -> str:
    """The directed edge ``pair`` of ``graph`` named by its labels, as ``'a->b'``."""
    i, j = pair
    return f"'{graph.labels[i]}->{graph.labels[j]}'"


def _rate(graph: Graph, pair: tuple[int, int], value: object, what: str) -> Fraction:
    """``Fraction(value)``: :class:`RateSpec`'s one rule for a base rate and a coupling entry.

    A ``Fraction``, as the loader hands over, is taken as it is. A string
    whose exponent passes ``_MAX_EXPONENT`` is refused first, as
    :func:`parse_rational` refuses it, and a ``Decimal`` whose ``str``
    form's exponent does, which ``Fraction`` would expand in full too.
    """
    if type(value) is Fraction:
        return value
    try:
        refused = isinstance(value, (str, Decimal)) and _past_exponent_bound(str(value))
        if refused:
            raise ModelError(f"{what} for {_arc(graph, pair)}: {refused}")
        if isinstance(value, str) and "_" in value:  # Fraction reads underscores from 3.11 on only
            raise ValueError
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):  # ArithmeticError: '1/0' or an infinity
        raise ModelError(f"{what} for {_arc(graph, pair)} is {_shown(value)}, not a rational") from None


def eval_rate(spec: RateSpec, i: int, j: int, state: Monomial) -> Fraction:
    """Per-token rate for a hop i -> j in the given occupancy state.

    Summing the coupling over the k tokens of the state and taking the
    mover's own term back out equals the RateSpec formula.
    """
    if state.exponents[i] < 1:
        raise ModelError(
            f"no token on {spec.graph.labels[i]!r} to move in state {state.exponents}"
        )
    coupling = spec.coupling_vector(i, j)
    return spec.base_rate(i, j) - coupling[i] + sum(coupling[l] for l in state.word())


class MasterChain(_BuiltOnRead):
    """Continuous-time Markov chain of k tokens on the base graph.

    States are those of the reduced power ``rp``. For edge ``e = (x, y)``
    of ``rp.graph.edges`` (so x < y, and x holds the token on the lower
    end of the base edge ``rp._moves[e]`` records), ``forward[e]`` is the
    exact rate from x to y and ``backward[e]`` the rate from y to x.
    ``rate(x, y)`` reads them and is zero for non-adjacent pairs.

    Every transition rate is checked to be strictly positive, which
    keeps the chain irreducible on the connected state space. The
    constructor computes their integer numerators over the spec's
    ``_den`` in one array pass over the power's moves
    (:func:`_numerators`), and keeps them once, as ``_tints`` in transition order
    (``t = 2e`` along edge ``e``, ``t ^ 1`` back), for the exact checks and solves:
    every equation they test is homogeneous in the rates, so the common denominator
    cancels. Their per-direction slices ``_ints``, the floats ``_floats`` and the
    rates are built from them on first read; the rates serve the public reads and the exact violation flows.
    """

    __slots__ = ("rp", "spec", "forward", "backward", "_floats", "_ints", "_tints")

    def __init__(self, rp: ReducedPowerGraph, spec: RateSpec):
        if spec.graph != rp.base:
            raise ModelError("rate specification is for a different graph")
        nums = _numerators(rp, spec)
        bad = nums <= 0
        if bad.any():
            t = int(bad.argmax())
            hop, state = _named(rp, t)
            raise ModelError(
                f"rate {hop} evaluates to {_rational_str(Fraction(int(nums[t]), spec._den))} "
                f"in state {state!r}; master rates must be positive"
            )
        self.rp = rp
        self.spec = spec
        self._tints = tuple(nums.tolist())

    def _make__ints(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self._tints[0::2], self._tints[1::2]

    def _make_forward(self) -> tuple[Fraction, ...]:
        return self._fractions(self._ints[0])

    def _make_backward(self) -> tuple[Fraction, ...]:
        return self._fractions(self._ints[1])

    def _fractions(self, nums: tuple[int, ...]) -> tuple[Fraction, ...]:
        """Rates of ``nums``, one ``Fraction`` per distinct numerator, for public reads and exact flows."""
        made = {num: Fraction(num, self.spec._den) for num in set(nums)}
        return tuple(map(made.__getitem__, nums))

    def _make__floats(self) -> np.ndarray:
        """Every rate as a float, in :meth:`transitions` order; SolverError on one outside the float range.

        Each is ``num / spec._den`` in int division, correctly rounded at every size as ``float(Fraction)`` is.
        """
        den, nums = self.spec._den, self._tints
        try:
            floats = np.fromiter(map(int.__truediv__, nums, repeat(den)), np.float64, len(nums))
        except OverflowError:
            floats = None
        if floats is None or not floats.all():
            # the first quotient of at most 2^-1075 (it rounds to 0) or at least 2^1024 - 2^970 (it overflows)
            t = next(t for t, num in enumerate(nums) if num << 1075 <= den or num >= den * (2**1024 - 2**970))
            magnitude = math.log10(nums[t]) - math.log10(den)
            hop, state = _named(self.rp, t)
            raise SolverError(
                f"rate {hop} in state {state!r} is about 1e{round(magnitude):+d}, "
                "outside the float range; rerun with --exact"
            )
        floats.flags.writeable = False
        return floats

    @property
    def num_states(self) -> int:
        return self.rp.num_states

    def rate(self, x: int, y: int) -> Fraction:
        x, y = _index(x, self.num_states), _index(y, self.num_states)
        e = self.rp.graph.edge_index.get((x, y) if x < y else (y, x))
        if e is None:
            return Fraction(0)
        return self.forward[e] if x < y else self.backward[e]

    def transitions(self) -> Iterator[tuple[int, int, Fraction]]:
        """Every transition (source, target, rate), edge by edge, forward first."""
        for (x, y), fwd, bwd in zip(self.rp.graph.edges, self.forward, self.backward):
            yield x, y, fwd
            yield y, x, bwd

    def exit_rate(self, x: int) -> Fraction:
        return sum((self.rate(x, y) for y in self.rp.graph.adjacency(x)), Fraction(0))


def _numerators(rp: ReducedPowerGraph, spec: RateSpec) -> np.ndarray:
    """Every transition's rate numerator over ``spec._den``, in :meth:`MasterChain.transitions` order.

    An edge moves one token across base edge ``e = (i, j)`` while the
    tokens of stay word ``s`` stay put (its row ``(i, j, s, e)`` of
    ``rp._moves``), so the tokens that stay are row ``s`` of
    ``S = rp._stay_counts``. Its forward transition
    is the spec's hop ``h = 2e`` out of ``i``, its backward one hop
    ``2e + 1`` out of ``j``; hop ``h`` out of ``a`` is made by ``S[s, a] + 1``
    tokens, each at ``B[h] + (S @ C.T)[s, R[h]]``, with ``B``, ``R`` and
    ``C`` the spec's ``_nums``, ``_row`` and ``_rows``. Each of the
    ``k - 1`` stay tokens adds at most ``top_c`` in magnitude, so every
    value on the way is at most ``k * (top_b + (k - 1) * top_c)``. Only here
    is a width picked: when that and every coupling entry (``top_c``, read
    at k = 1 too) are below 2^63 the arrays are int64, else Python ints.
    """
    moves, counts, k = rp._moves, rp._stay_counts, rp.k
    top_b, top_c = (int(np.abs(a).max(initial=0)) for a in (spec._nums, spec._rows))
    dtype = np.int64 if max(k * (top_b + (k - 1) * top_c), top_c) < 2**63 else object
    base, coupling, counts = (a.astype(dtype, copy=False) for a in (spec._nums, spec._rows, counts))
    src, stay = moves[:, :2].ravel(), moves[:, 2].repeat(2)
    hop = (2 * moves[:, 3, None] + [0, 1]).ravel()
    return (counts[stay, src] + 1) * (base[hop] + (counts @ coupling.T)[stay, spec._row[hop]])


def _named(rp: ReducedPowerGraph, t: int) -> tuple[str, str]:
    """Transition ``t`` (``2e`` along edge ``e``, ``2e + 1`` back): its base hop ``a->b`` and source state."""
    a, b = rp._moves[t // 2, 1::-1] if t % 2 else rp._moves[t // 2, :2]
    return f"{rp.base.labels[a]}->{rp.base.labels[b]}", rp.label(int(rp.graph.pairs[t // 2, t % 2]))


def build_master(base: Graph, k: int, spec: RateSpec) -> MasterChain:
    """Master chain of k coupled tokens on the k-th reduced power of ``base``."""
    return MasterChain(build_reduced_power(base, k), spec)


@dataclass(frozen=True)
class CycleCheck:
    """Kolmogorov criterion outcome for one basis cycle."""

    index: int
    tag: str
    vertices: tuple[str, ...]
    forward: Fraction
    backward: Fraction
    base_edges: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return self.forward == self.backward

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "tag": self.tag,
            "vertices": list(self.vertices),
            "forward": _rational_str(self.forward),
            "backward": _rational_str(self.backward),
            "passed": self.passed,
            "base_edges": [list(pair) for pair in self.base_edges],
        }


@dataclass(frozen=True)
class KolmogorovReport(_BuiltOnRead):
    """Cycle-criterion verdict over a full cycle basis.

    :func:`kolmogorov_check` decides it on per-walk arrays: a report that
    passes knows its cycle count and its empty violations from them, and
    builds ``checks``, like ``passed`` and the cycle count ``_checked``, on
    first read (:class:`~redpow.graph._BuiltOnRead`); a refuted one is made
    with its checks.
    """

    checks: tuple[CycleCheck, ...]
    basis_kind: str

    def _make_passed(self) -> bool:
        return not self._violations

    def _make__violations(self) -> tuple[CycleCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def _make__checked(self) -> int:
        return len(self.checks)

    def violations(self) -> list[CycleCheck]:
        return list(self._violations)

    def as_dict(self) -> dict:
        return {
            "basis_kind": self.basis_kind,
            "cycles_checked": self._checked,
            "passed": self.passed,
            "violations": [c.as_dict() for c in self.violations()],
        }


def kolmogorov_check(mc: MasterChain, basis: CycleBasis) -> KolmogorovReport:
    """Compare forward and backward rate products over basis cycles.

    The criterion holds for every cycle of the chain iff it holds on a
    cycle basis, because log-rate ratios are additive over F2 sums of
    oriented cycles. Products are exact, taken along the steps of the
    basis's one trace (``CycleBasis._trace``) on the chain's integer
    numerators (``mc._tints``): every rate is over the spec's ``_den``, so
    a walk of m steps agrees exactly when its two numerator products do,
    and its check's products are those over ``_den**m``.
    """
    if host_graph(basis.host) != mc.rp.graph:
        raise ModelError("cycle basis lives on a different state graph")
    starts, edge, against = basis._trace
    # transition 2e runs along edge e, 2e + 1 against it; each step's factor is
    # gathered by index and multiplied out walk by walk (every walk of a basis
    # has at least three steps), on the chain's own ints, as exact products need
    step = 2 * edge + against
    nums = np.array(mc._tints, dtype=object)
    fwd, bwd = (
        np.multiply.reduceat(nums[t], starts) if len(starts) else nums[:0]
        for t in (step, step ^ 1)
    )
    lengths = np.diff(starts, append=len(step))
    make = partial(_cycle_checks, mc, basis, fwd, bwd, lengths)
    if (fwd != bwd).any():
        return KolmogorovReport(checks=make(), basis_kind=basis.kind)
    fields = dict(basis_kind=basis.kind, _violations=(), _checked=len(starts))
    return _built_on_read(KolmogorovReport, fields, checks=make)


def _cycle_checks(mc, basis, fwd, bwd, lengths) -> tuple[CycleCheck, ...]:
    """The check of each walk of ``basis``: its ``lengths``, numerator products ``fwd``, ``bwd`` and family."""
    labels, base_labels, den = mc.rp.graph.labels, mc.rp.base.labels, mc.spec._den
    made: dict[tuple[int, int], Fraction] = {}

    def exact(num: int, m: int) -> Fraction:
        q = made.get((num, m))
        if q is None:
            q = made[num, m] = Fraction(num, den**m)
        return q

    # a walk's tag and base edges are its family's in the basis's family record, each named once
    ids, families = basis._families
    named = [(x.tag, tuple((base_labels[i], base_labels[j]) for i, j in x.base_edges)) for x in families]
    checks = []
    rows = zip(basis.cycles, map(named.__getitem__, ids.tolist()), fwd.tolist(), bwd.tolist(), lengths.tolist())
    for idx, (seq, (tag, base_edges), fn, bn, m) in enumerate(rows):
        vertices = tuple(map(labels.__getitem__, seq))
        checks.append(CycleCheck(idx, tag, vertices, exact(fn, m), exact(bn, m), base_edges))
    return tuple(checks)


def single_automaton_check(base: Graph, spec: RateSpec) -> KolmogorovReport:
    """Kolmogorov criterion for one token (couplings never activate)."""
    mc = build_master(base, 1, spec)
    return kolmogorov_check(mc, _base_mcb(base))


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution with solve diagnostics; ``as_dict`` writes each probability by the mode."""

    probabilities: tuple
    mode: str
    residual_inf: float
    sum_abs_error: float

    def as_dict(self) -> dict:
        text = _rational_str if self.mode == "exact" else float
        return {
            "mode": self.mode,
            "probabilities": list(map(text, self.probabilities)),
            "residual_inf": self.residual_inf,
            "sum_abs_error": self.sum_abs_error,
        }


_EXACT_STATE_LIMIT = 400
# The state budget of power._STATE_BUDGET: no power of more states, or with a
# larger k, is built. The dense float solve allocates n^2 floats,
# LAPACK a copy: 400 MB at the limit. Peak RSS of one float check in a fresh
# process: a 12-ring at k = 5 (4368 states) 75 MiB reversible (float tree
# potential) and 379 MiB irreversible (dense), a 17-ring at k = 4 (4845) 76
# and 448 MiB; the dense route, near 480 MiB at the limit, needs no budget
# of its own. The largest power any test, script or workload builds has 4368.
_FLOAT_STATE_LIMIT = _STATE_BUDGET
_FLOAT_TOL = 1e-10  # residual and |sum - 1| bound of every float law


def steady_state(mc: MasterChain, mode: str = "float", tol: float = _FLOAT_TOL) -> SteadyState:
    """Solve pi Q = 0 with sum(pi) = 1.

    Float mode refuses a chain of more than ``_FLOAT_STATE_LIMIT`` states
    (SolverError) before anything is allocated. It converts every rate to
    a float once per chain (SolverError if one overflows or underflows to
    zero; exact mode still works there), refuses a state whose exit rate
    overflows, fills the dense transpose system from that array, replaces
    its last row by ones and solves it through LAPACK. The residual, the
    sum and positivity are verified against ``tol`` in O(E), without a
    second dense matrix (:func:`_checked_float`).

    Exact mode first tries the spanning-tree potential
    (:func:`reversible_steady_state`), which exists exactly when the chain
    satisfies detailed balance and then is the stationary law. Otherwise
    it pins ``pi_0 = 1``, drops the balance equation of state 0 (the
    rest is nonsingular for an irreducible chain), solves that system by
    p-adic lifting on integers (:func:`_lifted_pi`), then normalises.
    Either way pi Q = 0, sum one and positivity are verified exactly, by
    :func:`_checked_exact`.
    """
    n = mc.num_states
    if mode == "float":
        if n > _FLOAT_STATE_LIMIT:
            raise SolverError(f"float mode supports up to {_FLOAT_STATE_LIMIT} states, got {n}")
        rates = mc._floats
        src, dst = _transition_ends(mc)
        diag = -np.bincount(src, rates, n)
        bad = np.flatnonzero(~np.isfinite(diag))
        if len(bad):
            raise SolverError(
                f"exit rate of state {mc.rp.label(int(bad[0]))!r} overflows the float "
                "range; rerun with --exact"
            )
        a = np.zeros((n, n))
        a[dst, src] = rates
        np.fill_diagonal(a, diag)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"steady-state solve failed: {exc}") from None
        return _checked_float(mc, pi, rates, tol)

    if mode == "exact":
        if n > _EXACT_STATE_LIMIT:
            raise SolverError(
                f"exact mode supports up to {_EXACT_STATE_LIMIT} states, got {n}"
            )
        return reversible_steady_state(mc) or _checked_exact(mc, *_lifted_pi(mc))

    raise SolverError(f"unknown steady-state mode {mode!r}")


def _transition_ends(mc: MasterChain) -> tuple[np.ndarray, np.ndarray]:
    """Source and target state of each transition; ``2e`` runs along edge ``e``, ``2e + 1`` back."""
    ends = mc.rp.graph.pairs
    return ends.ravel(), ends[:, ::-1].ravel()


def _checked_float(mc: MasterChain, pi: np.ndarray, rates: np.ndarray, tol: float) -> SteadyState:
    """Wrap the float law ``pi`` after checking its residual, its sum and positivity.

    ``residual_inf`` is the largest |(pi Q)_x|, summed from the
    per-transition flows ``pi_x q(x,y)`` in O(E); it and ``|sum(pi) - 1|``
    must be within ``tol``. A NaN fails as the exit-rate overflow does,
    with a hint to rerun with ``--exact``.
    """
    n = mc.num_states
    src, dst = _transition_ends(mc)
    with np.errstate(over="ignore", invalid="ignore"):
        flow = pi[src] * rates
        balance = np.bincount(dst, flow, n) - np.bincount(src, flow, n)
        residual = float(np.abs(balance).max())
        sum_err = abs(pi.sum() - 1.0)
    # written so that a NaN fails each check
    if not (residual <= tol and sum_err <= tol):
        hint = "; rerun with --exact" if np.isnan(residual + sum_err) else ""
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds tolerance {tol:.3e}{hint}"
        )
    if not pi.min() > 0:
        raise SolverError("steady-state solve produced a non-positive probability")
    return SteadyState(tuple(pi), "float", residual, sum_err)


# Consecutive primes just below 2^26, tried in order. With m < 512 unknowns
# m * p^2 < 2^61, so the lazily reduced Gauss-Jordan, the digit mat-vec and
# the residual window of _lifted_pi never overflow int64.
_PRIMES = (67108859, 67108837, 67108819)
_CHUNK = 64  # lifted digits folded into the result at a time


def _lifted_pi(mc: MasterChain) -> tuple[list[int], int]:
    """Numerators of the solution of pi Q = 0, and their sum, by p-adic lifting.

    Solves the system of :func:`_balance_rows` (state c in column c - 1),
    which :func:`_eliminate` also solves, as Dixon does (*Numer. Math.*
    40, 1982): ``C = A^-1 mod p`` once, then each p-adic digit of the
    solution is ``d = C r mod p`` and the residual ``r`` becomes
    ``(r - A d) / p``. Every entry of ``[A | b]`` is held as its signed
    base-p digits, and the residual as a short window of base-p digits
    with lazy carries, so a digit costs a few int64
    operations whatever the size of the rates. Digits are folded into
    the result ``_CHUNK`` at a time; at doubling digit counts the result
    is reconstructed as rationals over one common denominator, and the
    candidate is taken only if its law balances exactly. The Hadamard
    bound of ``[A | b]`` caps the digits: past it the reconstruction is
    unique, so failing there is an error. When no prime of ``_PRIMES``
    leaves ``A`` invertible, :func:`_sparse_pi` solves the system instead.
    """
    n = mc.num_states
    if n == 1:
        return [1], 1
    m = n - 1
    rows, rhs = (list(by_state.values()) for by_state in _balance_rows(mc))  # states 1..n-1
    entries = [v for row in rows for v in row.values()]
    cols = np.fromiter((c - 1 for row in rows for c in row), np.int64, len(entries))
    sizes = np.fromiter(map(len, rows), np.int64, m)  # each row holds its diagonal
    starts = np.cumsum(sizes) - sizes
    # Hadamard: every minor of [A | b] is below H, H^2 < 2^bits, so at p^D > 2^(bits+1)
    # the numerators and the denominator of the solution are below sqrt(p^D / 2)
    bits = sum(
        (c * c + sum(v * v for v in row.values())).bit_length() for row, c in zip(rows, rhs)
    )
    hard = (bits + 1) // 25 + 1  # every prime is above 2^25
    vals = np.array(entries, object)
    b = np.array(rhs, object)
    top = max(max(map(abs, entries)), max(map(abs, rhs)))
    where = (np.repeat(np.arange(m), sizes), cols)
    for p in _PRIMES:
        a = np.zeros((m, m), np.int64)
        a[where] = (vals % p).astype(np.int64)
        inverse = _inverse_mod(a, p)
        if inverse is None:
            continue
        width = 1  # base-p digits of the largest |entry| of [A | b]
        while p**width <= top:
            width += 1
        limbs = _signed_digits(vals, p, width)
        # After i digits the residual (b - A X) / p^i, X the digits so far, is
        # sum_t window[t] p^t. Each step subtracts A d limb by limb, then moves
        # every row's excess over [0, p) up one row: rows stay below (m + 1) p^2.
        window = np.zeros((width + 1, m), np.int64)
        window[:width] = _signed_digits(b, p, width)
        x = np.zeros(m, object)  # the digits folded so far, as one integer per unknown
        chunk: list[np.ndarray] = []
        count, target = 0, min(8, hard)
        while True:
            d = inverse @ (window[0] % p) % p
            window[:width] -= np.add.reduceat(limbs * d[cols], starts, axis=1)
            carry, window[:width] = np.divmod(window[:width], p)
            window[1:] += carry
            window[:-1] = window[1:]
            window[-1] = 0
            chunk.append(d)
            count += 1
            if len(chunk) == _CHUNK or count == target:
                x += _fold(chunk, p) * p ** (count - len(chunk))
                chunk = []
            if count < target:
                continue
            found = _reconstruct(x.tolist(), p**count)
            if found is not None:
                den, nums = found
                pi = np.array(nums, object)
                if not np.any(np.add.reduceat(vals * pi[cols], starts) - b * den):
                    return [den, *nums], den + sum(nums)
            if count == hard:
                raise SolverError("p-adic lifting found no law within the Hadamard bound")
            target = min(2 * target, hard)
    return _sparse_pi(mc)


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray | None:
    """``a^-1 mod p`` by Gauss-Jordan on int64, or None if ``a`` is singular mod p.

    Only the pivot column and row are reduced at each step; the rank-one
    update adds less than p^2 to an entry, so m steps stay below
    m p^2 + p < 2^63. The right half of ``[a | I]`` is nonzero only up to
    the identity columns of the rows pivoted so far, and only that span
    is updated.
    """
    m = len(a)
    w = np.concatenate((a % p, np.eye(m, dtype=np.int64)), axis=1)
    reach = 0  # identity columns m..m+reach may be nonzero in pivoted rows
    for c in range(m):
        if not w[c, c] % p:
            nonzero = np.flatnonzero(w[c:, c] % p)
            if not len(nonzero):
                return None
            r = c + int(nonzero[0])
            w[[c, r]] = w[[r, c]]
            reach = max(reach, r)
        reach = max(reach, c)
        end = m + reach + 1
        row = w[c, c:end] % p * pow(int(w[c, c] % p), -1, p) % p
        w[c, c:end] = row
        factors = w[:, c] % p
        factors[c] = 0
        w[:, c + 1 : end] -= np.outer(factors, row[1:])
    return w[:, m:] % p


def _signed_digits(values: np.ndarray, p: int, width: int) -> np.ndarray:
    """The ``width`` base-p digits of each |value|, low first, signed as the value."""
    magnitude = np.abs(values)
    digits = np.empty((width, len(values)), np.int64)
    for j in range(width):
        digits[j] = magnitude % p
        magnitude //= p
    return np.where(values < 0, -digits, digits)


def _fold(digits: list[np.ndarray], p: int) -> np.ndarray:
    """``sum_i digits[i] p^i`` per unknown, as Python ints, by pairwise folding."""
    level = np.array(digits).astype(object)
    step = p
    while len(level) > 1:
        if len(level) % 2:
            level = np.concatenate((level, np.zeros((1, level.shape[1]), object)))
        level = level[0::2] + level[1::2] * step
        step *= step
    return level[0]


def _reconstruct(residues: list[int], modulus: int) -> tuple[int, list[int]] | None:
    """One common denominator and the numerators of the rationals with these residues.

    Numerators and the denominator are held to ``sqrt(modulus / 2)``, so
    the answer is unique when it exists. Each residue times the
    denominator so far is tried as a plain integer first; only where that
    is too large is a further denominator factor reconstructed
    (:func:`_half_euclid`). None when some residue has no such rational.
    """
    bound = math.isqrt(modulus // 2)
    den = 1
    found = []  # (numerator, the denominator it is over)
    for u in residues:
        y = u * den % modulus
        if y > modulus - y:
            y -= modulus
        if abs(y) > bound:
            got = _half_euclid(modulus, y % modulus, bound, bound // den)
            if got is None or math.gcd(*got) != 1:
                return None
            y, t = got
            den *= t
        found.append((y, den))
    return den, [y * (den // at) for y, at in found]


def _half_euclid(r0: int, r1: int, bound: int, most: int) -> tuple[int, int] | None:
    """``(y, t)`` with ``y = t r1 mod r0``, ``|y| <= bound``, ``0 < t <= most``, or None.

    Runs Euclid on ``(r0, r1)`` to its first remainder ``<= bound``,
    tracking each remainder's cofactor of r1; the cofactors only grow,
    so the search stops as soon as one passes ``most``. Past 2048 bits
    quotients are found on the leading 62 bits while they agree for both
    roundings of the truncation (Lehmer, Knuth's Algorithm L), so a run
    of steps costs a few full-size products; a run that would pass the
    bound is redone one exact step at a time. Below that size a plain
    step is cheaper than the run's loop on small ints.
    """
    t0, t1 = 0, 1
    while r1 > bound:
        if abs(t1) > most:
            return None
        if r0.bit_length() > 2048:
            shift = r0.bit_length() - 62
            u, v = r0 >> shift, r1 >> shift
            a, b, c, d = 1, 0, 0, 1
            while v + c and v + d:
                q = (u + a) // (v + c)
                if q != (u + b) // (v + d):
                    break
                a, b, c, d = c, d, a - q * c, b - q * d
                u, v = v, u - q * v
            if b:
                s1 = c * r0 + d * r1
                if s1 > bound:
                    r0, r1 = a * r0 + b * r1, s1
                    t0, t1 = a * t0 + b * t1, c * t0 + d * t1
                    continue
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= most:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _tree_steps(mc: MasterChain) -> tuple[list[int], list[int], np.ndarray]:
    """Each state but 0 in BFS order of a spanning tree rooted there, its parent, and the transition between.

    The transitions, an array, run from parent to child: ``2e + (parent > child)``
    for their edge ``e``, found in one search over the sorted edge array.
    """
    tree = bfs_spanning_tree(mc.rp.graph)
    children = np.array(tree.order[1:], dtype=np.int64)
    parents = np.array([tree.parent[y] for y in tree.order[1:]], dtype=np.int64)
    steps = 2 * _edge_ids(mc.rp.graph, children, parents) + (parents > children)
    return children.tolist(), parents.tolist(), steps


def reversible_steady_state(mc: MasterChain) -> SteadyState | None:
    """Exact stationary law of a detailed-balanced chain, else None.

    Sets ``pi_0 = 1`` and ``pi_y = pi_x q(x,y) / q(y,x)`` along a BFS
    spanning tree of the state graph, then tests ``pi_x q(x,y) = pi_y
    q(y,x)`` on every edge. Any detailed-balanced law agrees with this
    potential on the tree, so the first failing edge proves there is
    none; when every edge holds, pi is stationary, and by irreducibility
    the unique stationary law. O(E) integer operations: each potential is
    a reduced numerator over a denominator, the rates are read as
    integers (q(x,y) / q(y,x) as ``mc._tints[t] / mc._tints[t ^ 1]`` for the tree's
    transition ``t`` from x to y, ``mc._ints`` per edge), every edge is tested by
    cross-multiplying, and only a balanced pi is put over one common
    denominator. The tree is :func:`_tree_steps`'s. The cycle basis is
    never read, so this stays independent of :func:`kolmogorov_check`.
    """
    children, parents, steps = _tree_steps(mc)
    nums = mc._tints
    top = [0] * mc.num_states  # pi_x = top[x] / bottom[x] in lowest terms
    bottom = [1] * mc.num_states
    top[0] = 1
    for y, x, t in zip(children, parents, steps.tolist()):
        p, q = top[x] * nums[t], bottom[x] * nums[t ^ 1]
        g = math.gcd(p, q)
        top[y], bottom[y] = p // g, q // g
    for (x, y), a, b in zip(mc.rp.graph.edges, *mc._ints):
        if top[x] * bottom[y] * a != top[y] * bottom[x] * b:
            return None
    common = math.lcm(*bottom)
    num = [t * (common // b) for t, b in zip(top, bottom)]
    return _checked_exact(mc, num, sum(num))


def _float_tree_potential(mc: MasterChain) -> SteadyState | None:
    """Float law of a chain by its spanning-tree potential, in O(E), or None.

    The float counterpart of :func:`reversible_steady_state`: along the
    same tree, ``log pi_y = log pi_x + log q(x,y) - log q(y,x)`` on the
    float rates (``mc._floats``) at the tree's transition ``t`` from x to y
    and at ``t ^ 1``, then pi is exponentiated against its largest entry
    and normalised. It is returned only as the dense float law would be:
    up to ``_FLOAT_STATE_LIMIT`` states, and with the checks of
    :func:`_checked_float` at the dense solve's ``_FLOAT_TOL``; any other
    outcome, a rate outside the float range too, is None. It is the
    chain's law where the float balance test (:func:`detailed_balance_check`) passes on every edge.
    """
    if mc.num_states > _FLOAT_STATE_LIMIT:
        return None
    try:
        rates = mc._floats
    except SolverError:
        return None
    children, parents, t = _tree_steps(mc)  # log pi stays 0 at the root
    log_pi = [0.0] * mc.num_states
    for y, x, step in zip(children, parents, (np.log(rates[t]) - np.log(rates[t ^ 1])).tolist()):
        log_pi[y] = log_pi[x] + step
    pi = np.exp(np.array(log_pi) - max(log_pi))
    pi /= pi.sum()
    try:
        return _checked_float(mc, pi, rates, _FLOAT_TOL)
    except SolverError:
        return None


def _solve_sparse(mc: MasterChain) -> list[Fraction]:
    """Normalised solution of pi Q = 0 by fraction-free sparse elimination."""
    num, total = _sparse_pi(mc)
    return [Fraction(v, total) for v in num]


def _sparse_pi(mc: MasterChain) -> tuple[list[int], int]:
    """Numerators of the solution of pi Q = 0, and their sum.

    The fallback of :func:`_lifted_pi` when no prime of ``_PRIMES`` leaves
    the system invertible, and, through :func:`_solve_sparse`, the tests'
    oracle. :func:`_eliminate` reduces the system on integers.
    Back-substitution runs in reverse pivot order and keeps each pi as an
    integer numerator over one shared denominator, the lcm of the
    denominators solved so far; that denominator cancels on normalising.
    """
    num = [0] * mc.num_states
    num[0] = den = 1
    for c, pivot, row, b in reversed(_eliminate(mc)):
        acc = b * den - sum(val * num[col] for col, val in row.items())
        q = pivot * den  # pi_c = acc / q
        g = math.gcd(acc, q)
        top, bottom = acc // g, q // g
        if bottom < 0:
            top, bottom = -top, -bottom
        grow = bottom // math.gcd(den, bottom)
        if grow != 1:
            num = [v * grow for v in num]
            den *= grow
        num[c] = top * (den // bottom)
    return num, sum(num)


def _balance_rows(mc: MasterChain) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """Rows and right-hand sides of pi Q = 0 with pi_0 = 1, keyed by state 1..n-1.

    Unknowns are pi_1..pi_{n-1}; row y, the balance of state y, is a
    column -> integer dict with its diagonal first. The rates are read as
    integers over the spec's ``_den`` in transition order (``mc._tints``), which
    leaves the homogeneous system unchanged, and each row is made primitive.
    """
    n = mc.num_states
    rows: dict[int, dict[int, int]] = {y: {y: 0} for y in range(1, n)}
    rhs = dict.fromkeys(range(1, n), 0)
    src, dst = _transition_ends(mc)
    for x, y, q in zip(src.tolist(), dst.tolist(), mc._tints):
        if x == 0:
            rhs[y] -= q
            continue
        rows[x][x] -= q
        if y:
            rows[y][x] = q
    for y, row in rows.items():
        rhs[y] = _primitive(row, rhs[y])
    return rows, rhs


def _eliminate(mc: MasterChain) -> list[tuple[int, int, dict[int, int], int]]:
    """Integer sparse elimination of the system :func:`_balance_rows` loads.

    Used by :func:`_sparse_pi` only: the fallback of the lifted solve and
    the tests' oracle. Rows are column -> integer dicts with a
    column -> rows index. Each step pivots on the active
    column with the fewest nonzeros, in its row with the fewest nonzeros
    (Markowitz), which keeps fill low on the sparse state graphs; exact
    cancellations are dropped from the structure. A row with entry ``a``
    in the pivot column becomes ``(p/g) row - (a/g) prow`` for pivot
    ``p`` and ``g = gcd(p, a)``, right-hand side alike (fraction-free,
    as in Bareiss's method). Every row is kept primitive, divided by the
    gcd of its entries and right-hand side, so there is no gcd per
    operation yet the entries stay near the size of the solution's.

    Returns ``(column, pivot, rest of row, right-hand side)`` per step,
    in pivot order.
    """
    rows, rhs = _balance_rows(mc)
    cols: dict[int, set[int]] = {c: set() for c in rows}
    for y, row in rows.items():
        for c in row:
            cols[c].add(y)

    pivots = []
    while cols:
        c = min(cols, key=lambda col: len(cols[col]))
        candidates = cols.pop(c)
        if not candidates:
            raise SolverError("singular system in exact steady-state solve")
        r = min(candidates, key=lambda row: len(rows[row]))
        candidates.discard(r)
        prow = rows[r]
        pivot = prow.pop(c)
        for col in prow:
            cols[col].discard(r)
        for r2 in candidates:
            row2 = rows[r2]
            a = row2.pop(c)
            g = math.gcd(pivot, a)
            s, t = pivot // g, a // g
            if s != 1:
                for col in row2:
                    row2[col] *= s
                rhs[r2] *= s
            for col, val in prow.items():
                old = row2.get(col)
                if old is None:
                    row2[col] = -t * val
                    cols[col].add(r2)
                elif new := old - t * val:
                    row2[col] = new
                else:
                    del row2[col]
                    cols[col].discard(r2)
            if rhs[r]:
                rhs[r2] -= t * rhs[r]
            rhs[r2] = _primitive(row2, rhs[r2])
        pivots.append((c, pivot, prow, rhs[r]))
    return pivots


def _primitive(row: dict[int, int], b: int) -> int:
    """Divide ``row`` in place and ``b`` by their gcd; return the new ``b``."""
    content = math.gcd(b, *row.values())
    if content > 1:
        for col in row:
            row[col] //= content
        b //= content
    return b


def _checked_exact(mc: MasterChain, num: list[int], total: int) -> SteadyState:
    """Wrap pi = num / total after verifying pi Q = 0, sum one and positivity.

    The checks run on the integer numerators and rates; one ``Fraction``
    per state is built at the end.
    """
    balance = [0] * mc.num_states
    for (x, y), a, b in zip(mc.rp.graph.edges, *mc._ints):
        net = num[x] * a - num[y] * b  # flow x -> y less flow y -> x, times total * den
        balance[y] += net
        balance[x] -= net
    if any(balance):
        raise SolverError("exact steady state fails pi Q = 0")
    if sum(num) != total:
        raise SolverError("exact steady state does not sum to one")
    if min(num) <= 0:
        raise SolverError("exact steady state has a non-positive probability")
    return SteadyState(tuple(Fraction(v, total) for v in num), "exact", 0.0, 0.0)


@dataclass(frozen=True)
class BalanceViolation:
    x: str
    y: str
    flow_xy: object
    flow_yx: object


@dataclass(frozen=True)
class BalanceReport(_BuiltOnRead):
    """Detailed-balance verdict of a steady state.

    The violations are held as four columns, ``_columns``: x labels, y
    labels, flows x -> y and flows y -> x. :func:`detailed_balance_check`
    makes a report from its columns, and ``violations``, one
    :class:`BalanceViolation` per row, is built from them on first read
    (:class:`~redpow.graph._BuiltOnRead`); a report made by the
    constructor builds its columns from ``violations`` on first read.
    :meth:`as_dict` writes each row from the columns, every flow by one
    rule: :func:`_rational_str` in an exact report, ``repr`` in a float one.
    """

    balanced: bool
    mode: str
    violations: tuple[BalanceViolation, ...]

    def _make_violations(self) -> tuple[BalanceViolation, ...]:
        return tuple(map(BalanceViolation, *self._columns))

    def _make__columns(self) -> tuple[tuple, tuple, tuple, tuple]:
        return _transposed((v.x, v.y, v.flow_xy, v.flow_yx) for v in self.violations)

    def as_dict(self) -> dict:
        text = _rational_str if self.mode == "exact" else repr
        xs, ys, xy, yx = self._columns
        return {
            "balanced": self.balanced,
            "mode": self.mode,
            "violations": [
                {"x": x, "y": y, "flow_xy": a, "flow_yx": b}
                for x, y, a, b in zip(xs, ys, map(text, xy), map(text, yx))
            ],
        }


def _transposed(rows: Iterable[tuple]) -> tuple[tuple, tuple, tuple, tuple]:
    """The four columns of ``rows`` of four."""
    return tuple(zip(*rows)) or ((), (), (), ())


def detailed_balance_check(
    ss: SteadyState, mc: MasterChain, rel_tol: float = 1e-9
) -> BalanceReport:
    """Test pi_x q(x,y) = pi_y q(y,x) on every transition.

    Exact steady states compare exactly, on integers: pi over one common
    denominator and the rates over the spec's (``N_x a == N_y b``); a
    violation's flows are built as ``Fraction``s. Their entries must be
    ints or Fractions (a ModelError otherwise). Float ones use a relative
    tolerance on the larger flow, with the chain's float rates (a
    SolverError if one lies outside the float range), on all edges at
    once. Either way the report holds its violations as columns
    (:class:`BalanceReport`) and builds no :class:`BalanceViolation`
    until they are read.
    """
    if len(ss.probabilities) != mc.num_states:
        raise ModelError("steady state does not match the chain's state count")
    labels = mc.rp.graph.labels
    if ss.mode == "exact":
        pi = ss.probabilities
        for x, p in enumerate(pi):
            if not isinstance(p, (int, Fraction)):
                raise ModelError(
                    f"exact steady state entry {x} is a {type(p).__name__}, "
                    "not an int or Fraction"
                )
        common = math.lcm(*(p.denominator for p in pi))
        num = [p.numerator * (common // p.denominator) for p in pi]
        rows = []
        for e, ((x, y), a, b) in enumerate(zip(mc.rp.graph.edges, *mc._ints)):
            if num[x] * a != num[y] * b:
                rows.append((labels[x], labels[y], pi[x] * mc.forward[e], pi[y] * mc.backward[e]))
        columns = _transposed(rows)
    else:
        # the float test elementwise over all edges, in the same float64 operations
        rates = mc._floats
        pi = np.array(ss.probabilities, dtype=np.float64)
        flow = pi[_transition_ends(mc)[0]] * rates  # forward at even, backward at odd
        lhs, rhs = flow[0::2], flow[1::2]
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        bad = np.flatnonzero(~(np.abs(lhs - rhs) <= rel_tol * scale))
        xs, ys = (tuple(map(labels.__getitem__, ends)) for ends in mc.rp.graph.pairs[bad].T.tolist())
        columns = xs, ys, tuple(lhs[bad].tolist()), tuple(rhs[bad].tolist())
    fields = dict(balanced=not columns[0], mode=ss.mode, _columns=columns)
    return _built_on_read(BalanceReport, fields)


# --- model serialization ---


def _vertex(graph: Graph, label: str, where: str) -> int:
    """``graph.index_of(label)``, with an unknown label a ``ModelError`` naming ``where``."""
    try:
        return graph.index_of(label)
    except GraphError as exc:
        raise ModelError(f"{where}: {exc}") from None


def model_from_dict(data: object) -> tuple[Graph, int, RateSpec]:
    if not isinstance(data, dict):
        raise ModelError("model document must be a JSON object")
    for key in ("graph", "k", "rates"):
        if key not in data:
            raise ModelError(f"model document is missing key {key!r}")
    graph = graph_from_dict(data["graph"])
    k = data["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ModelError(f"'k' must be a positive integer, got {_shown(k)}")
    rates_doc = data["rates"]
    if not isinstance(rates_doc, dict):
        raise ModelError("'rates' must be an object keyed by 'src->dst'")

    base: dict[tuple[int, int], Fraction] = {}
    coupling: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    v = graph.num_vertices
    labels = set(graph.labels)
    parsed: dict[str, Fraction] = {}

    def rational(value: object, where: Callable[[], str]) -> Fraction:
        """``parse_rational(value, where())``, each distinct string parsed once per document."""
        if type(value) is not str:
            return parse_rational(value, where())
        q = parsed.get(value)
        if q is None:
            q = parsed[value] = parse_rational(value, where())
        return q

    for key, entry in rates_doc.items():
        shown = _shown(key)
        if not isinstance(key, str) or "->" not in key:
            raise ModelError(f"rate key {shown} must look like 'src->dst'")
        # labels may hold '->' too: take the one split with a label on each side
        splits = [(key[:i], key[i + 2 :]) for i in range(len(key)) if key.startswith("->", i)]
        ends = [(a, b) for a, b in splits if a in labels and b in labels] or splits[:1]
        if len(ends) > 1:
            raise ModelError(f"rate key {shown} is ambiguous")
        pair = tuple(_vertex(graph, end, f"rate key {shown}") for end in ends[0])
        if not graph.has_edge(*pair):
            raise ModelError(f"rate key {shown} does not name an edge")
        if not isinstance(entry, dict) or "base" not in entry:
            raise ModelError(f"rate entry {shown} must be an object with 'base'")
        base[pair] = rational(entry["base"], lambda: f"rates[{shown}].base")
        if "coupling" in entry:  # RateSpec keeps only the vectors with a nonzero entry
            coupling_doc = entry["coupling"]
            if not isinstance(coupling_doc, dict):
                raise ModelError(f"rates[{shown}].coupling must be an object")
            coeffs = [Fraction(0)] * v
            for lab, val in coupling_doc.items():
                coeffs[_vertex(graph, lab, f"rates[{shown}].coupling")] = rational(
                    val, lambda: f"rates[{shown}].coupling[{_shown(lab)}]"
                )
            coupling[pair] = tuple(coeffs)
        for extra in entry:
            if extra not in ("base", "coupling"):
                raise ModelError(f"rates[{shown}] has unknown field {_shown(extra)}")

    return graph, k, RateSpec(graph, base, coupling)


def model_to_dict(graph: Graph, k: int, spec: RateSpec) -> dict:
    rates = {}
    for i, j in spec.directed_pairs():
        key = f"{graph.labels[i]}->{graph.labels[j]}"
        entry: dict = {"base": _rational_str(spec.base_rate(i, j))}
        coeffs = spec.coupling_vector(i, j)
        if coeffs is not spec._zero:
            entry["coupling"] = {graph.labels[l]: _rational_str(c) for l, c in enumerate(coeffs) if c}
        rates[key] = entry
    return {"graph": graph_to_dict(graph), "k": k, "rates": rates}


def load_model(path: str | Path) -> tuple[Graph, int, RateSpec]:
    return model_from_dict(_read_json(path, "model", ModelError))
