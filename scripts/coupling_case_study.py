#!/usr/bin/env python3
"""Case study: three coupled automata on a 5-state ring.

Each automaton hops around the ring a-b-c-d-e with forward rate mu
(except a->b) and backward rate nu; the a->b rate is functional,
lam plus occupancy couplings (alpha..eps). An isolated automaton is
reversible iff lam * mu^4 = nu^5. This script sweeps coupling choices
for the three-token master chain and reports, for each, the verdicts
of the cycle criterion and of detailed balance at the exact steady
state, plus which structural cycles fail: one check_reversibility call each.

Run: python scripts/coupling_case_study.py [--k K]
"""

from __future__ import annotations

import argparse
from collections import Counter
from fractions import Fraction

from redpow import Graph, RateSpec, RedpowError
from redpow.cli import check_reversibility

F = Fraction


def ring_spec(g: Graph, lam, mu, nu, couplings) -> RateSpec:
    base = {}
    for i in range(5):
        j = (i + 1) % 5
        base[(i, j)] = F(mu)
        base[(j, i)] = F(nu)
    base[(0, 1)] = F(lam)
    return RateSpec(g, base, {(0, 1): tuple(F(c) for c in couplings)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3, help="number of automata")
    k = parser.parse_args().k

    g = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    eff = k - 1  # equal couplings of c shift the constant by c * (k - 1)
    cases = [
        ("uncoupled, tuned", 32, (0, 0, 0, 0, 0)),
        ("uncoupled, detuned", 33, (0, 0, 0, 0, 0)),
        ("equal couplings, base 32", 32, (1, 1, 1, 1, 1)),
        (f"equal couplings, base {32 - eff}", 32 - eff, (1, 1, 1, 1, 1)),
        ("one coupling doubled", 32, (1, 1, 2, 1, 1)),
        ("alternating couplings", 32, (2, 1, 2, 1, 2)),
        ("single coupling only", 32, (0, 3, 0, 0, 0)),
    ]
    try:
        verdicts = [
            check_reversibility(g, k, ring_spec(g, lam, 1, 2, coups), exact=True)
            for _, lam, coups in cases
        ]
    except RedpowError as exc:  # k below 1, or a power over the state budget
        raise SystemExit(f"error: {exc}") from None

    basis = verdicts[0].basis
    print(
        f"5-state ring, k={k}: {basis.host.num_states} states, "
        f"cycle basis of {len(basis.elements)} elements "
        f"(certified minimum: {basis.certified_minimum})"
    )
    print(f"single-automaton constraint: lam * 1^4 = 2^5, so lam = 32\n")
    for (name, lam, _), verdict in zip(cases, verdicts):
        kol, bal = verdict.kolmogorov, verdict.balance
        tags = Counter(c.tag for c in kol.violations())
        breakdown = ", ".join(f"{t}:{n}" for t, n in sorted(tags.items())) or "-"
        agree = "yes" if kol.passed == bal.balanced else "NO"
        print(
            f"{name:<28} lam={str(lam):<6} cycle={'pass' if kol.passed else 'fail':<4} "
            f"balance={'pass' if bal.balanced else 'fail':<4} agree={agree:<3} "
            f"violations=[{breakdown}]  -> {'reversible' if kol.passed else 'not reversible'}"
        )

    print(
        "\nReading: unequal couplings on a->b break exactly the 4-cycles that "
        "swap an a->b hop with another hop (all violations list a square tag), "
        "and no retuning of lam can fix those. Equal couplings keep every "
        "square intact because the functional rate is then constant; the only "
        "remaining obstruction is the embedded ring cycle, removed by "
        "retuning lam so the effective constant meets the ring constraint."
    )


if __name__ == "__main__":
    main()
