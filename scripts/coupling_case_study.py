#!/usr/bin/env python3
"""Case study: three coupled automata on a 5-state ring.

Each automaton hops around the ring a-b-c-d-e with forward rate mu
(except a->b) and backward rate nu; the a->b rate is functional,
lam plus occupancy couplings (alpha..eps). An isolated automaton is
reversible iff lam * mu^4 = nu^5. This script sweeps coupling choices
for the three-token master chain and reports, for each, the verdicts
of the cycle criterion and of detailed balance at the exact steady
state, plus which structural cycles fail.

Run: python scripts/coupling_case_study.py [--k K]
"""

from __future__ import annotations

import argparse
from collections import Counter
from fractions import Fraction

from redpow import (
    Graph,
    MasterChain,
    RateSpec,
    build_reduced_power,
    decomposition_basis,
    detailed_balance_check,
    greedy_mcb,
    kolmogorov_check,
    steady_state,
)

F = Fraction


def ring_spec(g: Graph, lam, mu, nu, couplings) -> RateSpec:
    base = {}
    for i in range(5):
        j = (i + 1) % 5
        base[(i, j)] = F(mu)
        base[(j, i)] = F(nu)
    base[(0, 1)] = F(lam)
    return RateSpec(g, base, {(0, 1): tuple(F(c) for c in couplings)})


def run_case(g, basis, name, lam, couplings):
    mc = MasterChain(basis.host, ring_spec(g, lam, 1, 2, couplings))
    kol = kolmogorov_check(mc, basis)
    bal = detailed_balance_check(steady_state(mc, mode="exact"), mc)
    tags = Counter(c.tag for c in kol.violations())
    breakdown = ", ".join(f"{t}:{n}" for t, n in sorted(tags.items())) or "-"
    agree = "yes" if kol.passed == bal.balanced else "NO"
    verdict = "reversible" if kol.passed else "not reversible"
    print(
        f"{name:<28} lam={str(lam):<6} cycle={'pass' if kol.passed else 'fail':<4} "
        f"balance={'pass' if bal.balanced else 'fail':<4} agree={agree:<3} "
        f"violations=[{breakdown}]  -> {verdict}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3, help="number of automata")
    args = parser.parse_args()
    k = args.k

    g = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    # the one power of the run: every case's chain is built on the basis's host
    basis = decomposition_basis(g, k) if k >= 2 else greedy_mcb(build_reduced_power(g, 1))
    print(
        f"5-state ring, k={k}: {basis.host.num_states} states, "
        f"cycle basis of {len(basis.elements)} elements "
        f"(certified minimum: {basis.certified_minimum})"
    )
    print(f"single-automaton constraint: lam * 1^4 = 2^5, so lam = 32\n")

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
    for name, lam, coups in cases:
        run_case(g, basis, name, F(lam), coups)

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
