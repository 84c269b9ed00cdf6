"""Minimal-index benchmark: the least n with I^n ⊆ B on catalog ideals.

Times ideals.least_power_inside, the decision behind the minimal-index,
divergence, modified-radical and anyradical claims, on the (I, B, cap) of
the catalog's minimal-index and divergence claims: char2_xy(v=5), the
fraction monoid at v=4, dyadic(nmax=5) and rational_valuation(5). Prints
the index, the multisets and search nodes charged (deterministic) and the
best wall time over the repeats, each on a fresh SearchContext.

Usage: python3 benchmarks/bench_powers.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from sftkit.budget import Budgets, SearchContext
from sftkit.ideals import least_power_inside
from sftkit.models import build_model

# (family, parameters, I, B, cap)
CASES = (
    ("char2_xy", {"v": 5, "D": 10}, "I", "B", 9),
    ("fraction_monoid", {"v": 4, "M": 4}, "frac", "y", 9),
    ("dyadic", {"nmax": 5}, "max", "two", 9),
    ("rational_valuation", {"denBound": 5}, "xV", "x", 3),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions, best-of (default 5)")
    args = ap.parse_args()
    total = 0.0
    for family, params, i_name, b_name, cap in CASES:
        m = build_model(family, **params)
        I, B = m.ideal(i_name), m.ideal(b_name)
        best = None
        for _ in range(args.repeat):
            ctx = SearchContext(Budgets())
            t0 = time.perf_counter()
            n = least_power_inside(I, B, cap, ctx)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        total += best
        print(f"{m.name:31s} n={n}  multisets={ctx.multisets_used:7d}  "
              f"nodes={ctx.nodes_used:6d}  {best * 1e3:8.2f} ms")
    print(f"{'total':31s} {total * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
