"""Minimal-index, pair-witness and rank-1 membership benchmark on catalog
ideals.

Times ideals.least_power_inside, the decision behind the minimal-index,
divergence, modified-radical and anyradical claims, on the (I, B, cap) of
the catalog's minimal-index and divergence claims: char2_xy(v=5), the
fraction monoid at v=4, dyadic(nmax=5) and rational_valuation(5). Then
sftcheck.find_vsft_witness at k = 2 (I = xV, B = x, the catalog's
xv-witness-none) on rational_valuation(5) and (6), and a batch of rank-1
ideal membership queries B.contains((a,)) for a = 0..A-1 on one context.
Prints the result, the multisets and search nodes charged (deterministic)
and the best wall time over the repeats, each on a fresh SearchContext (a
model's least rank-1 table is built once and shared, so only the first
repeat pays for building it; every repeat is charged its nodes).

Usage: python3 benchmarks/bench_powers.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from sftkit.budget import Budgets, SearchContext
from sftkit.ideals import least_power_inside
from sftkit.models import build_model
from sftkit.sftcheck import find_vsft_witness

# (family, parameters, I, B, cap)
CASES = (
    ("char2_xy", {"v": 5, "D": 10}, "I", "B", 9),
    ("fraction_monoid", {"v": 4, "M": 4}, "frac", "y", 9),
    ("dyadic", {"nmax": 5}, "max", "two", 9),
    ("rational_valuation", {"denBound": 5}, "xV", "x", 3),
)

# (family, parameters, I, B) for find_vsft_witness with kmin = kmax = 2
WITNESS_CASES = (
    ("rational_valuation", {"denBound": 5}, "xV", "x"),
    ("rational_valuation", {"denBound": 6}, "xV", "x"),
)

# (family, parameters, ideal, A): B.contains((a,)) for a < A on one context
MEMBER_CASES = (
    ("rational_valuation", {"denBound": 6}, "x", 4000),
    ("rational_valuation", {"denBound": 6}, "xV", 4000),
    ("dyadic", {"nmax": 8}, "max", 4000),
)


def best_of(repeat, run):
    """(last result, last context, best wall time) of run(ctx) over
    `repeat` fresh contexts."""
    best = None
    for _ in range(repeat):
        ctx = SearchContext(Budgets())
        t0 = time.perf_counter()
        out = run(ctx)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return out, ctx, best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions, best-of (default 5)")
    args = ap.parse_args()
    total = 0.0

    def row(label, result, multisets, nodes, best):
        nonlocal total
        total += best
        print(f"{label:42s} {result:12s} multisets={multisets:7d}  "
              f"nodes={nodes:6d}  {best * 1e3:8.2f} ms")

    for family, params, i_name, b_name, cap in CASES:
        m = build_model(family, **params)
        I, B = m.ideal(i_name), m.ideal(b_name)
        n, ctx, best = best_of(
            args.repeat, lambda ctx: least_power_inside(I, B, cap, ctx))
        row(m.name, f"n={n}", ctx.multisets_used, ctx.nodes_used, best)
    for family, params, i_name, b_name in WITNESS_CASES:
        m = build_model(family, **params)
        I, B = m.ideal(i_name), m.ideal(b_name)
        rep, _, best = best_of(args.repeat, lambda ctx: find_vsft_witness(
            m, I, B, kmax=2, kmin=2, ctx=ctx))
        used = rep.budgets_used
        row(f"{m.name} k=2", rep.verdict.value[:12], used["multisets"],
            used["search_nodes"], best)
    for family, params, name, A in MEMBER_CASES:
        m = build_model(family, **params)
        B = m.ideal(name)
        hits, ctx, best = best_of(args.repeat, lambda ctx: sum(
            B.contains((a,), ctx) for a in range(A)))
        row(f"{m.name} {name}∋a<{A}", f"in={hits}", ctx.multisets_used,
            ctx.nodes_used, best)
    print(f"{'total':42s} {total * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
