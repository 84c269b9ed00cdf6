"""Membership-search benchmark: wall time and node throughput of the kernel.

Runs search instances straight through _search_py.run_search, below the
dispatch layer, each on a fresh memo. Instances mix the shipped model
monoids (realistic sparse systems with mixed-sign generators) with
synthetic stress cases.

Usage: python3 benchmarks/bench_membership.py [--repeat N] [--random N]
"""

from __future__ import annotations

import argparse
import random
import time

from sftkit import _search_py
from sftkit.models import catalog_models

BIG = 1 << 60


def instance_from_monoid(S, target_vec):
    pack = S._pack
    tint = tuple(int(v * pack["s0"]) for v in target_vec)
    lam = pack["lam"]
    wtarget = sum(lam[k] * tint[k] for k in range(S.dim))
    return (pack["gens_int"], pack["weights_int"], pack["tables"],
            tint, wtarget)


def model_instances():
    """Search instances taken from the bundled monoids, deep enough to make
    the interpreter loop visible."""
    out = []
    models = catalog_models()

    S = models["fraction"].monoid
    g = S.gens
    # y^k / (x_1 ... x_j) style targets, members and near-members
    for k, j in [(10, 2), (12, 3), (16, 4)]:
        t = g[0].scale(0)
        for i in range(j):
            t = t + g[i].scale(k // j)
        out.append(("fraction", instance_from_monoid(S, t.dense())))
        bent = list(t.dense())
        bent[0] += 1  # one extra y the generators cannot supply
        out.append(("fraction", instance_from_monoid(S, tuple(bent))))

    S = models["char2_xy"].monoid
    g = S.gens
    for k in (8, 10, 12):
        t = g[0].scale(k)
        for i in range(1, 6):
            t = t + g[i].scale(k // 2)
        out.append(("char2_xy", instance_from_monoid(S, t.dense())))
    return out


def synthetic_instances(rng: random.Random, n: int):
    """Random mixed-sign systems in dimensions 2..4, like the unit-test
    generator but with larger targets."""
    out = []
    while len(out) < n:
        dim = rng.randint(2, 4)
        ngen = rng.randint(dim, dim + 3)
        gens = []
        for _ in range(ngen):
            v = tuple(rng.randint(-2, 4) for _ in range(dim))
            if sum(v) > 0:
                gens.append(v)
        if len(gens) < 2:
            continue
        lam = tuple(1 for _ in range(dim))
        iw = [sum(v) for v in gens]
        order = sorted(range(len(gens)), key=lambda j: (-iw[j], j))
        gens = tuple(gens[j] for j in order)
        weights = tuple(iw[j] for j in order)
        reps = [rng.randint(0, 9) for _ in gens]
        target = tuple(sum(g[k] * c for g, c in zip(gens, reps))
                       for k in range(dim))
        if sum(target) <= 0:
            continue
        tables = _search_py.suffix_tables(gens, weights, dim)
        out.append(("synthetic",
                    (gens, weights, tables, target, sum(target))))
    return out


def run_one(inst):
    gens, weights, tables, tint, wtarget = inst
    return _search_py.run_search(gens, weights, *tables, tint, wtarget, BIG,
                                 {})


def bench(instances, repeat: int):
    """(best wall time over repeat runs, total nodes of one run)."""
    best = None
    nodes = 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        nodes = 0
        for _, inst in instances:
            nodes += run_one(inst)[2]
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, nodes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions, best-of (default 3)")
    ap.add_argument("--random", type=int, default=250,
                    help="number of synthetic instances (default 250)")
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args()

    groups = [("model monoids", model_instances()),
              ("synthetic", synthetic_instances(random.Random(args.seed),
                                                args.random))]
    for gname, instances in groups:
        dt, nodes = bench(instances, args.repeat)
        rate = nodes / dt if dt else float("inf")
        print(f"{gname}: {len(instances)} searches, best of {args.repeat}:"
              f" {dt * 1000:8.1f} ms  {nodes:9d} nodes"
              f"  {rate / 1e6:6.2f} Mnodes/s")


if __name__ == "__main__":
    main()
