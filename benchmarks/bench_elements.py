"""Element-arithmetic benchmark: microseconds per product and per sample.

Times element_multiply in each coefficient regime (prime characteristic on
frobenius_p3, dyadic, the integer model Z + 2xZ[x]) at 1x1, 3x3 and 6x6
terms, the n-fold generator products of int_ideal_full(10) for n = 2..4,
and random_element in each regime, on the catalog models.

Usage: python3 benchmarks/bench_elements.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from sftkit.budget import Budgets, SearchContext
from sftkit.elements import (DyadicRing, element_multiply, int_ideal_full,
                             make_element, random_element)
from sftkit.models import catalog_models

# regime -> (catalog model, ideal whose generators make the operands)
REGIMES = {
    "char p": ("frobenius_p3", "max"),
    "dyadic": ("dyadic", "max"),
    "integer": ("int_plus_2x", "full"),
}
SIZES = (1, 3, 6)
SAMPLES = 200


def operand(model, ideal: str, k: int, shift: int):
    """A k-term element: ideal generators and their pairwise sums (x^j for
    the integer model; one per exponent class mod 1 for the dyadic ring),
    unit coefficients, t-degrees 0 and 1."""
    ring = model.ring
    if model.is_integer_model:
        terms = [((j + shift, j % 2), 2 * (j + 1)) for j in range(k)]
    else:
        gens = model.ideal(ideal).gens
        pool = sorted(set(gens) | {a + b for a in gens for b in gens},
                      key=lambda e: (sum(e.dense()), e.dense()))
        if isinstance(ring, DyadicRing):
            # a dyadic element has one term per exponent class mod 1, so
            # keep the least point of each class
            classes = {}
            for e in pool:
                classes.setdefault(e.dense()[0] % 1, e)
            pool = list(classes.values())
        unit = 1 if model.char.value == 2 else 1 + shift % 2
        terms = [((e, j % 2), unit) for j, e in enumerate(pool[shift:shift + k])]
    f = make_element(ring, terms)
    if len(f.stored) != k:
        raise AssertionError(f"{model.name}: operand has {len(f.stored)} terms, not {k}")
    return f


def best_us(fn, calls: int, repeat: int) -> float:
    """Best over repeat runs of the mean microseconds per call fn(i),
    i = 0..calls-1."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best / calls * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions, best-of (default 3)")
    args = ap.parse_args()
    models = catalog_models()

    for regime, (name, ideal) in REGIMES.items():
        m = models[name]
        for k in SIZES:
            f, g = operand(m, ideal, k, 0), operand(m, ideal, k, 1)
            ctx = SearchContext(Budgets())
            us = best_us(lambda i: element_multiply(f, g, ctx), 3000 // k ** 2,
                         args.repeat)
            print(f"element_multiply {regime:8s} {k}x{k}: {us:8.2f} us")

    I = int_ideal_full(10)
    for n in (2, 3, 4):
        count = sum(1 for _ in I.products(n, SearchContext(Budgets())))
        us = best_us(lambda i: sum(1 for _ in I.products(
            n, SearchContext(Budgets()))), 5, args.repeat)
        print(f"IntIdeal.products({n}) int_ideal_full(10): {count:5d} products"
              f" {us:9.1f} us  {us / count:6.2f} us/product")

    for regime, (name, ideal) in REGIMES.items():
        m = models[name]
        I = m.ideal(ideal)
        us = best_us(lambda seed: random_element(
            m.ring, I, 2, seed, SearchContext(Budgets())), SAMPLES,
            args.repeat)
        print(f"random_element   {regime:8s} degree 2: {us:8.2f} us")


if __name__ == "__main__":
    main()
