"""Model-layer benchmark: milliseconds per model build.

Times build_model and record_to_model (rebuild plus field-by-field compare,
what reading a claims file does per model record) for each family at its
default parameters, catalog_models(), and rational_valuation at denBound 5,
6 and 7 (120, 720 and 5,040 generators).

Usage: python3 benchmarks/bench_models.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from sftkit.files import model_to_record, record_to_model
from sftkit.models import FAMILIES, build_model, catalog_models, rational_valuation


def best_ms(fn, repeat: int) -> float:
    """Best over repeat runs of fn(), in milliseconds."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions, best-of (default 5)")
    args = ap.parse_args()

    for family in FAMILIES:
        rec = model_to_record(build_model(family))
        built = best_ms(lambda: build_model(family), args.repeat)
        read = best_ms(lambda: record_to_model(rec), args.repeat)
        print(f"{family:20s} build_model {built:8.2f} ms"
              f"  record_to_model {read:8.2f} ms")

    print(f"catalog_models() {best_ms(catalog_models, args.repeat):8.2f} ms")

    for d in (5, 6, 7):
        ms = best_ms(lambda: rational_valuation(d), args.repeat)
        print(f"rational_valuation(denBound={d}) {ms:8.2f} ms")


if __name__ == "__main__":
    main()
