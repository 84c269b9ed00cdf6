"""Smoke test: the model-layer benchmark runs end to end, quickly."""

from __future__ import annotations

import runpy
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_models.py"


def test_bench_models_single_repeat(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(BENCH), "--repeat", "1"])
    t0 = time.perf_counter()
    runpy.run_path(str(BENCH), run_name="__main__")
    assert time.perf_counter() - t0 < 1.0
    lines = capsys.readouterr().out.splitlines()
    # six families, the catalog, three rational_valuation levels
    assert len(lines) == 10
    assert lines[0].startswith("frobenius_quotient ")
    assert lines[-1].startswith("rational_valuation(denBound=7) ")
    assert all(line.endswith(" ms") for line in lines)
