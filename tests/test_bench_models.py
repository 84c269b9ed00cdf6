"""Smoke tests: every benchmark script runs end to end, quickly, so a
deleted or renamed name it uses breaks the test suite, not the next
benchmark run."""

from __future__ import annotations

import runpy
import sys
import time
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH = BENCHMARKS / "bench_models.py"


def run_script(monkeypatch, capsys, path, *args) -> list[str]:
    """The script's printed lines, after checking it ran in under a second."""
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    t0 = time.perf_counter()
    runpy.run_path(str(path), run_name="__main__")
    assert time.perf_counter() - t0 < 1.0
    return capsys.readouterr().out.splitlines()


def test_bench_models_single_repeat(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, BENCH, "--repeat", "1")
    # six families, the catalog, three rational_valuation levels
    assert len(lines) == 10
    assert lines[0].startswith("frobenius_quotient ")
    assert lines[-1].startswith("rational_valuation(denBound=7) ")
    assert all(line.endswith(" ms") for line in lines)


@pytest.mark.parametrize("script,args,count,unit", [
    ("bench_membership.py", ("--repeat", "1", "--random", "20"), 2,
     " Mnodes/s"),
    ("bench_powers.py", ("--repeat", "1"), 15, " ms"),
    ("bench_elements.py", ("--repeat", "1"), 15, " us"),
])
def test_bench_script_single_repeat(monkeypatch, capsys, script, args, count,
                                    unit):
    lines = run_script(monkeypatch, capsys, BENCHMARKS / script, *args)
    assert len(lines) == count
    assert all(unit in line for line in lines)
