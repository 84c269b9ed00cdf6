"""Acceptance gate.

Seven end-to-end checks, one per criterion the package promises. Each test
prints a single PASS/FAIL line on the real stderr so the verdicts survive
pytest's capture, and every expected value is either recomputed here by an
independent method (trial-division factorization, big-integer division,
direct Fraction arithmetic) or frozen from a hand-checked run.
"""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from sftkit.arith import check_ala, check_floor_inequality, legendre
from sftkit.budget import SearchContext
from sftkit.elements import element_power, monomial_element, random_element
from sftkit.exponents import ExponentVector
from sftkit.files import drop_timing, dumps_record, report_record
from sftkit.models import builtin_catalog, catalog_claims, catalog_models, \
    rational_valuation
from sftkit.sftcheck import (
    Verdict,
    build_sft_data,
    certify_sft_all_elements,
    check_extension_vsft,
    check_power_data,
    check_radical_equal,
    check_sft_extension_exponent,
    divergence_table,
    find_vsft_witness,
    strong_convergence_check,
    valuation_non_sft_scan,
    verify_sft_generators,
    verify_vsft,
)
from sftkit.suite import run_claim, run_suite

MODELS = catalog_models()


def _claim(cid: str):
    for c in catalog_claims():
        if c.id == cid:
            return c
    raise KeyError(cid)


@pytest.fixture
def announce(capfd):
    """Verdict emitter that survives pytest's fd-level capture."""
    def emit(name: str, ok: bool, elapsed: float, bound=None) -> None:
        tag = "PASS" if ok else "FAIL"
        timing = f"{elapsed:.2f}s" + (f", bound {bound:.0f}s" if bound else "")
        with capfd.disabled():
            print(f"[acceptance] {name}: {tag} ({timing})",
                  file=sys.__stderr__, flush=True)
    return emit


def test_1_legendre_against_factorization_oracle(announce):
    t0 = time.perf_counter()
    problems = []
    for p in (2, 3, 5, 7, 11):
        acc = 0  # running v_p(n!) from trial division of each factor
        for n in range(1, 2001):
            k = n
            while k % p == 0:
                acc += 1
                k //= p
            if legendre(n, p) != acc:
                problems.append(f"p={p} n={n}")
    f = math.factorial(300)  # one direct big-integer cross-check
    v = 0
    while f % 2 == 0:
        v += 1
        f //= 2
    if legendre(300, 2) != v:
        problems.append("factorial big-int check at n=300")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    announce("1 legendre-suite", ok, elapsed, 5.0)
    assert ok, problems[:5]


def _small_nonincreasing(maxpart: int, maxlen: int, cap: int):
    def rec(prefix, hi, room):
        if prefix:
            yield tuple(prefix)
        if len(prefix) == maxlen:
            return
        for a in range(1, min(hi, room) + 1):
            prefix.append(a)
            yield from rec(prefix, a, room - a)
            prefix.pop()
    yield from rec([], maxpart, cap)


def _random_admissible(rng: random.Random):
    while True:
        dN = rng.choice((1, 1, 1, 2, 3, 4))
        N = Fraction(rng.randint(dN + 1, 30 * dN), dN)
        dM = rng.choice((1, 1, 2, 4))
        M = Fraction(rng.randint(dM, 29 * dM), dM)  # M >= 1 required
        if not N > M:
            continue
        da = dM * rng.choice((1, 2))  # keeps floor(M*da) exact and >= 1
        top = (M * da).numerator // (M * da).denominator
        if top < 1:
            continue
        parts = [Fraction(rng.randint(1, top), da)]
        budget = N * M - parts[0]
        while len(parts) < 8 and rng.random() < 0.7:
            hi = min(parts[-1], budget)
            hn = (hi * da).numerator // (hi * da).denominator
            if hn < 1:
                break
            nxt = Fraction(rng.randint(1, hn), da)
            parts.append(nxt)
            budget -= nxt
        return N, M, parts


def test_2_floor_inequality_never_violated(announce):
    t0 = time.perf_counter()
    problems = []
    checked = 0
    # exhaustive small-integer region
    for N in range(2, 7):
        for M in range(1, N):
            for parts in _small_nonincreasing(M, 3, N * M):
                for p in (2, 3):
                    res = check_floor_inequality(N, M, list(parts), p)
                    checked += 1
                    if not res.holds:
                        problems.append(f"N={N} M={M} a={parts} p={p}")
    # randomized mixed integer/fractional tuples
    rng = random.Random(91125)
    for _ in range(10_000):
        N, M, parts = _random_admissible(rng)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        res = check_floor_inequality(N, M, parts, p)
        checked += 1
        if not res.holds:
            problems.append(f"N={N} M={M} a={parts} p={p}")
    elapsed = time.perf_counter() - t0
    ok = not problems and checked > 10_000 and elapsed < 10.0
    announce("2 floor-inequality", ok, elapsed, 10.0)
    assert ok, problems[:5]


def _partitions(total: int, maxpart: int):
    # nonincreasing representatives; reordering never changes the coefficient
    def rec(remaining, hi, prefix):
        if remaining == 0:
            yield list(prefix)
            return
        for a in range(min(hi, remaining), 0, -1):
            prefix.append(a)
            yield from rec(remaining - a, a, prefix)
            prefix.pop()
    yield from rec(total, maxpart, [])


def test_3_factorial_divides_multinomial_exhaustively(announce):
    t0 = time.perf_counter()
    problems = []
    checked = 0
    for N in range(2, 7):
        fact = math.factorial(N)
        for M in range(1, N):
            for ks in _partitions(N * M, M):
                res = check_ala(N, M, ks)
                coeff = math.factorial(N * M)
                for k in ks:
                    coeff //= math.factorial(k)
                v2 = 0
                c = coeff
                while c % 2 == 0:
                    v2 += 1
                    c //= 2
                row2 = next(r for r in res.per_prime if r[0] == 2)
                good = (res.divides
                        and res.multinomial == coeff
                        and coeff % fact == 0          # independent division
                        and res.quotient == coeff // fact
                        and row2[2] == v2)             # independent valuation
                checked += 1
                if not good:
                    problems.append(f"N={N} M={M} ks={ks}")
    elapsed = time.perf_counter() - t0
    ok = not problems and checked > 500 and elapsed < 30.0
    announce("3 multinomial-divisibility", ok, elapsed, 30.0)
    assert ok, problems[:5]


def test_4_example_regressions(announce):
    t0 = time.perf_counter()
    problems = []

    def expect(cond, label):
        if not cond:
            problems.append(label)

    ones5 = ExponentVector.from_dense((1, 1, 1, 1, 1))
    for p in (2, 3, 5):
        m = MODELS[f"frobenius_p{p}"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), p)
        rep = certify_sft_all_elements(m, data, SearchContext())
        expect(rep.verdict is Verdict.VERIFIED and rep.exact
               and rep.certificate.kind == "FrobeniusCharP", f"fr{p} sft")
        wit = find_vsft_witness(m, m.ideal("max"), m.ideal("zero"), kmax=5,
                                ctx=SearchContext())
        expect(wit.verdict is Verdict.REFUTED_WITH_WITNESS
               and wit.witness["exponent"] == ones5
               and sorted(wit.witness["factors"]) == [0, 1, 2, 3, 4],
               f"fr{p} witness x1..x5")

    m = MODELS["fraction"]
    data = build_sft_data(m, m.ideal("frac"), m.ideal("y"), 2)
    expect(verify_sft_generators(m, data, SearchContext()).verdict
           is Verdict.VERIFIED, "fraction sft-on-generators")
    rep = verify_vsft(m, data, SearchContext())
    expect(rep.verdict is Verdict.REFUTED_WITH_WITNESS
           and rep.witness["exponent"]
           == ExponentVector.from_dense((2, -1, -1, 0, 0, 0))
           and sorted(rep.witness["factors"]) == [0, 1],
           "fraction vsft witness (y/x1)(y/x2)")

    m = MODELS["int_plus_2x"]  # D=10
    data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
    rep = verify_vsft(m, data, SearchContext())
    expect(rep.verdict is Verdict.VERIFIED and rep.exact, "int vsft at D=10")

    m = MODELS["char2_xy"]
    data = build_sft_data(m, m.ideal("I"), m.ideal("B"), 2)
    expect(verify_sft_generators(m, data, SearchContext()).verdict
           is Verdict.VERIFIED, "xy sft generators")
    rep = certify_sft_all_elements(m, data, SearchContext())
    expect(rep.verdict is Verdict.VERIFIED
           and rep.certificate.kind == "FrobeniusCharP", "xy sft all")
    wit = find_vsft_witness(m, m.ideal("I"), m.ideal("B"), kmax=5,
                            ctx=SearchContext())
    rows = wit.details["per_k"]
    expect(wit.details["witness_k"] == 5 and len(rows) == 5
           and all(r["witness"] is not None
                   and len(set(r["witness"]["factors"])) == r["k"]
                   for r in rows),
           "xy witnesses of k distinct generators, k<=5")

    m = MODELS["dyadic"]  # nmax=8
    data = build_sft_data(m, m.ideal("max"), m.ideal("two"), 2)
    rep = certify_sft_all_elements(m, data, SearchContext())
    expect(rep.verdict is Verdict.VERIFIED
           and rep.certificate.kind == "DiagonalDominanceChar0", "dyadic sft")
    wit = find_vsft_witness(m, m.ideal("max"), m.ideal("two"), kmax=8,
                            ctx=SearchContext())
    expect(wit.details["witness_k"] == 8
           and all(r["witness"] is not None for r in wit.details["per_k"])
           and wit.witness["exponent"]
           == ExponentVector.from_dense((Fraction(9471, 256),)),
           "dyadic per-k witnesses, k<=8")

    m = MODELS["rational_valuation"]
    data = build_sft_data(m, m.ideal("xV"), m.ideal("x"), 2)
    rep = verify_vsft(m, data, SearchContext())
    expect(rep.verdict is Verdict.VERIFIED and rep.exact, "xv vsft")
    scan = valuation_non_sft_scan(m, [1, 2, 360, 720, 1440], 6,
                                  ctx=SearchContext())
    expect(scan.verdict is Verdict.REFUTED_FAMILY
           and scan.details["candidates"] == 30, "xv per-(a,n) witnesses")
    F = math.factorial(6)
    for k in (1, 2, 360, 720, 1440):
        a = Fraction(k, F)
        for n in range(1, 7):
            w = a / (n + 1)
            expect(w > 0 and n * w < a, f"xv witness arithmetic a={a} n={n}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    announce("4 example-regressions", ok, elapsed, 60.0)
    assert ok, problems[:5]


def test_5_theorem_property_suites(announce):
    t0 = time.perf_counter()
    problems = []

    def expect(cond, label):
        if not cond:
            problems.append(label)

    # data powers stay verified, m <= 4
    m = MODELS["int_plus_2x"]
    d_int = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
    for k in (2, 3, 4):
        rep = check_power_data(m, d_int, k, mode="vsft", ctx=SearchContext())
        expect(rep.verdict is Verdict.VERIFIED
               and rep.details["derived_index"] == 2, f"int power m={k}")
    mxv = rational_valuation(3)
    dxv = build_sft_data(mxv, mxv.ideal("xV"), mxv.ideal("x"), 2)
    for k in (2, 3, 4):
        rep = check_power_data(mxv, dxv, k, mode="vsft", ctx=SearchContext())
        expect(rep.verdict is Verdict.VERIFIED, f"xv power m={k}")
    mfr = MODELS["frobenius_p2"]
    dfr = build_sft_data(mfr, mfr.ideal("max"), mfr.ideal("zero"), 2)
    for k in (2, 3, 4):
        rep = check_power_data(mfr, dfr, k, mode="sft", ctx=SearchContext())
        expect(rep.verdict is Verdict.VERIFIED
               and rep.details["derived_index"] == 2 * k, f"fr2 power m={k}")

    # B <= I <= radical(B) across every bundled data set
    for key, iname, bname in [("frobenius_p2", "max", "zero"),
                              ("fraction", "frac", "y"),
                              ("int_plus_2x", "full", "two"),
                              ("char2_xy", "I", "B"),
                              ("dyadic", "max", "two"),
                              ("rational_valuation", "xV", "x")]:
        mm = MODELS[key]
        d = build_sft_data(mm, mm.ideal(iname), mm.ideal(bname), 1)
        rep = check_radical_equal(mm, d, kmax=8, ctx=SearchContext())
        expect(rep.verdict is Verdict.VERIFIED, f"radical-equal {key}")

    # a nilpotency index exists wherever the preconditions admit one
    rep = run_claim(_claim("fr2-anyradical"), models=MODELS, seed=0)
    expect(rep.verdict is Verdict.VERIFIED and rep.details["m"] == 6,
           "fr2 anyradical")
    rep = run_claim(_claim("int-anyradical"), models=MODELS, seed=0)
    expect(rep.verdict is Verdict.VERIFIED and rep.details["m"] == 2,
           "int anyradical")

    # modified data through the radical re-verifies
    rep = run_claim(_claim("int-modified-radical"), models=MODELS, seed=0)
    expect(rep.verdict is Verdict.VERIFIED and rep.details["k"] == 2
           and rep.details["derived_verified"], "int modified radical")
    rep = run_claim(_claim("xy2-modified-radical"), models=MODELS, seed=0)
    expect(rep.verdict is Verdict.VERIFIED and rep.details["k"] == 4
           and rep.details["derived_verified"], "xy2 modified radical")

    # survival under the polynomial extension by t, degree <= 4, exact
    for deg in (1, 2, 3, 4):
        rep = check_extension_vsft(m, d_int, degree=deg, samples=40,
                                   ctx=SearchContext())
        expect(rep.verdict is Verdict.VERIFIED and rep.exact,
               f"int extension degree={deg}")
    rep = run_claim(_claim("xv-ext-vsft"), models=MODELS, seed=0)
    expect(rep.verdict is Verdict.VERIFIED and rep.exact, "xv extension")

    # index-squared exponent bound: the exact multinomial cover at 3, then
    # 200 random elements checked independently, sixth power zero
    m3 = MODELS["frobenius_p3"]
    d3 = build_sft_data(m3, m3.ideal("max"), m3.ideal("zero"), 3)
    rep = check_sft_extension_exponent(m3, d3, degree=3, samples=200, seed=0,
                                       ctx=SearchContext())
    expect(rep.verdict is Verdict.VERIFIED and rep.exact
           and rep.certificate.kind == "MultinomialCover"
           and rep.certificate.param_map["exponent"] == 3
           and rep.details["exponent_bound"] == 6
           and rep.details["least_exponent"] == 3, "fr3 exponent bound")
    for i in range(200):
        g = random_element(m3.ring, m3.ideal("max"), 3, seed=10_000 + i)
        if not element_power(g, 6, SearchContext()).is_zero:
            problems.append(f"fr3 gamma^6 != 0 at seed {10_000 + i}")
            break

    # the scalar N! in front of the product is essential in the dyadic model
    md = MODELS["dyadic"]
    dd = build_sft_data(md, md.ideal("max"), md.ideal("two"), 2)
    els = [monomial_element(md.ring, ExponentVector.from_dense((Fraction(s),)))
           for s in ("3/2", "9/4")]
    rep = strong_convergence_check(md, dd, els, ctx=SearchContext())
    expect(rep.verdict is Verdict.VERIFIED
           and rep.details["factor_essential"] is True
           and rep.details["bare_product_in_B"] is False
           and rep.details["full_sum_power_in_B"] is True, "dyadic 2! factor")
    S = md.monoid
    bare = ExponentVector.from_dense((Fraction(15, 4) - 1,))
    scaled = ExponentVector.from_dense((Fraction(15, 4) + 1 - 1,))
    expect(S.member(bare, SearchContext()) is None, "2^(15/4) outside (2)")
    expect(S.member(scaled, SearchContext()) is not None,
           "2*2^(15/4) inside (2)")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    announce("5 theorem-suites", ok, elapsed, 60.0)
    assert ok, problems[:5]


def test_6_divergence_signature(announce):
    t0 = time.perf_counter()
    problems = []
    growing = [("frobenius_quotient", "v", {"p": 2}, "max", "zero", 9),
               ("fraction_monoid", "v", {"M": 4}, "frac", "y", 9),
               ("char2_xy", "v", {"D": 10}, "I", "B", 9),
               ("dyadic", "nmax", {}, "max", "two", 9)]
    for fam, key, fixed, iname, bname, cap in growing:
        rep = divergence_table(fam, key, [2, 3, 4, 5, 6], fixed,
                               iname, bname, cap=cap)
        idx = rep.details.get("indices")
        if not (rep.verdict is Verdict.REFUTED_FAMILY
                and idx == [3, 4, 5, 6, 7]
                and all(a < b for a, b in zip(idx, idx[1:]))):
            problems.append(f"{fam}: {rep.verdict.value} {idx}")
    stable = [("int_plus_2x", "D", {}, "full", "two", 4),
              ("rational_valuation", "denBound", {}, "xV", "x", 3)]
    for fam, key, fixed, iname, bname, cap in stable:
        rep = divergence_table(fam, key, [2, 3, 4, 5, 6], fixed,
                               iname, bname, cap=cap)
        if not (rep.verdict is Verdict.VERIFIED
                and rep.details["stable_index"] == 2
                and rep.details["indices"] == [2] * 5):
            problems.append(f"{fam}: {rep.verdict.value} {rep.details}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    announce("6 index-divergence", ok, elapsed, 60.0)
    assert ok, problems


def test_7_catalog_determinism(announce):
    t0 = time.perf_counter()
    problems = []
    models, claims = builtin_catalog()
    first = run_suite(claims, models=models, seed=0)
    second = run_suite(claims, models=models, seed=0)
    bad = [r.claim.id for r in first if not r.ok]
    if bad:
        problems.append(f"catalog not green: {bad}")
    lines1 = [dumps_record(drop_timing(report_record(r))) for r in first]
    lines2 = [dumps_record(drop_timing(report_record(r))) for r in second]
    if lines1 != lines2:
        diff = [a for a, b in zip(lines1, lines2) if a != b]
        problems.append(f"{len(diff)} records differ between runs")
    elapsed = time.perf_counter() - t0
    ok = not problems
    announce("7 determinism", ok, elapsed)
    assert ok, problems[:3]
