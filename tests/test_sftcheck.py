"""Verdict-layer tests.

Two themes carry this file. First, witnesses must re-verify through an
independent path: a refutation is only as good as the object it hands back,
so every witness a catalog claim produces is checked again here with direct
membership calls on a fresh context. Second, budgets must only ever cost
conclusiveness: a tiny budget turns a verdict into inconclusive, never into
the opposite verdict.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sftkit

from sftkit import exponents
from sftkit.arith import PrimeChar
from sftkit.budget import PROFILES, Budgets, SearchContext
from sftkit.elements import (CharPMonoidRing, alive_ideal_monomials,
                             element_add, element_in_ideal, element_multiply,
                             element_power, enumerate_ideal_elements,
                             int_ideal_full, int_ideal_two, monomial_element,
                             random_element)
from sftkit.errors import (BudgetExceeded, PreconditionViolated,
                           TruncationTooSmall, UnsupportedModel)
from sftkit.exponents import ExponentVector, MonoidPresentation
from sftkit.files import (drop_timing, dumps_record, probe_record,
                          report_record)
from sftkit.ideals import ideal_member, least_power_inside, monomial_ideal
from sftkit.models import (RingModel, build_model, catalog_claims,
                           catalog_models, dyadic, fraction_monoid,
                           frobenius_quotient, int_plus_2x)
from sftkit.sftcheck import (
    Certificate,
    SftData,
    Verdict,
    anyradical_index,
    build_sft_data,
    certify_sft_all_elements,
    check_extension_vsft,
    check_power_data,
    check_quotient_pushforward,
    check_radical_equal,
    check_sft_extension_exponent,
    divergence_table,
    find_vsft_witness,
    minimal_vsft_index,
    modified_radical_power_index,
    strong_convergence_check,
    valuation_non_sft_scan,
    verify_sft_generators,
    verify_vsft,
)
from sftkit.sftcheck import _cover_holds, _power_exponent
from sftkit.suite import (CLAIM_KINDS, claim_seed, exit_code, run_claim,
                          run_suite)


def claim_by_id(cid: str):
    for c in catalog_claims():
        if c.id == cid:
            return c
    raise KeyError(cid)


MODELS = catalog_models()

# the catalog's machine records, timing dropped, one line per claim in
# catalog order; a change that moves a record on purpose regenerates this
# file and says which records moved and why
GOLDEN_RECORDS = os.path.join(os.path.dirname(__file__), "golden",
                              "catalog_records.jsonl")


def rerun(cid: str):
    return run_claim(claim_by_id(cid), models=MODELS, seed=0)


class TestWitnessesReVerify:
    def test_frobenius_witness_product_survives_outside_B(self):
        rep = rerun("fr2-witness-k5")
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        assert rep.details["witness_k"] == 5
        m = MODELS["frobenius_p2"]
        I, B = m.ideal("max"), m.ideal("zero")
        w = rep.witness
        assert sorted(w["factors"]) == [0, 1, 2, 3, 4]
        e = w["exponent"]
        acc = ExponentVector.zero(m.monoid.dim)
        for j in w["factors"]:
            acc = acc + I.gens[j]
        assert acc == e
        ctx = SearchContext()
        assert not m.monoid.is_killed(e, ctx)  # alive in the truncation
        assert not ideal_member(B, e, ctx)    # and genuinely outside B
        # every k up to 5 carries its own witness
        for row in rep.details["per_k"]:
            assert row["witness"] is not None

    def test_fraction_vsft_witness_is_the_cross_fraction_pair(self):
        rep = rerun("frac-vsft")
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        m = MODELS["fraction"]
        I, B = m.ideal("frac"), m.ideal("y")
        w = rep.witness
        assert w["factors"] == [0, 1]
        e = w["exponent"]
        assert e == I.gens[0] + I.gens[1]
        ctx = SearchContext()
        assert m.monoid.member(e, ctx) is not None  # the product exists
        assert not ideal_member(B, e, ctx)
        # the square of a single fraction, by contrast, is inside
        assert ideal_member(B, I.gens[0].scale(2), ctx)

    def test_xy_witness_products_of_distinct_factors(self):
        rep = rerun("xy-witness-k5")
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        assert rep.details["witness_k"] == 5
        m = MODELS["char2_xy"]
        B = m.ideal("B")
        e = rep.witness["exponent"]
        assert not ideal_member(B, e, SearchContext())

    def test_dyadic_witness_value_and_membership(self):
        rep = rerun("dy-witness-k8")
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        assert rep.details["witness_exponent"] == "9471/256"
        m = MODELS["dyadic"]
        I, B = m.ideal("max"), m.ideal("two")
        e = rep.witness["exponent"]
        assert e.dense()[0] == Fraction(9471, 256)
        acc = ExponentVector.zero(1)
        for j in rep.witness["factors"]:
            acc = acc + I.gens[j]
        assert acc == e
        assert not ideal_member(B, e, SearchContext())

    def test_int_model_has_no_witness_anywhere(self):
        rep = rerun("int-witness-none")
        assert rep.verdict is Verdict.VERIFIED
        assert all(row["witness"] is None for row in rep.details["per_k"])


class TestCertificates:
    def test_frobenius_certificate_matches_sampled_reality(self):
        m = MODELS["frobenius_p2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 2)
        rep = certify_sft_all_elements(m, data, SearchContext(), seed=7)
        assert rep.certificate == Certificate("FrobeniusCharP",
                                              (("p", 2), ("k", 1)))
        assert rep.exact
        # the certificate's content, checked directly on random elements
        ctx = SearchContext()
        for i in range(25):
            z = random_element(m.ring, m.ideal("max"), 2, seed=100 + i, ctx=ctx)
            assert element_in_ideal(element_power(z, 2, ctx),
                                    m.ideal("zero"), ctx)

    def test_frobenius_certificate_k_above_one(self):
        m = MODELS["frobenius_p2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 8)
        rep = certify_sft_all_elements(m, data, SearchContext(), seed=7)
        assert rep.certificate == Certificate("FrobeniusCharP",
                                              (("p", 2), ("k", 3)))

    def test_frobenius_exponent_is_exact(self):
        assert _power_exponent(1, 3) == 0
        assert _power_exponent(3 ** 40, 3) == 40
        assert _power_exponent(2 ** 200, 2) == 200
        assert _power_exponent(2 ** 200 + 2, 2) is None
        assert _power_exponent(12, 2) is None

    def test_diagonal_dominance_certificate_matches_sampled_reality(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        rep = certify_sft_all_elements(m, data, SearchContext(), seed=3)
        assert rep.certificate.kind == "DiagonalDominanceChar0"
        assert rep.exact
        ctx = SearchContext()
        for i in range(25):
            z = random_element(m.ring, m.ideal("full"), 3, seed=500 + i, ctx=ctx)
            assert element_in_ideal(element_power(z, 2, ctx),
                                    m.ideal("two"), ctx)

    def test_exhaustive_certificate_on_the_finite_quotient(self):
        m = MODELS["frobenius_p2_v2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 3)
        rep = certify_sft_all_elements(m, data, SearchContext())
        assert rep.certificate.kind == "ExhaustiveFinite"
        assert rep.certificate.param_map["elements"] == 2 ** 3
        assert rep.exact

    def test_exhaustive_certificate_counts_fractional_monomials(self):
        # F_2[x^(1/2)] with x^2 = 0: x^(1/2), x and x^(3/2) are the live
        # monomials of (x^(1/2)); index 5 is no power of 2, so neither the
        # Frobenius nor the char-0 certificate applies
        half = ExponentVector.from_dense((Fraction(1, 2),))
        S = MonoidPresentation(1, (half,), (1,), kill_bound=2)
        R = CharPMonoidRing(S, 2)
        I, zero = monomial_ideal(S, [half]), monomial_ideal(S, [])
        assert alive_ideal_monomials(R, I) == [
            ExponentVector.from_dense((Fraction(k, 2),)) for k in (1, 2, 3)]
        m = RingModel(name="half-line", family="half_line", params=(),
                      char=PrimeChar(2), monoid=S, ring=R,
                      ideals=(("max", I), ("zero", zero)))
        rep = certify_sft_all_elements(m, build_sft_data(m, I, zero, 5),
                                       SearchContext())
        assert rep.verdict is Verdict.VERIFIED and rep.exact
        assert rep.certificate == Certificate("ExhaustiveFinite",
                                              (("elements", 2 ** 3),))

    def test_sampling_fallback_is_flagged_inexact(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 3)
        rep = certify_sft_all_elements(m, data, SearchContext(), samples=30,
                                       seed=11)
        assert rep.certificate.kind == "SampledOnly"
        assert not rep.exact
        assert rep.details.get("qualifier") == "on samples"

    def test_failed_generator_check_blocks_certification(self):
        m = MODELS["frobenius_p2"]
        data = SftData(I=m.ideal("max"), B=m.ideal("zero"), n=1)
        with pytest.raises(PreconditionViolated):
            certify_sft_all_elements(m, data, SearchContext())


def _sampled_exponent_case():
    """frobenius_p3 with I = (x1, x2), B = (x1^2, x2^2), n = 3: the
    multinomial cover holds at 3 (the mixed cubes carry 3 ≡ 0), but no
    generator witnesses 2, since each generator's square lies in B."""
    m = MODELS["frobenius_p3"]
    S = m.monoid
    x1, x2 = (ExponentVector.unit(S.dim, i, 1) for i in (0, 1))
    I = monomial_ideal(S, (x1, x2), label="I")
    B = monomial_ideal(S, (x1 + x1, x2 + x2), label="B")
    return m, build_sft_data(m, I, B, 3)


class TestBudgetPolicy:
    def test_starved_search_is_inconclusive_not_wrong(self):
        m = MODELS["fraction"]
        data = build_sft_data(m, m.ideal("frac"), m.ideal("y"), 2)
        rep = verify_vsft(m, data, SearchContext(Budgets(search_nodes=5)))
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["budget_exhausted"] == "SearchBudgetExceeded"
        assert not rep.exact
        full = verify_vsft(m, data, SearchContext())
        assert full.verdict is Verdict.REFUTED_WITH_WITNESS

    def test_starved_witness_search_is_inconclusive(self):
        m = MODELS["char2_xy"]
        rep = find_vsft_witness(m, m.ideal("I"), m.ideal("B"), kmax=5,
                                ctx=SearchContext(Budgets(multisets=2)))
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["budget_exhausted"] == "CombinatorialBudgetExceeded"

    def test_sample_budget_is_enforced(self):
        # the multinomial cover holds at 3, but every generator has its
        # square in B, so the check samples
        m, data = _sampled_exponent_case()
        rep = check_sft_extension_exponent(
            m, data, degree=3, samples=5,
            ctx=SearchContext(Budgets(samples=3)))
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["budget_exhausted"] == "SampleBudgetExceeded"

    def test_exhaustion_in_preconditions_is_inconclusive(self):
        # the I ⊆ √B admissibility check multiplies past x-degree 16
        m = MODELS["int_plus_2x"]
        I, B = m.ideal("full"), m.ideal("two")
        tight = Budgets(degree_cap=16)
        rep = minimal_vsft_index(m, I, B, cap=4, ctx=SearchContext(tight))
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["budget_exhausted"] == "DegreeBudgetExceeded"
        data_j = build_sft_data(m, I, B, 2)
        rep = modified_radical_power_index(m, I.power(2), I, data_j, kmax=4,
                                           ctx=SearchContext(tight))
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["budget_exhausted"] == "DegreeBudgetExceeded"

    def test_quick_profile_only_costs_conclusiveness(self):
        results = run_suite(catalog_claims(), models=MODELS, seed=0,
                            budgets=PROFILES["quick"])
        assert not [(r.claim.id, r.error) for r in results if r.error]
        for r in results:
            assert r.report.verdict.value in (
                r.claim.expected, Verdict.INCONCLUSIVE_AT_TRUNCATION.value)
        # only integer-model claims, whose products pass the quick
        # profile's degree cap of 16
        held = [r.claim.id for r in results if r.report.verdict
                is Verdict.INCONCLUSIVE_AT_TRUNCATION]
        assert held == [
            "int-sft-gens", "int-sft-all", "int-sft-idx3-sampled", "int-vsft",
            "int-witness-none", "int-minimal-index", "int-power-m4",
            "int-modified-radical", "int-ext-vsft", "int-quotient-xD",
            "int-radical-equal", "int-anyradical"]
        assert all(r.report.details["budget_exhausted"]
                   == "DegreeBudgetExceeded" for r in results
                   if r.claim.id in held)
        assert exit_code(results) == 2

    def test_power_meter_counts_products_not_shifts(self):
        # the rank-1 sumset builds xV^2 at denBound 7 from 5,040 shifts and
        # is charged one multiset per distinct product it forms, not the
        # 5,040^2 pairs a pair loop would form
        m = build_model("rational_valuation", denBound=7)
        gens = [g for (g,) in m.ideal("xV").generators]
        bits = sum(1 << g for g in gens)
        products = 0  # bit s: s is a sum of two generators
        for g in gens:
            products |= bits << g
        assert len(gens) == 5040 and products.bit_count() == 10_079
        rep = run_claim(claim_by_id("xv-vsft"),
                        models={"rational_valuation": m},
                        budgets=PROFILES["default"])
        assert rep.verdict is Verdict.VERIFIED
        assert rep.budgets_used["multisets"] == products.bit_count()

    def test_paper_example_verifies_at_den_bound_7(self):
        # the F_2 + xV example one truncation past the catalog's, under the
        # default budgets: the index stays 2 at every level
        models = {"rational_valuation":
                  build_model("rational_valuation", denBound=7)}
        for cid in ("xv-minimal-index", "xv-witness-none"):
            rep = run_claim(claim_by_id(cid), models=models, budgets=Budgets())
            assert rep.verdict is Verdict.VERIFIED, cid
        div = claim_by_id("xv-divergence")
        levels = list(range(2, 8))
        div = dataclasses.replace(div, params=tuple(
            sorted({**div.param_map, "levels": levels}.items())))
        rep = run_claim(div, budgets=Budgets())
        assert rep.verdict is Verdict.VERIFIED
        assert rep.details["indices"] == [2] * len(levels)

    def test_divergence_charges_model_builds_to_its_report(self, monkeypatch):
        # every level's model is built on the claim's context, so the
        # searches that build its ideals are charged to the report
        tally = [0]
        charge = SearchContext.charge_nodes

        def counting(self, n):
            tally[0] += n
            return charge(self, n)

        monkeypatch.setattr(SearchContext, "charge_nodes", counting)
        rep = rerun("dy-divergence")
        assert rep.verdict is Verdict.REFUTED_FAMILY
        assert rep.budgets_used["search_nodes"] == tally[0] > 0

    def test_reports_carry_budget_usage(self):
        used = rerun("fr2-sft-gens").budgets_used
        assert set(used) == {"search_nodes", "multisets", "samples"}
        # the frobenius check is decided by the kill predicate alone; the
        # fraction model has no kill, so its searches must charge nodes
        assert rerun("frac-sft-gens").budgets_used["search_nodes"] > 0


class TestRefutationsDeepenWithTruncation:
    # a refutation read off a truncated model must persist when the
    # truncation grows by one and by two steps
    def test_frobenius_witnesses_persist(self):
        for v in (6, 7):
            m = frobenius_quotient(2, v)
            rep = find_vsft_witness(m, m.ideal("max"), m.ideal("zero"),
                                    kmax=5, kmin=5, ctx=SearchContext())
            assert rep.verdict is Verdict.REFUTED_WITH_WITNESS, v

    def test_fraction_refutations_persist(self):
        for v in (6, 7):
            m = fraction_monoid(v, 4)
            data = build_sft_data(m, m.ideal("frac"), m.ideal("y"), 2)
            assert verify_vsft(m, data,
                               SearchContext()).verdict is Verdict.REFUTED_WITH_WITNESS
            rep = find_vsft_witness(m, m.ideal("frac"), m.ideal("y"),
                                    kmax=2, kmin=2, ctx=SearchContext())
            assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
            assert rep.details["witness_k"] == 2

    def test_dyadic_witness_persists(self):
        for nmax in (9, 10):
            m = dyadic(nmax)
            rep = find_vsft_witness(m, m.ideal("max"), m.ideal("two"),
                                    kmax=8, kmin=8, ctx=SearchContext())
            assert rep.verdict is Verdict.REFUTED_WITH_WITNESS, nmax


class TestPowerData:
    def test_sft_mode_derives_for_all_small_m(self):
        m = MODELS["frobenius_p2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 2)
        for k in (1, 2, 3, 4):
            rep = check_power_data(m, data, k, mode="sft", ctx=SearchContext())
            assert rep.verdict is Verdict.VERIFIED, k
            if k > 1:
                assert rep.details["derived_index"] == 2 * k

    def test_vsft_mode_keeps_the_base_index(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        for k in (2, 3, 4):
            rep = check_power_data(m, data, k, mode="vsft", ctx=SearchContext())
            assert rep.verdict is Verdict.VERIFIED, k
            assert rep.details["derived_index"] == 2

    def test_failing_base_data_is_rejected(self):
        m = MODELS["frobenius_p2"]
        data = SftData(I=m.ideal("max"), B=m.ideal("zero"), n=1)
        with pytest.raises(PreconditionViolated):
            check_power_data(m, data, 2, mode="sft", ctx=SearchContext())


class TestIndexSearches:
    def test_minimal_index_small_frobenius(self):
        m = frobenius_quotient(2, 2)
        rep = minimal_vsft_index(m, m.ideal("max"), m.ideal("zero"), cap=5)
        assert (rep.verdict, rep.details["n_min"]) == (Verdict.VERIFIED, 3)

    def test_cap_below_the_index_is_inconclusive(self):
        m = frobenius_quotient(2, 2)
        rep = minimal_vsft_index(m, m.ideal("max"), m.ideal("zero"), cap=2)
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION

    def test_admissibility_is_checked(self):
        m = MODELS["fraction"]
        # no power of x_1 reaches (y): I is not inside the radical of B
        I = monomial_ideal(m.monoid, (m.monoid.gens[1],), label="x1")
        with pytest.raises(PreconditionViolated):
            minimal_vsft_index(m, I, m.ideal("y"), cap=3)

    def test_divergent_family_signature(self):
        rep = divergence_table("frobenius_quotient", "v", [2, 3, 4],
                               {"p": 2}, "max", "zero", cap=8)
        assert rep.verdict is Verdict.REFUTED_FAMILY
        assert rep.details["indices"] == [3, 4, 5]
        assert rep.details["witness_pattern"]

    def test_stable_family_signature(self):
        rep = divergence_table("int_plus_2x", "D", [2, 3, 4], {},
                               "full", "two", cap=4)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.details["stable_index"] == 2

    def test_non_monotone_table_stays_inconclusive(self):
        rep = divergence_table("frobenius_quotient", "v", [3, 2], {"p": 2},
                               "max", "zero", cap=8)
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["indices"] == [4, 3]

    def test_cap_cutoff_reports_partial_table(self):
        rep = divergence_table("frobenius_quotient", "v", [2, 3], {"p": 2},
                               "max", "zero", cap=3)
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert rep.details["table"] == [[2, 3]]

    def test_fewer_than_two_levels_rejected(self):
        with pytest.raises(PreconditionViolated):
            divergence_table("frobenius_quotient", "v", [2], {"p": 2},
                             "max", "zero", cap=8)


def _random_monoid_pair(rng: random.Random):
    """A rank-1 to rank-3 presentation, truncated half the time by a kill
    bound (then on nonnegative generators, where the zero set is
    monotone), an ideal I of sums of its generators, and B generated by
    multiples of some of I's generators."""
    dim = rng.randint(1, 3)
    kill = rng.randint(2, 6) if rng.random() < 0.5 else None
    lam = tuple(rng.randint(1, 3) for _ in range(dim))
    dense = set()
    for _ in range(rng.randint(1, 4)):
        g = tuple(rng.randint(0 if kill else -2, 3) for _ in range(dim))
        if sum(l * e for l, e in zip(lam, g)) > 0:
            dense.add(g)
    if not dense:
        dense.add((1,) + (0,) * (dim - 1))
    gens = [ExponentVector.from_dense(g) for g in sorted(dense)]
    S = MonoidPresentation(dim, tuple(gens), lam, kill_bound=kill)

    def element(size):
        e = ExponentVector.zero(dim)
        for _ in range(size):
            e = e + rng.choice(gens)
        return e

    I = monomial_ideal(S, [element(rng.randint(1, 3))
                           for _ in range(rng.randint(1, 3))])
    picked = rng.sample(I.gens, rng.randint(0, len(I.gens)))
    B = monomial_ideal(S, [g + element(rng.randint(0, 3)) for g in picked])
    return I, B


def _random_int_pair(rng: random.Random):
    """Two integer-model ideals from (2, 2x, ..., 2x^D), its powers and (2)."""
    def draw():
        if rng.random() < 0.25:
            return int_ideal_two()
        return int_ideal_full(rng.randint(1, 4)).power(rng.randint(1, 3))
    return draw(), draw()


def _least_power_by_products(I, B, cap, ctx):
    """The oracle: least n <= cap whose full power I^n has every generator
    in B."""
    for n in range(1, cap + 1):
        if all(B.contains(x, ctx) for _, x in I.products(n, ctx)):
            return n
    return None


class TestLeastPowerInside:
    """least_power_inside decides I^n ⊆ B on the products still outside B;
    the oracle builds every full power."""

    @staticmethod
    def _agree(pairs, cap):
        compared = found = 0
        for I, B in pairs:
            budgets = Budgets(search_nodes=20_000, multisets=20_000,
                              degree_cap=24)
            try:
                want = _least_power_by_products(I, B, cap,
                                                SearchContext(budgets))
                got = least_power_inside(I, B, cap, SearchContext(budgets))
            except BudgetExceeded:
                continue
            assert got == want, (I.gens, B.gens)
            compared += 1
            found += want is not None
        return compared, found

    def test_monoid_ideals_agree_with_full_powers(self):
        rng = random.Random(20261018)
        compared, found = self._agree(
            (_random_monoid_pair(rng) for _ in range(300)), cap=6)
        assert compared >= 250 and found >= 150

    def test_integer_model_ideals_agree_with_full_powers(self):
        rng = random.Random(12)
        compared, found = self._agree(
            (_random_int_pair(rng) for _ in range(120)), cap=4)
        assert compared >= 100 and found >= 30

    def test_each_step_charges_the_outside_set_times_the_generators(self):
        # x, y with every entry capped below 3, B = 0: the outside sets are
        # {x, y}, {x², xy, y²}, {x²y, xy²}, {x²y²}, then nothing at n = 5.
        # x and y are interchangeable, so the set is kept as one point per
        # orbit: {x}, {x², xy}, {x²y}, {x²y²}
        S = MonoidPresentation(2, (ExponentVector.unit(2, 0, 1),
                                   ExponentVector.unit(2, 1, 1)), (1, 1),
                               kill_bound=3)
        I = monomial_ideal(S, S.gens)
        ctx = SearchContext()
        assert least_power_inside(I, monomial_ideal(S, []), 8, ctx) == 5
        assert ctx.multisets_used == (1 + 2 + 1 + 1) * 2

    def test_an_asymmetric_grading_charges_the_full_outside_set(self):
        # the same outside sets with y of weight 2: no coordinate symmetry,
        # so every point of them is formed and charged
        S = MonoidPresentation(2, (ExponentVector.unit(2, 0, 1),
                                   ExponentVector.unit(2, 1, 1)), (1, 2),
                               kill_bound=3)
        assert S._sym_classes == ()
        I = monomial_ideal(S, S.gens)
        ctx = SearchContext()
        assert least_power_inside(I, monomial_ideal(S, []), 8, ctx) == 5
        assert ctx.multisets_used == (2 + 3 + 2 + 1) * 2


class TestRadicalChecks:
    def test_radical_equal_reports_powers(self):
        m = MODELS["frobenius_p2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 2)
        rep = check_radical_equal(m, data, kmax=8, ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert rep.details["radical_powers"] == [2] * 5

    def test_radical_equal_detects_broken_containment(self):
        m = MODELS["frobenius_p2"]
        data = SftData(I=m.ideal("zero"), B=m.ideal("max"), n=2)
        rep = check_radical_equal(m, data, kmax=4, ctx=SearchContext())
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        assert rep.witness["kind"] == "containment"

    def test_radical_equal_refutes_on_unit_ideal(self):
        m = MODELS["frobenius_p2"]
        S = m.monoid
        unit = monomial_ideal(S, (ExponentVector.zero(S.dim),), label="unit")
        x1 = monomial_ideal(S, (S.gens[0],), label="x1")
        data = SftData(I=unit, B=x1, n=2)
        rep = check_radical_equal(m, data, kmax=4, ctx=SearchContext())
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        assert rep.witness["kind"] == "generator"

    def test_radical_equal_kmax_cutoff(self):
        m = MODELS["frobenius_p2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 2)
        rep = check_radical_equal(m, data, kmax=1, ctx=SearchContext())
        assert rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION

    def test_anyradical_small_quotient(self):
        m = frobenius_quotient(2, 2)
        rep = anyradical_index(m, m.ideal("max"), m.ideal("zero"), mmax=6)
        assert (rep.verdict, rep.details["m"]) == (Verdict.VERIFIED, 3)

    def test_anyradical_requires_nilpotent_generators(self):
        m = MODELS["fraction"]
        I = monomial_ideal(m.monoid, (m.monoid.gens[1],), label="x1")
        B = m.ideal("y")
        with pytest.raises(PreconditionViolated):
            anyradical_index(m, I, B, mmax=4)


class TestExtensionChecks:
    def test_extension_vsft_verified_with_t_layer(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        rep = check_extension_vsft(m, data, degree=3, samples=20,
                                   ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert rep.exact
        assert rep.details["t_products_checked"] > 0

    def test_extension_vsft_refutes_from_base_witness(self):
        m = MODELS["fraction"]
        data = build_sft_data(m, m.ideal("frac"), m.ideal("y"), 2)
        rep = check_extension_vsft(m, data, degree=2, samples=5,
                                   ctx=SearchContext())
        assert rep.verdict is Verdict.REFUTED_WITH_WITNESS
        assert rep.witness["kind"] == "generator_product"

    def test_extension_degree_zero_reduces_to_base(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        rep = check_extension_vsft(m, data, degree=0, ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert "degree 0" in rep.details["note"]

    def test_t_layer_contradiction_raises_under_optimize(self):
        # the cross-check must survive python -O, which strips asserts
        script = textwrap.dedent("""
            import sys
            import sftkit.sftcheck as sc
            from sftkit.models import int_plus_2x
            assert False, "asserts are live"  # stripped under -O
            m = int_plus_2x(3)
            data = sc.build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
            sc.element_in_ideal = lambda *args, **kwargs: False
            try:
                sc.check_extension_vsft(m, data, degree=1, samples=0)
            except AssertionError as exc:
                print("raised:", exc)
                sys.exit(0)
            sys.exit(1)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(sftkit.__file__)),
             env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "t-layer contradicts the exact containment" in out.stdout

    def test_extension_exponent_frobenius(self):
        m = MODELS["frobenius_p3"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 3)
        rep = check_sft_extension_exponent(m, data, degree=3, samples=50,
                                           seed=claim_seed(0, "t"),
                                           ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert rep.exact
        assert rep.certificate == Certificate("MultinomialCover", (
            ("exponent", 3), ("lower_bound_generator", 0),
            ("multisets", 35)))
        assert rep.details == {"exponent_bound": 6, "least_exponent": 3}
        assert rep.seed is None
        # levels 1, 2 and 3 of five generators; nothing sampled
        assert rep.budgets_used["multisets"] == 5 + 15 + 35
        assert rep.budgets_used["samples"] == 0

    def test_extension_exponent_samples_without_generator_witness(self):
        m, data = _sampled_exponent_case()
        rep = check_sft_extension_exponent(m, data, degree=2, samples=20,
                                           ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert not rep.exact and rep.certificate is None
        assert rep.details["qualifier"] == "on samples"
        assert rep.budgets_used["samples"] == 20
        # (x1 + x2)^2 has the cross term 2*x1*x2 outside B, so 3 is right
        assert rep.details["least_exponent"] == 3

    def test_extension_exponent_degenerate_index_one(self):
        m = MODELS["int_plus_2x"]
        data = SftData(I=m.ideal("two"), B=m.ideal("two"), n=1)
        rep = check_sft_extension_exponent(m, data, degree=2, samples=10,
                                           ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert rep.details["degenerate_index"] is True
        assert rep.details["exponent_bound"] == 1


# small finite char-p models whose ideals can be enumerated element by element
COVER_MODELS = {(p, v): frobenius_quotient(p, v)
                for p, v in ((2, 2), (2, 3), (3, 1), (3, 2))}


def _cover_levels(m, I, B, emax: int) -> list:
    """The e in 1..emax at which the multinomial cover of (I, B) holds."""
    ctx = SearchContext()
    factors = I.generator_elements(m.ring)
    return [e for e in range(1, emax + 1)
            if _cover_holds(m, factors, B, e, ctx)]


def _least_exponents(m, monos, B, E: int) -> list:
    """Per nonzero element z spanned by monos: the least k <= E with z^k in
    B, or None when there is none."""
    ctx = SearchContext()
    out = []
    for z in enumerate_ideal_elements(m.ring, monos, ctx):
        if z.is_zero:
            continue
        cur, k = z, 1
        while not element_in_ideal(cur, B, ctx):
            if k == E:
                k = None
                break
            cur, k = element_multiply(cur, z, ctx), k + 1
        out.append(k)
    return out


class TestMultinomialCover:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(COVER_MODELS)), st.sampled_from((2, 3)),
           st.data())
    def test_cover_is_sound_against_exhaustive_enumeration(self, key, n,
                                                           draw):
        m = COVER_MODELS[key]
        S, ring, ctx = m.monoid, m.ring, SearchContext()
        alive = alive_ideal_monomials(ring, m.ideal("max"), ctx)
        I = monomial_ideal(S, draw.draw(st.lists(
            st.sampled_from(alive), min_size=1, max_size=3, unique=True)), ctx)
        monos = alive_ideal_monomials(ring, I, ctx)
        assume(ring.p ** len(monos) <= 1024)
        B = monomial_ideal(S, draw.draw(st.lists(
            st.sampled_from(monos), max_size=3, unique=True)), ctx)
        E = n * (n - 1)
        least = _least_exponents(m, monos, B, E)
        for e in _cover_levels(m, I, B, E):
            assert all(k is not None and k <= e for k in least), e
        rep = check_sft_extension_exponent(m, build_sft_data(m, I, B, n),
                                           degree=1, samples=1,
                                           ctx=SearchContext())
        if rep.certificate is not None:
            assert rep.certificate.kind == "MultinomialCover"
            e = rep.certificate.param_map["exponent"]
            assert rep.exact and rep.details["least_exponent"] == e
            assert max(least) == e

    def test_frobenius_cover_is_the_characteristic(self):
        # mixed coefficients of (sum a_i)^p are ≡ 0 and x_i^p is killed
        for (p, _v), m in COVER_MODELS.items():
            assert _cover_levels(m, m.ideal("max"), m.ideal("zero"), p) == [p]
        # below p a mixed coefficient is a unit: on F_3 with I = (x1^2,
        # x2^2), (x1^2 + x2^2)^2 = 2*x1^2*x2^2 is alive, so 2 is not covered
        m = COVER_MODELS[3, 2]
        S, zero = m.monoid, m.ideal("zero")
        I = monomial_ideal(S, [ExponentVector.unit(2, i, 2) for i in (0, 1)])
        assert _cover_levels(m, I, zero, 3) == [3]
        z = element_add(*I.generator_elements(m.ring))
        assert not element_in_ideal(element_power(z, 2), zero)

    def test_even_coefficient_decides_in_char0(self):
        # dyadic, where 2 = x: the cross term of (x^(3/2) + x^(9/4))^2 is
        # 2*x^(15/4) = x^(19/4). B = (x^3, x^(19/4)) holds it, though not
        # the bare x^(15/4); B = (x^3) holds neither.
        m = MODELS["dyadic"]
        S = m.monoid

        def mono(q):
            return ExponentVector.from_dense((Fraction(q),))

        I = monomial_ideal(S, (mono("3/2"), mono("9/4")))
        z = element_add(*I.generator_elements(m.ring))
        covered = monomial_ideal(S, (mono(3), mono("19/4")))
        for B, holds in ((covered, True),
                         (monomial_ideal(S, (mono(3),)), False)):
            assert _cover_levels(m, I, B, 2) == ([2] if holds else [])
            assert element_in_ideal(element_power(z, 2), B) is holds
        assert not ideal_member(covered, mono("15/4"))
        rep = check_sft_extension_exponent(
            m, build_sft_data(m, I, covered, 2), degree=1, samples=1,
            ctx=SearchContext())
        assert rep.certificate == Certificate("MultinomialCover", (
            ("exponent", 2), ("lower_bound_generator", 0), ("multisets", 3)))
        assert rep.exact and rep.details["least_exponent"] == 2

    def test_cover_over_the_multiset_budget_falls_back_to_sampling(self):
        # levels 1 and 2 fit in 30 multisets, level 3 (35 more) does not:
        # the check samples instead of going inconclusive
        m = MODELS["frobenius_p3"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 3)
        rep = check_sft_extension_exponent(
            m, data, degree=3, samples=5,
            ctx=SearchContext(Budgets(multisets=30)))
        assert rep.verdict is Verdict.VERIFIED
        assert not rep.exact and rep.certificate is None
        assert rep.budgets_used == {"search_nodes": 0, "multisets": 20,
                                    "samples": 5}


class TestStrongConvergence:
    def test_vacuous_in_small_characteristic(self):
        m = MODELS["frobenius_p2"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 2)
        rep = strong_convergence_check(m, data, [], ctx=SearchContext())
        assert rep.verdict is Verdict.VACUOUSLY_TRUE
        assert "2!" in rep.details["reason"] or "characteristic" in rep.details["reason"]

    def test_dyadic_factor_is_essential(self):
        m = MODELS["dyadic"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("two"), 2)
        els = [monomial_element(m.ring, ExponentVector.from_dense((Fraction(s),)))
               for s in ("3/2", "9/4")]
        rep = strong_convergence_check(m, data, els, ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED
        assert rep.details["factor_essential"] is True
        assert rep.details["bare_product_in_B"] is False
        # independent restatement: x^(15/4) - x is not in the monoid, but
        # folding in the scalar 2 lands x^(15/4 + 1) - x inside
        S = m.monoid
        bare = ExponentVector.from_dense((Fraction(15, 4) - 1,))
        scaled = ExponentVector.from_dense((Fraction(15, 4) + 1 - 1,))
        assert S.member(bare, SearchContext()) is None
        assert S.member(scaled, SearchContext()) is not None

    def test_element_count_checked(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        with pytest.raises(PreconditionViolated):
            strong_convergence_check(m, data, [], ctx=SearchContext())

    def test_elements_must_lie_in_I(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        one = monomial_element(m.ring, 0, 1)
        with pytest.raises(PreconditionViolated):
            strong_convergence_check(m, data, [one, one], ctx=SearchContext())


class TestQuotients:
    def test_monoid_quotient_keeps_sft(self):
        m = MODELS["frobenius_p2_v3"]
        data = build_sft_data(m, m.ideal("max"), m.ideal("zero"), 2)
        kernel = (ExponentVector.unit(3, 2, 1),)  # kill the last variable
        rep = check_quotient_pushforward(m, data, kernel, mode="sft",
                                         ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED

    def test_integer_quotient_relaxes_top_degree(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        rep = check_quotient_pushforward(m, data, "2xD", mode="vsft",
                                         ctx=SearchContext())
        assert rep.verdict is Verdict.VERIFIED

    def test_unknown_integer_kernel_rejected(self):
        m = MODELS["int_plus_2x"]
        data = build_sft_data(m, m.ideal("full"), m.ideal("two"), 2)
        with pytest.raises(UnsupportedModel):
            check_quotient_pushforward(m, data, "x1", mode="vsft",
                                       ctx=SearchContext())


class TestValuationScan:
    def test_every_candidate_gets_a_witness(self):
        m = MODELS["rational_valuation"]
        rep = valuation_non_sft_scan(m, [1, 2, 720], 4, ctx=SearchContext())
        assert rep.verdict is Verdict.REFUTED_FAMILY
        assert rep.details["candidates"] == 12
        for w in rep.details["witnesses"]:
            a = Fraction(w["a"])
            e = Fraction(w["witness_exponent"])
            n = w["n"]
            assert e > 0 and n * e < a
            assert e == a / (n + 1)

    def test_nonpositive_numerators_rejected(self):
        m = MODELS["rational_valuation"]
        with pytest.raises(PreconditionViolated):
            valuation_non_sft_scan(m, [0], 3, ctx=SearchContext())


class TestWitnessSearchInputs:
    def test_kmax_beyond_generator_count(self):
        m = frobenius_quotient(2, 2)
        with pytest.raises(TruncationTooSmall):
            find_vsft_witness(m, m.ideal("max"), m.ideal("zero"), kmax=3)

    def test_bad_k_range(self):
        m = frobenius_quotient(2, 2)
        with pytest.raises(PreconditionViolated):
            find_vsft_witness(m, m.ideal("max"), m.ideal("zero"),
                              kmax=1, kmin=2)

    def test_build_sft_data_validates(self):
        m = MODELS["frobenius_p2"]
        with pytest.raises(PreconditionViolated):
            build_sft_data(m, m.ideal("max"), m.ideal("zero"), 0)
        with pytest.raises(PreconditionViolated):
            build_sft_data(m, m.ideal("zero"), m.ideal("max"), 2)


class TestRank1PairScan:
    """find_vsft_witness at k = 2 on rank-1 ideals scans pairs by shifts;
    its reports equal those of the combination loop charged one multiset
    per distinct product it meets, per_k and meters included, also when a
    node budget stops either one midway."""

    CASES = [("dyadic", {"nmax": 5}, "max", "two", 1, 4),
             ("dyadic", {"nmax": 8}, "max", "two", 2, 3),
             ("dyadic", {"nmax": 8}, "two", "max", 1, 1),
             ("rational_valuation", {"denBound": 3}, "xV", "x", 2, 3),
             ("rational_valuation", {"denBound": 4}, "xV", "xV", 1, 2)]

    @pytest.mark.parametrize("family,params,i_name,b_name,kmin,kmax", CASES)
    def test_reports_match_the_combination_loop(self, monkeypatch, family,
                                                params, i_name, b_name,
                                                kmin, kmax):
        import dataclasses
        from sftkit import sftcheck
        m = build_model(family, **params)
        I, B = m.ideal(i_name), m.ideal(b_name)
        kmax = min(kmax, len(I.generators))

        def report(budget):
            rep = find_vsft_witness(m, I, B, kmax=kmax, kmin=kmin,
                                    ctx=SearchContext(Budgets(search_nodes=budget)))
            return dataclasses.asdict(rep)

        full = report(10 ** 9)["budgets_used"]["search_nodes"]
        # past the table build, a stop lands inside the pair queries
        budgets = [10 ** 9, 0, full // 2, *range(max(full - 40, 0), full + 1, 3)]
        scanned = [report(b) for b in budgets]
        loop = sftcheck._first_combo_outside

        def pairs_by_product(I, B, k, member_cache, ctx):
            if k != 2:
                return loop(I, B, k, member_cache, ctx)
            formed = set()
            for i, j in itertools.combinations(range(len(I.generators)), 2):
                prod = I.multiply(I.generators[i], I.generators[j])
                if prod not in formed:
                    formed.add(prod)
                    ctx.charge_multisets(1)
                inside = member_cache.get(prod)
                if inside is None:
                    inside = member_cache[prod] = B.contains(prod, ctx)
                if not inside:
                    return (i, j), prod
            return None

        monkeypatch.setattr(sftcheck, "rank1_pair_scan_fits", lambda I: False)
        monkeypatch.setattr(sftcheck, "_first_combo_outside", pairs_by_product)
        for b, got in zip(budgets, scanned):
            assert got == report(b), (family, b)


class TestSuiteRunner:
    def test_claim_seed_is_stable_and_id_sensitive(self):
        assert claim_seed(0, "a") == claim_seed(0, "a")
        assert claim_seed(0, "a") != claim_seed(0, "b")
        assert 0 <= claim_seed(12345, "x") < 2 ** 31

    def test_results_do_not_depend_on_suite_order(self):
        a = claim_by_id("fr2-sft-gens")
        b = claim_by_id("fr2-witness-k5")
        first = run_suite([a, b], models=MODELS, seed=0)
        second = run_suite([b, a], models=MODELS, seed=0)
        by_id_1 = {r.claim.id: r for r in first}
        by_id_2 = {r.claim.id: r for r in second}
        for cid in ("fr2-sft-gens", "fr2-witness-k5"):
            r1, r2 = by_id_1[cid], by_id_2[cid]
            assert r1.report.verdict == r2.report.verdict
            assert r1.report.witness == r2.report.witness
            assert r1.report.details == r2.report.details

    def test_exit_codes(self):
        a = claim_by_id("fr2-sft-gens")
        ok = run_suite([a], models=MODELS, seed=0)
        assert exit_code(ok) == 0 and ok[0].ok

        import dataclasses as _dc
        wrong = _dc.replace(a, expected="refuted_with_witness")
        res = run_suite([wrong], models=MODELS, seed=0)
        assert res[0].problems and exit_code(res) == 1

        missing = _dc.replace(a, model="no_such_model")
        res = run_suite([missing], models=MODELS, seed=0)
        assert res[0].error and exit_code(res) == 3

        # multisets=3 lets the data triple build but not the power expansion,
        # so the claim lands on inconclusive rather than an input error
        starved = run_suite([claim_by_id("frac-vsft")], models=MODELS,
                            seed=0, budgets=Budgets(multisets=3))
        assert starved[0].report.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
        assert exit_code(starved) == 2

    # a catalog claim per optional parameter, and the default its
    # operation takes when the claim leaves the parameter out
    OPTIONAL_DEFAULTS = {
        ("int-sft-idx3-sampled", "samples"): Budgets().samples,
        ("frac-witness-k2", "kmin"): 1,
        ("int-power-m4", "mode"): "vsft",
        ("int-ext-vsft", "samples"): 40,
        ("int-quotient-xD", "mode"): "sft",
    }

    def test_left_out_optional_parameters_take_the_defaults(self):
        covered = {(claim_by_id(cid).kind, name)
                   for cid, name in self.OPTIONAL_DEFAULTS}
        # strong_convergence's elements has no written-out default: left out,
        # it means the model's own probe elements
        assert covered == {(kind, name) for kind, k in CLAIM_KINDS.items()
                           for name in k.optional} - {
            ("strong_convergence", "elements")}
        for (cid, name), default in self.OPTIONAL_DEFAULTS.items():
            claim = claim_by_id(cid)
            p = claim.param_map
            p.pop(name, None)
            left_out = dataclasses.replace(claim, params=tuple(sorted(p.items())))
            p[name] = default
            written = dataclasses.replace(claim, params=tuple(sorted(p.items())))
            got = [dumps_record(probe_record(run_claim(c, models=MODELS)))
                   for c in (left_out, written)]
            assert got[0] == got[1], (cid, name)

    # the verdict operation each kind's runner calls
    KIND_OPERATIONS = {
        "sft_generators": "verify_sft_generators",
        "sft_all_elements": "certify_sft_all_elements",
        "vsft": "verify_vsft",
        "vsft_witness_search": "find_vsft_witness",
        "minimal_index": "minimal_vsft_index",
        "power_data": "check_power_data",
        "modified_radical": "modified_radical_power_index",
        "radical_equal": "check_radical_equal",
        "anyradical": "anyradical_index",
        "strong_convergence": "strong_convergence_check",
        "extension_vsft": "check_extension_vsft",
        "extension_sft_exponent": "check_sft_extension_exponent",
        "quotient_pushforward": "check_quotient_pushforward",
        "divergence": "divergence_table",
        "valuation_scan": "valuation_non_sft_scan",
    }

    def test_runners_call_operations_by_module_name(self, monkeypatch):
        # a tracer replaces each operation's name in every sftkit module
        # that holds it; a runner that kept the function object itself
        # would bypass the replacement
        calls = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        assert set(self.KIND_OPERATIONS) == set(CLAIM_KINDS)
        for name in self.KIND_OPERATIONS.values():
            fn = getattr(sftkit.sftcheck, name)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("sftkit")
                        and getattr(mod, name, None) is fn):
                    monkeypatch.setattr(mod, name, counting(name, fn))
        for kind, op in self.KIND_OPERATIONS.items():
            claim = next(c for c in catalog_claims() if c.kind == kind)
            calls.clear()
            run_claim(claim, models=MODELS, seed=0)
            assert calls[op] >= 1, (kind, op)

    def test_readme_table_lists_each_claim_kind(self):
        # README's claim-kind table: kind, operation, model, required
        # parameters, optional parameter, default
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                    for line in fh if line.startswith("| `")]
        rows = [row for row in rows if len(row) == 6]
        table = {row[0].strip("`"): row for row in rows}
        assert len(table) == len(rows)
        assert set(table) == set(CLAIM_KINDS)

        def names(cell):
            return {n.strip("` ") for n in cell.split(",") if n.strip()}

        for kind, k in CLAIM_KINDS.items():
            _, op, model, required, optional, _default = table[kind]
            assert op == f"`{self.KIND_OPERATIONS[kind]}`", kind
            assert model == ("yes" if k.names_model else "no"), kind
            assert names(required) == set(k.required), kind
            assert names(optional) == set(k.optional), kind

    def test_full_catalog_is_green(self):
        models, claims = catalog_models(), catalog_claims()
        results = run_suite(claims, models=models, seed=0)
        bad = [(r.claim.id, r.problems or r.error) for r in results if not r.ok]
        assert not bad
        assert exit_code(results) == 0
        lines = [dumps_record(drop_timing(report_record(r))) for r in results]
        with open(GOLDEN_RECORDS, encoding="utf-8") as fh:
            golden = fh.read().splitlines()
        assert len(lines) == len(golden)
        moved = [r.claim.id for r, got, want in zip(results, lines, golden)
                 if got != want]
        assert not moved, f"records moved: {moved}"

    def test_library_reads_no_budget_profile(self, monkeypatch):
        # only the command line reads SFTKIT_BUDGET_PROFILE: a context, a
        # model build and a claim run under Budgets() whatever it names
        with open(GOLDEN_RECORDS, encoding="utf-8") as fh:
            golden = fh.read().splitlines()
        for profile in ("deep", "bogus"):
            monkeypatch.setenv("SFTKIT_BUDGET_PROFILE", profile)
            assert SearchContext().budgets == Budgets()
            results = run_suite(catalog_claims(), catalog_models())
            assert [dumps_record(drop_timing(report_record(r)))
                    for r in results] == golden, profile


class TestTwinRunWithoutBitsets:
    """The catalog re-decided with every rank-1 bitset route off
    (exponents._RANK1_BOUND = -1): membership by the depth-first search,
    ideal membership by the generator loop, sumsets and the k = 2 witness
    scan by the pair loops. Only budgets_used may move."""

    # the claims on rational_valuation(6), about 9 s with the routes off;
    # they run on rational_valuation(5) in both modes instead
    SLOW = ("xv-sft-gens", "xv-vsft", "xv-witness-none", "xv-minimal-index",
            "xv-ext-vsft", "xv-divergence")

    @staticmethod
    def records(results) -> list:
        """Machine records without timing and budgets_used."""
        recs = [json.loads(dumps_record(report_record(r))) for r in results]
        return [{k: v for k, v in rec.items()
                 if k not in ("timing", "budgets_used")} for rec in recs]

    def test_fast_claims_match_the_golden_records(self, monkeypatch):
        monkeypatch.setattr(exponents, "_RANK1_BOUND", -1)
        claims = [c for c in catalog_claims() if c.id not in self.SLOW]
        assert len(claims) == 46
        got = self.records(run_suite(claims, models=catalog_models(), seed=0))
        with open(GOLDEN_RECORDS, encoding="utf-8") as fh:
            golden = [json.loads(line) for line in fh]
        want = [{k: v for k, v in rec.items() if k != "budgets_used"}
                for rec in golden if rec["claim"] not in self.SLOW]
        moved = [a["claim"] for a, b in zip(got, want) if a != b]
        assert len(got) == len(want) and not moved, f"records moved: {moved}"

    def test_slow_claims_agree_across_routes_on_a_smaller_model(
            self, monkeypatch):
        def smaller(c):
            """xv-divergence without its level 6 and the indices expected
            there; the others name the model, rebuilt below."""
            if c.model:
                return c
            levels = [lv for lv in c.param_map["levels"] if lv <= 5]
            return dataclasses.replace(c, expect_details=(), params=tuple(
                sorted({**c.param_map, "levels": levels}.items())))

        claims = [smaller(c) for c in catalog_claims() if c.id in self.SLOW]
        assert len(claims) == len(self.SLOW)
        runs, used = [], []
        for bound in (exponents._RANK1_BOUND, -1):
            monkeypatch.setattr(exponents, "_RANK1_BOUND", bound)
            models = {"rational_valuation":
                      build_model("rational_valuation", denBound=5)}
            results = run_suite(claims, models=models, seed=0)
            assert all(r.ok for r in results)
            runs.append(self.records(results))
            used.append([r.report.budgets_used for r in results])
        assert runs[0] == runs[1]
        assert used[0] != used[1]  # the routes did differ


class TestTwinRunWithoutSymmetry:
    """The catalog re-decided with no coordinate symmetry
    (MonoidPresentation._sym_classes = ()): no canonical membership
    queries and no orbit route in the ideal and verdict layers. Only
    budgets_used may move."""

    def test_catalog_matches_the_golden_records(self, monkeypatch):
        monkeypatch.setattr(MonoidPresentation, "_sym_classes", ())
        results = run_suite(catalog_claims(), models=catalog_models(), seed=0)
        got = TestTwinRunWithoutBitsets.records(results)
        with open(GOLDEN_RECORDS, encoding="utf-8") as fh:
            golden = [json.loads(line) for line in fh]
        want = [{k: v for k, v in rec.items() if k != "budgets_used"}
                for rec in golden]
        moved = [a["claim"] for a, b in zip(got, want) if a != b]
        assert len(got) == len(want) == 52 and not moved, f"records moved: {moved}"
        # the routes did differ
        assert ([r.report.budgets_used for r in results]
                != [rec["budgets_used"] for rec in golden])


class TestOrbitChecks:
    """_check_sub and _check_radical decide one generator per orbit and
    name the same failing generator as a loop over every one."""

    @staticmethod
    def spy(monkeypatch, cls, name) -> list:
        calls = []
        real = getattr(cls, name)

        def wrapped(self, x, *args, **kwargs):
            calls.append(x)
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)
        return calls

    def test_one_query_per_orbit(self, monkeypatch):
        from sftkit.ideals import MonomialIdeal
        from sftkit.sftcheck import _check_radical, _check_sub

        m = build_model("frobenius_quotient", p=2, v=4)
        mx = m.ideal("max")
        sq = mx.power(2)  # the six x_i x_j, one orbit
        contains = self.spy(monkeypatch, MonomialIdeal, "contains")
        radical = self.spy(monkeypatch, MonomialIdeal, "radical_index")
        _check_sub(mx, sq, SearchContext())
        _check_radical(mx, sq, 4, SearchContext())
        assert len(sq.generators) == 6 and len(contains) == 1
        assert len(mx.generators) == 4 and len(radical) == 1

    def test_failing_generator_is_the_same(self, monkeypatch):
        from sftkit.sftcheck import _check_radical, _check_sub

        def messages():
            m = build_model("fraction_monoid", v=3, M=2)
            out = []
            for check in (lambda: _check_sub(m.ideal("frac"), m.ideal("max"),
                                             SearchContext()),
                          lambda: _check_radical(m.ideal("max"), m.ideal("y"),
                                                 3, SearchContext())):
                with pytest.raises(PreconditionViolated) as err:
                    check()
                out.append(str(err.value))
            return out

        orbit = messages()
        monkeypatch.setattr(MonoidPresentation, "_sym_classes", ())
        assert messages() == orbit

