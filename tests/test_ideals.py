"""Ideal algebra tests against brute-force oracles.

The oracle enumerates every monoid element up to a weight bound by plain
breadth-first closure, with none of the library's search machinery, then
answers membership, minimality, powers, radicals and nilpotency from that
set directly. Library answers must match on every instance small enough
for the oracle to see whole.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from sftkit.budget import Budgets, SearchContext
from sftkit.errors import CombinatorialBudgetExceeded, PreconditionViolated
from sftkit.exponents import ExponentVector, MonoidPresentation
from sftkit.models import build_model
from sftkit.ideals import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    MonomialIdeal,
    ideal_contains,
    ideal_contains_witness,
    ideal_member,
    ideal_power,
    ideal_power_with_provenance,
    ideal_powers,
    minimalize,
    monomial_ideal,
    nilpotency_index,
    radical_member,
)


def ev(*vals) -> ExponentVector:
    return ExponentVector.from_dense(vals)


def presentation(*dense_gens, weights=None, **kw) -> MonoidPresentation:
    dim = len(dense_gens[0])
    gens = tuple(ExponentVector.from_dense(g) for g in dense_gens)
    if weights is None:
        weights = (1,) * dim
    return MonoidPresentation(dim, gens, weights, **kw)


def enumerate_monoid(S: MonoidPresentation, weight_bound) -> set:
    """All monoid elements of weight <= weight_bound, as dense tuples.

    Positive grading makes the closure finite; this is the trusted set the
    library answers are compared against.
    """
    gens = [(g.dense(), S.weight(g)) for g in S.gens]
    zero = tuple(Fraction(0) for _ in range(S.dim))
    seen = {zero: Fraction(0)}
    frontier = [zero]
    while frontier:
        nxt = []
        for base in frontier:
            wb = seen[base]
            for gd, wg in gens:
                w = wb + wg
                if w > weight_bound:
                    continue
                e = tuple(a + b for a, b in zip(base, gd))
                if e not in seen:
                    seen[e] = w
                    nxt.append(e)
        frontier = nxt
    return set(seen)


def oracle_ideal_member(S, elements, ideal_gens, target: ExponentVector) -> bool:
    td = target.dense()
    for g in ideal_gens:
        gd = g.dense()
        if tuple(a - b for a, b in zip(td, gd)) in elements:
            return True
    return False


def oracle_minimal(S, elements, exps) -> set:
    exps = set(exps)
    out = set()
    for e in exps:
        ed = e.dense()
        divisible = False
        for f in exps:
            if f == e:
                continue
            fd = f.dense()
            diff = tuple(a - b for a, b in zip(ed, fd))
            if diff in elements and any(diff):
                divisible = True
                break
            if diff in elements and not any(diff):
                # equal vectors; set() already collapsed them
                divisible = False
        if not divisible:
            out.add(e)
    return out


ORTHANT = presentation((1, 0), (0, 1))
EVEN_X = presentation((2, 0), (0, 1))
MIXED = presentation((1, -1, 0), (1, 0, -1), (0, 1, 0), (0, 0, 1), weights=(2, 1, 1))


def minimal(S, exps, ctx=None):
    """minimalize() across the lattice edge: exponent vectors in and out."""
    points = [S.to_lattice(e) for e in exps]
    return [S.from_lattice(v)
            for v in minimalize(S, points, ctx or SearchContext())]


class TestMinimalize:
    def test_divisor_chain_collapses(self):
        kept = minimal(ORTHANT, [ev(3, 0), ev(1, 0), ev(2, 0)])
        assert kept == [ev(1, 0)]

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(2)
        elements = enumerate_monoid(ORTHANT, 20)
        for _ in range(60):
            exps = [ev(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 6))]
            kept = minimal(ORTHANT, exps)
            assert set(kept) == oracle_minimal(ORTHANT, elements, exps)

    def test_result_ignores_input_order(self):
        rng = random.Random(3)
        exps = [ev(2, 1), ev(1, 3), ev(4, 0), ev(2, 2), ev(0, 5)]
        base = minimal(ORTHANT, list(exps))
        for _ in range(5):
            rng.shuffle(exps)
            assert minimal(ORTHANT, exps) == base

    def test_killed_generators_generate_nothing(self):
        S = presentation((1, 0), (0, 1), kill=("entry_ge", 3))
        kept = minimal(S, [ev(4, 0), ev(0, 2)])
        assert kept == [ev(0, 2)]

    def test_minimal_in_monoid_not_just_orthant(self):
        # (2,0) divides (3,0) in EVEN_X only if (1,0) is in the monoid; it is not
        kept = minimal(EVEN_X, [ev(2, 0), ev(3, 0)])
        assert set(kept) == {ev(2, 0), ev(3, 0)}
        assert minimal(EVEN_X, [ev(2, 0), ev(4, 0)]) == [ev(2, 0)]


class TestConstructor:
    def test_rejects_generator_outside_monoid(self):
        with pytest.raises(PreconditionViolated) as ei:
            monomial_ideal(EVEN_X, [ev(1, 0)])
        assert "monoid" in str(ei.value)

    def test_verify_membership_opt_out(self):
        I = monomial_ideal(EVEN_X, [ev(1, 0)], verify_membership=False)
        assert I.gens == (ev(1, 0),)

    def test_duplicates_and_redundancy_collapse(self):
        I = monomial_ideal(ORTHANT, [ev(1, 1), ev(1, 1), ev(2, 1), ev(1, 2)])
        assert I.gens == (ev(1, 1),)

    def test_zero_generator_gives_unit_ideal(self):
        I = monomial_ideal(ORTHANT, [ExponentVector.zero(2), ev(1, 0)])
        assert I.gens == (ExponentVector.zero(2),)
        assert ideal_member(I, ev(0, 0))
        assert ideal_member(I, ev(5, 7))

    def test_canonical_order_ascending_weight_then_lex(self):
        I = monomial_ideal(ORTHANT, [ev(0, 3), ev(2, 0), ev(1, 1)])
        ws = [ORTHANT.weight(g) for g in I.gens]
        assert ws == sorted(ws)
        assert I.gens == (ev(1, 1), ev(2, 0), ev(0, 3))

    def test_empty_generator_list_is_zero_ideal(self):
        I = monomial_ideal(ORTHANT, [])
        assert I.is_zero
        assert not ideal_member(I, ev(1, 0))


class TestIdealMember:
    def test_exhaustive_against_oracle_orthant(self):
        elements = enumerate_monoid(ORTHANT, 16)
        I = monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
        for a in range(8):
            for b in range(8):
                t = ev(a, b)
                assert ideal_member(I, t) == oracle_ideal_member(
                    ORTHANT, elements, I.gens, t), (a, b)

    def test_exhaustive_against_oracle_mixed_signs(self):
        elements = enumerate_monoid(MIXED, 14)
        I = monomial_ideal(MIXED, [ev(1, 0, -1), ev(0, 2, 0)])
        box = itertools.product(range(0, 5), range(-2, 4), range(-2, 4))
        checked = 0
        for a, b, c in box:
            t = ev(a, b, c)
            if MIXED.weight(t) > 10:
                continue
            got = ideal_member(I, t)
            want = oracle_ideal_member(MIXED, elements, I.gens, t)
            assert got == want, (a, b, c)
            checked += 1
        assert checked > 100

    def test_killed_target_lies_in_every_ideal(self):
        S = presentation((1, 0), (0, 1), kill=("entry_ge", 4))
        zero_ideal = monomial_ideal(S, [])
        assert ideal_member(zero_ideal, ev(5, 0))
        assert ideal_member(monomial_ideal(S, [ev(0, 2)]), ev(4, 0))
        assert not ideal_member(zero_ideal, ev(3, 3))

    def test_member_scales_with_monoid_structure(self):
        # in EVEN_X, (3,0) = (1,0) + (2,0) needs (1,0) in the monoid: it is not
        I = monomial_ideal(EVEN_X, [ev(2, 0)])
        assert ideal_member(I, ev(2, 0))
        assert not ideal_member(I, ev(3, 0))
        assert ideal_member(I, ev(4, 0))
        assert ideal_member(I, ev(2, 5))


class TestContainment:
    def test_reflexive_and_product_chain(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0), ev(0, 1)])
        assert ideal_contains(I, I)
        sq = ideal_power(I, 2)
        assert ideal_contains(I, sq)
        assert not ideal_contains(sq, I)

    def test_witness_is_first_uncontained_generator(self):
        I = monomial_ideal(ORTHANT, [ev(2, 0)])
        J = monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
        w = ideal_contains_witness(I, J)
        assert w == ev(1, 1)  # (2,0) is contained; (1,1) is the first failure

    def test_mutual_containment_means_equal_generators(self):
        rng = random.Random(5)
        pool = [ev(a, b) for a in range(4) for b in range(4) if a + b]
        for _ in range(40):
            I = monomial_ideal(ORTHANT, rng.sample(pool, 3))
            J = monomial_ideal(ORTHANT, rng.sample(pool, 3))
            if ideal_contains(I, J) and ideal_contains(J, I):
                assert I.gens == J.gens

    def test_cross_monoid_comparison_rejected(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0)])
        J = monomial_ideal(EVEN_X, [ev(2, 0)])
        with pytest.raises(PreconditionViolated):
            ideal_contains(I, J)


def oracle_power_gens(S, elements, I, m):
    sums = set()
    for combo in itertools.combinations_with_replacement(range(len(I.gens)), m):
        acc = tuple(Fraction(0) for _ in range(S.dim))
        for j in combo:
            acc = tuple(a + b for a, b in zip(acc, I.gens[j].dense()))
        sums.add(ExponentVector.from_dense(acc))
    return oracle_minimal(S, elements, sums)


def reference_minimalize(S, exps):
    """The Fraction-vector minimalize the lattice version replaced."""
    weighted = {}
    for e in exps:
        if e not in weighted and not S.is_killed(e):
            weighted[e] = S.weight(e)
    order = sorted(weighted, key=lambda e: (weighted[e], e.lex_key()))
    kept = []
    for cand in order:
        if not any(S.member(cand - k) is not None for k in kept
                   if S.weight(k) < weighted[cand]):
            kept.append(cand)
    return kept


def reference_powers(I, mmax):
    """The Fraction-vector power loop the lattice version replaced: yields
    (gens of I^m, provenance) for m = 1..mmax."""
    gens_dense = [g.dense() for g in I.gens]
    layer = {d: (i,) for i, d in enumerate(gens_dense)}
    current = list(I.gens)
    for m in range(1, mmax + 1):
        if m > 1 and gens_dense:
            nxt = {}
            for p in current:
                prov = layer[p.dense()]
                for j, gd in enumerate(gens_dense):
                    e = tuple(x + y for x, y in zip(p.dense(), gd))
                    if e not in nxt:
                        nxt[e] = tuple(sorted(prov + (j,)))
            current = reference_minimalize(
                I.monoid, [ExponentVector.from_dense(e) for e in nxt])
            layer = {e.dense(): nxt[e.dense()] for e in current}
        yield list(current), {e: layer[e.dense()] for e in current}


def power_pairs():
    yield "orthant", monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
    yield "mixed", monomial_ideal(MIXED, [ev(1, 0, -1), ev(0, 1, 1)])
    yield "even_x", monomial_ideal(EVEN_X, [ev(2, 0), ev(0, 1)])
    models = [build_model("char2_xy", v=5, D=10), build_model("dyadic", nmax=8),
              build_model("rational_valuation", denBound=3)]
    for m, (a, b) in zip(models, [("I", "B"), ("max", "two"), ("xV", "x")]):
        yield f"{m.name}:{a}", m.ideal(a)
        yield f"{m.name}:{b}", m.ideal(b)


class TestLatticeFrame:
    @pytest.mark.parametrize("name,I", list(power_pairs()),
                             ids=[n for n, _ in power_pairs()])
    def test_powers_match_fraction_reference(self, name, I):
        ctx = SearchContext()
        ref = reference_powers(I, 4)
        for (m, P, prov), (want_gens, want_prov) in zip(
                ideal_powers(I, 4, ctx), ref):
            assert list(P.gens) == want_gens, (name, m)
            assert list(prov.items()) == list(want_prov.items()), (name, m)
            Q, qprov = ideal_power_with_provenance(I, m)
            assert Q.gens == P.gens and qprov == prov
        assert m == 4

    def test_each_power_enumerated_once(self):
        I = monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
        ctx = SearchContext()
        sizes = [len(P.gens) for _, P, _ in ideal_powers(I, 4, ctx)]
        assert ctx.multisets_used == sum(n * len(I.gens) for n in sizes[:-1])
        one = SearchContext()
        ideal_power(I, 4, one)
        assert one.multisets_used == ctx.multisets_used

    def test_target_off_the_lattice_is_not_a_member(self):
        # denominator bound 2; 5/4 has denominator 4 = 2^2, which divides
        # s0^2 but not s0, so no integer combination reaches it
        S = presentation((Fraction(1, 2),), (Fraction(3, 2),))
        I = monomial_ideal(S, [ev(Fraction(1, 2))])
        ctx = SearchContext()
        assert S.member(ev(Fraction(5, 4)), ctx) is None
        assert not ideal_member(I, ev(Fraction(5, 4)), ctx)
        assert ctx.nodes_used == 0  # decided without a search
        assert ideal_member(I, ev(Fraction(5, 2)))

    def test_denominator_prime_to_the_bound_is_rejected(self):
        S = presentation((Fraction(1, 2),), (Fraction(3, 2),))
        I = monomial_ideal(S, [ev(Fraction(1, 2))])
        with pytest.raises(PreconditionViolated):
            ideal_member(I, ev(Fraction(5, 3)))
        with pytest.raises(PreconditionViolated):
            S.member(ev(Fraction(1, 6)))


class TestIdealPower:
    def test_power_one_is_identity(self):
        I = monomial_ideal(ORTHANT, [ev(1, 1)])
        assert ideal_power(I, 1) is I

    def test_power_matches_oracle(self):
        elements = enumerate_monoid(ORTHANT, 40)
        rng = random.Random(11)
        pool = [ev(a, b) for a in range(4) for b in range(4) if a + b]
        for _ in range(15):
            I = monomial_ideal(ORTHANT, rng.sample(pool, rng.randint(1, 3)))
            for m in (2, 3, 4):
                got = set(ideal_power(I, m).gens)
                assert got == oracle_power_gens(ORTHANT, elements, I, m), (I.gens, m)

    def test_provenance_factorizations_resum(self):
        I = monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
        for m in (1, 2, 3, 4):
            P, prov = ideal_power_with_provenance(I, m)
            assert set(prov) == set(P.gens)
            for g, indices in prov.items():
                assert len(indices) == m
                acc = ExponentVector.zero(2)
                for j in indices:
                    acc = acc + I.gens[j]
                assert acc == g

    def test_powers_nest(self):
        I = monomial_ideal(MIXED, [ev(1, 0, -1), ev(0, 1, 1)])
        prev = I
        for m in (2, 3):
            cur = ideal_power(I, m)
            assert ideal_contains(prev, cur)
            prev = cur

    def test_power_of_zero_ideal(self):
        Z = monomial_ideal(ORTHANT, [])
        assert ideal_power(Z, 3).is_zero

    def test_bad_exponent_rejected(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0)])
        with pytest.raises(PreconditionViolated):
            ideal_power_with_provenance(I, 0)

    def test_multiset_budget_enforced(self):
        I = monomial_ideal(ORTHANT, [ev(3, 0), ev(2, 1), ev(1, 2), ev(0, 3)])
        ctx = SearchContext(Budgets(multisets=5))
        with pytest.raises(CombinatorialBudgetExceeded):
            ideal_power(I, 4, ctx)


class TestRadical:
    def test_matches_oracle_small(self):
        elements = enumerate_monoid(ORTHANT, 60)
        B = monomial_ideal(ORTHANT, [ev(4, 0), ev(0, 6)])
        for a in range(4):
            for b in range(4):
                t = ev(a, b)
                r = radical_member(B, t, 8)
                ks = [k for k in range(1, 9)
                      if oracle_ideal_member(ORTHANT, elements, B.gens, t.scale(k))]
                if ks:
                    assert r.status == VERIFIED and r.k == ks[0]
                elif t.is_zero:
                    assert r.status == REFUTED
                else:
                    assert r.status == INCONCLUSIVE

    def test_k_is_minimal(self):
        B = monomial_ideal(ORTHANT, [ev(4, 0)])
        r = radical_member(B, ev(1, 0), 10)
        assert (r.status, r.k) == (VERIFIED, 4)
        assert radical_member(B, ev(2, 0), 10).k == 2

    def test_kmax_cutoff_is_inconclusive_not_refuted(self):
        B = monomial_ideal(ORTHANT, [ev(4, 0)])
        assert radical_member(B, ev(1, 0), 3).status == INCONCLUSIVE

    def test_zero_exponent_decided_outright(self):
        B = monomial_ideal(ORTHANT, [ev(1, 0)])
        assert radical_member(B, ExponentVector.zero(2), 5).status == REFUTED
        unit = monomial_ideal(ORTHANT, [ExponentVector.zero(2)])
        r = radical_member(unit, ExponentVector.zero(2), 5)
        assert (r.status, r.k) == (VERIFIED, 1)

    def test_bad_kmax_rejected(self):
        B = monomial_ideal(ORTHANT, [ev(1, 0)])
        with pytest.raises(PreconditionViolated):
            radical_member(B, ev(1, 0), 0)


class TestNilpotency:
    def test_known_indices_for_power_subideals(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0), ev(0, 1)])
        for m in (1, 2, 3):
            B = ideal_power(I, m)
            r = nilpotency_index(I, B, 5)
            assert (r.status, r.m) == (VERIFIED, m)

    def test_truncation_makes_maximal_ideal_nilpotent(self):
        # entries cap at 2, so any 5-fold product of x, y has a coordinate >= 3
        S = presentation((1, 0), (0, 1), kill=("entry_ge", 3))
        I = monomial_ideal(S, [ev(1, 0), ev(0, 1)])
        Z = monomial_ideal(S, [])
        r = nilpotency_index(I, Z, 8)
        assert (r.status, r.m) == (VERIFIED, 5)

    def test_mmax_cutoff_inconclusive(self):
        S = presentation((1, 0), (0, 1), kill=("entry_ge", 3))
        I = monomial_ideal(S, [ev(1, 0), ev(0, 1)])
        Z = monomial_ideal(S, [])
        assert nilpotency_index(I, Z, 4).status == INCONCLUSIVE

    def test_requires_subideal(self):
        I = monomial_ideal(ORTHANT, [ev(2, 0)])
        B = monomial_ideal(ORTHANT, [ev(0, 1)])
        with pytest.raises(PreconditionViolated):
            nilpotency_index(I, B, 3)

    def test_bad_mmax_rejected(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0)])
        with pytest.raises(PreconditionViolated):
            nilpotency_index(I, I, 0)
