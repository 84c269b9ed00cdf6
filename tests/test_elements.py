"""Element arithmetic tests for the three coefficient regimes.

Oracles here are small and direct: dictionary polynomial arithmetic for the
char-p ring (then reduce mod p and drop killed monomials), hand-evaluated
2-valuations for the dyadic normal form, and the even-coefficient predicate
for the integer model.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit.budget import Budgets, SearchContext
from sftkit.errors import (DegreeBudgetExceeded, PreconditionViolated,
                           UnsupportedIdeal)
from sftkit.elements import (
    CharPMonoidRing,
    DyadicRing,
    Int2xRing,
    IntIdeal,
    alive_ideal_monomials,
    element_add,
    element_in_ideal,
    element_multiply,
    element_power,
    element_scale,
    enumerate_ideal_elements,
    int_ideal_full,
    int_ideal_two,
    make_element,
    monomial_element,
    random_element,
    zero_element,
    _max_xdeg,
    _prefix_products,
)
from sftkit.exponents import ExponentVector, MonoidPresentation
from sftkit.files import jsonify
from sftkit.ideals import monomial_ideal
from sftkit.models import catalog_models


def ev(*vals) -> ExponentVector:
    return ExponentVector.from_dense(vals)


PLANE = MonoidPresentation(2, (ev(1, 0), ev(0, 1)), (1, 1))
PLANE_T2 = MonoidPresentation(2, (ev(1, 0), ev(0, 1)), (1, 1), kill_bound=2)
PLANE_T3 = MonoidPresentation(2, (ev(1, 0), ev(0, 1)), (1, 1), kill_bound=3)
HALF_LINE = MonoidPresentation(1, (ev(1), ev(Fraction(1, 2))), (1,))
CATALOG = catalog_models()


class TestCharPNormalization:
    def test_coefficients_reduce_mod_p(self):
        R = CharPMonoidRing(PLANE, 3)
        f = make_element(R, [((ev(1, 0), 0), 4), ((ev(0, 1), 0), 6)])
        assert f.terms == (((ev(1, 0), 0), 1),)

    def test_like_terms_cancel(self):
        R = CharPMonoidRing(PLANE, 5)
        f = make_element(R, [((ev(1, 1), 0), 2), ((ev(1, 1), 0), 3)])
        assert f.is_zero

    def test_killed_monomials_vanish(self):
        R = CharPMonoidRing(PLANE_T2, 2)
        f = make_element(R, [((ev(2, 0), 0), 1), ((ev(1, 1), 0), 1)])
        assert f.terms == (((ev(1, 1), 0), 1),)

    def test_term_order_tdeg_then_weight_then_lex(self):
        R = CharPMonoidRing(PLANE, 7)
        f = make_element(R, [((ev(2, 0), 1), 1), ((ev(0, 1), 1), 1),
                             ((ev(1, 0), 0), 1), ((ev(1, 1), 1), 1)])
        keys = [k for k, _ in f.terms]
        assert keys == [(ev(1, 0), 0), (ev(0, 1), 1), (ev(1, 1), 1), (ev(2, 0), 1)]

    def test_freshmans_dream(self):
        # (f + g)^p = f^p + g^p holds in any commutative F_p algebra
        for p in (2, 3, 5):
            R = CharPMonoidRing(PLANE_T3, p)
            f = make_element(R, [((ev(1, 0), 0), 1), ((ev(0, 1), 1), p - 1)])
            g = make_element(R, [((ev(1, 1), 0), 2 % p or 1), ((ev(0, 2), 2), 1)])
            lhs = element_power(element_add(f, g), p)
            rhs = element_add(element_power(f, p), element_power(g, p))
            assert lhs == rhs


class TestDyadicNormalization:
    R = DyadicRing(HALF_LINE)

    def test_even_coefficient_folds_into_exponent(self):
        f = make_element(self.R, [((ev(Fraction(1, 2)), 0), 12)])
        assert f.terms == (((ev(Fraction(1, 2) + 2), 0), Fraction(3)),)

    def test_unit_sum_refolds(self):
        # 1 + 1 = 2 = x, then 3x + x = 4x = x^3
        one = ((ExponentVector.zero(1), 0), 1)
        f = make_element(self.R, [one, one])
        assert f.terms == (((ev(1), 0), Fraction(1)),)
        g = make_element(self.R, [((ev(1), 0), 3), ((ev(1), 0), 1)])
        assert g.terms == (((ev(3), 0), Fraction(1)),)

    def test_exact_cancellation(self):
        f = make_element(self.R, [((ev(2), 0), 5), ((ev(2), 0), -5)])
        assert f.is_zero

    def test_normal_form_coefficients_are_odd_units(self):
        f = make_element(self.R, [((ev(Fraction(3, 4)), 0), 10),
                                  ((ev(0), 1), 7), ((ev(2), 0), -6)])
        for _k, c in f.terms:
            assert c.numerator % 2 == 1 and c.denominator % 2 == 1

    def test_two_adically_nonintegral_coefficient_rejected(self):
        with pytest.raises(PreconditionViolated):
            make_element(self.R, [((ev(1), 0), Fraction(1, 2))])

    def test_rank_one_only(self):
        # normal form folds the one coordinate, where x = 2
        with pytest.raises(ValueError):
            DyadicRing(PLANE)

    def test_multiplication_folds_valuations(self):
        a = make_element(self.R, [((ev(Fraction(1, 2)), 0), 2)])
        b = make_element(self.R, [((ev(Fraction(1, 4)), 0), 6)])
        prod = element_multiply(a, b)
        # 2 * 6 = 12 = 4 * 3, so the exponent gains 1 + 1 + 2
        assert prod.terms == (((ev(Fraction(3, 4) + 2), 0), Fraction(3)),)


class TestIntRing:
    R = Int2xRing()

    def test_odd_coefficient_at_positive_degree_rejected(self):
        with pytest.raises(PreconditionViolated) as ei:
            make_element(self.R, [((1, 0), 3)])
        assert "even" in ei.value.clause

    def test_odd_constants_allowed(self):
        f = make_element(self.R, [((0, 0), 3), ((2, 0), 4)])
        assert f.terms == (((0, 0), 3), ((2, 0), 4))

    def test_cancellation_can_rescue_parity(self):
        # 3x - 3x + 2x normalizes to 2x before the parity check
        f = make_element(self.R, [((1, 0), 3), ((1, 0), -3), ((1, 0), 2)])
        assert f.terms == (((1, 0), 2),)

    def test_max_degrees(self):
        f = make_element(self.R, [((0, 3), 1), ((2, 1), 2)])
        assert _max_xdeg(f.stored) == 2
        assert f.max_tdeg() == 3


class TestElementOps:
    def test_cross_ring_operations_rejected(self):
        f = monomial_element(CharPMonoidRing(PLANE, 2), ev(1, 0))
        g = monomial_element(CharPMonoidRing(PLANE, 3), ev(1, 0))
        with pytest.raises(PreconditionViolated):
            element_add(f, g)
        with pytest.raises(PreconditionViolated):
            element_multiply(f, g)

    def test_power_and_scale(self):
        R = Int2xRing()
        f = make_element(R, [((0, 0), 1), ((1, 0), 2)])
        cube = element_power(f, 3)
        # (1 + 2x)^3 = 1 + 6x + 12x^2 + 8x^3
        assert cube.terms == (((0, 0), 1), ((1, 0), 6), ((2, 0), 12), ((3, 0), 8))
        assert element_scale(f, 2).terms == (((0, 0), 2), ((1, 0), 4))
        with pytest.raises(PreconditionViolated):
            element_power(f, 0)

    def test_power_stops_at_zero(self, monkeypatch):
        # x_1^2 is killed in F_2[x_1, x_2]/(x_i^2): one product, not 10^5 - 1
        from sftkit import elements
        calls = []
        multiply = elements.element_multiply

        def counted(f, g, ctx=None):
            calls.append(1)
            return multiply(f, g, ctx)

        monkeypatch.setattr(elements, "element_multiply", counted)
        x = monomial_element(CharPMonoidRing(PLANE_T2, 2), ev(1, 0))
        assert element_power(x, 10 ** 5).is_zero
        assert len(calls) == 1
        assert element_power(zero_element(x.ring), 10 ** 5).is_zero
        assert len(calls) == 1

    def test_tdegree_cap_enforced(self):
        R = CharPMonoidRing(PLANE, 2)
        ctx = SearchContext(Budgets(degree_cap=4))
        f = monomial_element(R, ev(1, 0), tdeg=3)
        with pytest.raises(DegreeBudgetExceeded):
            element_multiply(f, f, ctx)

    def test_xdegree_cap_enforced(self):
        R = Int2xRing()
        ctx = SearchContext(Budgets(degree_cap=4))
        f = make_element(R, [((3, 0), 2)])
        with pytest.raises(DegreeBudgetExceeded):
            element_multiply(f, f, ctx)

    def test_zero_element_is_additive_identity(self):
        R = DyadicRing(HALF_LINE)
        f = make_element(R, [((ev(1), 2), 3)])
        assert element_add(f, zero_element(R)) == f
        assert element_multiply(f, zero_element(R)).is_zero


class TestIntIdeals:
    def test_full_ideal_predicate(self):
        I = int_ideal_full(3)
        R = Int2xRing()
        assert I.required(0) == 1 and I.required(3) == 1 and I.required(4) == 2
        assert element_in_ideal(make_element(R, [((0, 0), 2), ((3, 0), 2)]), I)
        assert not element_in_ideal(make_element(R, [((4, 0), 2)]), I)
        assert element_in_ideal(make_element(R, [((4, 0), 4)]), I)
        assert not element_in_ideal(make_element(R, [((0, 0), 1)]), I)

    def test_principal_two_predicate(self):
        J = int_ideal_two()
        R = Int2xRing()
        assert element_in_ideal(make_element(R, [((0, 0), 6)]), J)
        # 2x = 2 * x needs x in the ring; it is not, so 2x sits outside (2)
        assert not element_in_ideal(make_element(R, [((1, 0), 2)]), J)
        assert element_in_ideal(make_element(R, [((1, 0), 4)]), J)

    def test_power_of_principal(self):
        J = int_ideal_two().power(3)
        assert (J.v0, J.v_low, J.v_high, J.thresh) == (3, 4, 4, 0)
        R = Int2xRing()
        assert element_in_ideal(make_element(R, [((0, 0), 8)]), J)
        assert not element_in_ideal(make_element(R, [((0, 0), 4)]), J)

    def test_power_of_full_matches_product_oracle(self):
        import random as _r
        D, m = 2, 3
        I = int_ideal_full(D)
        P = I.power(m)
        assert (P.v0, P.v_low, P.v_high, P.thresh) == (m, m, m + 1, m * D)
        R = Int2xRing()
        rng = _r.Random(9)
        for _ in range(40):
            # random sum of products of m generators by ring multipliers
            acc = zero_element(R)
            for _s in range(rng.randint(1, 3)):
                prod = make_element(R, [((0, 0), rng.choice([1, 3, -1]))])
                for _f in range(m):
                    prod = element_multiply(prod, I.gens[rng.randrange(len(I.gens))])
                mult = make_element(R, [((0, 0), rng.randint(-2, 2)),
                                        ((rng.randint(1, 2), 0), 2 * rng.randint(0, 2))])
                acc = element_add(acc, element_multiply(prod, mult))
            assert element_in_ideal(acc, P)
        # boundary monomials pin the threshold
        assert element_in_ideal(monomial_element(R, m * D, 1 << m), P)
        assert not element_in_ideal(monomial_element(R, m * D + 1, 1 << m), P)
        assert element_in_ideal(monomial_element(R, m * D + 1, 1 << (m + 1)), P)

    def test_relaxed_degree_and_its_restrictions(self):
        I = int_ideal_full(2)
        relaxed = IntIdeal(I.v0, I.v_low, I.v_high, I.thresh, gens=I.gens, relax_at=5)
        assert relaxed.required(5) == I.v0
        assert relaxed.required(4) == I.v_high
        with pytest.raises(UnsupportedIdeal):
            relaxed.power(2)

    def test_power_one_is_self(self):
        I = int_ideal_full(2)
        assert I.power(1) is I
        with pytest.raises(PreconditionViolated):
            I.power(0)

    def test_element_predicate_is_the_key_predicate_on_every_term(self):
        # contains(PolyElement) tests low bits in one loop; the key form
        # goes through _v2_int and required()
        import random as _r
        rng = _r.Random(22)
        R = Int2xRing()
        I = int_ideal_full(3)
        ideals = [I, I.power(2), int_ideal_two(), int_ideal_two().power(3),
                  IntIdeal(I.v0, I.v_low, I.v_high, I.thresh, gens=I.gens,
                           relax_at=5)]
        inside = 0
        for _ in range(300):
            terms = [((0, rng.randint(0, 2)), rng.randint(-40, 40))]
            terms += [((rng.randint(1, 7), rng.randint(0, 2)),
                       2 * rng.randint(-40, 40)) for _ in range(rng.randint(0, 3))]
            f = make_element(R, terms)
            for J in ideals:
                want = all(J.contains((xd, c)) for (xd, _td), c in f.stored)
                assert J.contains(f) == want, (f.stored, J)
                inside += want
        assert 100 < inside < 1400

    def test_products_match_the_term_pair_oracle(self):
        import random as _r
        rng = _r.Random(23)
        R = Int2xRing()

        def rand():
            terms = [((0, rng.randint(0, 2)), rng.randint(-5, 5))]
            terms += [((rng.randint(1, 4), rng.randint(0, 2)),
                       2 * rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))]
            return make_element(R, terms)

        for _ in range(200):
            f, g = rand(), rand()
            acc = {}
            for (x1, t1), c1 in f.stored:
                for (x2, t2), c2 in g.stored:
                    k = (x1 + x2, t1 + t2)
                    acc[k] = acc.get(k, 0) + c1 * c2
            want = sorted(((k, c) for k, c in acc.items() if c),
                          key=lambda t: (t[0][1], t[0][0]))
            fg = element_multiply(f, g)
            assert list(fg.stored) == want
            assert fg._xdeg == _max_xdeg(fg.stored)


class TestElementInIdeal:
    def test_monoid_side_checks_every_term(self):
        R = CharPMonoidRing(PLANE, 3)
        I = monomial_ideal(PLANE, [ev(1, 0)])
        inside = make_element(R, [((ev(1, 0), 0), 1), ((ev(2, 1), 4), 2)])
        outside = make_element(R, [((ev(1, 0), 0), 1), ((ev(0, 1), 0), 1)])
        assert element_in_ideal(inside, I)
        assert not element_in_ideal(outside, I)

    def test_tdegree_rides_free(self):
        R = CharPMonoidRing(PLANE, 2)
        I = monomial_ideal(PLANE, [ev(0, 2)])
        f = monomial_element(R, ev(0, 2), tdeg=7)
        assert element_in_ideal(f, I)

    def test_mismatched_handles_rejected(self):
        R = CharPMonoidRing(PLANE, 2)
        I = monomial_ideal(PLANE, [ev(1, 0)])
        fint = make_element(Int2xRing(), [((0, 0), 2)])
        fmon = monomial_element(R, ev(1, 0))
        with pytest.raises(UnsupportedIdeal):
            element_in_ideal(fint, I)
        with pytest.raises(UnsupportedIdeal):
            element_in_ideal(fmon, int_ideal_two())
        with pytest.raises(UnsupportedIdeal):
            element_in_ideal(fmon, object())


class TestSampling:
    def test_deterministic_in_seed(self):
        R = CharPMonoidRing(PLANE_T3, 3)
        I = monomial_ideal(PLANE_T3, [ev(1, 0), ev(0, 1)])
        a = random_element(R, I, 3, seed=41)
        b = random_element(R, I, 3, seed=41)
        c = random_element(R, I, 3, seed=42)
        assert a == b
        assert a != c  # adjacent seeds diverging is what reproducibility buys

    def test_samples_land_in_ideal_all_regimes(self):
        R1 = CharPMonoidRing(PLANE_T3, 2)
        I1 = monomial_ideal(PLANE_T3, [ev(1, 0), ev(0, 1)])
        R2 = DyadicRing(HALF_LINE)
        I2 = monomial_ideal(HALF_LINE, [ev(1)])
        R3 = Int2xRing()
        I3 = int_ideal_full(2)
        for seed in range(12):
            assert element_in_ideal(random_element(R1, I1, 2, seed), I1)
            assert element_in_ideal(random_element(R2, I2, 2, seed), I2)
            assert element_in_ideal(random_element(R3, I3, 2, seed), I3)

    def test_zero_ideal_samples_zero(self):
        R = CharPMonoidRing(PLANE_T2, 2)
        Z = monomial_ideal(PLANE_T2, [])
        assert random_element(R, Z, 2, seed=1, allow_zero=True).is_zero


class TestFiniteEnumeration:
    def test_alive_monomials_of_maximal_ideal(self):
        R = CharPMonoidRing(PLANE_T2, 2)
        I = monomial_ideal(PLANE_T2, [ev(1, 0), ev(0, 1)])
        alive = alive_ideal_monomials(R, I)
        assert alive == [ev(0, 1), ev(1, 0), ev(1, 1)]

    def test_needs_entry_bounded_quotient(self):
        R = CharPMonoidRing(PLANE, 2)
        I = monomial_ideal(PLANE, [ev(1, 0)])
        with pytest.raises(UnsupportedIdeal):
            alive_ideal_monomials(R, I)

    def test_enumeration_counts_and_membership(self):
        R = CharPMonoidRing(PLANE_T2, 3)
        I = monomial_ideal(PLANE_T2, [ev(1, 0), ev(0, 1)])
        monomials = alive_ideal_monomials(R, I)
        elems = list(enumerate_ideal_elements(R, monomials))
        assert len(elems) == 3 ** len(monomials)
        assert len(set(elems)) == len(elems)
        assert sum(1 for f in elems if f.is_zero) == 1
        for f in elems:
            assert element_in_ideal(f, I)


# ---------------------------------------------------------------------------
# a Fraction-keyed dictionary oracle for the stored lattice-point terms
#
# Elements of the oracle are dicts {(dense Fraction exponent, tdeg): coeff}
# kept in term order. Membership in the monoids below is read off the
# coordinates (every generator is a unit vector times 1/d), so the kill
# predicates are decided without the membership search.

HALF_PLANE_T2 = MonoidPresentation(2, (ev(Fraction(1, 2), 0), ev(0, 1)), (1, 2),
                                   kill_bound=2)
PLANE_IG = MonoidPresentation(2, (ev(1, 0), ev(0, 1)), (1, 1),
                              kill_points=(ev(2, 1), ev(0, 3)))
PLANE_OR = MonoidPresentation(2, (ev(1, 0), ev(0, 1)), (2, 1),
                              kill_bound=3, kill_points=(ev(1, 1),))
_UNIT_DENOMS = {HALF_PLANE_T2: (2, 1), PLANE_IG: (1, 1), PLANE_OR: (1, 1)}


def _oracle_in_monoid(S, e) -> bool:
    return all(x >= 0 and (x * d).denominator == 1
               for x, d in zip(e, _UNIT_DENOMS[S]))


def _oracle_killed(S, e) -> bool:
    if S.kill_bound is not None and any(x >= S.kill_bound for x in e):
        return True
    return any(_oracle_in_monoid(S, tuple(a - b for a, b in zip(e, g.dense())))
               for g in S.kill_points)


def _oracle_charp(R, pairs) -> dict:
    S = R.monoid
    acc: dict = {}
    for (e, td), c in pairs:
        acc[(e, td)] = (acc.get((e, td), 0) + c) % R.p
    s0 = S.denominator_bound
    alive = {k: c for k, c in acc.items() if c and not (
        all((x * s0).denominator == 1 for x in k[0])  # off the lattice: kept
        and _oracle_killed(S, k[0]))}
    weight = lambda e: sum(w * x for w, x in zip(S.weights, e))  # noqa: E731
    return dict(sorted(alive.items(),
                       key=lambda kc: (kc[0][1], weight(kc[0][0]), kc[0][0])))


def _oracle_dyadic(pairs) -> dict:
    # one term per (exponent mod 1, tdeg), on Fraction exponents: with r the
    # class's least exponent, sum c * x^e = W * x^r for W = sum c * 2^(e - r),
    # and W = u * 2^v (u odd over odd) is u * x^(r + v)
    classes: dict = {}
    for (e, td), c in pairs:
        if c:
            classes.setdefault((e[0] % 1, td), []).append((e[0], Fraction(c)))
    acc: dict = {}
    for (_cls, td), terms in classes.items():
        r = min(e for e, _c in terms)
        w = sum((c * 2 ** int(e - r) for e, c in terms), Fraction(0))
        if w:
            v = 0
            while w.numerator % 2 ** (v + 1) == 0:
                v += 1
            acc[((r + v,), td)] = w / 2 ** v
    return dict(sorted(acc.items(), key=lambda kc: (kc[0][1], kc[0][0])))


def _oracle(R, pairs) -> dict:
    if isinstance(R, DyadicRing):
        return _oracle_dyadic(pairs)
    return _oracle_charp(R, pairs)


def _ev_pairs(pairs):
    return [((ExponentVector.from_dense(e), td), c) for (e, td), c in pairs]


def _assert_matches(f, oracle: dict):
    terms = tuple(((ExponentVector.from_dense(e), td), c)
                  for (e, td), c in oracle.items())
    assert f.terms == terms
    body = " + ".join(f"{c}*{k}" for k, c in terms[:6])
    body += " + ..." if len(terms) > 6 else ""
    assert repr(f) == (f"Poly({body})" if terms else "Poly(0)")
    assert jsonify(f) == {"terms": [
        [[str(x) for x in e], td, str(c) if isinstance(c, Fraction) else c]
        for (e, td), c in oracle.items()]}


# exponent entries on and off each monoid's lattice (denominators 1, 2, 4)
_ENTRY = st.builds(Fraction, st.integers(-2, 5), st.sampled_from([1, 2, 4]))


def _pairs(dim: int, coeff):
    key = st.tuples(st.tuples(*[_ENTRY] * dim), st.integers(0, 2))
    return st.lists(st.tuples(key, coeff), max_size=5)


def _oracle_int(pairs):
    """{(xdeg, tdeg): coeff} in term order, or None when a positive x-power
    keeps an odd coefficient (not an element of Z + 2xZ[x])."""
    acc: dict = {}
    for k, c in pairs:
        acc[k] = acc.get(k, 0) + c
    alive = {k: c for k, c in acc.items() if c}
    if any(xd > 0 and c % 2 for (xd, _td), c in alive.items()):
        return None
    return dict(sorted(alive.items(), key=lambda kc: (kc[0][1], kc[0][0])))


def _assert_int_matches(f, oracle: dict):
    terms = tuple(oracle.items())
    assert f.terms == f.stored == terms
    body = " + ".join(f"{c}*{k}" for k, c in terms[:6])
    body += " + ..." if len(terms) > 6 else ""
    assert repr(f) == (f"Poly({body})" if terms else "Poly(0)")
    assert jsonify(f) == {"terms": [[xd, td, c] for (xd, td), c in terms]}


# mostly even coefficients, so most drawn lists are ring elements
_INT_PAIRS = st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 2)),
                                st.sampled_from([-6, -4, -2, 2, 4, 8, -3, 1, 5])),
                      max_size=5)
_CHARP_COEFF = st.integers(-3, 6)
_DYADIC_COEFF = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3]))


class TestLatticeTermsMatchOracle:
    @pytest.mark.parametrize("S,p", [(HALF_PLANE_T2, 3), (PLANE_IG, 2),
                                     (PLANE_OR, 5)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_charp(self, S, p, data):
        R = CharPMonoidRing(S, p)
        self._check(R, data.draw(_pairs(2, _CHARP_COEFF)),
                    data.draw(_pairs(2, _CHARP_COEFF)),
                    data.draw(st.integers(-3, 7)))

    @settings(max_examples=100, deadline=None)
    @given(f=_pairs(1, _DYADIC_COEFF), g=_pairs(1, _DYADIC_COEFF),
           s=st.sampled_from([1, -1, 2, 3, 6, Fraction(4, 3)]))
    def test_dyadic_refolding(self, f, g, s):
        self._check(DyadicRing(HALF_LINE), f, g, s)

    @settings(max_examples=100, deadline=None)
    @given(f=_INT_PAIRS, g=_INT_PAIRS, s=st.sampled_from([1, -1, 2, 3, -6]))
    def test_int(self, f, g, s):
        R = Int2xRing()
        of, og = _oracle_int(f), _oracle_int(g)
        for pairs, want in ((f, of), (g, og)):
            if want is None:
                with pytest.raises(PreconditionViolated):
                    make_element(R, pairs)
        if of is None or og is None:
            return
        fe, ge = make_element(R, f), make_element(R, g)
        _assert_int_matches(fe, of)
        _assert_int_matches(ge, og)
        _assert_int_matches(element_add(fe, ge),
                            _oracle_int(list(of.items()) + list(og.items())))
        _assert_int_matches(element_multiply(fe, ge), _oracle_int([
            ((x1 + x2, t1 + t2), c1 * c2)
            for (x1, t1), c1 in of.items() for (x2, t2), c2 in og.items()]))
        _assert_int_matches(element_scale(fe, s),
                            _oracle_int([(k, c * s) for k, c in of.items()]))

    @staticmethod
    def _check(R, fp, gp, s):
        f, g = make_element(R, _ev_pairs(fp)), make_element(R, _ev_pairs(gp))
        of, og = _oracle(R, fp), _oracle(R, gp)
        _assert_matches(f, of)
        _assert_matches(g, og)
        _assert_matches(element_add(f, g), _oracle(R, list(of.items()) + list(og.items())))
        _assert_matches(element_multiply(f, g), _oracle(R, [
            ((tuple(a + b for a, b in zip(e1, e2)), t1 + t2), c1 * c2)
            for (e1, t1), c1 in of.items() for (e2, t2), c2 in og.items()]))
        _assert_matches(element_scale(f, s),
                        _oracle(R, [(k, c * s) for k, c in of.items()]))


class TestSamplesArePinned:
    """random_element draws in a fixed rng order, so a seed names one
    element in every frame the terms are kept in; these reprs pin it."""

    PINNED = {
        ("frobenius_p2", "max", 0): "Poly(1*(EV(1:1)@5, 1) + 1*(EV(0:1,3:1)@5, 1))",
        ("frobenius_p2", "max", 7): "Poly(1*(EV(0:1,3:1)@5, 0) + 1*(EV(0:1)@5, 1))",
        ("frobenius_p2", "max", 12345): "Poly(1*(EV(2:1,4:1)@5, 0) + 1*(EV(1:1,2:1,3:1)@5, 1))",
        ("frobenius_p3", "max", 0): "Poly(2*(EV(1:1)@5, 1) + 1*(EV(1:1,3:1)@5, 1))",
        ("frobenius_p3", "max", 7): "Poly(1*(EV(0:1,3:1)@5, 0) + 1*(EV(0:1,2:1,4:1)@5, 0))",
        ("frobenius_p3", "max", 12345): "Poly(2*(EV(2:1,4:1)@5, 0) + 1*(EV(0:1,1:1)@5, 1))",
        ("char2_xy", "I", 0): "Poly(1*(EV(0:1,2:1)@6, 1) + 1*(EV(0:1,1:3)@6, 1))",
        ("char2_xy", "I", 7): "Poly(1*(EV(0:1,4:1,5:2)@6, 0) + 1*(EV(0:3,1:1,5:2)@6, 2))",
        ("char2_xy", "I", 12345): "Poly(1*(EV(0:1,3:1)@6, 1) + 1*(EV(0:2)@6, 1))",
        ("dyadic", "max", 0): "Poly(5*(EV(0:385/64)@1, 1) + 3*(EV(0:1667/128)@1, 1))",
        ("dyadic", "max", 7): "Poly(1*(EV(0:13/4)@1, 0) + 1*(EV(0:3593/256)@1, 0))",
        ("dyadic", "max", 12345): "Poly(-1*(EV(0:193/32)@1, 0) + 1*(EV(0:385/64)@1, 1))",
        ("int_plus_2x", "full", 0): "Poly(12*(7, 0))",
        ("int_plus_2x", "full", 7): "Poly(-8*(4, 0) + -6*(8, 0) + 8*(9, 0))",
        ("int_plus_2x", "full", 12345): "Poly(6*(0, 0) + -4*(5, 0) + 2*(4, 1))",
    }

    @pytest.mark.parametrize("model,ideal,seed", sorted(PINNED))
    def test_repr_is_pinned(self, model, ideal, seed):
        m = CATALOG[model]
        f = random_element(m.ring, m.ideal(ideal), 2, seed)
        assert repr(f) == self.PINNED[model, ideal, seed]


# ---------------------------------------------------------------------------
# the integer model's ideal protocol on monomial keys


def _key(f):
    """The (xdeg, coeff) key of a one-term element at t-degree 0."""
    ((xd, td), c), = f.stored
    assert td == 0
    return xd, c


def _element_products(I, n, ctx):
    """Left-to-right element_multiply products of the gens, per combo."""
    for combo in itertools.combinations_with_replacement(range(len(I.gens)), n):
        prod = I.gens[combo[0]]
        for j in combo[1:]:
            prod = element_multiply(prod, I.gens[j], ctx)
        yield combo, prod


class TestIntIdealKeys:
    IDEALS = {
        "full3": int_ideal_full(3),
        "two^2": int_ideal_two().power(2),
        "full3-relaxed": dataclasses.replace(int_ideal_full(3), relax_at=5),
        "two-relaxed": dataclasses.replace(int_ideal_two(), relax_at=2),
    }

    @pytest.mark.parametrize("name", sorted(IDEALS))
    def test_generators_are_the_gens_keys(self, name):
        I = self.IDEALS[name]
        assert I.generators == tuple(map(_key, I.gens))

    @pytest.mark.parametrize("name", sorted(IDEALS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_products_match_element_products(self, name, n):
        I = self.IDEALS[name]
        ctx, ref_ctx = SearchContext(), SearchContext()
        got = list(I.products(n, ctx))
        want = [(combo, _key(f)) for combo, f in _element_products(I, n, ref_ctx)]
        assert got == want
        assert ctx.multisets_used == len(want)
        for combo, key in got:
            f = monomial_element(Int2xRing(), key[0], key[1])
            for J in self.IDEALS.values():
                assert J.contains(key) == element_in_ideal(f, J)

    @pytest.mark.parametrize("name", sorted(IDEALS))
    def test_radical_index_matches_element_powers(self, name):
        B = self.IDEALS[name]
        for J in self.IDEALS.values():
            for key, g in zip(J.generators, J.gens):
                want, cur = None, g
                for k in range(1, 5):
                    if element_in_ideal(cur, B):
                        want = k
                        break
                    cur = element_multiply(cur, g)
                assert B.radical_index(key, 4) == want

    def test_element_in_ideal_is_the_key_predicate_termwise(self):
        R = Int2xRing()
        f = make_element(R, [((0, 0), 2), ((2, 1), 4), ((5, 0), 2)])
        for I in self.IDEALS.values():
            assert element_in_ideal(f, I) == all(
                I.contains((xd, c)) for (xd, _td), c in f.stored)

    def test_non_monomial_generator_refused(self):
        R = Int2xRing()
        for bad in (make_element(R, [((0, 0), 2), ((1, 0), 2)]),
                    make_element(R, [((1, 1), 2)]),
                    zero_element(R)):
            with pytest.raises(PreconditionViolated) as ei:
                IntIdeal(1, 1, 2, 1, gens=(bad,))
            assert "monomials" in ei.value.clause

    # the first DegreeBudgetExceeded: (ideal, n, combos yielded before it,
    # message), as the element-product route raises it
    CAP16 = [
        (int_ideal_full(10), 2, 59, "x-degree 17 exceeds cap 16"),
        (int_ideal_full(10), 3, 59, "x-degree 17 exceeds cap 16"),
        (int_ideal_full(3).power(3), 2, 53, "x-degree 17 exceeds cap 16"),
        (int_ideal_full(3).power(3), 3, 53, "x-degree 17 exceeds cap 16"),
    ]

    @pytest.mark.parametrize("I,n,before,message", CAP16)
    def test_degree_cap_raises_at_the_same_product(self, I, n, before, message):
        for products in (I.products, lambda n, ctx: (
                (c, _key(f)) for c, f in _element_products(I, n, ctx))):
            ctx = SearchContext(Budgets(degree_cap=16))
            seen = 0
            with pytest.raises(DegreeBudgetExceeded) as ei:
                for _ in products(n, ctx):
                    seen += 1
            assert (seen, str(ei.value)) == (before, message)

    def test_degree_cap_in_radical_index(self):
        g = int_ideal_full(10).generators[-1]
        with pytest.raises(DegreeBudgetExceeded) as ei:
            int_ideal_two().radical_index(g, 4, SearchContext(Budgets(degree_cap=16)))
        assert str(ei.value) == "x-degree 20 exceeds cap 16"


class TestPrefixProducts:
    @pytest.mark.parametrize("combos", [
        lambda: itertools.combinations(range(6), 3),
        lambda: itertools.combinations_with_replacement(range(4), 4),
        lambda: iter([]),
    ])
    def test_each_prefix_multiplied_once(self, combos):
        calls = []

        def multiply(x, y, ctx):
            calls.append((x, y))
            return x + y

        factors = ("a", "b", "c", "d", "e", "f")
        got = list(_prefix_products(combos(), factors, multiply, None))
        assert got == [(c, "".join(factors[j] for j in c)) for c in combos()]
        prefixes = {c[:j] for c in combos() for j in range(2, len(c) + 1)}
        assert len(calls) == len(prefixes)


# ---------------------------------------------------------------------------
# the dyadic normal form is canonical: one term per exponent class mod 1

DYADIC = CATALOG["dyadic"]
_DYADIC_POINTS = sorted({g + h for g in DYADIC.monoid.gens
                         for h in DYADIC.monoid.gens}
                        | set(DYADIC.monoid.gens), key=lambda e: e.dense())
_ODD_OVER_ODD = st.builds(Fraction, st.integers(-12, 12),
                          st.sampled_from([1, 3, 5]))


def _dyadic_keys(R):
    """(exponent, tdeg) keys on R: catalog points on the dyadic monoid, and
    on either ring exponents a + b/(2 s0), so b odd is off the lattice and
    classes mod 1 repeat often."""
    s0 = R.monoid.denominator_bound
    exps = st.builds(lambda a, b: ev(a + Fraction(b, 2 * s0)),
                     st.integers(0, 3), st.sampled_from([0, 1, 2, 3]))
    if R == DYADIC.ring:
        exps = st.one_of(exps, st.sampled_from(_DYADIC_POINTS))
    return st.tuples(exps, st.integers(0, 2))


def _rewritten(terms, splits):
    """The same element in other terms: c * x^e becomes (c - 2m) * x^e +
    m * x^(e+1), since x = 2."""
    out = []
    for ((e, td), c), m in zip(terms, splits):
        out += [((e, td), c - 2 * m), ((e + ev(1), td), m)]
    return out + terms[len(splits):]


class TestDyadicNormalForm:
    @pytest.mark.parametrize("R", [DYADIC.ring, DyadicRing(HALF_LINE)],
                             ids=["catalog", "half_line"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stored_form_is_the_element(self, R, data):
        pairs = st.lists(st.tuples(_dyadic_keys(R), _ODD_OVER_ODD), max_size=6)
        terms, other = data.draw(pairs), data.draw(pairs)
        f, h = make_element(R, terms), make_element(R, other)
        assert f == make_element(R, terms[::-1])
        assert element_add(f, h) == element_add(h, f)
        assert element_multiply(f, h) == element_multiply(h, f)
        # g is f rewritten, shuffled, and maybe plus one more monomial
        splits = data.draw(st.lists(st.integers(-3, 3), max_size=len(terms)))
        moved = data.draw(st.permutations(_rewritten(terms, splits)))
        extra = data.draw(st.lists(st.tuples(
            _dyadic_keys(R), st.sampled_from([1, -3])), max_size=1))
        g = make_element(R, moved + extra)
        same = element_add(f, element_scale(g, -1)).is_zero
        assert (f.stored == g.stored) == same == (not extra)
        if same:
            assert element_multiply(g, h) == element_multiply(f, h)

    def test_same_element_two_term_sets(self):
        # 3 = 1 + 2 = 1 + x: both term sets store the one term 3
        R = DyadicRing(HALF_LINE)
        a = make_element(R, [((ev(0), 0), 3)])
        b = make_element(R, [((ev(0), 0), 1), ((ev(1), 0), 1)])
        assert a == b
        assert a.terms == b.terms == (((ev(0), 0), 3),)
        assert element_add(a, element_scale(b, -1)).is_zero

    def test_normal_form_depends_on_input_order(self):
        # 1 + 1 + 3 = 5 in one exponent class: read from either end it
        # folds to the one term 5, so the stored form does not depend on
        # the order of the input
        R = DyadicRing(HALF_LINE)
        one = ExponentVector.zero(1)
        pairs = [((one, 0), 1), ((one, 0), 1), ((one, 0), 3)]
        fwd = make_element(R, pairs)
        rev = make_element(R, pairs[::-1])
        assert fwd.terms == rev.terms == (((one, 0), 5),)
        assert element_add(fwd, element_scale(rev, -1)).is_zero

    @settings(max_examples=150, deadline=None)
    @given(terms=st.lists(st.tuples(
        st.tuples(st.sampled_from(_DYADIC_POINTS), st.integers(0, 2)),
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3]))),
        max_size=6))
    def test_membership_and_zero_ignore_term_order(self, terms):
        R = DYADIC.ring
        f = make_element(R, terms)
        g = make_element(R, terms[::-1])
        assert f.is_zero == g.is_zero
        assert element_add(f, element_scale(g, -1)).is_zero
        for name in ("max", "two"):
            I = DYADIC.ideal(name)
            assert element_in_ideal(f, I) == element_in_ideal(g, I)
