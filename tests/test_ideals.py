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
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit import exponents, ideals
from sftkit.budget import Budgets, SearchContext
from sftkit.errors import (CombinatorialBudgetExceeded, PreconditionViolated,
                           SearchBudgetExceeded)
from sftkit.exponents import ExponentVector, MonoidPresentation
from sftkit.models import build_model
from sftkit.ideals import (
    MonomialIdeal,
    _divides,
    _pair_sums,
    _rank1_sums,
    ideal_lattice_member,
    ideal_member,
    ideal_power_with_provenance,
    lattice_ideal,
    least_power_inside,
    minimalize,
    monomial_ideal,
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
        S = presentation((1, 0), (0, 1), kill_bound=3)
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

    def test_lattice_ideal_trusts_its_points(self):
        I = lattice_ideal(EVEN_X, [(1, 0)])
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
        S = presentation((1, 0), (0, 1), kill_bound=4)
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


# ---------------------------------------------------------------------------
# the zero set of a truncation: a kill bound and kill points


@st.composite
def truncations(draw):
    """A presentation on nonnegative generators with a kill bound (or none)
    and kill points, and two more lists of points to take quotients by."""
    dim = draw(st.integers(min_value=1, max_value=3))
    point = st.tuples(*[st.integers(min_value=0, max_value=3)] * dim)
    points = st.lists(point, max_size=2).map(lambda ps: tuple(ev(*p) for p in ps))
    gens = draw(st.lists(point.filter(any), min_size=1, max_size=4, unique=True))
    S = presentation(*gens, kill_bound=draw(st.none() | st.integers(1, 5)),
                     kill_points=draw(points))
    return S, draw(points), draw(points)


BOX = 6  # the lattice points checked: every entry 0..BOX


def killed_box(S) -> set:
    return {v for v in itertools.product(range(BOX + 1), repeat=S.dim)
            if S.lattice_killed(v)}


class TestZeroSet:
    @settings(max_examples=60, deadline=None)
    @given(truncations())
    def test_lattice_killed_is_the_definition(self, case):
        # zero: an entry reaches the bound, or a kill point plus an element
        S, _, _ = case
        elements = enumerate_monoid(S, BOX * S.dim)
        for v in itertools.product(range(BOX + 1), repeat=S.dim):
            want = ((S.kill_bound is not None and max(v) >= S.kill_bound)
                    or oracle_ideal_member(S, elements, S.kill_points, ev(*v)))
            assert S.lattice_killed(v) == want, v

    @settings(max_examples=60, deadline=None)
    @given(truncations())
    def test_quotients_compose(self, case):
        S, a, b = case
        assert killed_box(S.quotient(a).quotient(b)) == killed_box(S.quotient(a + b))


def contains(I, J) -> bool:
    """J ⊆ I: every generator of J is in I."""
    return all(I.contains(v) for v in J.generators)


class TestContainment:
    def test_reflexive_and_product_chain(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0), ev(0, 1)])
        assert contains(I, I)
        sq = I.power(2)
        assert contains(I, sq)
        assert not contains(sq, I)

    def test_witness_is_first_uncontained_generator(self):
        I = monomial_ideal(ORTHANT, [ev(2, 0)])
        J = monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
        w = next(v for v in J.generators if not I.contains(v))
        assert w == (1, 1)  # (2,0) is contained; (1,1) is the first failure

    def test_mutual_containment_means_equal_generators(self):
        rng = random.Random(5)
        pool = [ev(a, b) for a in range(4) for b in range(4) if a + b]
        for _ in range(40):
            I = monomial_ideal(ORTHANT, rng.sample(pool, 3))
            J = monomial_ideal(ORTHANT, rng.sample(pool, 3))
            if contains(I, J) and contains(J, I):
                assert I.gens == J.gens


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
    order = sorted(weighted, key=lambda e: (weighted[e], e.dense()))
    kept = []
    for cand in order:
        if not any(S.member(cand + k.scale(-1)) is not None for k in kept
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


NUMERICAL = presentation((3,), (5,), (7,))


def power_pairs():
    yield "orthant", monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)])
    yield "mixed", monomial_ideal(MIXED, [ev(1, 0, -1), ev(0, 1, 1)])
    yield "even_x", monomial_ideal(EVEN_X, [ev(2, 0), ev(0, 1)])
    # rank 1, where the first-pair rule has real choices: in the cube of
    # (3,5,7), 13 = 6 + 7 (factors 0,0,2) = 8 + 5 (factors 0,1,1)
    yield "numerical:(3,5,7)", monomial_ideal(NUMERICAL, [ev(3), ev(5), ev(7)])
    yield "numerical:(5,7)", monomial_ideal(NUMERICAL, [ev(5), ev(7)])
    yield "dyadic(nmax=5):max", build_model("dyadic", nmax=5).ideal("max")
    # a rank-1 sumset wider than the membership table takes the pair loop
    wide = presentation((1_000_000,), (6_000_001,))
    yield "rank-1 wide", monomial_ideal(wide, [ev(1_000_000), ev(6_000_001)])
    models = [build_model("char2_xy", v=5, D=10), build_model("dyadic", nmax=8),
              build_model("rational_valuation", denBound=3)]
    for m, (a, b) in zip(models, [("I", "B"), ("max", "two"), ("xV", "x")]):
        yield f"{m.name}:{a}", m.ideal(a)
        yield f"{m.name}:{b}", m.ideal(b)


class TestLatticeFrame:
    @pytest.mark.parametrize("name,I", list(power_pairs()),
                             ids=[n for n, _ in power_pairs()])
    def test_powers_match_fraction_reference(self, name, I):
        ref = reference_powers(I, 4)
        for m, (want_gens, want_prov) in enumerate(ref, 1):
            P, prov = ideal_power_with_provenance(I, m)
            assert list(P.gens) == want_gens, (name, m)
            assert list(prov.items()) == list(want_prov.items()), (name, m)
            assert I.power(m) == P
        assert m == 4

    def test_each_power_enumerated_once(self):
        # each step is charged for what it forms: the pair loop one multiset
        # per pair, the rank-1 sumset one per distinct sum
        for I in (monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)]),
                  monomial_ideal(NUMERICAL, [ev(3), ev(5), ev(7)])):
            want = 0
            for m in (1, 2, 3):
                sums = [tuple(map(add, p, g)) for p in I.power(m).generators
                        for g in I.generators]
                want += len(set(sums)) if I.monoid.dim == 1 else len(sums)
            ctx = SearchContext()
            I.power(4, ctx)
            assert ctx.multisets_used == want

    def test_rank1_sums_match_pair_loop(self):
        rng = random.Random(7)
        for _ in range(200):
            base = tuple((g,) for g in sorted(rng.sample(range(0, 40), rng.randint(1, 6))))
            layer = [(p,) for p in rng.sample(range(0, 90), rng.randint(1, 8))]
            if rng.random() < 0.5:
                layer.sort()  # ascending, as power steps pass it
            want = _pair_sums(layer, base)
            got = _rank1_sums(layer, base)
            assert list(got.items()) == list(want.items()), (layer, base)

    @pytest.mark.parametrize("name,I", list(power_pairs()),
                             ids=[n for n, _ in power_pairs()])
    def test_protocol_powers_stay_on_the_lattice(self, name, I, monkeypatch):
        def cube(ctx):
            return I.times_generators(
                list(I.times_generators(list(I.generators), ctx)), ctx)

        want_step = cube(SearchContext())
        want = I.power(3).generators

        def refuse(*args):
            raise AssertionError("exponent conversion inside the power loop")

        S = I.monoid
        monkeypatch.setattr(type(S), "from_lattice", refuse)
        monkeypatch.setattr(type(S), "to_lattice", refuse)
        assert cube(SearchContext()) == want_step
        assert I.power(3).generators == want
        # the steps reach every 3-fold product, and I^3 keeps some of them
        assert set(want_step) == {
            tuple(map(sum, zip(*c)))
            for c in itertools.combinations_with_replacement(I.generators, 3)}
        assert set(want) <= set(want_step)

    def test_ideal_built_two_ways_is_equal(self):
        for I in (monomial_ideal(ORTHANT, [ev(2, 0), ev(1, 1), ev(0, 3)]),
                  monomial_ideal(NUMERICAL, [ev(5), ev(7)])):
            P = I.power(3)
            Q = monomial_ideal(I.monoid, P.gens, label=P.label)
            assert P == Q and hash(P) == hash(Q)
            assert all(type(x) is int for v in Q.generators for x in v)

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
        assert I.power(1) is I

    def test_power_matches_oracle(self):
        elements = enumerate_monoid(ORTHANT, 40)
        rng = random.Random(11)
        pool = [ev(a, b) for a in range(4) for b in range(4) if a + b]
        for _ in range(15):
            I = monomial_ideal(ORTHANT, rng.sample(pool, rng.randint(1, 3)))
            for m in (2, 3, 4):
                got = set(I.power(m).gens)
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
            cur = I.power(m)
            assert contains(prev, cur)
            prev = cur

    def test_power_of_zero_ideal(self):
        Z = monomial_ideal(ORTHANT, [])
        assert Z.power(3).is_zero

    def test_bad_exponent_rejected(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0)])
        with pytest.raises(PreconditionViolated):
            ideal_power_with_provenance(I, 0)

    def test_multiset_budget_enforced(self):
        I = monomial_ideal(ORTHANT, [ev(3, 0), ev(2, 1), ev(1, 2), ev(0, 3)])
        ctx = SearchContext(Budgets(multisets=5))
        with pytest.raises(CombinatorialBudgetExceeded):
            I.power(4, ctx)


class TestRadical:
    def test_matches_oracle_small(self):
        elements = enumerate_monoid(ORTHANT, 60)
        B = monomial_ideal(ORTHANT, [ev(4, 0), ev(0, 6)])
        for a in range(4):
            for b in range(4):
                t = ev(a, b)
                k = B.radical_index((a, b), 8)
                ks = [k for k in range(1, 9)
                      if oracle_ideal_member(ORTHANT, elements, B.gens, t.scale(k))]
                # no index: the zero vector is refuted, anything else is
                # undecided up to kmax
                assert k == (ks[0] if ks else None)

    def test_k_is_minimal(self):
        B = monomial_ideal(ORTHANT, [ev(4, 0)])
        assert B.radical_index((1, 0), 10) == 4
        assert B.radical_index((2, 0), 10) == 2

    def test_kmax_cutoff_is_inconclusive_not_refuted(self):
        B = monomial_ideal(ORTHANT, [ev(4, 0)])
        assert B.radical_index((1, 0), 3) is None

    def test_zero_exponent_decided_outright(self):
        B = monomial_ideal(ORTHANT, [ev(1, 0)])
        assert B.radical_index((0, 0), 5) is None
        unit = monomial_ideal(ORTHANT, [ExponentVector.zero(2)])
        assert unit.radical_index((0, 0), 5) == 1

    def test_bad_kmax_rejected(self):
        B = monomial_ideal(ORTHANT, [ev(1, 0)])
        with pytest.raises(PreconditionViolated):
            B.radical_index((1, 0), 0)


class TestNilpotency:
    def test_known_indices_for_power_subideals(self):
        I = monomial_ideal(ORTHANT, [ev(1, 0), ev(0, 1)])
        for m in (1, 2, 3):
            B = I.power(m)
            assert least_power_inside(I, B, 5, SearchContext()) == m

    def test_truncation_makes_maximal_ideal_nilpotent(self):
        # entries cap at 2, so any 5-fold product of x, y has a coordinate >= 3
        S = presentation((1, 0), (0, 1), kill_bound=3)
        I = monomial_ideal(S, [ev(1, 0), ev(0, 1)])
        Z = monomial_ideal(S, [])
        assert least_power_inside(I, Z, 8, SearchContext()) == 5

    def test_mmax_cutoff_inconclusive(self):
        S = presentation((1, 0), (0, 1), kill_bound=3)
        I = monomial_ideal(S, [ev(1, 0), ev(0, 1)])
        Z = monomial_ideal(S, [])
        assert least_power_inside(I, Z, 4, SearchContext()) is None


# ---------------------------------------------------------------------------
# the rank-1 bitset route against the generator loop it stands for


def loop_member(I, v, ctx) -> bool:
    """ideal_lattice_member as the plain loop over I's generators."""
    S = I.monoid
    if S.lattice_killed(v, ctx):
        return True
    wv = S.lattice_weight(v)
    return any(_divides(S, tuple(map(sub, v, g)), wv - wg, ctx)
               for g, wg in zip(I.generators, I.gen_weights))


def random_numerical(rng):
    """A rank-1 presentation on 1-4 generators, sometimes fractional."""
    den = rng.choice([1, 1, 2, 3])
    vals = sorted(rng.sample(range(2, 40), rng.randint(1, 4)))
    return presentation(*[(Fraction(g, den),) for g in vals])


def random_points(rng, S, count, lo, width):
    """Up to count lattice points of S in [lo, lo + width), as exponents."""
    gens = [g[0] for g in S._pack["scaled"]]
    pts = set()
    for _ in range(200):
        x = sum(rng.choice(gens) for _ in range(rng.randint(0, 12)))
        if lo <= x < lo + width:
            pts.add(x)
        if len(pts) >= count:
            break
    return [S.from_lattice((x,)) for x in sorted(pts)]


KINDS = ("empty", "unit", "principal", "window", "spread")


def random_rank1_ideal(rng, S, kind):
    m = min(g[0] for g in S._pack["scaled"])
    if kind == "empty":
        gens = []
    elif kind == "unit":
        gens = [ExponentVector.zero(1)]
    elif kind == "principal":
        gens = random_points(rng, S, 1, 0, 10 * m)
    elif kind == "window":  # points closer than m never divide one another
        gens = random_points(rng, S, 30, rng.randint(m, 6 * m), m)
    else:  # spread: generators further apart than m as well
        gens = random_points(rng, S, 12, m, 12 * m)
    return monomial_ideal(S, gens, SearchContext())


def outcome(run):
    try:
        return run()
    except SearchBudgetExceeded as exc:
        return ("abort", str(exc))


@pytest.fixture
def routed(monkeypatch) -> list:
    """Whether _rank1_member answered each query, in query order; a query
    it raises on, by running out of nodes, counts as answered."""
    answered = []
    route = ideals._rank1_member

    def counted(I, a, ctx):
        answered.append(True)
        found = route(I, a, ctx)
        answered[-1] = found is not None
        return found

    monkeypatch.setattr(ideals, "_rank1_member", counted)
    return answered


class TestRank1Bitset:
    """ideal_lattice_member answers rank-1 queries from bitsets. Answers
    and table growth are the loop's. A query answered from the table is
    charged one node, one answered without reading it none, and one handed
    to the loop the loop's nodes; a node budget stops the first query
    whose charge passes it."""

    def run_queries(self, routed, seed, S, I, budget, warm):
        """One seeded query sequence on a fresh pair of contexts, the
        route's under `budget` and the loop's unbounded; the nodes the
        route's used."""
        rng = random.Random(seed)
        fast = SearchContext(Budgets(search_nodes=budget))
        slow = SearchContext()
        if warm:  # another query on the context built the table first
            v = (rng.randint(0, 100),)
            want = S.lattice_contains(v, slow)
            got = outcome(lambda: S.lattice_contains(v, fast))
            if slow.nodes_used > budget:
                assert isinstance(got, tuple)
                return fast.nodes_used
            assert got == want
        g0 = I.generators[0][0] if I.generators else 0
        m = min(g[0] for g in S._pack["scaled"])
        targets = [rng.randint(-20, 120), 0, -3, g0, g0 + 1]
        targets += [g for (g,) in I.generators[1:8]]
        targets += [rng.randint(-5, 300) for _ in range(12)]
        for step in range(60):
            if step == len(targets):
                table = S._ctx_tables(fast).get("rank1")
                if table is None:
                    break
                L = min(table[0], exponents._RANK1_BOUND)
                targets += [L + g0 + d for d in (-1, 0, 1, 2, 40)]
                targets += [rng.randint(0, L + g0 + 50) for _ in range(6)]
            if step >= len(targets):
                break
            v = (targets[step],)
            start, before = fast.nodes_used, slow.nodes_used
            got = outcome(lambda: ideal_lattice_member(I, v, fast))
            want = loop_member(I, v, slow)
            if not routed[-1]:
                charge = slow.nodes_used - before
            else:
                charge = int(v[0] - m >= g0)  # read the table
            where = (S.gens, I.generators, budget, targets[:step + 1])
            if start + charge > budget:
                assert isinstance(got, tuple), where
                break
            assert got == want, where
            assert fast.nodes_used == start + charge, where
            tables = [S._ctx_tables(c).get("rank1", (None,))[0]
                      for c in (fast, slow)]
            assert tables[0] == tables[1], where
        return fast.nodes_used

    def check_random(self, routed, rng, trials, kinds):
        """Each instance unbounded, then again under a node budget drawn
        from what it used, so the stop lands anywhere in the sequence."""
        for trial in range(trials):
            S = random_numerical(rng)
            I = random_rank1_ideal(rng, S, kinds[trial % len(kinds)])
            seed, warm = rng.random(), trial % 7 == 0
            used = self.run_queries(routed, seed, S, I, 10 ** 9, warm)
            self.run_queries(routed, seed, S, I, rng.randint(0, used), warm)

    def test_matches_generator_loop_on_random_presentations(self, routed):
        self.check_random(routed, random.Random(20261019), 300, KINDS)
        assert sum(routed) > len(routed) // 2

    def test_matches_generator_loop_past_the_bitset_bound(self, routed,
                                                          monkeypatch):
        # a table wider than _RANK1_BOUND: differences past the bound take
        # the depth-first search, so the bitset route stops at the bound
        monkeypatch.setattr(exponents, "_RANK1_BOUND", 300)
        self.check_random(routed, random.Random(5), 60, KINDS[2:])
        assert any(routed) and not all(routed)

    def test_catalog_ideal_batch_matches(self):
        m = build_model("rational_valuation", denBound=4)
        I, B = m.ideal("xV"), m.ideal("x")
        fast, slow = SearchContext(), SearchContext()
        for v in [(a,) for a in range(0, 200)] + [(2 * a,) for a in range(24, 48)]:
            assert (ideal_lattice_member(B, v, fast) == loop_member(B, v, slow)
                    and ideal_lattice_member(I, v, fast) == loop_member(I, v, slow))
            assert fast.nodes_used == slow.nodes_used, v


def full_minimalize(S, points, ctx, divides=_divides) -> list:
    """minimalize with every point decided, none through its orbit."""
    weighted = {}
    for v in points:
        if v not in weighted and not (S.kills and S.lattice_killed(v, ctx)):
            weighted[v] = S.lattice_weight(v)
    order = sorted(weighted, key=lambda v: (weighted[v], v))
    minpos = S._pack["tables"][0][0]
    kept, kept_w = [], []
    for cand in order:
        wc = weighted[cand]
        redundant = False
        for k, wk in zip(kept, kept_w):
            if wk > wc - minpos:
                break
            if divides(S, tuple(map(sub, cand, k)), wc - wk, ctx):
                redundant = True
                break
        if not redundant:
            kept.append(cand)
            kept_w.append(wc)
    return kept


def full_least_power_inside(I, B, cap, ctx):
    """least_power_inside with the outside set kept point by point."""
    outside = []
    for n in range(1, cap + 1):
        if n == 1:
            products = I.generators
        else:
            products = I.times_generators(outside, ctx)
        outside = [x for x in products if not B.contains(x, ctx)]
        if not outside:
            return n
    return None


def orbit(S, v) -> set:
    """Every image of v under the permutations of S's symmetry classes."""
    out = {v}
    for cls in S._sym_classes:
        nxt = set()
        for w in out:
            for perm in itertools.permutations([w[k] for k in cls]):
                u = list(w)
                for k, x in zip(cls, perm):
                    u[k] = x
                nxt.add(tuple(u))
        out = nxt
    return out


def unit_point(S, *coords) -> tuple:
    """The lattice point with 1 at each of coords."""
    return tuple(S.denominator_bound * (k in coords) for k in range(S.dim))


def asymmetric_kill(kill_point):
    """Three interchangeable variables whose kill point breaks the
    symmetry: the zero set is not invariant, so nothing takes the orbit
    route."""
    units = [tuple(int(i == k) for i in range(3)) for k in range(3)]
    return presentation(*units, kill_bound=4, kill_points=(ev(*kill_point),))


def orbit_cases():
    """(name, I, B, invariant) on the symmetric families: invariant pairs,
    pairs with a non-invariant B or I, and a kill that is not invariant."""
    for v in (2, 3, 4):
        m = build_model("fraction_monoid", v=v, M=2)
        S = m.monoid
        y = S.to_lattice(ExponentVector.unit(S.dim, 0))
        y_x1 = lattice_ideal(S, [tuple(map(sub, y, unit_point(S, 1)))])
        frac, y_ideal, mx = m.ideal("frac"), m.ideal("y"), m.ideal("max")
        yield f"frac{v} frac/y", frac, y_ideal, True
        yield f"frac{v} max/y", mx, y_ideal, True
        yield f"frac{v} max/frac", mx, frac, True
        yield f"frac{v} frac/(y/x_1)", frac, y_x1, v == 1
        yield f"frac{v} (y/x_1)/y", y_x1, y_ideal, False
    for v in (2, 3, 4):
        m = build_model("char2_xy", v=v, D=6)
        S = m.monoid
        xy1 = lattice_ideal(S, [unit_point(S, 0, 1)])
        I, B, mx = m.ideal("I"), m.ideal("B"), m.ideal("max")
        yield f"xy{v} I/B", I, B, True
        yield f"xy{v} max/B", mx, B, True
        yield f"xy{v} max/I", mx, I, True
        yield f"xy{v} I/(XY_1)", I, xy1, False
    for v in (2, 3, 4, 5):
        m = build_model("frobenius_quotient", p=2, v=v)
        S = m.monoid
        x1 = lattice_ideal(S, [unit_point(S, 0)])
        yield f"fr{v} max/zero", m.ideal("max"), m.ideal("zero"), True
        yield f"fr{v} max/(x_1)", m.ideal("max"), x1, False
        yield f"fr{v} max/(x_1x_2)", m.ideal("max"), lattice_ideal(
            S, [unit_point(S, 0, 1)]), v == 2
    for point in ((2, 0, 0), (1, 1, 0)):
        S = asymmetric_kill(point)
        mx = lattice_ideal(S, S._pack["scaled"])
        yield f"kill {point} max/zero", mx, lattice_ideal(S, []), False
        yield f"kill {point} max^2/zero", mx.power(2), lattice_ideal(S, []), False


class TestOrbitRoute:
    """least_power_inside and minimalize decide on orbit representatives
    only where the symmetry group acts on the model and the sets involved;
    everywhere they agree with the loops that decide every point."""

    def test_route_applies_only_to_invariant_ideals_and_kills(self):
        for name, I, B, invariant in orbit_cases():
            rep = ideals.orbit_rep(I, B)
            assert (rep is not ideals._identity) == invariant, name
        S = asymmetric_kill((2, 0, 0))
        assert S._sym_classes == ((0, 1, 2),) and not S._symmetric
        assert ideals.orbit_rep(build_model("int_plus_2x", D=4).ideal("full")) \
            is ideals._identity

    def test_least_power_inside_matches_the_full_loop(self):
        orbit_nodes = full_nodes = decided = 0
        for name, I, B, invariant in orbit_cases():
            fast, slow = SearchContext(), SearchContext()
            got = least_power_inside(I, B, 6, fast)
            want = full_least_power_inside(I, B, 6, slow)
            assert got == want, name
            assert fast.multisets_used <= slow.multisets_used, name
            if not invariant:
                assert fast.used() == slow.used(), name
            orbit_nodes += fast.nodes_used
            full_nodes += slow.nodes_used
            decided += want is not None
        assert decided >= 15
        assert orbit_nodes < full_nodes  # the route was taken

    def test_minimalize_matches_the_full_loop(self, monkeypatch):
        tests = {"orbit": 0, "full": 0}  # divisibility tests made

        def counting(key):
            def divides(*args):
                tests[key] += 1
                return _divides(*args)
            return divides

        monkeypatch.setattr(ideals, "_divides", counting("orbit"))
        rng = random.Random(2026)
        total = {"orbit": 0, "full": 0}
        for name, I, B, _ in orbit_cases():
            S = I.monoid
            products = list(I.times_generators(list(I.generators),
                                               SearchContext()))
            closed = sorted(set().union(*(orbit(S, v) for v in products)))
            picked = rng.sample(products, max(1, len(products) // 2))
            for points in (products, closed, picked,
                           list(I.generators) + products,
                           list(B.generators) + picked):
                before = dict(tests)
                got = minimalize(S, points, SearchContext())
                want = full_minimalize(S, points, SearchContext(),
                                       counting("full"))
                assert got == want, name
                made = {k: tests[k] - before[k] for k in tests}
                assert made["orbit"] <= made["full"], name
                if not S._acts_on(points):
                    assert made["orbit"] == made["full"], name
                total = {k: total[k] + made[k] for k in total}
        assert total["orbit"] < total["full"] / 2, total  # the route was taken

    def test_orbit_answer_is_reused_only_on_invariant_sets(self):
        # x_2 x_3 shares an orbit with x_1 x_2, which x_1 divides; x_2 x_3
        # stays minimal, because this set is not invariant
        m = build_model("frobenius_quotient", p=2, v=3)
        S = m.monoid
        points = [unit_point(S, 0), unit_point(S, 0, 1), unit_point(S, 1, 2)]
        assert minimalize(S, points, SearchContext()) == [
            unit_point(S, 0), unit_point(S, 1, 2)]
