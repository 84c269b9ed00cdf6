"""Exponent vectors and monoid membership against a brute-force oracle."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftkit.exponents as expo
from sftkit import models
from sftkit._search_py import drop_infeasible
from sftkit.budget import Budgets, SearchContext
from sftkit.errors import PreconditionViolated, SearchBudgetExceeded
from sftkit.exponents import ExponentVector, MonoidPresentation

EV = ExponentVector.from_dense


def brute_member(gens, weights, target, _memo=None):
    """Reachability by blind recursion; shares nothing with the search."""
    S = MonoidPresentation(dim=target.dim, gens=tuple(gens), weights=weights)
    memo = {} if _memo is None else _memo

    def rec(res):
        if res.is_zero:
            return True
        key = res.dense()
        hit = memo.get(key)
        if hit is not None:
            return hit
        w = S.weight(res)
        out = False
        for g in gens:
            if S.weight(g) <= w and rec(res - g):
                out = True
                break
        memo[key] = out
        return out

    return rec(target)


def lex_largest_witness(S, target):
    """Largest multiplicity vector in lex order, generators by decreasing
    weight (ties by index), or None. Independent of the search kernel."""
    order = sorted(range(len(S.gens)), key=lambda j: (-S.weight(S.gens[j]), j))
    gens = [S.gens[j] for j in order]

    def rec(res, i, prefix):
        if res.is_zero:
            return prefix + (0,) * (len(gens) - i)
        if i == len(gens):
            return None
        w = S.weight(res)
        if w < 0:
            return None
        for c in range(w // S.weight(gens[i]), -1, -1):
            got = rec(res - gens[i].scale(c), i + 1, prefix + (c,))
            if got is not None:
                return got
        return None

    flat = rec(target, 0, ())
    if flat is None:
        return None
    return {order[j]: c for j, c in enumerate(flat) if c}


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


class TestExponentVector:
    @given(st.lists(small_fractions, min_size=1, max_size=6))
    def test_dense_round_trip(self, vals):
        e = EV(vals)
        assert list(e.dense()) == [Fraction(v) for v in vals]
        assert e.dim == len(vals)

    @given(st.lists(small_fractions, min_size=2, max_size=5),
           st.lists(small_fractions, min_size=2, max_size=5))
    def test_add_sub_componentwise(self, a, b):
        n = min(len(a), len(b))
        x, y = EV(a[:n]), EV(b[:n])
        s = x + y
        assert s.dense() == tuple(p + q for p, q in zip(x.dense(), y.dense()))
        assert (s - y).dense() == x.dense()

    @given(st.lists(small_fractions, min_size=1, max_size=5),
           st.integers(min_value=-3, max_value=5))
    def test_scale_matches_repeated_add(self, vals, k):
        e = EV(vals)
        assert e.scale(k).dense() == tuple(v * k for v in e.dense())

    def test_entry_and_tdeg(self):
        e = EV([0, Fraction(3, 2), -1])
        assert e.entry(0) == 0
        assert e.entry(1) == Fraction(3, 2)
        assert e.tdeg() == Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentVector(2, ((0, Fraction(1)), (0, Fraction(2))))
        with pytest.raises(ValueError):
            ExponentVector(2, ((1, Fraction(0)),))
        with pytest.raises(ValueError):
            ExponentVector(1, ((3, Fraction(1)),))
        with pytest.raises(TypeError):
            EV([0.5])


def presentation(*dense_gens, weights=None, **kw):
    gens = tuple(EV(g) for g in dense_gens)
    dim = gens[0].dim
    return MonoidPresentation(
        dim=dim, gens=gens,
        weights=weights or (Fraction(1),) * dim, **kw)


class TestMembershipOracle:
    # nonnegative generators: membership is bounded coin-change
    def test_positive_orthant(self):
        S = presentation([2, 0], [1, 1], [0, 3])
        for a in range(0, 9):
            for b in range(0, 9):
                t = EV([a, b])
                got = S.member(t) is not None
                want = brute_member(S.gens, S.weights, t)
                assert got == want, (a, b)

    def test_mixed_sign_generators(self):
        # y + fractions shape: gens can push a coordinate negative
        S = presentation([1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [1, -1, 0], [1, 0, -2],
                         weights=(Fraction(3), Fraction(1), Fraction(1)))
        memo = {}
        for c in range(0, 4):
            for a in range(-3, 3):
                for b in range(-3, 3):
                    t = EV([c, a, b])
                    got = S.member(t)
                    want = brute_member(S.gens, S.weights, t, memo)
                    assert (got is not None) == want, (c, a, b)
                    # no interchangeable coordinates: exactly lex-largest
                    assert (got and dict(got.counts)) == lex_largest_witness(
                        S, t), (c, a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.integers(min_value=-2, max_value=3),
                 min_size=2, max_size=2),
        min_size=1, max_size=4, unique_by=tuple),
        st.lists(st.integers(min_value=-4, max_value=6),
                 min_size=2, max_size=2))
    def test_random_small_instances(self, gens, tvals):
        weights = (Fraction(2), Fraction(1))
        kept = [g for g in gens if 2 * g[0] + g[1] > 0]
        if not kept:
            return
        S = presentation(*kept, weights=weights)
        t = EV(tvals)
        got = S.member(t)
        assert (got is not None) == brute_member(S.gens, S.weights, t)
        # unequal weights, so no interchangeable coordinates
        assert (got and dict(got.counts)) == lex_largest_witness(S, t)

    def test_witness_resums(self):
        S = presentation([1, 0], [1, -2], [0, 1],
                         weights=(Fraction(3), Fraction(1)))
        t = EV([3, -3])
        w = S.member(t)
        assert w is not None
        assert w.resum(S) == t

    def test_lex_largest_on_canonical_targets(self):
        # no interchangeable coordinates here, so the engine contract is
        # exactly lex-largest over weight-sorted generators
        S = presentation([2, 0], [1, 1], [1, 0], [0, 1],
                         weights=(Fraction(2), Fraction(1)))
        for t in ([4, 2], [3, 1], [5, 0], [2, 2]):
            got = S.member(EV(t))
            want = lex_largest_witness(S, EV(t))
            assert got is not None and dict(got.counts) == want

    def test_zero_target(self):
        S = presentation([1, 1])
        w = S.member(ExponentVector.zero(2))
        assert w is not None and w.counts == ()

    def test_no_generators(self):
        S = MonoidPresentation(dim=1, gens=(), weights=(Fraction(1),))
        assert S.member(EV([1])) is None

    def test_budget_exceeded_raises(self):
        S = presentation(*([1, -m] for m in range(0, 5)),
                         weights=(Fraction(6), Fraction(1)))
        ctx = SearchContext(Budgets(search_nodes=3))
        with pytest.raises(SearchBudgetExceeded):
            for a in range(1, 8):
                S.member(EV([a, -2 * a]), ctx)

    def test_denominator_mismatch_rejected(self):
        S = presentation([1], weights=(Fraction(1),))
        with pytest.raises(PreconditionViolated):
            S.member(EV([Fraction(1, 3)]))

    def test_scaled_rational_targets(self):
        S = presentation([Fraction(1, 2)], [Fraction(3, 2)])
        assert S.member(EV([Fraction(5, 2)])) is not None
        assert S.member(EV([Fraction(7, 2)])) is not None
        # denominator 4 refines the bound 2: off the lattice, not a member
        assert S.member(EV([Fraction(1, 4)])) is None


class TestSymmetryLayer:
    def test_classes_detected(self):
        S = presentation([1, 0, 0], [0, 1, 0], [0, 0, 1])
        assert S._sym_classes == ((0, 1, 2),)

    def test_classes_respect_generator_asymmetry(self):
        S = presentation([2, 0], [0, 1])
        assert S._sym_classes == ()

    def test_classes_respect_weights(self):
        S = presentation([1, 0], [0, 1],
                         weights=(Fraction(2), Fraction(1)))
        assert S._sym_classes == ()

    def test_partial_class(self):
        # coordinates 1 and 2 interchangeable, 0 not
        S = presentation([1, 0, 0], [1, 1, 0], [1, 0, 1])
        assert S._sym_classes == ((1, 2),)

    def test_symmetric_queries_share_cost(self):
        S = presentation([1, 0, 0], [1, 1, 0], [1, 0, 1], [2, 0, 0])
        ctx = SearchContext()
        a = S.member(EV([5, 2, 1]), ctx)
        mid = ctx.nodes_used
        b = S.member(EV([5, 1, 2]), ctx)
        assert ctx.nodes_used - mid <= 2  # second query rides the memo
        assert a is not None and b is not None
        assert b.resum(S) == EV([5, 1, 2])

    def test_remapped_witness_decomposes_original(self):
        S = presentation([1, -1, 0], [1, 0, -1], [0, 1, 0], [0, 0, 1],
                         weights=(Fraction(2), Fraction(1), Fraction(1)))
        for t in ([2, -1, -1], [3, -1, -2], [3, -2, -1],
                  [2, -1, 0], [2, 0, -1]):
            w = S.member(EV(t))
            assert w is not None
            assert w.resum(S) == EV(t)


def root_infeasible(S, t):
    """The drop-table prune at the search root: suffix 0 of the table."""
    drop = S._pack["tables"][3][0]
    return drop is not None and drop_infeasible(drop, S.to_lattice(t))


class TestRootInfeasibility:
    def test_never_rejects_members(self):
        S = presentation([1, -1, 0], [1, 0, -1], [1, -2, 0], [1, 0, -2],
                         [1, 0, 0], [0, 1, 0], [0, 0, 1],
                         weights=(Fraction(3), Fraction(1), Fraction(1)))
        memo = {}
        for c in range(0, 5):
            for a in range(-4, 2):
                for b in range(-4, 2):
                    t = EV([c, a, b])
                    if root_infeasible(S, t):
                        assert not brute_member(S.gens, S.weights, t, memo)

    def test_integral_budget_caught_at_root(self):
        # rationally feasible, integrally not: three coordinates each need a
        # dropper but only two units of the paying coordinate exist
        S = presentation([1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2],
                         [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                         weights=(Fraction(4), Fraction(1), Fraction(1),
                                  Fraction(1)))
        assert root_infeasible(S, EV([2, -1, -1, -1]))
        ctx = SearchContext()
        assert S.member(EV([2, -1, -1, -1]), ctx) is None
        assert ctx.nodes_used == 1  # decided without search

    def test_shared_droppers_use_weaker_bound(self):
        # one generator lowers two coordinates at once: per-coordinate
        # bound only, and this target is genuinely a member
        S = presentation([1, -1, -1], [0, 1, 0], [0, 0, 1],
                         weights=(Fraction(3), Fraction(1), Fraction(1)))
        separated, _ = S._pack["tables"][3][0]
        assert not separated
        assert S.member(EV([2, -2, -1])) is not None


class TestRankOne:
    def gens(self):
        return [Fraction(5, 4), Fraction(7, 4), Fraction(2)]

    def test_against_generic_engine(self, monkeypatch):
        vals = self.gens()
        S = presentation(*([v] for v in vals))
        table = {}
        for num in range(0, 65):
            t = EV([Fraction(num, 4)])
            table[num] = S.member(t) is not None
        # same queries through the depth-first search
        monkeypatch.setattr(expo, "_RANK1_BOUND", -1)
        S2 = presentation(*([v] for v in vals))
        for num, want in table.items():
            assert (S2.member(EV([Fraction(num, 4)])) is not None) == want

    def test_witness_is_lex_largest(self):
        S = presentation([3], [2])
        w = S.member(EV([12]))
        # weight order puts 3 first; lex-largest takes as many of it as
        # possible
        assert dict(w.counts) == lex_largest_witness(S, EV([12])) == {0: 4}

    def test_witness_resums(self):
        S = presentation([Fraction(721, 720)], [Fraction(719, 720)])
        t = EV([Fraction(1440, 720)])
        w = S.member(t)
        assert w is not None and w.resum(S) == t


class TestKillSpecs:
    def test_entry_ge(self):
        S = presentation([1, 0], [0, 1], kill=("entry_ge", 3))
        assert not S.is_killed(EV([2, 2]))
        assert S.is_killed(EV([3, 0]))
        assert S.is_killed(EV([0, 5]))

    def test_ideal_gens(self):
        S = presentation([1, 0], [0, 1],
                         kill=("ideal_gens", (EV([2, 1]),)))
        assert S.is_killed(EV([2, 1]))
        assert S.is_killed(EV([3, 2]))
        assert not S.is_killed(EV([2, 0]))

    def test_or_spec(self):
        S = presentation([1], kill=("or", ("entry_ge", 4),
                                    ("ideal_gens", (EV([2]),))))
        assert S.is_killed(EV([2]))
        assert S.is_killed(EV([4]))
        assert not S.is_killed(EV([1]))

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            presentation([1], kill=("entry_ge", 0))
        with pytest.raises(ValueError):
            presentation([1], kill=("whatever", 1))
        with pytest.raises(ValueError):
            presentation([1, 0], [0, 1], kill=("ideal_gens", (EV([1]),)))


class TestPresentationValidation:
    def test_positive_grading_enforced(self):
        with pytest.raises(ValueError, match=r"^grading is not positive on "
                           r"generator EV\(0:1,1:-1\)@2$"):
            presentation([1, -1])
        with pytest.raises(ValueError, match="^grading weights must be positive$"):
            presentation([1], weights=(Fraction(0),))
        # decided on the integer grading at the scale clearing every
        # denominator: 1/2 * 1 + 1/3 * (-3/2) = 0, 1/2 * 1 + 1/3 * (-4/3) > 0
        weights = (Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ValueError, match="^grading is not positive on generator"):
            presentation([1, Fraction(-3, 2)], weights=weights)
        S = presentation([1, Fraction(-4, 3)], weights=weights)
        assert S.lattice_weight(S._pack["scaled"][0]) == 1

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate generator EV\(0:1\)@2$"):
            presentation([1, 0], [1, 0])
        # equal vectors with int and Fraction entries are one generator
        with pytest.raises(ValueError, match="^duplicate generator"):
            MonoidPresentation(dim=1, gens=(ExponentVector(1, ((0, 2),)),
                                            EV([Fraction(2)])),
                               weights=(1,))

    def test_generator_dimension_checked(self):
        for g in (EV([1]), EV([1, 0, 0])):
            with pytest.raises(ValueError, match="^generator dimension mismatch$"):
                MonoidPresentation(dim=2, gens=(EV([0, 1]), g), weights=(1, 1))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            MonoidPresentation(dim=65, gens=(), weights=(Fraction(1),) * 65)


def fraction_frame(S):
    """The lattice frame of S recomputed from its generators in Fraction
    arithmetic: (scaled points, integer weight of each, symmetry classes).
    The classes are those of the coordinate relation "equal weight, and
    the transposition maps the generator set onto itself", an equivalence
    relation since conjugating one such transposition by another gives a
    third."""
    dense = [g.dense() for g in S.gens]
    s0 = math.lcm(*(x.denominator for d in dense for x in d))
    kw = math.lcm(*(w.denominator for w in S.weights))
    points = tuple(tuple(int(x * s0) for x in d) for d in dense)
    weights = tuple(sum(w * x for w, x in zip(S.weights, d)) * s0 * kw
                    for d in dense)
    gset = set(dense)

    def swaps(a, b):
        return all(d[:a] + (d[b],) + d[a + 1:b] + (d[a],) + d[b + 1:] in gset
                   for d in dense)

    classes = set()
    for a in range(S.dim):
        cls = tuple(b for b in range(S.dim) if b == a or (
            S.weights[a] == S.weights[b] and swaps(min(a, b), max(a, b))))
        if len(cls) > 1:
            classes.add(cls)
    return points, weights, tuple(sorted(classes))


def assert_frame(S):
    points, weights, classes = fraction_frame(S)
    assert S._pack["scaled"] == points
    assert tuple(map(S.lattice_weight, points)) == weights
    assert S._sym_classes == (classes if S.gens else ())


@st.composite
def presentations(draw):
    """Random presentations; the first k coordinates share a weight and the
    generators are closed under permuting them, so symmetry classes occur."""
    dim = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.fractions(min_value=Fraction(1, 3), max_value=3,
                                         max_denominator=3),
                            min_size=dim, max_size=dim))
    k = draw(st.integers(min_value=0, max_value=min(dim, 3)))
    weights[:k] = [weights[0]] * k
    raw = draw(st.lists(st.lists(small_fractions, min_size=dim, max_size=dim),
                        max_size=4))
    gens = []
    for g in raw:
        for head in itertools.permutations(g[:k]):
            e = EV(list(head) + g[k:])
            if e not in gens and sum(w * x for w, x in zip(weights, e.dense())) > 0:
                gens.append(e)
    return MonoidPresentation(dim=dim, gens=tuple(gens), weights=tuple(weights))


# models whose coordinate classes are nontrivial
SYMMETRIC = {"char2_xy": models.char2_xy(5), "fraction": models.fraction_monoid(5, 4)}


def tuple_sort_canonical(S, v):
    """_canonical_target ranking (value, coordinate) tuples by
    (-value, coordinate), the reference for its sort."""
    perm = list(range(S.dim))
    for cls in S._sym_classes:
        ranked = sorted(((v[k], k) for k in cls), key=lambda t: (-t[0], t[1]))
        for pos, (_, k) in zip(cls, ranked):
            perm[k] = pos
    if perm == list(range(S.dim)):
        return v, None
    canon = [0] * S.dim
    for k in range(S.dim):
        canon[perm[k]] = v[k]
    return tuple(canon), perm


class TestLatticeFrame:
    def test_catalog_models_match_fraction_reference(self):
        for name, m in models.catalog_models().items():
            if m.monoid is not None:
                assert_frame(m.monoid)

    @settings(max_examples=150, deadline=None)
    @given(presentations())
    def test_random_presentations_match_fraction_reference(self, S):
        assert_frame(S)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_canonical_target_matches_tuple_sort(self, data):
        S = SYMMETRIC[data.draw(st.sampled_from(sorted(SYMMETRIC)))].monoid
        v = tuple(data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                     min_size=S.dim, max_size=S.dim)))
        assert S._canonical_target(v) == tuple_sort_canonical(S, v)
