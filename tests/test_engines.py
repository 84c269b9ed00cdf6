"""Tests for the membership search kernel.

Nearly everything here calls run_search directly, below the dispatch layer,
so canonicalization and the fast paths cannot mask a kernel fault; only the
shared memo and the agreement of member() with lattice_contains and with the
rank-1 bitset read-off are checked through MonoidPresentation. Random
instances are checked against brute-force oracles that share no code with
the kernel.

Node counts on the frozen instances pin the search order itself: any
reordering of the DFS, the memo policy, or the charge points shows up as
a count drift even when the verdict stays correct.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from sftkit import _search_py as pure
from sftkit import exponents
from sftkit.budget import Budgets, SearchContext
from sftkit.errors import SearchBudgetExceeded
from sftkit.exponents import ExponentVector, MonoidPresentation

FOUND = pure.FOUND
NOT_MEMBER = pure.NOT_MEMBER
BUDGET = pure.BUDGET

BIG = 10 ** 9

# Kernel-ready instances: gens sorted by decreasing weight, weights induced
# by a positive grading. Expected triples were produced by the kernel and
# frozen.
FROZEN = [
    # (gens, weights, target, wtarget, status, counts, nodes)
    (((0, 3), (2, 0), (1, 1)), (3, 2, 2), (4, 3), 7, FOUND, [1, 2, 0], 4),
    (((0, 3), (2, 0), (1, 1)), (3, 2, 2), (5, 0), 5, NOT_MEMBER, None, 11),
    (((0, 3), (2, 0), (1, 1)), (3, 2, 2), (1, 2), 3, NOT_MEMBER, None, 7),
    (((0, 3), (2, 0), (1, 1)), (3, 2, 2), (7, 6), 13, FOUND, [1, 2, 3], 26),
    (((0, 3), (2, 0), (1, 1)), (3, 2, 2), (0, 0), 0, FOUND, [0, 0, 0], 1),
    (((1, 0, 0), (1, -1, 0), (1, 0, -2), (0, 1, 0), (0, 0, 1)), (4, 3, 2, 1, 1),
     (3, -2, -2), 8, FOUND, [0, 2, 1, 0, 0], 6),
    (((1, 0, 0), (1, -1, 0), (1, 0, -2), (0, 1, 0), (0, 0, 1)), (4, 3, 2, 1, 1),
     (2, -1, -1), 6, FOUND, [0, 1, 1, 0, 1], 9),
    (((1, 0, 0), (1, -1, 0), (1, 0, -2), (0, 1, 0), (0, 0, 1)), (4, 3, 2, 1, 1),
     (2, -2, 0), 6, FOUND, [0, 2, 0, 0, 0], 4),
    (((1, 0, 0), (1, -1, 0), (1, 0, -2), (0, 1, 0), (0, 0, 1)), (4, 3, 2, 1, 1),
     (4, 0, -5), 11, FOUND, [1, 0, 3, 0, 1], 10),
    # decided at the root by the drop table: lowering coordinates 1 and 2 by
    # 3 takes at least 3 + 2 droppers, each adding 1 to coordinate 0, which
    # has only 3
    (((1, 0, 0), (1, -1, 0), (1, 0, -2), (0, 1, 0), (0, 0, 1)), (4, 3, 2, 1, 1),
     (3, -3, -3), 6, NOT_MEMBER, None, 1),
    (((5,), (3,)), (5, 3), (11,), 11, FOUND, [1, 2], 4),
    (((5,), (3,)), (5, 3), (4,), 4, NOT_MEMBER, None, 4),
    (((5,), (3,)), (5, 3), (29,), 29, FOUND, [4, 3], 6),
    (((5,), (3,)), (5, 3), (7,), 7, NOT_MEMBER, None, 6),
]


def call(engine, gens, weights, target, wtarget, allowance=BIG, memo=None):
    """One search: (result, memo), on a fresh memo unless one is passed."""
    dim = len(target)
    tables = pure.suffix_tables(gens, weights, dim)
    if memo is None:
        memo = {}
    status, counts, nodes = engine.run_search(
        gens, weights, *tables, target, wtarget, allowance, memo)
    if counts is not None:
        counts = list(counts)
    return (status, counts, nodes), memo


def resum(gens, counts):
    dim = len(gens[0])
    out = [0] * dim
    for g, c in zip(gens, counts):
        for k in range(dim):
            out[k] += c * g[k]
    return tuple(out)


class TestFrozenInstances:
    @pytest.mark.parametrize("gens,weights,target,wtarget,status,counts,nodes", FROZEN)
    def test_pure_matches_frozen(self, gens, weights, target, wtarget, status, counts, nodes):
        got, _ = call(pure, gens, weights, target, wtarget)
        assert got == (status, counts, nodes)

    def test_frozen_witnesses_resum(self):
        for gens, weights, target, wtarget, status, counts, _ in FROZEN:
            if status == FOUND:
                assert resum(gens, counts) == target
                assert sum(c * w for c, w in zip(counts, weights)) == wtarget


def random_instance(rng: random.Random):
    dim = rng.randint(1, 4)
    lam = tuple(rng.randint(1, 3) for _ in range(dim))
    gens = []
    for _ in range(rng.randint(1, 6)):
        g = tuple(rng.randint(-3, 4) for _ in range(dim))
        w = sum(l * e for l, e in zip(lam, g))
        if w > 0:
            gens.append((g, w))
    if not gens:
        g = tuple(1 if k == 0 else 0 for k in range(dim))
        gens.append((g, lam[0]))
    gens.sort(key=lambda gw: -gw[1])
    target = tuple(rng.randint(-6, 10) for _ in range(dim))
    wtarget = sum(l * e for l, e in zip(lam, target))
    return (tuple(g for g, _ in gens), tuple(w for _, w in gens), target, wtarget)


def lex_largest_counts(gens, weights, target, wtarget):
    """The lexicographically largest multiplicity vector (gens in the
    order given) summing to target, or None. Plain memoized recursion over
    the multiplicity of each generator in turn, with none of the kernel's
    prunes."""
    n = len(gens)

    @lru_cache(maxsize=None)
    def rec(i, res, wres):
        if not any(res):
            return (0,) * (n - i)
        if i == n or wres <= 0:
            return None
        for c in range(wres // weights[i], -1, -1):
            tail = rec(i + 1, tuple(r - c * g for r, g in zip(res, gens[i])),
                       wres - c * weights[i])
            if tail is not None:
                return (c,) + tail
        return None

    got = rec(0, target, wtarget)
    return None if got is None else list(got)


def brute_reachable(gens, weights, target, wtarget):
    """Is target a sum of generators? Subtracts one generator at a time in
    any order; shares nothing with the kernel or lex_largest_counts."""

    @lru_cache(maxsize=None)
    def rec(res, wres):
        if not any(res):
            return True
        return any(w <= wres and rec(tuple(r - x for r, x in zip(res, g)),
                                     wres - w)
                   for g, w in zip(gens, weights))

    return rec(target, wtarget)


class TestAgainstOracle:
    def test_random_instances_agree(self):
        rng = random.Random(20260819)
        for trial in range(400):
            gens, weights, target, wtarget = random_instance(rng)
            allowance = BIG if trial % 5 else rng.randint(1, 30)
            got, memo = call(pure, gens, weights, target, wtarget, allowance)
            full, full_memo = call(pure, gens, weights, target, wtarget)
            where = (gens, weights, target, wtarget, allowance)
            want = lex_largest_counts(gens, weights, target, wtarget)
            assert (want is not None) == brute_reachable(
                gens, weights, target, wtarget), where
            assert full[:2] == ((FOUND, want) if want is not None
                                else (NOT_MEMBER, None)), where
            if full[2] > allowance:
                # aborted at the allowance; the frontier memoized nothing
                # the complete search would not have
                assert got == (BUDGET, None, allowance), where
                assert all(full_memo[k] == v for k, v in memo.items()), where
            else:
                assert got == full and memo == full_memo, where

    def test_memo_reuse_short_circuits_identically(self):
        gens, weights, target, wtarget = FROZEN[3][:4]
        first, memo = call(pure, gens, weights, target, wtarget)
        again, _ = call(pure, gens, weights, target, wtarget, memo=memo)
        assert first[0] == again[0] == FOUND
        assert first[1] == again[1]
        assert again[2] == 1  # root answered from the memo

    def test_budget_abort_is_bit_identical(self):
        gens, weights, target, wtarget = FROZEN[3][:4]  # needs 26 nodes
        for allowance in (0, 1, 10, 25):
            got, _ = call(pure, gens, weights, target, wtarget, allowance)
            assert got == (BUDGET, None, allowance)
        got, _ = call(pure, gens, weights, target, wtarget, 26)
        assert got == (FOUND, [1, 2, 3], 26)


def direct_drop_table(gens, dim):
    """The drop table of one generator list, straight from its definition."""
    maxdrop = [max([-g[k] for g in gens if g[k] < 0], default=0)
               for k in range(dim)]
    separated = all(sum(e < 0 for e in g) <= 1 for g in gens)
    rows = []
    for k0 in range(dim):
        if any(g[k0] < 0 for g in gens):
            continue
        terms = []
        for k in range(dim):
            droppers = [g for g in gens if g[k] < 0]
            if droppers and min(g[k0] for g in droppers) > 0:
                terms.append((k, maxdrop[k], min(g[k0] for g in droppers)))
        if terms:
            rows.append((k0, tuple(terms)))
    return (separated, tuple(rows)) if rows else None


def fraction_like():
    """y, x1, x2 and the fractions y/x_i, y/x_i^2, graded (3, 1, 1): most
    members have many expressions, so a witness that depended on the memo's
    history would show."""
    dense = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
             (1, -2, 0), (1, 0, -2)]
    return MonoidPresentation(
        dim=3, gens=tuple(ExponentVector.from_dense(g) for g in dense),
        weights=(3, 1, 1))


FRACTION_TARGETS = [(a, b, c) for a in range(4)
                    for b in range(-4, 3) for c in range(-4, 3)]


def random_presentation(rng):
    """A random integer presentation, its grading and a random target."""
    dim = rng.randint(1, 3)
    lam = tuple(rng.randint(1, 3) for _ in range(dim))
    dense = set()
    for _ in range(rng.randint(1, 6)):
        g = tuple(rng.randint(-3, 4) for _ in range(dim))
        if sum(l * e for l, e in zip(lam, g)) > 0:
            dense.add(g)
    if not dense:
        dense.add(tuple(1 if k == 0 else 0 for k in range(dim)))
    S = MonoidPresentation(
        dim=dim, gens=tuple(ExponentVector.from_dense(g) for g in sorted(dense)),
        weights=lam)
    target = tuple(rng.randint(-6, 10) for _ in range(dim))
    return S, sorted(dense), lam, target


class TestDecisionRoute:
    """member() and the yes/no route lattice_contains on shared contexts."""

    def test_random_instances_agree(self):
        rng = random.Random(20260819)
        for trial in range(400):
            S, dense, lam, target = random_presentation(rng)
            weights = [sum(l * e for l, e in zip(lam, g)) for g in dense]
            wtarget = sum(l * e for l, e in zip(lam, target))
            where = (dense, lam, target)
            full_ctx = SearchContext()
            full = S.lattice_contains(target, full_ctx)
            assert full == brute_reachable(dense, weights, target, wtarget), where
            assert full == (S.member(ExponentVector.from_dense(target),
                                     SearchContext()) is not None), where
            full_memo = S._ctx_tables(full_ctx).get("memo", {})
            allowance = rng.randint(0, 30) if trial % 5 == 0 else BIG
            ctx = SearchContext(Budgets(search_nodes=allowance))
            if full_ctx.nodes_used > allowance:
                # aborted; the frontier memoized nothing the complete
                # search would not have
                with pytest.raises(SearchBudgetExceeded):
                    S.lattice_contains(target, ctx)
                memo = S._ctx_tables(ctx).get("memo", {})
                assert all(full_memo[k] == v for k, v in memo.items()), where
            else:
                assert S.lattice_contains(target, ctx) == full, where
                assert ctx.nodes_used == full_ctx.nodes_used, where
                assert S._ctx_tables(ctx).get("memo", {}) == full_memo, where

    def test_decisions_leave_member_witnesses_alone(self):
        # one memo serves every query, so a witness cannot depend on what
        # the context answered before
        S = fraction_like()
        ctx = SearchContext()
        for t in FRACTION_TARGETS:
            S.lattice_contains(t, ctx)
        rev = SearchContext()
        for t in reversed(FRACTION_TARGETS):
            S.member(ExponentVector.from_dense(t), rev)
        for t in FRACTION_TARGETS:
            e = ExponentVector.from_dense(t)
            want = S.member(e, SearchContext())
            assert S.member(e, ctx) == want == S.member(e, rev), t

    def test_contains_agrees_with_member(self):
        S = fraction_like()
        ctx = SearchContext()
        for t in FRACTION_TARGETS:
            assert S.lattice_contains(t, ctx) == (S.member(
                ExponentVector.from_dense(t), SearchContext()) is not None), t
        R = MonoidPresentation(
            dim=1, gens=tuple(ExponentVector.from_dense([g]) for g in (5, 7, 9)),
            weights=(1,))
        ctx = SearchContext()
        assert not R.lattice_contains((1,), ctx)  # builds the bitset table
        base = ctx.nodes_used
        for a in range(2, 60):
            assert R.lattice_contains((a,), ctx) == (R.member(
                ExponentVector.from_dense([a]), SearchContext()) is not None), a
        assert ctx.nodes_used == base + 58  # one bit test per query

    def test_rank1_contexts_share_a_build_and_each_pays_for_it(self):
        R = MonoidPresentation(
            dim=1, gens=tuple(ExponentVector.from_dense([g]) for g in (5, 7, 9)),
            weights=(1,))
        a, b = SearchContext(), SearchContext()
        assert R.lattice_contains((12,), a) and R.lattice_contains((12,), b)
        assert a.nodes_used == b.nodes_used == 3 * 13 + 1
        assert R._ctx_tables(a)["rank1"][1] is R._ctx_tables(b)["rank1"][1]
        # a larger table is the context's own and leaves the other's alone
        assert R.lattice_contains((10_000,), a)
        assert R._ctx_tables(b)["rank1"][0] == 4096
        assert R.lattice_contains((10_000,), b)
        assert a.nodes_used == b.nodes_used
        assert R._ctx_tables(a)["rank1"] == R._ctx_tables(b)["rank1"]
        assert R._ctx_tables(a)["rank1"][1] is not R._rank1_base


class TestRankOneReadOff:
    @pytest.mark.parametrize("values", [(3, 5, 7), (5, 7, 9)])
    def test_bitset_witness_matches_search(self, values):
        # member() reads a rank-1 witness off the reachability bitset; the
        # depth-first search must land on the same multiplicities
        R = MonoidPresentation(
            dim=1, gens=tuple(ExponentVector.from_dense([g]) for g in values),
            weights=(1,))
        pack = R._pack
        order = pack["order"]
        memo = {}
        for a in range(201):
            got = R.member(ExponentVector.from_dense([a]))
            status, counts, _ = pure.run_search(
                pack["gens_int"], pack["weights_int"], *pack["tables"], (a,),
                R.lattice_weight((a,)), BIG, memo)
            if status == NOT_MEMBER:
                assert got is None, a
            else:
                assert got is not None and got.as_dict() == {
                    order[j]: c for j, c in enumerate(counts) if c}, a


class TestSuffixTables:
    def test_tables_match_direct_recomputation(self):
        gens = ((1, 0, 0), (1, -1, 0), (1, 0, -2), (0, 1, 0), (0, 0, 1))
        weights = (4, 3, 2, 1, 1)
        minw, posm, negm, drops = pure.suffix_tables(gens, weights, 3)
        n = len(gens)
        assert len(minw) == len(posm) == len(negm) == len(drops) == n + 1
        assert posm[n] == 0 and negm[n] == 0 and drops[n] is None
        assert drops[0] == (True, ((0, ((1, 1, 1), (2, 2, 1))),))
        assert minw[n] > 10 ** 9  # sentinel beats any real weight
        for i in range(n):
            assert minw[i] == min(weights[i:])
            p = m = 0
            for g in gens[i:]:
                for k, e in enumerate(g):
                    if e > 0:
                        p |= 1 << k
                    elif e < 0:
                        m |= 1 << k
            assert posm[i] == p
            assert negm[i] == m
            assert drops[i] == direct_drop_table(gens[i:], 3)

    def test_drop_tables_match_definition_and_never_reject_members(self):
        rng = random.Random(11)
        for _ in range(200):
            gens, weights, target, wtarget = random_instance(rng)
            dim = len(target)
            drops = pure.suffix_tables(gens, weights, dim)[3]
            for i in range(len(gens)):
                assert drops[i] == direct_drop_table(gens[i:], dim)
                if drops[i] is not None and pure.drop_infeasible(drops[i], target):
                    assert not brute_reachable(gens[i:], weights[i:],
                                               target, wtarget)

    def test_suffix_masks_nest(self):
        rng = random.Random(7)
        for _ in range(50):
            gens, weights, _, _ = random_instance(rng)
            dim = len(gens[0])
            minw, posm, negm, _ = pure.suffix_tables(gens, weights, dim)
            for i in range(len(gens)):
                assert posm[i] & posm[i + 1] == posm[i + 1]
                assert negm[i] & negm[i + 1] == negm[i + 1]
                assert minw[i] <= minw[i + 1]


class TestEngineSelection:
    def test_engine_name_is_declared(self):
        assert pure.ENGINE_NAME == exponents.ENGINE_NAME == "pure"
