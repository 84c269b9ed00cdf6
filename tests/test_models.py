"""Model constructor, catalog integrity, and truncation coherence tests.

The coherence section is the load-bearing one: every definitive verdict the
standard probe produces must survive enlarging the truncation by one step.
A verdict that flipped under a bigger truncation would mean some check was
reading an artifact of the cut, not a property of the family.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from sftkit.budget import Budgets
from sftkit.errors import PreconditionViolated, UnknownExample
from sftkit.exponents import MAX_GENS, ExponentVector
from sftkit.models import (
    FAMILIES,
    build_model,
    check_model_params,
    catalog_claims,
    catalog_models,
    char2_xy,
    dyadic,
    fraction_monoid,
    frobenius_quotient,
    int_plus_2x,
    rational_valuation,
)
from sftkit.sftcheck import Verdict
from sftkit.suite import CLAIM_KINDS, run_example


class TestConstructors:
    def test_frobenius_shape(self):
        m = frobenius_quotient(2, 3)
        assert m.monoid.dim == 3
        assert len(m.monoid.gens) == 3
        assert (m.monoid.kill_bound, m.monoid.kill_points) == (2, ())
        assert m.char.value == 2
        assert m.ideal_names == ("max", "zero")
        assert m.ideal("zero").is_zero

    def test_fraction_shape(self):
        m = fraction_monoid(3, 2)
        assert m.monoid.dim == 4
        assert len(m.monoid.gens) == 1 + 3 + 3 * 2
        assert m.monoid.weights == (Fraction(3), Fraction(1), Fraction(1), Fraction(1))
        assert len(m.ideal("frac").gens) == 3
        assert len(m.ideal("y").gens) == 1
        # every generator keeps positive weight, fractions included
        assert all(m.monoid.weight(g) > 0 for g in m.monoid.gens)

    def test_char2_xy_shape(self):
        m = char2_xy(2, 10)
        assert m.monoid.dim == 3
        assert len(m.monoid.gens) == 5
        assert len(m.ideal("I").gens) == 3
        assert len(m.ideal("B").gens) == 1

    def test_dyadic_shape(self):
        m = dyadic(3)
        assert m.monoid.dim == 1
        dense = [g.dense()[0] for g in m.monoid.gens]
        assert dense == [1, Fraction(3, 2), Fraction(9, 4), Fraction(25, 8)]
        assert len(m.ideal("two").gens) == 1

    def test_rational_valuation_shape(self):
        m = rational_valuation(3)
        dense = [g.dense()[0] for g in m.monoid.gens]
        assert dense == [Fraction(6 + k, 6) for k in range(6)]
        # all generators are minimal: none divides another inside the monoid
        assert len(m.ideal("xV").gens) == 6
        assert len(m.ideal("x").gens) == 1

    def test_integer_model_flag(self):
        m = int_plus_2x(4)
        assert m.is_integer_model
        assert m.monoid is None
        assert m.char.value == 0
        assert m.ideal("full").thresh == 4

    def test_parameter_validation(self):
        for bad in (lambda: frobenius_quotient(2, 0),
                    lambda: frobenius_quotient(4, 2),
                    lambda: fraction_monoid(1, 4),
                    lambda: fraction_monoid(5, 0),
                    lambda: int_plus_2x(0),
                    lambda: char2_xy(1, 10),
                    lambda: dyadic(1),
                    lambda: rational_valuation(1)):
            with pytest.raises((PreconditionViolated, ValueError)):
                bad()

    def test_unknown_lookups(self):
        with pytest.raises(UnknownExample):
            build_model("no_such_family")
        with pytest.raises(UnknownExample) as ei:
            build_model("dyadic", p=3)
        assert "unknown dyadic parameter 'p'; available: nmax" in str(ei.value)
        with pytest.raises(UnknownExample):
            frobenius_quotient(2, 2).ideal("no_such_ideal")

    BAD_PARAMS = {
        "frobenius_quotient": [{"p": 4}, {"v": 0}, {"v": 65}],
        "fraction_monoid": [{"v": 1}, {"M": 0}, {"v": 64}, {"M": 10 ** 6}],
        "int_plus_2x": [{"D": 0}, {"D": 10 ** 6}],
        "char2_xy": [{"v": 1}, {"v": 64}],
        "dyadic": [{"nmax": 1}, {"p": 3}, {"nmax": 10 ** 6}],
        "rational_valuation": [{"denBound": 1}, {"denBound": 12},
                               {"denBound": 10 ** 9}],
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_params_checked_without_building(self, family):
        assert check_model_params(family) is None
        for params in self.BAD_PARAMS[family]:
            with pytest.raises((PreconditionViolated, UnknownExample)) as built:
                build_model(family, **params)
            with pytest.raises(built.type) as checked:
                check_model_params(family, **params)
            assert str(checked.value) == str(built.value), params

    def test_generator_bound(self):
        # MAX_GENS = 8!: rational_valuation reaches it at denBound 8, the
        # fraction monoid 1 + v(M + 1) at v = 63, M = 638
        assert MAX_GENS == 40320
        for family, params in (("rational_valuation", {"denBound": 8}),
                               ("fraction_monoid", {"v": 63, "M": 638}),
                               ("int_plus_2x", {"D": 40319}),
                               ("dyadic", {"nmax": 24})):
            assert check_model_params(family, **params) is None
        for family, params, shown in (
                ("rational_valuation", {"denBound": 9}, "denBound=9 gives 9!"),
                ("fraction_monoid", {"v": 63, "M": 639}, "v=63, M=639 gives 40321"),
                ("int_plus_2x", {"D": 40320}, "D=40320 gives 40321")):
            with pytest.raises(PreconditionViolated) as ei:
                check_model_params(family, **params)
            assert str(ei.value) == ("precondition violated: at most 40320 "
                                     f"generators ({shown})")
        # dyadic's 1 + nmax generators stay far below MAX_GENS; its build
        # time grows with the lattice scale 2^nmax, so nmax has its own cap
        with pytest.raises(PreconditionViolated) as ei:
            check_model_params("dyadic", nmax=25)
        assert str(ei.value) == "precondition violated: nmax <= 24 (got 25)"

    def test_constructors_are_deterministic(self):
        for family, ctor in FAMILIES.items():
            assert ctor() == ctor(), family


class TestCatalog:
    def test_model_keys_and_rebuild(self):
        models = catalog_models()
        assert len(models) == 11
        for key, m in models.items():
            assert m.family in FAMILIES
            rebuilt = build_model(m.family, **m.param_map)
            assert rebuilt == m, key

    def test_claims_are_well_formed(self):
        models = catalog_models()
        claims = catalog_claims()
        assert len(claims) == 52
        ids = [c.id for c in claims]
        assert len(set(ids)) == len(ids)
        verdicts = {v.value for v in Verdict}
        for c in claims:
            assert c.kind in CLAIM_KINDS, c.id
            assert c.expected in verdicts, c.id
            if c.model:
                assert c.model in models, c.id
            else:
                assert c.param_map["family"] in FAMILIES, c.id

    def test_claim_ideal_references_resolve(self):
        models = catalog_models()
        for c in catalog_claims():
            if not c.model:
                continue
            m = models[c.model]
            for key in ("I", "B", "J"):
                name = c.param_map.get(key)
                if name is not None:
                    assert name in m.ideal_names, (c.id, key, name)

    def test_every_kind_is_exercised(self):
        kinds = {c.kind for c in catalog_claims()}
        assert kinds == set(CLAIM_KINDS)


# quick profile keeps the coherence matrix affordable; the default budgets
# are only needed by the full-size catalog entries
COHERENCE_BUDGETS = Budgets(search_nodes=8_000_000, multisets=1_000_000,
                            samples=30, degree_cap=64, exhaustive_cap=4096)

DEFINITIVE = {Verdict.VERIFIED: True,
              Verdict.REFUTED_WITH_WITNESS: False,
              Verdict.REFUTED_FAMILY: False}


def probe_verdicts(family: str, params: dict) -> dict:
    model = build_model(family, **params)
    out = {}
    for rep in run_example(model, seed=0, budgets=COHERENCE_BUDGETS):
        suffix = rep.claim.rsplit("/", 1)[1]
        out[suffix] = rep.verdict
    return out


class TestTruncationCoherence:
    PAIRS = [
        ("frobenius_quotient", {"p": 2, "v": 5}, {"p": 2, "v": 6}),
        ("fraction_monoid", {"v": 5, "M": 4}, {"v": 6, "M": 4}),
        ("fraction_monoid", {"v": 5, "M": 4}, {"v": 5, "M": 5}),
        ("int_plus_2x", {"D": 10}, {"D": 11}),
        ("char2_xy", {"v": 5, "D": 10}, {"v": 6, "D": 10}),
        ("dyadic", {"nmax": 8}, {"nmax": 9}),
        ("rational_valuation", {"denBound": 5}, {"denBound": 6}),
    ]

    @pytest.mark.parametrize("family,small,large", PAIRS,
                             ids=lambda p: str(p) if isinstance(p, str) else
                             ",".join(f"{k}{v}" for k, v in p.items()))
    def test_definitive_verdicts_survive_enlarging(self, family, small, large):
        vs = probe_verdicts(family, small)
        vl = probe_verdicts(family, large)
        assert set(vs) == set(vl)
        for suffix, verdict in vs.items():
            if verdict not in DEFINITIVE or vl[suffix] not in DEFINITIVE:
                continue
            assert DEFINITIVE[verdict] == DEFINITIVE[vl[suffix]], (
                f"{family} {suffix}: {verdict.value} at {small} became "
                f"{vl[suffix].value} at {large}")

    def test_probe_covers_the_standard_questions(self):
        vs = probe_verdicts("frobenius_quotient", {"p": 2, "v": 2})
        assert set(vs) == {"sft-generators", "sft-all", "vsft", "witnesses"}
        vs = probe_verdicts("rational_valuation", {"denBound": 4})
        assert "valuation-scan" in vs and "index-by-truncation" in vs
