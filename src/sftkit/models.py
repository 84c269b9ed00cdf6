"""Catalog of truncated ring models, each bundled with named ideals and the
regression claims the suite re-verifies.

Every constructor is deterministic in its parameters, so structural equality
of models doubles as a round-trip check for the file format.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .arith import PrimeChar, is_prime
from .budget import SearchContext
from .elements import (CharPMonoidRing, DyadicRing, Int2xRing,
                       int_ideal_full, int_ideal_two)
from .errors import PreconditionViolated, UnknownExample
from .exponents import MAX_DIM, MAX_GENS, ExponentVector, MonoidPresentation
from .ideals import lattice_ideal

_ONE = Fraction(1)


@dataclass(frozen=True)
class RingModel:
    """A finitely truncated model: characteristic, exponent monoid (or the
    integer-coefficient flag), designated ideals by name, and the symbolic
    witness family it is expected to exhibit, if any."""

    name: str
    family: str
    params: tuple  # ((key, int), ...) constructor arguments, sorted
    char: PrimeChar
    monoid: Optional[MonoidPresentation]
    ring: object
    ideals: tuple  # ((name, handle), ...)
    witness_pattern: Optional[str] = None

    @cached_property
    def _ideal_map(self):
        return dict(self.ideals)

    def ideal(self, name: str):
        try:
            return self._ideal_map[name]
        except KeyError:
            raise UnknownExample(name, sorted(self._ideal_map)) from None

    @property
    def ideal_names(self) -> tuple:
        return tuple(n for n, _ in self.ideals)

    @property
    def param_map(self) -> dict:
        return dict(self.params)

    @property
    def is_integer_model(self) -> bool:
        return self.monoid is None


def _params(**kw) -> tuple:
    return tuple(sorted(kw.items()))


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise PreconditionViolated(f"{name} >= {least}", f"got {value}")


def _check_v(v: int, least: int, dim: int) -> None:
    """The variable count v against its floor, and the ambient dimension dim
    it gives against MAX_DIM, before anything is built."""
    _at_least("v", v, least)
    if dim > MAX_DIM:
        raise PreconditionViolated(f"v <= {MAX_DIM - (dim - v)}", f"got {v}")


def _check_gens(count: int, params: str) -> None:
    """The generator count the parameters give against MAX_GENS."""
    if count > MAX_GENS:
        raise PreconditionViolated(f"at most {MAX_GENS} generators",
                                   f"{params} gives {count}")


# each family's parameter checks: its constructor runs them before it builds
# anything, and check_model_params runs them without building (MAX_DIM keeps
# frobenius_quotient and char2_xy, with v and 1 + 2v generators, far below
# MAX_GENS, and MAX_DYADIC_NMAX keeps dyadic's 1 + nmax there too)

# cap on dyadic's nmax: its generators n + 2^-n put the lattice scale at
# 2^nmax, and the build time about doubles every two steps (on a 2-core
# host, Python 3.11: nmax 20 takes 0.06 s, 24 0.14 s, 28 0.38 s, 30 0.57 s;
# nmax 50 took about 17 s). A sanity bound on model size like MAX_GENS, not
# a setting: a larger nmax is refused before anything is built.
MAX_DYADIC_NMAX = 24


def _check_frobenius(p: int, v: int) -> None:
    _check_v(v, least=1, dim=v)
    if not is_prime(p):
        raise PreconditionViolated("p prime", f"got {p}")


def _check_fraction(v: int, M: int) -> None:
    _check_v(v, least=2, dim=1 + v)
    _at_least("M", M, 1)
    _check_gens(1 + v * (M + 1), f"v={v}, M={M}")


def _check_int(D: int) -> None:
    _at_least("D", D, 1)
    _check_gens(D + 1, f"D={D}")  # the generators 2x^j of `full`, j <= D


def _check_char2_xy(v: int, D: int) -> None:
    _check_v(v, least=2, dim=1 + v)


def _check_dyadic(nmax: int) -> None:
    _at_least("nmax", nmax, 2)
    if nmax > MAX_DYADIC_NMAX:
        raise PreconditionViolated(f"nmax <= {MAX_DYADIC_NMAX}", f"got {nmax}")


def _check_rational_valuation(denBound: int) -> None:
    _at_least("denBound", denBound, 2)
    count = 1  # denBound!, multiplied out only until it passes the bound
    for k in range(2, denBound + 1):
        count *= k
        if count > MAX_GENS:
            raise PreconditionViolated(
                f"at most {MAX_GENS} generators",
                f"denBound={denBound} gives {denBound}!")


# ---------------------------------------------------------------------------
# constructors


def frobenius_quotient(p: int = 2, v: int = 5,
                       ctx: Optional[SearchContext] = None) -> RingModel:
    """F_p[x_1..x_v] with every monomial containing an x_i^p set to zero.
    The maximal ideal is nilpotent but its index grows with v."""
    _check_frobenius(p, v)
    char = PrimeChar(p)
    units = tuple(ExponentVector(v, ((i, _ONE),)) for i in range(v))
    S = MonoidPresentation(
        dim=v, gens=units, weights=(_ONE,) * v,
        kill_bound=p, name=f"frobenius-p{p}-v{v}")
    ring = CharPMonoidRing(S, p)
    ideals = (
        ("max", lattice_ideal(S, S._pack["scaled"], ctx, label="max")),
        ("zero", lattice_ideal(S, (), ctx, label="zero")),
    )
    return RingModel(
        name=f"frobenius(p={p},v={v})", family="frobenius_quotient",
        params=_params(p=p, v=v), char=char, monoid=S, ring=ring,
        ideals=ideals,
        witness_pattern="product of k distinct variables, nonzero while k <= v(p-1)")


def fraction_monoid(v: int = 5, M: int = 4,
                    ctx: Optional[SearchContext] = None) -> RingModel:
    """Char-2 monoid algebra on y, x_1..x_v and the fractions y/x_i^m for
    m <= M. Grading weights the y coordinate M+1 so every fraction keeps a
    positive weight."""
    _check_fraction(v, M)
    dim = 1 + v
    y = ExponentVector(dim, ((0, _ONE),))
    xs = tuple(ExponentVector(dim, ((i, _ONE),)) for i in range(1, dim))
    fracs = tuple(ExponentVector(dim, ((0, _ONE), (i, Fraction(-m))))
                  for i in range(1, dim) for m in range(1, M + 1))
    gens = (y,) + xs + fracs
    weights = (Fraction(M + 1),) + (_ONE,) * v
    S = MonoidPresentation(dim=dim, gens=gens, weights=weights,
                           name=f"fraction-v{v}-M{M}")
    ring = CharPMonoidRing(S, 2)
    points = S._pack["scaled"]
    ideals = (
        # the fractions y/x_i, each the first of its run of M
        ("frac", lattice_ideal(S, points[dim::M], ctx, label="frac")),
        ("y", lattice_ideal(S, points[:1], ctx, label="y")),
        ("max", lattice_ideal(S, points, ctx, label="max")),
    )
    return RingModel(
        name=f"fraction(v={v},M={M})", family="fraction_monoid",
        params=_params(v=v, M=M), char=PrimeChar(2), monoid=S, ring=ring,
        ideals=ideals,
        witness_pattern="(y/x_i)(y/x_j) for distinct i, j")


def int_plus_2x(D: int = 10, ctx: Optional[SearchContext] = None) -> RingModel:
    """Z + 2xZ[x] truncated at x-degree D; coefficients are genuine
    integers, so ideal membership is the 2-valuation predicate."""
    _check_int(D)
    ring = Int2xRing()
    ideals = (
        ("full", int_ideal_full(D, ring)),
        ("two", int_ideal_two(ring)),
    )
    return RingModel(
        name=f"int_plus_2x(D={D})", family="int_plus_2x",
        params=_params(D=D), char=PrimeChar(0), monoid=None, ring=ring,
        ideals=ideals, witness_pattern=None)


def char2_xy(v: int = 5, D: int = 10,
             ctx: Optional[SearchContext] = None) -> RingModel:
    """Char-2 monoid algebra generated by X^2, X*Y_i, Y_i^2 (coordinates:
    slot 0 carries the X-exponent, slot i the Y_i-exponent). The Y_i^2
    generators stand in for invertible coefficient-field elements, so the
    ring's maximal ideal is (X^2, XY_1, ..., XY_v). D only caps sampling
    degrees."""
    _check_char2_xy(v, D)
    dim = 1 + v
    two = Fraction(2)
    a = ExponentVector(dim, ((0, two),))                              # X^2
    bs = tuple(ExponentVector(dim, ((0, _ONE), (i, _ONE)))
               for i in range(1, dim))                                # X Y_i
    cs = tuple(ExponentVector(dim, ((i, two),)) for i in range(1, dim))  # Y_i^2
    gens = (a,) + bs + cs
    S = MonoidPresentation(dim=dim, gens=gens,
                           weights=(_ONE,) * dim, name=f"char2xy-v{v}")
    ring = CharPMonoidRing(S, 2)
    points = S._pack["scaled"]
    ideals = (
        ("I", lattice_ideal(S, points[:dim], ctx, label="I")),
        ("B", lattice_ideal(S, points[:1], ctx, label="B")),
        ("max", lattice_ideal(S, points, ctx, label="max")),
    )
    return RingModel(
        name=f"char2_xy(v={v},D={D})", family="char2_xy",
        params=_params(v=v, D=D), char=PrimeChar(2), monoid=S, ring=ring,
        ideals=ideals,
        witness_pattern="product of k distinct XY_i factors")


def dyadic(nmax: int = 8, ctx: Optional[SearchContext] = None) -> RingModel:
    """Rank-1 monoid over Q generated by 1 and n + 2^-n for n <= nmax, with
    2-adically local coefficients; the generator 1 is the scalar 2."""
    _check_dyadic(nmax)
    vals = [_ONE] + [Fraction(n * 2 ** n + 1, 2 ** n) for n in range(1, nmax + 1)]
    gens = tuple(ExponentVector(1, ((0, q),)) for q in vals)
    S = MonoidPresentation(dim=1, gens=gens, weights=(_ONE,),
                           name=f"dyadic-n{nmax}")
    ring = DyadicRing(S)
    points = S._pack["scaled"]
    ideals = (
        ("max", lattice_ideal(S, points, ctx, label="max")),
        ("two", lattice_ideal(S, points[:1], ctx, label="two")),
    )
    return RingModel(
        name=f"dyadic(nmax={nmax})", family="dyadic",
        params=_params(nmax=nmax), char=PrimeChar(0), monoid=S, ring=ring,
        ideals=ideals,
        witness_pattern="product of k distinct generators n + 2^-n")


def rational_valuation(denBound: int = 6,
                       ctx: Optional[SearchContext] = None) -> RingModel:
    """F_2 + xV at denominator bound d: rank-1 monoid generated by every
    1 + k/d! with 0 <= k < d!, the lattice points d! + k at scale d!. All
    generators are minimal, so xV needs all of them; (x) is the principal
    sub-ideal."""
    _check_rational_valuation(denBound)
    F = math.factorial(denBound)
    gens = tuple(ExponentVector(1, ((0, Fraction(F + k, F)),)) for k in range(F))
    S = MonoidPresentation(dim=1, gens=gens, weights=(_ONE,),
                           name=f"xv-den{denBound}")
    ring = CharPMonoidRing(S, 2)
    points = S._pack["scaled"]
    ideals = (
        ("xV", lattice_ideal(S, points, ctx, label="xV")),
        ("x", lattice_ideal(S, points[:1], ctx, label="x")),
    )
    return RingModel(
        name=f"rational_valuation(denBound={denBound})",
        family="rational_valuation", params=_params(denBound=denBound),
        char=PrimeChar(2), monoid=S, ring=ring, ideals=ideals,
        witness_pattern="x^(a/(n+1)) against candidate data ((x^a), n)")


FAMILIES = {
    "frobenius_quotient": frobenius_quotient,
    "fraction_monoid": fraction_monoid,
    "int_plus_2x": int_plus_2x,
    "char2_xy": char2_xy,
    "dyadic": dyadic,
    "rational_valuation": rational_valuation,
}


_CHECKS = {
    "frobenius_quotient": _check_frobenius,
    "fraction_monoid": _check_fraction,
    "int_plus_2x": _check_int,
    "char2_xy": _check_char2_xy,
    "dyadic": _check_dyadic,
    "rational_valuation": _check_rational_valuation,
}


# each family's model parameters with their defaults, in signature order,
# read once from its constructor
_DEFAULTS = {
    family: {name: p.default
             for name, p in inspect.signature(ctor).parameters.items()
             if name != "ctx"}
    for family, ctor in FAMILIES.items()}


def _constructor(family: str, params: dict):
    """The family's constructor, once every parameter is one it takes (an
    UnknownExample otherwise)."""
    try:
        ctor = FAMILIES[family]
    except KeyError:
        raise UnknownExample(family, sorted(FAMILIES)) from None
    known = _DEFAULTS[family]
    unknown = sorted(set(params).difference(known))
    if unknown:
        raise UnknownExample(unknown[0], list(known), what=f"{family} parameter")
    return ctor


def build_model(family: str, ctx: Optional[SearchContext] = None,
                **params) -> RingModel:
    """The family's model at these parameters. The membership searches that
    building its ideals runs are charged to ctx (a fresh context if None).
    A parameter the family does not take is an UnknownExample."""
    if ctx is not None and not isinstance(ctx, SearchContext):
        params = {"ctx": ctx, **params}  # a model parameter named ctx
    return _constructor(family, params)(**params, ctx=ctx)


def check_model_params(family: str, **params) -> None:
    """Raise what build_model would raise for these parameters before it
    builds anything (UnknownExample, PreconditionViolated), building nothing."""
    _constructor(family, params)
    _CHECKS[family](**{**_DEFAULTS[family], **params})


# ---------------------------------------------------------------------------
# catalog claims


@dataclass(frozen=True)
class CatalogClaim:
    """One rerunnable assertion: a model, an operation, its arguments, and
    the expected verdict (plus frozen detail expectations, compared when
    present)."""

    id: str
    model: str          # catalog model name, or "" for multi-model claims
    kind: str           # a key of suite.CLAIM_KINDS
    params: tuple       # ((key, jsonable), ...)
    expected: str       # verdict value
    expect_details: tuple = ()  # ((key, jsonable), ...) subset match

    @property
    def param_map(self) -> dict:
        return dict(self.params)

    @property
    def expect_map(self) -> dict:
        return dict(self.expect_details)


def _claim(id, model, kind, expected, expect=(), **params) -> CatalogClaim:
    return CatalogClaim(id=id, model=model, kind=kind,
                        params=tuple(sorted(params.items())),
                        expected=expected,
                        expect_details=tuple(sorted(expect)))


def catalog_models() -> dict:
    """The default-truncation model set, keyed by short name."""
    out = {
        "frobenius_p2": frobenius_quotient(2, 5),
        "frobenius_p3": frobenius_quotient(3, 5),
        "frobenius_p5": frobenius_quotient(5, 5),
        "frobenius_p2_v2": frobenius_quotient(2, 2),
        "frobenius_p2_v3": frobenius_quotient(2, 3),
        "fraction": fraction_monoid(5, 4),
        "int_plus_2x": int_plus_2x(10),
        "char2_xy": char2_xy(5, 10),
        "char2_xy_v2": char2_xy(2, 10),
        "dyadic": dyadic(8),
        "rational_valuation": rational_valuation(6),
    }
    return out


def catalog_claims() -> tuple:
    V = "verified"
    R = "refuted_with_witness"
    F = "refuted_family"
    VAC = "vacuously_true"
    claims = [
        # nilpotent-quotient family: SFT at index p, never VSFT as v grows
        _claim("fr2-sft-gens", "frobenius_p2", "sft_generators", V,
               I="max", B="zero", n=2),
        _claim("fr2-sft-all", "frobenius_p2", "sft_all_elements", V,
               expect=[("certificate", "FrobeniusCharP")],
               I="max", B="zero", n=2),
        _claim("fr3-sft-all", "frobenius_p3", "sft_all_elements", V,
               expect=[("certificate", "FrobeniusCharP")],
               I="max", B="zero", n=3),
        _claim("fr5-sft-all", "frobenius_p5", "sft_all_elements", V,
               expect=[("certificate", "FrobeniusCharP")],
               I="max", B="zero", n=5),
        _claim("fr2v2-sft-idx3-exhaustive", "frobenius_p2_v2",
               "sft_all_elements", V,
               expect=[("certificate", "ExhaustiveFinite")],
               I="max", B="zero", n=3),
        _claim("fr2-witness-k5", "frobenius_p2", "vsft_witness_search", R,
               expect=[("witness_k", 5)],
               I="max", B="zero", kmin=1, kmax=5),
        _claim("fr2-minimal-index", "frobenius_p2", "minimal_index", V,
               expect=[("n_min", 6)],
               I="max", B="zero", cap=8),
        _claim("fr2-power-m3", "frobenius_p2", "power_data", V,
               I="max", B="zero", n=2, m=3, mode="sft"),
        _claim("fr2-radical-equal", "frobenius_p2", "radical_equal", V,
               I="max", B="zero", kmax=8),
        _claim("fr2-anyradical", "frobenius_p2", "anyradical", V,
               expect=[("m", 6)],
               I="max", B="zero", mmax=12),
        _claim("fr2-strongconv-vacuous", "frobenius_p2",
               "strong_convergence", VAC, I="max", B="zero", n=2),
        _claim("fr2-ext-exponent", "frobenius_p2", "extension_sft_exponent",
               V, expect=[("least_exponent", 2)],
               I="max", B="zero", n=2, degree=4, samples=60),
        _claim("fr3-ext-exponent", "frobenius_p3", "extension_sft_exponent",
               V, expect=[("least_exponent", 3)],
               I="max", B="zero", n=3, degree=3, samples=200),
        _claim("fr2v3-quotient-x3", "frobenius_p2_v3", "quotient_pushforward",
               V, I="max", B="zero", n=2, kernel=["x3"], mode="sft"),
        _claim("fr2-divergence", "", "divergence", F,
               expect=[("indices", [3, 4, 5, 6, 7])],
               family="frobenius_quotient", level_key="v",
               levels=[2, 3, 4, 5, 6], fixed={"p": 2},
               I="max", B="zero", cap=9),

        # fraction model: SFT on generators, VSFT refuted by cross fractions
        _claim("frac-sft-gens", "fraction", "sft_generators", V,
               I="frac", B="y", n=2),
        _claim("frac-sft-all", "fraction", "sft_all_elements", V,
               expect=[("certificate", "FrobeniusCharP")],
               I="frac", B="y", n=2),
        _claim("frac-vsft", "fraction", "vsft", R,
               expect=[("witness_factors", [0, 1])],
               I="frac", B="y", n=2),
        _claim("frac-witness-k2", "fraction", "vsft_witness_search", R,
               expect=[("witness_k", 2)],
               I="frac", B="y", kmin=2, kmax=2),
        _claim("frac-divergence", "", "divergence", F,
               expect=[("indices", [3, 4, 5, 6, 7])],
               family="fraction_monoid", level_key="v",
               levels=[2, 3, 4, 5, 6], fixed={"M": 4},
               I="frac", B="y", cap=9),

        # integer-coefficient model: genuinely VSFT
        _claim("int-sft-gens", "int_plus_2x", "sft_generators", V,
               I="full", B="two", n=2),
        _claim("int-sft-all", "int_plus_2x", "sft_all_elements", V,
               expect=[("certificate", "DiagonalDominanceChar0")],
               I="full", B="two", n=2),
        _claim("int-sft-idx3-sampled", "int_plus_2x", "sft_all_elements", V,
               expect=[("certificate", "SampledOnly"), ("exact", False)],
               I="full", B="two", n=3, samples=80),
        _claim("int-vsft", "int_plus_2x", "vsft", V,
               I="full", B="two", n=2),
        _claim("int-witness-none", "int_plus_2x", "vsft_witness_search", V,
               I="full", B="two", kmin=2, kmax=3),
        _claim("int-minimal-index", "int_plus_2x", "minimal_index", V,
               expect=[("n_min", 2)],
               I="full", B="two", cap=4),
        _claim("int-power-m4", "int_plus_2x", "power_data", V,
               I="full", B="two", n=2, m=4, mode="vsft"),
        _claim("int-modified-radical", "int_plus_2x", "modified_radical", V,
               expect=[("k", 2)],
               J="full", I_def=["power", 2], B="two", n=2, kmax=4),
        _claim("int-strong-conv", "int_plus_2x", "strong_convergence", V,
               I="full", B="two", n=2),
        _claim("int-ext-vsft", "int_plus_2x", "extension_vsft", V,
               I="full", B="two", n=2, degree=4, samples=40),
        _claim("int-quotient-xD", "int_plus_2x", "quotient_pushforward", V,
               I="full", B="two", n=2, kernel=["2xD"], mode="vsft"),
        _claim("int-radical-equal", "int_plus_2x", "radical_equal", V,
               I="full", B="two", kmax=4),
        _claim("int-anyradical", "int_plus_2x", "anyradical", V,
               expect=[("m", 2)],
               I="full", B="two", mmax=6),
        _claim("int-divergence", "", "divergence", V,
               expect=[("indices", [2, 2, 2, 2, 2])],
               family="int_plus_2x", level_key="D",
               levels=[2, 3, 4, 5, 6], fixed={},
               I="full", B="two", cap=4),

        # char-2 xy model: Frobenius SFT, witnesses of distinct XY factors
        _claim("xy-sft-gens", "char2_xy", "sft_generators", V,
               I="I", B="B", n=2),
        _claim("xy-sft-all", "char2_xy", "sft_all_elements", V,
               expect=[("certificate", "FrobeniusCharP")],
               I="I", B="B", n=2),
        _claim("xy-witness-k5", "char2_xy", "vsft_witness_search", R,
               expect=[("witness_k", 5)],
               I="I", B="B", kmin=1, kmax=5),
        _claim("xy-minimal-index", "char2_xy", "minimal_index", V,
               expect=[("n_min", 6)],
               I="I", B="B", cap=8),
        _claim("xy2-modified-radical", "char2_xy_v2", "modified_radical", V,
               expect=[("k", 4)],
               J="I", I_def=["gen_powers", 2], B="B", n=2, kmax=6),
        _claim("xy-divergence", "", "divergence", F,
               expect=[("indices", [3, 4, 5, 6, 7])],
               family="char2_xy", level_key="v",
               levels=[2, 3, 4, 5, 6], fixed={"D": 10},
               I="I", B="B", cap=9),

        # dyadic model: DiagonalDominance SFT, per-k witnesses
        _claim("dy-sft-gens", "dyadic", "sft_generators", V,
               I="max", B="two", n=2),
        _claim("dy-sft-all", "dyadic", "sft_all_elements", V,
               expect=[("certificate", "DiagonalDominanceChar0")],
               I="max", B="two", n=2),
        _claim("dy-witness-k8", "dyadic", "vsft_witness_search", R,
               expect=[("witness_k", 8), ("witness_exponent", "9471/256")],
               I="max", B="two", kmin=1, kmax=8),
        _claim("dy-strong-conv", "dyadic", "strong_convergence", V,
               expect=[("factor_essential", True)],
               I="max", B="two", n=2,
               elements=["3/2", "9/4"]),
        _claim("dy-divergence", "", "divergence", F,
               expect=[("indices", [3, 4, 5, 6, 7])],
               family="dyadic", level_key="nmax",
               levels=[2, 3, 4, 5, 6], fixed={},
               I="max", B="two", cap=9),

        # valuation-monoid model: VSFT upstairs, no SFT data downstairs
        _claim("xv-sft-gens", "rational_valuation", "sft_generators", V,
               I="xV", B="x", n=2),
        _claim("xv-vsft", "rational_valuation", "vsft", V,
               I="xV", B="x", n=2),
        _claim("xv-witness-none", "rational_valuation", "vsft_witness_search",
               V, I="xV", B="x", kmin=2, kmax=2),
        _claim("xv-minimal-index", "rational_valuation", "minimal_index", V,
               expect=[("n_min", 2)],
               I="xV", B="x", cap=3),
        _claim("xv-ext-vsft", "rational_valuation", "extension_vsft", V,
               I="xV", B="x", n=2, degree=2, samples=40),
        _claim("xv-valuation-scan", "rational_valuation", "valuation_scan", F,
               numerators=[1, 2, 360, 720, 1440], nmax=6),
        _claim("xv-divergence", "", "divergence", V,
               expect=[("indices", [2, 2, 2, 2, 2])],
               family="rational_valuation", level_key="denBound",
               levels=[2, 3, 4, 5, 6], fixed={},
               I="xV", B="x", cap=3),
    ]
    return tuple(claims)


def builtin_catalog() -> tuple:
    """(models, claims) for the default suite."""
    return catalog_models(), catalog_claims()
