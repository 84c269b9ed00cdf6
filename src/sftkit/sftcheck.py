"""Verdict layer: elementwise power certificates, ideal-power containment
decisions, witness searches, and the derived-data checks that tie them
together.

Every check is written once against the ideal protocol that both ideal
kinds carry: MonomialIdeal (elements are lattice points) and the integer
model's IntIdeal (elements are monomial keys (x-degree, coefficient)). An
ideal lists its `generators` and `gens` (the same generators as the user
sees them), and answers `contains(x, ctx)`, `multiply(x, y, ctx)`,
`nth_power(x, n, ctx)` (x^n), `power(m, ctx)`, `times_generators(xs,
ctx)` (the distinct products of xs with the generators, each with its
first pair: ideals.outside_layers walks on them the products outside B
that decide every I^n ⊆ B), `radical_index(x, kmax, ctx)` (least k with
x^k inside, or None), `witness(x)` (the fields naming x in a report) and
`generator_elements(ring)`. Only facts about the ring, not the ideal,
still branch on the model: the quotient kernel and the exhaustive
certificate.

Every operation returns a VerificationReport. Soundness rule: running out of
budget is reported as inconclusive_at_truncation, never as a wrong verdict;
one guard around each public operation (inconclusive_on_budget) makes that
hold for its preconditions too. Refutations always carry a witness that
re-verifies independently.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .arith import multinomial
from .budget import SearchContext
from .elements import (_prefix_products, alive_ideal_monomials, element_add,
                       element_in_ideal, element_multiply, element_power,
                       element_scale, enumerate_ideal_elements,
                       monomial_element, random_element)
from .errors import (BudgetExceeded, NoCertificateApplicable,
                     PreconditionViolated, TruncationTooSmall,
                     UnsupportedModel)
from .exponents import ExponentVector
from .ideals import (MonomialIdeal, lattice_ideal, least_power_inside,
                     one_per_orbit, outside_layers)
from .models import RingModel, build_model, check_model_params


class Verdict(str, Enum):
    VERIFIED = "verified"
    REFUTED_WITH_WITNESS = "refuted_with_witness"
    INCONCLUSIVE_AT_TRUNCATION = "inconclusive_at_truncation"
    REFUTED_FAMILY = "refuted_family"
    VACUOUSLY_TRUE = "vacuously_true"


@dataclass(frozen=True)
class Certificate:
    """Why a generator-level check covers all elements."""

    # FrobeniusCharP | DiagonalDominanceChar0 | ExhaustiveFinite |
    # MultinomialCover | SampledOnly. MultinomialCover (the extension
    # exponent) says that at `exponent` e every multiset m of I's generators
    # with |m| = e has multinomial(e, m) * prod g_i^m_i in B, so a^e ∈ B for
    # every a in I·R[t]; `multisets` counts the multisets at e, and
    # generator `lower_bound_generator` has no power in B by e - 1 (None
    # when e = 1), so no smaller exponent works. Without such a generator,
    # or past the multisets budget, that check samples and reports none.
    kind: str
    params: tuple = ()

    @property
    def param_map(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class SftData:
    """Certificate triple (I, B, n): B is a finitely generated sub-ideal of
    I and n the claimed power index."""

    I: object
    B: object
    n: int


@dataclass
class VerificationReport:
    claim: str
    verdict: Verdict
    exact: bool
    certificate: Optional[Certificate] = None
    witness: Optional[dict] = None
    truncation: dict = field(default_factory=dict)
    budgets_used: dict = field(default_factory=dict)
    seed: Optional[int] = None
    details: dict = field(default_factory=dict)


def _report(claim, verdict, model, ctx, exact, certificate=None, witness=None,
            seed=None, **details) -> VerificationReport:
    return VerificationReport(
        claim=claim, verdict=verdict, exact=exact, certificate=certificate,
        witness=witness,
        truncation=dict(model.params) if model is not None else {},
        budgets_used=ctx.used(), seed=seed, details=details)


def inconclusive_on_budget(claim, model, ctx, op, seed=None):
    """op(), or an inconclusive_at_truncation report when any budget runs
    out inside it. Only _multinomial_cover also catches it, to sample."""
    try:
        return op()
    except BudgetExceeded as exc:
        return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model, ctx,
                       exact=False, seed=seed,
                       budget_exhausted=type(exc).__name__, message=str(exc))


def _guarded(op):
    """A public operation run whole under inconclusive_on_budget, with a
    fresh SearchContext when the caller passes none."""
    sig = inspect.signature(op)

    @functools.wraps(op)
    def run(*args, **kwargs):
        call = sig.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        a["ctx"] = a["ctx"] or SearchContext()
        return inconclusive_on_budget(
            a["claim"], a.get("model"), a["ctx"],
            lambda: op(*call.args, **call.kwargs), seed=a.get("seed"))

    return run


def _power_exponent(n: int, p: int) -> Optional[int]:
    """k with p**k == n, or None when n is no power of p."""
    if n < 1:
        return None
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


def _mix_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) & 0x7FFFFFFF


def _scalar(model: RingModel, c, tdeg: int = 0):
    """The ring element c * t^tdeg."""
    one = 0 if model.is_integer_model else ExponentVector.zero(model.monoid.dim)
    return monomial_element(model.ring, one, c, tdeg)


def build_sft_data(model: RingModel, I, B, n: int,
                   ctx: Optional[SearchContext] = None) -> SftData:
    """Validated triple; containment B ⊆ I is checked here once."""
    if n < 1:
        raise PreconditionViolated("index n >= 1", f"got {n}")
    _check_sub(I, B, ctx or SearchContext())
    return SftData(I=I, B=B, n=n)


# ---------------------------------------------------------------------------
# cores shared by several operations


def _same_monoid(I, B) -> None:
    # the integer model's ideals have no monoid
    S, T = getattr(I, "monoid", None), getattr(B, "monoid", None)
    if S is not T and S != T:
        raise PreconditionViolated("same owning monoid")


def _check_sub(I, B, ctx) -> None:
    """B ⊆ I, decided on one generator per orbit (ideals.one_per_orbit):
    a generator whose orbit an earlier one passed for passes too, so the
    first one that escapes is the same."""
    _same_monoid(I, B)
    for i, x in one_per_orbit(B.generators, I):
        if not I.contains(x, ctx):
            raise PreconditionViolated("B ⊆ I", f"generator {B.gens[i]!r} escapes")


def _check_radical(I, B, kmax, ctx, clause="I ⊆ √B") -> None:
    """Every generator of I has a power in B by kmax; one per orbit, as in
    _check_sub."""
    for i, x in one_per_orbit(I.generators, B):
        if B.radical_index(x, kmax, ctx) is None:
            raise PreconditionViolated(
                clause, f"no power of {I.gens[i]!r} lands inside by {kmax}")


def _sft_gens_core(data, ctx):
    """First generator of I whose n-th power leaves B, or None."""
    I = data.I
    for idx, x in enumerate(I.generators):
        xn = I.nth_power(x, data.n, ctx)
        if not data.B.contains(xn, ctx):
            return {"kind": "generator_power", "generator_index": idx,
                    "power": data.n, **I.witness(xn)}
    return None


def _vsft_core(data, ctx):
    """Exact I^n ⊆ B decision on ideals.outside_layers: None once a layer
    is empty, else the first product outside B at n as a witness dict."""
    if data.n < 1:  # a hand-built SftData; outside_layers starts at n = 1
        raise PreconditionViolated("index n >= 1", f"got {data.n}")
    for n, layer in enumerate(outside_layers(data.I, data.B, ctx), 1):
        if not layer:
            return None
        if n == data.n:
            x, factors = next(iter(layer.items()))
            return {"kind": "generator_product", "factors": list(factors),
                    **data.I.witness(x)}


# ---------------------------------------------------------------------------
# SFT certificates


@_guarded
def verify_sft_generators(model: RingModel, data: SftData,
                          ctx: Optional[SearchContext] = None,
                          claim: str = "sft-generators") -> VerificationReport:
    """g^n ∈ B for every generator g of I. Exact."""
    witness = _sft_gens_core(data, ctx)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       generators_checked=len(data.I.generators),
                       index=data.n)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, index=data.n)


@_guarded
def certify_sft_all_elements(model: RingModel, data: SftData,
                             ctx: Optional[SearchContext] = None,
                             samples: Optional[int] = None, seed: int = 0,
                             claim: str = "sft-all") -> VerificationReport:
    """Attach the strongest certificate extending the generator check to all
    elements of I.

    Priority: prime-characteristic power-of-p index (additive powering);
    characteristic-0 index 2 with 2 ∈ B (cross terms all carry the scalar
    2); finite enumeration when the ideal's element space fits the budget;
    otherwise sampling, explicitly flagged non-exact.
    """
    gen_rep = verify_sft_generators(model, data, ctx, claim=claim + "/gens")
    if gen_rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION:
        gen_rep.claim = claim
        return gen_rep
    if gen_rep.verdict is not Verdict.VERIFIED:
        raise PreconditionViolated(
            "generator-level SFT check passes first",
            f"got {gen_rep.verdict.value}")
    p = model.char.value
    n = data.n
    k = _power_exponent(n, p) if p > 0 else None
    if k is not None:
        cert = Certificate("FrobeniusCharP", (("p", p), ("k", k)))
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       certificate=cert)
    if p == 0 and n == 2 and element_in_ideal(_scalar(model, 2), data.B, ctx):
        cert = Certificate("DiagonalDominanceChar0", (("index", 2),))
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       certificate=cert)
    if (not model.is_integer_model and p > 0
            and model.monoid.kill_bound is not None):
        monos = alive_ideal_monomials(model.ring, data.I, ctx)
        count = p ** len(monos)
        if count <= ctx.budgets.exhaustive_cap:
            for z in enumerate_ideal_elements(model.ring, monos, ctx):
                if z.is_zero:
                    continue
                zp = element_power(z, n, ctx)
                if not element_in_ideal(zp, data.B, ctx):
                    return _report(claim, Verdict.REFUTED_WITH_WITNESS,
                                   model, ctx, exact=True,
                                   witness={"kind": "element",
                                            "element": repr(z)})
            cert = Certificate("ExhaustiveFinite", (("elements", count),))
            return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                           certificate=cert)
    # no exact certificate applies; fall back to sampling
    ns = ctx.budgets.samples if samples is None else samples
    if ns <= 0:
        raise NoCertificateApplicable(
            f"no exact certificate for char {p}, index {n}, and sampling disabled")
    for i in range(ns):
        ctx.charge_samples()
        z = random_element(model.ring, data.I, degree_bound=2,
                           seed=_mix_seed(seed, i), ctx=ctx)
        zp = element_power(z, n, ctx)
        if not element_in_ideal(zp, data.B, ctx):
            return _report(claim, Verdict.REFUTED_WITH_WITNESS, model,
                           ctx, exact=True, seed=seed,
                           witness={"kind": "element", "sample": i,
                                    "element": repr(z)})
    cert = Certificate("SampledOnly", (("samples", ns), ("seed", seed)))
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=False,
                   certificate=cert, seed=seed, qualifier="on samples")


# ---------------------------------------------------------------------------
# VSFT decisions and witness search


@_guarded
def verify_vsft(model: RingModel, data: SftData,
                ctx: Optional[SearchContext] = None,
                claim: str = "vsft") -> VerificationReport:
    """Exact decision of I^n ⊆ B."""
    witness = _vsft_core(data, ctx)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       index=data.n)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, index=data.n,
                   witness_factors=list(witness["factors"]))


def _first_combo_outside(I, k, outside, ctx):
    """(combo, product) for the lexicographically least k distinct
    generators of I whose product is outside(product), or None. One
    multiset per combination, charged as it is drawn, and refused up front
    when all C(n, k) would not fit."""
    gens = I.generators
    ctx.precheck_multisets(math.comb(len(gens), k))
    combos = (c for c in itertools.combinations(range(len(gens)), k)
              if not ctx.charge_multisets(1))
    return next(((combo, prod) for combo, prod
                 in _prefix_products(combos, gens, I.multiply, ctx)
                 if outside(prod)), None)


@_guarded
def find_vsft_witness(model: RingModel, I, B, kmax: int, kmin: int = 1,
                      ctx: Optional[SearchContext] = None,
                      claim: str = "vsft-witness") -> VerificationReport:
    """For each k in [kmin, kmax], the lexicographically least product of k
    distinct generators of I outside B, if any.

    Combinations are tried in lexicographic order, one multiset each, and
    B.contains runs once per distinct product. At k = 2 on a rank-1
    MonomialIdeal the pairs come from I.times_generators(I.generators),
    charged as it charges (one multiset per distinct sum), all up front. It
    keeps each sum's least pair (i, j), and i < j whenever two distinct
    generators give the sum, since canonical order is compatible with
    addition; so its first entry with j > i outside B is the least pair
    outside B, after the same B.contains questions in the same order."""
    if kmax < 1 or kmin < 1 or kmin > kmax:
        raise PreconditionViolated("1 <= kmin <= kmax", f"got [{kmin},{kmax}]")
    gens = I.generators
    if kmax > len(gens):
        raise TruncationTooSmall(
            f"kmax {kmax} exceeds the {len(gens)} distinct generators available")
    _same_monoid(I, B)

    @functools.cache  # shared by every k
    def outside(prod) -> bool:
        return not B.contains(prod, ctx)

    per_k = []
    last_witness = None
    for k in range(kmin, kmax + 1):
        if k == 2 and isinstance(I, MonomialIdeal) and I.monoid.dim == 1:
            sums = I.times_generators(list(gens), ctx)
            hit = next((((i, j), prod) for prod, (i, j) in sums.items()
                        if j > i and outside(prod)), None)
        else:
            hit = _first_combo_outside(I, k, outside, ctx)
        found = None
        if hit is not None:
            combo, prod = hit
            found = last_witness = {"k": k, "factors": list(combo),
                                    **I.witness(prod)}
        per_k.append({"k": k, "witness": found})
    details = {"per_k": per_k, "kmin": kmin, "kmax": kmax}
    if last_witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       **details)
    details["witness_k"] = last_witness["k"]
    e = last_witness.get("exponent")
    if e is not None and e.dim == 1:
        details["witness_exponent"] = str(e.dense()[0])
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=last_witness, **details)


@_guarded
def minimal_vsft_index(model: RingModel, I, B, cap: int,
                       ctx: Optional[SearchContext] = None,
                       claim: str = "minimal-index") -> VerificationReport:
    """Least n ≤ cap with I^n ⊆ B. Requires B ⊆ I ⊆ √B."""
    _check_sub(I, B, ctx)
    _check_radical(I, B, max(cap, 8), ctx)
    n = least_power_inside(I, B, cap, ctx)
    if n is None:
        return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model, ctx,
                       exact=True, cap=cap)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, n_min=n,
                   cap=cap)


@_guarded
def divergence_table(family: str, level_key: str, levels, fixed: dict,
                     I_name: str, B_name: str, cap: int,
                     ctx: Optional[SearchContext] = None,
                     claim: str = "divergence") -> VerificationReport:
    """Minimal index as a function of the truncation level.

    The levels must strictly increase: a level given twice is measured
    twice, and a table of one level shows no trend. A strictly increasing
    table on a model with a declared witness family is the computable
    signature of an index that exists at no finite value: verdict
    refuted_family. A constant table is verdict verified. Running
    out of budget reports the truncation of the level that ran out. Every
    level's parameters pass the family's checks before the first level is
    built. Each level's model is built on ctx, so the searches that build
    its ideals count in the report's budgets.
    """
    levels = list(levels)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise PreconditionViolated("at least two strictly increasing "
                                   "truncation levels", f"got {levels!r}")
    for level in levels:
        check_model_params(family, **{**fixed, level_key: level})
    table = []
    for level in levels:
        m = build_model(family, ctx, **{**fixed, level_key: level})
        n = inconclusive_on_budget(claim, m, ctx, lambda: least_power_inside(
            m.ideal(I_name), m.ideal(B_name), cap, ctx))
        if isinstance(n, VerificationReport):
            return n
        if n is None:
            return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, m, ctx,
                           exact=True, cap=cap,
                           table=[list(r) for r in table])
        table.append((level, n))
    indices = [n for _, n in table]
    details = {
        "level_key": level_key,
        "table": [list(r) for r in table],
        "indices": indices,
        "cap": cap,
    }
    if all(b > a for a, b in zip(indices, indices[1:])) and m.witness_pattern:
        details["witness_pattern"] = m.witness_pattern
        return _report(claim, Verdict.REFUTED_FAMILY, m, ctx, exact=True,
                       **details)
    if len(set(indices)) == 1:
        return _report(claim, Verdict.VERIFIED, m, ctx, exact=True,
                       stable_index=indices[0], **details)
    return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, m, ctx,
                   exact=True, **details)


# ---------------------------------------------------------------------------
# derived data


@_guarded
def check_power_data(model: RingModel, data: SftData, m: int,
                     mode: str = "vsft",
                     ctx: Optional[SearchContext] = None,
                     claim: str = "power-data") -> VerificationReport:
    """Data for I^m derived from data for I: (I^m, B^m, n) when the base
    containment I^n ⊆ B holds, (I^m, B^m, mn) generatorwise in the SFT
    case."""
    if m < 1:
        raise PreconditionViolated("m >= 1", f"got {m}")
    core = _vsft_core if mode == "vsft" else _sft_gens_core
    if core(data, ctx) is not None:
        raise PreconditionViolated("base data verifies",
                                   f"{mode} check failed on the base triple")
    if m == 1:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       m=1, note="identical to base data")
    derived_index = data.n if mode == "vsft" else m * data.n
    witness = core(SftData(I=data.I.power(m, ctx), B=data.B.power(m, ctx),
                           n=derived_index), ctx)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, m=m,
                       derived_index=derived_index, mode=mode)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, m=m, mode=mode)


@_guarded
def modified_radical_power_index(model: RingModel, I, J, data_for_J: SftData,
                                 kmax: int,
                                 ctx: Optional[SearchContext] = None,
                                 claim: str = "modified-radical") -> VerificationReport:
    """Least k ≤ kmax with J^k ⊆ I, given √I = J; then re-verifies the
    derived data (I, B^k, nk) generatorwise."""
    # radical agreement both ways, at truncation
    rad_kmax = max(kmax, 8)
    _check_radical(J, I, rad_kmax, ctx, "J ⊆ √I")
    _check_radical(I, J, rad_kmax, ctx, "I ⊆ √J")
    k = least_power_inside(J, I, kmax, ctx)
    if k is None:
        return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model,
                       ctx, exact=True, kmax=kmax)
    # derived data for I from J's data (J, B, n): (I, B^k, nk)
    derived = SftData(I=I, B=data_for_J.B.power(k, ctx), n=data_for_J.n * k)
    derived_witness = _sft_gens_core(derived, ctx)
    if derived_witness is not None:
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True, witness=derived_witness, k=k)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                   k=k, derived_index=derived.n, derived_verified=True)


# ---------------------------------------------------------------------------
# polynomial extension by t


@_guarded
def check_extension_vsft(model: RingModel, data: SftData, degree: int,
                         samples: int = 40, seed: int = 0,
                         ctx: Optional[SearchContext] = None,
                         claim: str = "ext-vsft") -> VerificationReport:
    """VSFT survival under the polynomial extension by one variable t.

    The extended ideal's n-th power is generated by n-fold products of
    generators times t-powers, and the t-exponent never affects membership,
    so the exact layer is the base containment; a deterministic slice of
    t-decorated products and random sampled products exercise the element
    arithmetic on top.
    """
    if degree < 0:
        raise PreconditionViolated("degree >= 0", f"got {degree}")
    if samples < 0:
        raise PreconditionViolated("samples >= 0", f"got {samples}")
    if degree == 0:
        rep = verify_vsft(model, data, ctx, claim=claim)
        rep.details["note"] = "degree 0 reduces to the base containment"
        return rep
    witness = _vsft_core(data, ctx)
    if witness is not None:
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True, witness=witness, degree=degree)
    # deterministic t-decorated slice through element arithmetic
    items = [element_multiply(g, _scalar(model, 1, d), ctx)
             for g in data.I.generator_elements(model.ring)[:8]
             for d in range(min(degree, 2) + 1)]
    combos = math.comb(len(items) + data.n - 1, data.n)
    ctx.precheck_multisets(combos)
    ctx.charge_multisets(combos)
    for _, prod in _prefix_products(
            itertools.combinations_with_replacement(range(len(items)), data.n),
            items, element_multiply, ctx):
        if not element_in_ideal(prod, data.B, ctx):
            raise AssertionError("t-layer contradicts the exact containment")
    # sampled general products
    for i in range(samples):
        ctx.charge_samples()
        factors = [random_element(model.ring, data.I, degree,
                                  _mix_seed(seed, i * data.n + j), ctx)
                   for j in range(data.n)]
        prod = factors[0]
        for f in factors[1:]:
            prod = element_multiply(prod, f, ctx)
        if not element_in_ideal(prod, data.B, ctx):
            return _report(claim, Verdict.REFUTED_WITH_WITNESS, model,
                           ctx, exact=True, seed=seed,
                           witness={"kind": "element", "sample": i,
                                    "element": repr(prod)})
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                   seed=seed, degree=degree, t_products_checked=combos,
                   samples=samples)


def _cover_holds(model: RingModel, factors, B, e: int, ctx) -> bool:
    """The multinomial cover at e: multinomial(e, m) * prod factors[i]^m_i
    lies in B for every multiset m of factor indices with |m| = e.

    The coefficient is taken in the ring through _scalar, so it reduces mod
    p in char p and folds 2 = x in the dyadic ring; a multiset whose
    coefficient is zero there is skipped before its product is formed.
    Charges the level's multiset count up front.
    """
    count = math.comb(len(factors) + e - 1, e)
    ctx.precheck_multisets(count)
    ctx.charge_multisets(count)
    scalars: dict = {}

    def coefficient(combo):
        c = multinomial(e, [len(list(run))
                            for _, run in itertools.groupby(combo)])
        if c not in scalars:
            scalars[c] = _scalar(model, c)
        return scalars[c]

    kept = (combo for combo in itertools.combinations_with_replacement(
        range(len(factors)), e) if not coefficient(combo).is_zero)
    for combo, prod in _prefix_products(kept, factors, element_multiply, ctx):
        term = element_multiply(coefficient(combo), prod, ctx)
        if not element_in_ideal(term, B, ctx):
            return False
    return True


def _multinomial_cover(model: RingModel, data: SftData, E: int,
                       ctx) -> Optional[Certificate]:
    """MultinomialCover for the least e <= E whose cover holds, when that e
    is also a lower bound: e = 1, or some generator x has x^(e-1) outside B.
    None when no level up to E holds, the least one is not witnessed, or a
    budget runs out first (the meters keep what was charged)."""
    I, B = data.I, data.B
    try:
        factors = I.generator_elements(model.ring)
        e = next((e for e in range(1, E + 1)
                  if _cover_holds(model, factors, B, e, ctx)), None)
        if e is None:
            return None
        low = None
        if e > 1:
            low = next((i for i, x in enumerate(I.generators)
                        if B.radical_index(x, e - 1, ctx) is None), None)
            if low is None:
                return None
    except BudgetExceeded:
        return None
    return Certificate("MultinomialCover", (
        ("exponent", e), ("lower_bound_generator", low),
        ("multisets", math.comb(len(factors) + e - 1, e))))


@_guarded
def check_sft_extension_exponent(model: RingModel, data: SftData,
                                 degree: int, samples: int, seed: int = 0,
                                 ctx: Optional[SearchContext] = None,
                                 claim: str = "ext-sft-exponent") -> VerificationReport:
    """Least exponent e <= N(N-1) with a^e ∈ B for every a in I after
    extension by t.

    Exact first: the least e whose multinomial cover holds (see
    _cover_holds) covers every a in I·R[t], whatever its t-degree, because
    membership in B·R[t] is termwise. When e = 1, or a generator's
    (e-1)-th power lies outside B, e is the least exponent: verified with a
    MultinomialCover certificate, exact, no seed. Otherwise (no cover by
    N(N-1), the least cover has no generator witness, or the cover runs out
    of budget) it samples: the least exponent that covered every sampled
    element of t-degree <= degree, reported exact false and "on samples";
    a sample with no power in B by N(N-1) refutes.
    """
    if samples < 1:
        raise PreconditionViolated("samples >= 1", f"got {samples}")
    N = data.n
    E = N * (N - 1) if N > 1 else 1
    degenerate = {"degenerate_index": True} if N == 1 else {}
    cert = _multinomial_cover(model, data, E, ctx)
    if cert is not None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       certificate=cert, exponent_bound=E,
                       least_exponent=cert.param_map["exponent"],
                       **degenerate)
    least_all = 1
    for i in range(samples):
        ctx.charge_samples()
        gamma = random_element(model.ring, data.I, degree,
                               _mix_seed(seed, i), ctx)
        cur = gamma
        least_i = None
        for e in range(1, E + 1):
            if element_in_ideal(cur, data.B, ctx):
                least_i = e
                break
            if e < E:
                cur = element_multiply(cur, gamma, ctx)
        if least_i is None:
            return _report(claim, Verdict.REFUTED_WITH_WITNESS, model,
                           ctx, exact=True, seed=seed,
                           witness={"kind": "element", "sample": i,
                                    "element": repr(gamma),
                                    "exponent_bound": E})
        least_all = max(least_all, least_i)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=False,
                   seed=seed, exponent_bound=E, least_exponent=least_all,
                   samples=samples, qualifier="on samples", **degenerate)


@_guarded
def strong_convergence_check(model: RingModel, data: SftData, elements,
                             ctx: Optional[SearchContext] = None,
                             claim: str = "strong-convergence") -> VerificationReport:
    """N! times the product of N ideal elements lands in B; vacuous in
    characteristic p ≤ N where N! is zero."""
    N = data.n
    p = model.char.value
    if 0 < p <= N:
        return _report(claim, Verdict.VACUOUSLY_TRUE, model, ctx, exact=True,
                       reason=f"{N}! is zero in characteristic {p}")
    if len(elements) != N:
        raise PreconditionViolated("N elements provided",
                                   f"need {N}, got {len(elements)}")
    for i, a in enumerate(elements):
        if not element_in_ideal(a, data.I, ctx):
            raise PreconditionViolated("elements lie in I",
                                       f"element {i} escapes")
    prod = elements[0]
    for a in elements[1:]:
        prod = element_multiply(prod, a, ctx)
    scaled = element_scale(prod, math.factorial(N), ctx)
    ok = element_in_ideal(scaled, data.B, ctx)
    details = {"bare_product_in_B": element_in_ideal(prod, data.B, ctx)}
    details["factor_essential"] = not details["bare_product_in_B"]
    if N <= 4:
        s = elements[0]
        for a in elements[1:]:
            s = element_add(s, a, ctx)
        details["full_sum_power_in_B"] = element_in_ideal(
            element_power(s, N, ctx), data.B, ctx)
    if not ok:
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True,
                       witness={"kind": "element", "element": repr(scaled)},
                       **details)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, **details)


# ---------------------------------------------------------------------------
# quotients, radicals, nilpotency


@_guarded
def check_quotient_pushforward(model: RingModel, data: SftData, kernel,
                               mode: str = "sft",
                               ctx: Optional[SearchContext] = None,
                               claim: str = "quotient") -> VerificationReport:
    """Re-verify pushed-forward data in the quotient by a monomial kernel.

    Monoid models add the kernel's generators to the kill points
    (MonoidPresentation.quotient) and drop killed generators; the integer
    model relaxes its membership predicate at the kernel's degree.
    """
    if model.is_integer_model:
        if kernel != "2xD":
            raise UnsupportedModel(
                f"unknown integer-model kernel {kernel!r}")
        B_q = dataclasses.replace(data.B, relax_at=model.param_map["D"],
                                  label=data.B.label + "+ker")
        data_q = SftData(I=data.I, B=B_q, n=data.n)
    else:
        S = model.monoid
        S_q = S.quotient(kernel, S.name + "/ker")
        I_q, B_q = (lattice_ideal(
            S_q, [v for v in J.generators if not S_q.lattice_killed(v, ctx)],
            ctx, label=J.label + "+ker")
            for J in (data.I, data.B))
        data_q = SftData(I=I_q, B=B_q, n=data.n)
    core = _vsft_core if mode == "vsft" else _sft_gens_core
    witness = core(data_q, ctx)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       mode=mode)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, mode=mode)


@_guarded
def check_radical_equal(model: RingModel, data: SftData, kmax: int,
                        ctx: Optional[SearchContext] = None,
                        claim: str = "radical-equal") -> VerificationReport:
    """√I = √B restated checkably: every generator of I has a power in B,
    and B ⊆ I."""
    I, B = data.I, data.B
    powers = []
    for x in I.generators:
        k = B.radical_index(x, kmax, ctx)
        if k is None:
            if I.multiply(x, x, ctx) == x:
                # x is its own every power, so none of them lies in B
                return _report(claim, Verdict.REFUTED_WITH_WITNESS, model,
                               ctx, exact=True,
                               witness={"kind": "generator", **I.witness(x)},
                               kmax=kmax)
            return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION,
                           model, ctx, exact=True, kmax=kmax)
        powers.append(k)
    if not all(I.contains(x, ctx) for x in B.generators):
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True, witness={"kind": "containment",
                                            "direction": "B ⊆ I"})
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                   radical_powers=powers)


@_guarded
def anyradical_index(model: RingModel, I, B, mmax: int,
                     ctx: Optional[SearchContext] = None,
                     claim: str = "anyradical") -> VerificationReport:
    """A finitely generated ideal all of whose generators are nilpotent
    modulo B has a power inside B; find the least such power at
    truncation. Requires B ⊆ I."""
    _check_radical(I, B, mmax, ctx)
    _check_sub(I, B, ctx)
    m = least_power_inside(I, B, mmax, ctx)
    if m is None:
        return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model, ctx,
                       exact=True, mmax=mmax)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, m=m)


# ---------------------------------------------------------------------------
# the valuation-monoid scan


@_guarded
def valuation_non_sft_scan(model: RingModel, numerators, nmax: int,
                           ctx: Optional[SearchContext] = None,
                           claim: str = "valuation-scan") -> VerificationReport:
    """Against every candidate datum ((x^a), n) for the ambient valuation
    monoid, exhibit x^(a/(n+1)): positive, hence in the maximal ideal, with
    n-th power strictly below a. All arithmetic exact. At least one
    numerator and nmax >= 1: a family is refuted on candidates, not on
    none."""
    numerators = list(numerators)
    if not numerators or nmax < 1:
        raise PreconditionViolated("nonempty numerators and nmax >= 1",
                                   f"got {numerators!r}, nmax {nmax}")
    den = model.param_map["denBound"]
    F = math.factorial(den)
    witnesses = []
    for k in numerators:
        if k < 1:
            raise PreconditionViolated("candidate numerators positive",
                                       f"got {k}")
        a = Fraction(k, F)
        for n in range(1, nmax + 1):
            w = a / (n + 1)
            power = n * w
            if not (w > 0 and power < a):
                return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION,
                               model, ctx, exact=True,
                               failed_candidate={"a": str(a), "n": n})
            witnesses.append({"a": str(a), "n": n, "witness_exponent": str(w),
                              "power_exponent": str(power)})
    return _report(claim, Verdict.REFUTED_FAMILY, model, ctx, exact=True,
                   candidates=len(witnesses),
                   witnesses=witnesses[: 6],
                   witness_pattern=model.witness_pattern)
