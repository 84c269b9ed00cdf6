"""Verdict layer: elementwise power certificates, ideal-power containment
decisions, witness searches, and the derived-data checks that tie them
together.

Every operation returns a VerificationReport. Soundness rule: running out of
budget is reported as inconclusive_at_truncation, never as a wrong verdict;
refutations always carry a witness that re-verifies independently.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import add
from typing import Optional

from .budget import SearchContext
from .elements import (IntIdeal, alive_ideal_monomials, element_add,
                       element_in_ideal, element_multiply, element_power,
                       element_scale, enumerate_ideal_elements,
                       monomial_element, random_element)
from .errors import (CombinatorialBudgetExceeded, DegreeBudgetExceeded,
                     NoCertificateApplicable, PreconditionViolated,
                     SearchBudgetExceeded, TruncationTooSmall,
                     UnsupportedModel)
from .exponents import ExponentVector, scalar_multiple
from .ideals import (REFUTED as RAD_REFUTED, VERIFIED as RAD_VERIFIED,
                     ideal_contains_witness, ideal_lattice_member,
                     ideal_member, ideal_power, ideal_power_with_provenance,
                     ideal_powers, monomial_ideal, radical_member,
                     nilpotency_index)
from .models import RingModel, build_model


class Verdict(str, Enum):
    VERIFIED = "verified"
    REFUTED_WITH_WITNESS = "refuted_with_witness"
    INCONCLUSIVE_AT_TRUNCATION = "inconclusive_at_truncation"
    REFUTED_FAMILY = "refuted_family"
    VACUOUSLY_TRUE = "vacuously_true"


@dataclass(frozen=True)
class Certificate:
    """Why a generator-level check covers all elements."""

    kind: str  # FrobeniusCharP | DiagonalDominanceChar0 | ExhaustiveFinite | SampledOnly
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


_BUDGET_ERRORS = (SearchBudgetExceeded, CombinatorialBudgetExceeded,
                  DegreeBudgetExceeded)


def _report(claim, verdict, model, ctx, exact, certificate=None, witness=None,
            seed=None, **details) -> VerificationReport:
    return VerificationReport(
        claim=claim, verdict=verdict, exact=exact, certificate=certificate,
        witness=witness,
        truncation=dict(model.params) if model is not None else {},
        budgets_used=ctx.used(), seed=seed, details=details)


def _inconclusive(claim, model, ctx, exc, seed=None) -> VerificationReport:
    return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model, ctx,
                   exact=False, seed=seed,
                   budget_exhausted=type(exc).__name__, message=str(exc))


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


def build_sft_data(model: RingModel, I, B, n: int,
                   ctx: Optional[SearchContext] = None) -> SftData:
    """Validated triple; containment B ⊆ I is checked here once."""
    if n < 1:
        raise PreconditionViolated("index n >= 1", f"got {n}")
    ctx = ctx or SearchContext()
    if isinstance(I, IntIdeal):
        for g in B.gens:
            if not I.contains(g):
                raise PreconditionViolated("B ⊆ I", f"generator {g!r} escapes")
    else:
        bad = ideal_contains_witness(I, B, ctx)
        if bad is not None:
            raise PreconditionViolated("B ⊆ I", f"generator {bad!r} escapes")
    return SftData(I=I, B=B, n=n)


# ---------------------------------------------------------------------------
# cores shared by several operations


def _sft_gens_core(model, data, ctx):
    """First generator of I whose n-th power leaves B, or None."""
    if isinstance(data.I, IntIdeal):
        for idx, g in enumerate(data.I.gens):
            gp = element_power(g, data.n, ctx)
            if not data.B.contains(gp):
                return {"kind": "generator_power", "generator_index": idx,
                        "power": data.n}
        return None
    for idx, (v, _) in enumerate(data.I.lattice_gens):
        if not ideal_lattice_member(data.B, tuple(data.n * x for x in v), ctx):
            return {"kind": "generator_power", "generator_index": idx,
                    "power": data.n,
                    "exponent": scalar_multiple(data.I.gens[idx], data.n)}
    return None


def _int_power_products(gens, n, ctx):
    """All n-fold products of the given elements, multiset-enumerated."""
    count = math.comb(len(gens) + n - 1, n)
    ctx.precheck_multisets(count)
    ctx.charge_multisets(count)
    for combo in itertools.combinations_with_replacement(range(len(gens)), n):
        prod = gens[combo[0]]
        for j in combo[1:]:
            prod = element_multiply(prod, gens[j], ctx)
        yield combo, prod


def _vsft_core(model, data, ctx):
    """Exact I^n ⊆ B decision. Returns None or a witness dict."""
    if isinstance(data.I, IntIdeal):
        for combo, prod in _int_power_products(data.I.gens, data.n, ctx):
            if not data.B.contains(prod):
                return {"kind": "generator_product", "factors": list(combo)}
        return None
    power, provenance = ideal_power_with_provenance(data.I, data.n, ctx)
    bad = ideal_contains_witness(data.B, power, ctx)
    if bad is None:
        return None
    return {"kind": "generator_product", "exponent": bad,
            "factors": list(provenance.get(bad, ()))}


def _radical_verified(B, e, kmax, ctx) -> Optional[int]:
    r = radical_member(B, e, kmax, ctx)
    return r.k if r.status == RAD_VERIFIED else None


def _int_radical_power(B: IntIdeal, g, kmax, ctx) -> Optional[int]:
    cur = g
    for k in range(1, kmax + 1):
        if B.contains(cur):
            return k
        if k < kmax:
            cur = element_multiply(cur, g, ctx)
    return None


def _minimal_index_core(model, I, B, cap, ctx) -> Optional[int]:
    """Least n ≤ cap with I^n ⊆ B, or None. Preconditions already checked."""
    if isinstance(I, IntIdeal):
        for n in range(1, cap + 1):
            if _vsft_core(model, SftData(I=I, B=B, n=n), ctx) is None:
                return n
        return None
    for n, power, _ in ideal_powers(I, cap, ctx):
        if ideal_contains_witness(B, power, ctx) is None:
            return n
    return None


def _check_index_preconditions(model, I, B, ctx, kmax):
    """B ⊆ I ⊆ √B, the admissibility condition for index searches."""
    if isinstance(I, IntIdeal):
        for g in B.gens:
            if not I.contains(g):
                raise PreconditionViolated("B ⊆ I", f"generator {g!r} escapes")
        for g in I.gens:
            if _int_radical_power(B, g, kmax, ctx) is None:
                raise PreconditionViolated(
                    "I ⊆ √B", f"no power of generator {g!r} reaches B by {kmax}")
        return
    bad = ideal_contains_witness(I, B, ctx)
    if bad is not None:
        raise PreconditionViolated("B ⊆ I", f"generator {bad!r} escapes")
    for g in I.gens:
        if _radical_verified(B, g, kmax, ctx) is None:
            raise PreconditionViolated(
                "I ⊆ √B", f"no power of {g!r} reaches B by {kmax}")


# ---------------------------------------------------------------------------
# SFT certificates


def verify_sft_generators(model: RingModel, data: SftData,
                          ctx: Optional[SearchContext] = None,
                          claim: str = "sft-generators") -> VerificationReport:
    """g^n ∈ B for every generator g of I. Exact."""
    ctx = ctx or SearchContext()
    try:
        witness = _sft_gens_core(model, data, ctx)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       generators_checked=len(data.I.gens), index=data.n)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, index=data.n)


def _two_element(model):
    if model.is_integer_model:
        return None  # predicate handles the constant directly
    return ExponentVector.from_dense(
        [Fraction(1)] + [Fraction(0)] * (model.monoid.dim - 1))


def _two_in_B(model, B, ctx) -> bool:
    if isinstance(B, IntIdeal):
        two = monomial_element(model.ring, 0, 2)
        return B.contains(two)
    return ideal_member(B, _two_element(model), ctx)


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
    ctx = ctx or SearchContext()
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
    try:
        k = _power_exponent(n, p) if p > 0 else None
        if k is not None:
            cert = Certificate("FrobeniusCharP", (("p", p), ("k", k)))
            return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                           certificate=cert)
        if p == 0 and n == 2 and _two_in_B(model, data.B, ctx):
            cert = Certificate("DiagonalDominanceChar0", (("index", 2),))
            return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                           certificate=cert)
        if (not model.is_integer_model and p > 0
                and model.monoid.kill is not None
                and model.monoid.kill[0] == "entry_ge"):
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
                cert = Certificate("ExhaustiveFinite",
                                   (("elements", count),))
                return _report(claim, Verdict.VERIFIED, model, ctx,
                               exact=True, certificate=cert)
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
                       certificate=cert, seed=seed,
                       qualifier="on samples")
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc, seed=seed)


# ---------------------------------------------------------------------------
# VSFT decisions and witness search


def verify_vsft(model: RingModel, data: SftData,
                ctx: Optional[SearchContext] = None,
                claim: str = "vsft") -> VerificationReport:
    """Exact decision of I^n ⊆ B."""
    ctx = ctx or SearchContext()
    try:
        witness = _vsft_core(model, data, ctx)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       index=data.n)
    details = {}
    if witness.get("factors"):
        details["witness_factors"] = list(witness["factors"])
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, index=data.n, **details)


def find_vsft_witness(model: RingModel, I, B, kmax: int, kmin: int = 1,
                      ctx: Optional[SearchContext] = None,
                      claim: str = "vsft-witness") -> VerificationReport:
    """For each k in [kmin, kmax], the lexicographically least product of k
    distinct generators of I outside B, if any."""
    ctx = ctx or SearchContext()
    if kmax < 1 or kmin < 1 or kmin > kmax:
        raise PreconditionViolated("1 <= kmin <= kmax", f"got [{kmin},{kmax}]")
    gens = I.gens
    if kmax > len(gens):
        raise TruncationTooSmall(
            f"kmax {kmax} exceeds the {len(gens)} distinct generators available")
    int_model = isinstance(I, IntIdeal)
    if not int_model:
        if I.monoid is not B.monoid and I.monoid != B.monoid:
            raise PreconditionViolated("same owning monoid")
        points = [v for v, _ in I.lattice_gens]
    member_cache: dict = {}
    per_k = []
    last_witness = None
    try:
        for k in range(kmin, kmax + 1):
            combos = math.comb(len(gens), k)
            ctx.precheck_multisets(combos)
            found = None
            for combo in itertools.combinations(range(len(gens)), k):
                ctx.charge_multisets(1)
                if int_model:
                    prod = gens[combo[0]]
                    for j in combo[1:]:
                        prod = element_multiply(prod, gens[j], ctx)
                    inside = B.contains(prod)
                    key = None
                else:
                    key = points[combo[0]]
                    for j in combo[1:]:
                        key = tuple(map(add, key, points[j]))
                    inside = member_cache.get(key)
                    if inside is None:
                        inside = ideal_lattice_member(B, key, ctx)
                        member_cache[key] = inside
                if not inside:
                    found = {"k": k, "factors": list(combo)}
                    if key is not None:
                        found["exponent"] = I.monoid.from_lattice(key)
                    break
            per_k.append({"k": k, "witness": found})
            if found is not None:
                last_witness = found
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
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


def minimal_vsft_index(model: RingModel, I, B, cap: int,
                       ctx: Optional[SearchContext] = None,
                       claim: str = "minimal-index") -> VerificationReport:
    """Least n ≤ cap with I^n ⊆ B. Requires B ⊆ I ⊆ √B."""
    ctx = ctx or SearchContext()
    _check_index_preconditions(model, I, B, ctx, kmax=max(cap, 8))
    try:
        n = _minimal_index_core(model, I, B, cap, ctx)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if n is None:
        return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model, ctx,
                       exact=True, cap=cap)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, n_min=n,
                   cap=cap)


def divergence_table(family: str, level_key: str, levels, fixed: dict,
                     I_name: str, B_name: str, cap: int,
                     ctx: Optional[SearchContext] = None,
                     claim: str = "divergence") -> VerificationReport:
    """Minimal index as a function of the truncation level.

    A strictly increasing table on a model with a declared witness family is
    the computable signature of an index that exists at no finite value:
    verdict refuted_family. A constant table is verdict verified.
    """
    ctx = ctx or SearchContext()
    levels = list(levels)
    if len(levels) < 2:
        raise PreconditionViolated("at least two truncation levels",
                                   f"got {levels!r}")
    table = []
    pattern = None
    last_model = None
    for level in levels:
        params = dict(fixed)
        params[level_key] = level
        m = build_model(family, **params)
        last_model = m
        pattern = m.witness_pattern
        try:
            n = _minimal_index_core(m, m.ideal(I_name), m.ideal(B_name),
                                    cap, ctx)
        except _BUDGET_ERRORS as exc:
            return _inconclusive(claim, m, ctx, exc)
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
    if all(b > a for a, b in zip(indices, indices[1:])) and pattern:
        details["witness_pattern"] = pattern
        return _report(claim, Verdict.REFUTED_FAMILY, last_model, ctx,
                       exact=True, **details)
    if len(set(indices)) == 1:
        return _report(claim, Verdict.VERIFIED, last_model, ctx, exact=True,
                       stable_index=indices[0], **details)
    return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, last_model,
                   ctx, exact=True, **details)


# ---------------------------------------------------------------------------
# derived data


def check_power_data(model: RingModel, data: SftData, m: int,
                     mode: str = "vsft",
                     ctx: Optional[SearchContext] = None,
                     claim: str = "power-data") -> VerificationReport:
    """Data for I^m derived from data for I: (I^m, B^m, n) when the base
    containment I^n ⊆ B holds, (I^m, B^m, mn) generatorwise in the SFT
    case."""
    if m < 1:
        raise PreconditionViolated("m >= 1", f"got {m}")
    ctx = ctx or SearchContext()
    base_core = _vsft_core if mode == "vsft" else _sft_gens_core
    try:
        if base_core(model, data, ctx) is not None:
            raise PreconditionViolated("base data verifies",
                                       f"{mode} check failed on the base triple")
        if m == 1:
            return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                           m=1, note="identical to base data")
        int_model = isinstance(data.I, IntIdeal)
        if int_model:
            Im = data.I.power(m)
            Bm = data.B.power(m)
        else:
            Im = ideal_power(data.I, m, ctx)
            Bm = ideal_power(data.B, m, ctx)
        if mode == "vsft":
            derived = SftData(I=Im, B=Bm, n=data.n)
            witness = _vsft_core(model, derived, ctx)
            derived_index = data.n
        else:
            derived = SftData(I=Im, B=Bm, n=m * data.n)
            witness = _sft_gens_core(model, derived, ctx)
            derived_index = m * data.n
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, m=m,
                       derived_index=derived_index, mode=mode)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, m=m, mode=mode)


def modified_radical_power_index(model: RingModel, I, J, data_for_J: SftData,
                                 kmax: int,
                                 ctx: Optional[SearchContext] = None,
                                 claim: str = "modified-radical") -> VerificationReport:
    """Least k ≤ kmax with J^k ⊆ I, given √I = J; then re-verifies the
    derived data (I, B^k, nk) generatorwise."""
    ctx = ctx or SearchContext()
    int_model = isinstance(I, IntIdeal)
    # radical agreement both ways, at truncation
    rad_kmax = max(kmax, 8)
    if int_model:
        for g in J.gens:
            if _int_radical_power(I, g, rad_kmax, ctx) is None:
                raise PreconditionViolated(
                    "J ⊆ √I", f"no power of {g!r} reaches I by {rad_kmax}")
        for g in I.gens:
            if _int_radical_power(J, g, rad_kmax, ctx) is None:
                raise PreconditionViolated("I ⊆ √J", f"{g!r} stays outside")
    else:
        for g in J.gens:
            if _radical_verified(I, g, rad_kmax, ctx) is None:
                raise PreconditionViolated(
                    "J ⊆ √I", f"no power of {g!r} reaches I by {rad_kmax}")
        for g in I.gens:
            if _radical_verified(J, g, rad_kmax, ctx) is None:
                raise PreconditionViolated("I ⊆ √J", f"{g!r} stays outside")
    try:
        k_found = None
        if int_model:
            for k in range(1, kmax + 1):
                if all(I.contains(prod) for _, prod in
                       _int_power_products(J.gens, k, ctx)):
                    k_found = k
                    break
        else:
            for k, Jk, _ in ideal_powers(J, kmax, ctx):
                if ideal_contains_witness(I, Jk, ctx) is None:
                    k_found = k
                    break
        if k_found is None:
            return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model,
                           ctx, exact=True, kmax=kmax)
        # derived data for I from J's data (J, B, n): (I, B^k, nk)
        if int_model:
            Bk = data_for_J.B.power(k_found)
        else:
            Bk = ideal_power(data_for_J.B, k_found, ctx)
        derived = SftData(I=I, B=Bk, n=data_for_J.n * k_found)
        derived_witness = _sft_gens_core(model, derived, ctx)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if derived_witness is not None:
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True, witness=derived_witness, k=k_found)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                   k=k_found, derived_index=data_for_J.n * k_found,
                   derived_verified=True)


# ---------------------------------------------------------------------------
# polynomial extension by t


def _gen_elements(model, I):
    """Ideal generators as ring elements."""
    if isinstance(I, IntIdeal):
        return list(I.gens)
    return [monomial_element(model.ring, e, 1, 0) for e in I.gens]


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
    ctx = ctx or SearchContext()
    if degree == 0:
        rep = verify_vsft(model, data, ctx, claim=claim)
        rep.details["note"] = "degree 0 reduces to the base containment"
        return rep
    try:
        witness = _vsft_core(model, data, ctx)
        if witness is not None:
            return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                           exact=True, witness=witness, degree=degree)
        # deterministic t-decorated slice through element arithmetic
        base = _gen_elements(model, data.I)[:8]
        tdegs = range(min(degree, 2) + 1)
        items = []
        for g in base:
            for d in tdegs:
                t_shift = (monomial_element(model.ring, 0, 1, d)
                           if model.is_integer_model else
                           monomial_element(model.ring,
                                            ExponentVector.zero(model.monoid.dim),
                                            1, d))
                items.append(element_multiply(g, t_shift, ctx))
        combos = math.comb(len(items) + data.n - 1, data.n)
        ctx.precheck_multisets(combos)
        ctx.charge_multisets(combos)
        checked = 0
        for combo in itertools.combinations_with_replacement(items, data.n):
            prod = combo[0]
            for f in combo[1:]:
                prod = element_multiply(prod, f, ctx)
            if not element_in_ideal(prod, data.B, ctx):
                raise AssertionError("t-layer contradicts the exact containment")
            checked += 1
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
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc, seed=seed)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                   seed=seed, degree=degree, t_products_checked=checked,
                   samples=samples)


def check_sft_extension_exponent(model: RingModel, data: SftData,
                                 degree: int, samples: int, seed: int = 0,
                                 ctx: Optional[SearchContext] = None,
                                 claim: str = "ext-sft-exponent") -> VerificationReport:
    """Sampled check that N(N-1) powers land in B after extension by t,
    recording the least exponent that covered all samples (exploratory, not
    a tightness proof)."""
    ctx = ctx or SearchContext()
    N = data.n
    E = N * (N - 1) if N > 1 else 1
    least_all = 1
    try:
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
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc, seed=seed)
    details = {"exponent_bound": E, "least_exponent": least_all,
               "samples": samples, "qualifier": "on samples"}
    if N == 1:
        details["degenerate_index"] = True
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=False,
                   seed=seed, **details)


def strong_convergence_check(model: RingModel, data: SftData, elements,
                             ctx: Optional[SearchContext] = None,
                             claim: str = "strong-convergence") -> VerificationReport:
    """N! times the product of N ideal elements lands in B; vacuous in
    characteristic p ≤ N where N! is zero."""
    ctx = ctx or SearchContext()
    N = data.n
    p = model.char.value
    if 0 < p <= N:
        return _report(claim, Verdict.VACUOUSLY_TRUE, model, ctx, exact=True,
                       reason=f"{N}! is zero in characteristic {p}")
    if len(elements) != N:
        raise PreconditionViolated("N elements provided",
                                   f"need {N}, got {len(elements)}")
    try:
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
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if not ok:
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True,
                       witness={"kind": "element", "element": repr(scaled)},
                       **details)
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True, **details)


# ---------------------------------------------------------------------------
# quotients, radicals, nilpotency


def check_quotient_pushforward(model: RingModel, data: SftData, kernel,
                               mode: str = "sft",
                               ctx: Optional[SearchContext] = None,
                               claim: str = "quotient") -> VerificationReport:
    """Re-verify pushed-forward data in the quotient by a monomial kernel.

    Monoid models compose the kernel into the zero-monomial predicate and
    drop killed generators; the integer model relaxes its membership
    predicate at the kernel's degree.
    """
    ctx = ctx or SearchContext()
    try:
        if model.is_integer_model:
            if kernel != "2xD":
                raise UnsupportedModel(
                    f"unknown integer-model kernel {kernel!r}")
            D = model.param_map["D"]
            B_q = dataclasses.replace(data.B, relax_at=D,
                                      label=data.B.label + "+ker")
            data_q = SftData(I=data.I, B=B_q, n=data.n)
            model_q = model
        else:
            S = model.monoid
            kernel_gens = tuple(kernel)
            if kernel_gens:
                add = ("ideal_gens", kernel_gens)
                new_kill = add if S.kill is None else ("or", S.kill, add)
            else:
                new_kill = S.kill
            S_q = dataclasses.replace(S, kill=new_kill, name=S.name + "/ker")
            ring_q = dataclasses.replace(model.ring, monoid=S_q)
            I_q = monomial_ideal(
                S_q, tuple(g for g in data.I.gens if not S_q.is_killed(g, ctx)),
                ctx, label=data.I.label + "+ker", verify_membership=False)
            B_q = monomial_ideal(
                S_q, tuple(g for g in data.B.gens if not S_q.is_killed(g, ctx)),
                ctx, label=data.B.label + "+ker", verify_membership=False)
            model_q = dataclasses.replace(
                model, name=model.name + "/ker", monoid=S_q, ring=ring_q,
                ideals=(("I_q", I_q), ("B_q", B_q)))
            data_q = SftData(I=I_q, B=B_q, n=data.n)
        core = _vsft_core if mode == "vsft" else _sft_gens_core
        witness = core(model_q, data_q, ctx)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if witness is None:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       mode=mode)
    return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                   exact=True, witness=witness, mode=mode)


def check_radical_equal(model: RingModel, data: SftData, kmax: int,
                        ctx: Optional[SearchContext] = None,
                        claim: str = "radical-equal") -> VerificationReport:
    """√I = √B restated checkably: every generator of I has a power in B,
    and B ⊆ I."""
    ctx = ctx or SearchContext()
    powers = []
    try:
        if isinstance(data.I, IntIdeal):
            for g in data.I.gens:
                k = _int_radical_power(data.B, g, kmax, ctx)
                if k is None:
                    return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION,
                                   model, ctx, exact=True, kmax=kmax)
                powers.append(k)
            ok_b = all(data.I.contains(g) for g in data.B.gens)
        else:
            for g in data.I.gens:
                r = radical_member(data.B, g, kmax, ctx)
                if r.status == RAD_REFUTED:
                    return _report(claim, Verdict.REFUTED_WITH_WITNESS,
                                   model, ctx, exact=True,
                                   witness={"kind": "generator",
                                            "exponent": g},
                                   kmax=kmax)
                if r.status != RAD_VERIFIED:
                    return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION,
                                   model, ctx, exact=True, kmax=kmax)
                powers.append(r.k)
            ok_b = all(ideal_member(data.I, g, ctx) for g in data.B.gens)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if not ok_b:
        return _report(claim, Verdict.REFUTED_WITH_WITNESS, model, ctx,
                       exact=True, witness={"kind": "containment",
                                            "direction": "B ⊆ I"})
    return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                   radical_powers=powers)


def anyradical_index(model: RingModel, I, B, mmax: int,
                     ctx: Optional[SearchContext] = None,
                     claim: str = "anyradical") -> VerificationReport:
    """A finitely generated ideal all of whose generators are nilpotent
    modulo B has a power inside B; find the least such power at
    truncation."""
    ctx = ctx or SearchContext()
    try:
        if isinstance(I, IntIdeal):
            for g in I.gens:
                if _int_radical_power(B, g, mmax, ctx) is None:
                    raise PreconditionViolated(
                        "I ⊆ √B", f"no power of {g!r} reaches B by {mmax}")
            for m in range(1, mmax + 1):
                if all(B.contains(prod) for _, prod in
                       _int_power_products(I.gens, m, ctx)):
                    return _report(claim, Verdict.VERIFIED, model, ctx,
                                   exact=True, m=m)
            return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model,
                           ctx, exact=True, mmax=mmax)
        for g in I.gens:
            if _radical_verified(B, g, mmax, ctx) is None:
                raise PreconditionViolated(
                    "I ⊆ √B", f"no power of {g!r} reaches B by {mmax}")
        res = nilpotency_index(I, B, mmax, ctx)
    except _BUDGET_ERRORS as exc:
        return _inconclusive(claim, model, ctx, exc)
    if res.status == RAD_VERIFIED:
        return _report(claim, Verdict.VERIFIED, model, ctx, exact=True,
                       m=res.m)
    return _report(claim, Verdict.INCONCLUSIVE_AT_TRUNCATION, model, ctx,
                   exact=True, mmax=mmax)


# ---------------------------------------------------------------------------
# the valuation-monoid scan


def valuation_non_sft_scan(model: RingModel, numerators, nmax: int,
                           ctx: Optional[SearchContext] = None,
                           claim: str = "valuation-scan") -> VerificationReport:
    """Against every candidate datum ((x^a), n) for the ambient valuation
    monoid, exhibit x^(a/(n+1)): positive, hence in the maximal ideal, with
    n-th power strictly below a. All arithmetic exact."""
    ctx = ctx or SearchContext()
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
