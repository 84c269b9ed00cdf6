"""Claim runner: CLAIM_KINDS declares each claim kind once (its parameters,
whether it names a model, and how to run it); run_claim runs a CatalogClaim
through its kind's entry, and check_expectations compares the report against
the claim's frozen expectations.

Claims run independently: each gets a fresh SearchContext, and the per-claim
seed mixes the base seed with the claim id so reordering or subsetting a
suite never changes any single claim's outcome.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .budget import Budgets, SearchContext
from .elements import make_element, monomial_element
from .errors import SchemaError, SftkitError, UnknownExample, UnsupportedModel
from .exponents import ExponentVector
from .ideals import lattice_ideal
from .models import CatalogClaim, RingModel, _claim, catalog_models
from .sftcheck import (SftData, Verdict, VerificationReport, anyradical_index,
                       build_sft_data, certify_sft_all_elements,
                       check_extension_vsft, check_power_data,
                       check_quotient_pushforward, check_radical_equal,
                       check_sft_extension_exponent, divergence_table,
                       find_vsft_witness, inconclusive_on_budget,
                       minimal_vsft_index,
                       modified_radical_power_index, strong_convergence_check,
                       valuation_non_sft_scan, verify_sft_generators,
                       verify_vsft)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_fraction(x) -> bool:
    try:
        Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return isinstance(x, str)


# parameter value types as (what the value must be, test)
_INT = ("an integer", _is_int)
_NAME = ("a string", lambda x: isinstance(x, str))
_MODE = ('"sft" or "vsft"', lambda x: x in ("sft", "vsft"))
_INTS = ("a list of integers",
         lambda x: isinstance(x, list) and all(map(_is_int, x)))
_NAMES = ("a list of strings", lambda x: isinstance(x, list)
          and all(isinstance(v, str) for v in x))
_FRACTIONS = ('a list of fraction strings like "3/2"',
              lambda x: isinstance(x, list) and all(map(_is_fraction, x)))
_INT_MAP = ("an object of integers",
            lambda x: isinstance(x, dict) and all(map(_is_int, x.values())))
_IDEAL_DEF = ("a pair [operation, integer]",
              lambda x: isinstance(x, list) and len(x) == 2
              and isinstance(x[0], str) and _is_int(x[1]))
_I_B = {"I": _NAME, "B": _NAME}


class ClaimKind(NamedTuple):
    """The one declaration of a claim kind: its parameters as name ->
    (what the value must be, test), whether a claim names a model, and the
    runner run_claim calls as run(model, params, ctx, seed, claim=id,
    **optional parameters given), so the operation's own defaults apply.
    A runner names its operation at call time, through this module's
    global, so a patched name (a tracer's) is the one that runs."""

    required: dict
    optional: dict
    run: Callable[..., VerificationReport]
    names_model: bool = True


def claim_seed(base: int, claim_id: str) -> int:
    """Per-claim seed: stable under suite reordering and subsetting."""
    return (base ^ zlib.crc32(claim_id.encode("utf-8"))) & 0x7FFFFFFF


@dataclass
class ClaimResult:
    claim: CatalogClaim
    report: Optional[VerificationReport]
    problems: list = field(default_factory=list)
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def _ideals(model, p):
    return model.ideal(p["I"]), model.ideal(p["B"])


def _data(model, p, ctx, n=None) -> SftData:
    """The claim's (I, B, n); B ⊆ I is checked here."""
    return build_sft_data(model, *_ideals(model, p),
                          p["n"] if n is None else n, ctx)


def _strong_conv_elements(model, spec, ctx):
    if spec is not None:
        # exponent strings for a rank-1 monoid model
        if model.is_integer_model or model.monoid.dim != 1:
            raise SchemaError(
                "params.elements",
                f"exponent strings need a rank-1 monoid model, not {model.name}")
        return [monomial_element(model.ring,
                                 ExponentVector.from_dense((Fraction(s),)),
                                 1, 0, ctx)
                for s in spec]
    if model.is_integer_model:
        return [make_element(model.ring, [((1, 0), 2)], ctx),
                make_element(model.ring, [((2, 0), 2)], ctx)]
    return []


def _parse_kernel(model, tokens):
    """Kernel spec tokens -> the op's kernel argument.

    Integer model: the single marker "2xD". Monoid models: "x<j>" names the
    j-th coordinate's unit vector (1-based).
    """
    if model.is_integer_model:
        if list(tokens) != ["2xD"]:
            raise UnsupportedModel(
                f"integer-model kernels: ['2xD'], got {list(tokens)!r}")
        return "2xD"
    out = []
    for tok in tokens:
        if not (isinstance(tok, str) and tok.startswith("x")
                and tok[1:].isdigit()):
            raise UnsupportedModel(f"unknown kernel token {tok!r}")
        j = int(tok[1:])
        if not 1 <= j <= model.monoid.dim:
            raise UnsupportedModel(
                f"kernel coordinate {j} outside 1..{model.monoid.dim}")
        out.append(ExponentVector.unit(model.monoid.dim, j - 1, 1))
    return tuple(out)


def _modified_args(model, p, ctx):
    """(I, J, data for J) of a modified-radical claim. I is derived from J:
    ["power", m] is the full m-th power, ["gen_powers", m] the ideal of
    m-th generator powers (smaller, same radical; monoid models only)."""
    J = model.ideal(p["J"])
    data_j = build_sft_data(model, J, model.ideal(p["B"]), p["n"], ctx)
    op, m = p["I_def"]
    if op == "power":
        return J.power(m, ctx), J, data_j
    if op == "gen_powers" and not model.is_integer_model:
        return lattice_ideal(
            model.monoid, [tuple(m * x for x in v) for v in J.generators],
            ctx, label=f"{J.label}[{m}]"), J, data_j
    raise UnsupportedModel(f"I_def {op!r} undefined for {model.name}")


CLAIM_KINDS = {
    "sft_generators": ClaimKind(
        {**_I_B, "n": _INT}, {},
        lambda model, p, ctx, seed, **kw: verify_sft_generators(
            model, _data(model, p, ctx), ctx, **kw)),
    "sft_all_elements": ClaimKind(
        {**_I_B, "n": _INT}, {"samples": _INT},
        lambda model, p, ctx, seed, **kw: certify_sft_all_elements(
            model, _data(model, p, ctx), ctx, seed=seed, **kw)),
    "vsft": ClaimKind(
        {**_I_B, "n": _INT}, {},
        lambda model, p, ctx, seed, **kw: verify_vsft(
            model, _data(model, p, ctx), ctx, **kw)),
    "vsft_witness_search": ClaimKind(
        {**_I_B, "kmax": _INT}, {"kmin": _INT},
        lambda model, p, ctx, seed, **kw: find_vsft_witness(
            model, *_ideals(model, p), p["kmax"], ctx=ctx, **kw)),
    "minimal_index": ClaimKind(
        {**_I_B, "cap": _INT}, {},
        lambda model, p, ctx, seed, **kw: minimal_vsft_index(
            model, *_ideals(model, p), p["cap"], ctx, **kw)),
    "power_data": ClaimKind(
        {**_I_B, "n": _INT, "m": _INT}, {"mode": _MODE},
        lambda model, p, ctx, seed, **kw: check_power_data(
            model, _data(model, p, ctx), p["m"], ctx=ctx, **kw)),
    "modified_radical": ClaimKind(
        {"J": _NAME, "I_def": _IDEAL_DEF, "B": _NAME, "n": _INT,
         "kmax": _INT}, {},
        lambda model, p, ctx, seed, **kw: modified_radical_power_index(
            model, *_modified_args(model, p, ctx), p["kmax"], ctx, **kw)),
    "radical_equal": ClaimKind(
        {**_I_B, "kmax": _INT}, {},
        lambda model, p, ctx, seed, **kw: check_radical_equal(
            model, _data(model, p, ctx, n=1), p["kmax"], ctx, **kw)),
    "anyradical": ClaimKind(
        {**_I_B, "mmax": _INT}, {},
        lambda model, p, ctx, seed, **kw: anyradical_index(
            model, *_ideals(model, p), p["mmax"], ctx, **kw)),
    # the claim's elements are exponent strings, made ring elements here
    "strong_convergence": ClaimKind(
        {**_I_B, "n": _INT}, {"elements": _FRACTIONS},
        lambda model, p, ctx, seed, elements=None, **kw:
        strong_convergence_check(
            model, elements=_strong_conv_elements(model, elements, ctx),
            data=_data(model, p, ctx), ctx=ctx, **kw)),
    "extension_vsft": ClaimKind(
        {**_I_B, "n": _INT, "degree": _INT}, {"samples": _INT},
        lambda model, p, ctx, seed, **kw: check_extension_vsft(
            model, _data(model, p, ctx), p["degree"], seed=seed, ctx=ctx,
            **kw)),
    "extension_sft_exponent": ClaimKind(
        {**_I_B, "n": _INT, "degree": _INT, "samples": _INT}, {},
        lambda model, p, ctx, seed, **kw: check_sft_extension_exponent(
            model, _data(model, p, ctx), p["degree"], p["samples"], seed,
            ctx, **kw)),
    "quotient_pushforward": ClaimKind(
        {**_I_B, "n": _INT, "kernel": _NAMES}, {"mode": _MODE},
        lambda model, p, ctx, seed, **kw: check_quotient_pushforward(
            model, _data(model, p, ctx), _parse_kernel(model, p["kernel"]),
            ctx=ctx, **kw)),
    # each level builds its own model
    "divergence": ClaimKind(
        {"family": _NAME, "level_key": _NAME, "levels": _INTS,
         "fixed": _INT_MAP, **_I_B, "cap": _INT}, {},
        lambda model, p, ctx, seed, **kw: divergence_table(
            p["family"], p["level_key"], p["levels"], p["fixed"], p["I"],
            p["B"], p["cap"], ctx, **kw),
        names_model=False),
    "valuation_scan": ClaimKind(
        {"numerators": _INTS, "nmax": _INT}, {},
        lambda model, p, ctx, seed, **kw: valuation_non_sft_scan(
            model, p["numerators"], p["nmax"], ctx, **kw)),
}


def run_claim(claim: CatalogClaim, models: Optional[dict] = None,
              seed: int = 0, budgets: Optional[Budgets] = None
              ) -> VerificationReport:
    """Execute one claim and return its report (expectations not compared
    here; see check_expectations). Budget exhaustion anywhere, in the
    operation or in building its inputs, is an inconclusive report."""
    kind = CLAIM_KINDS.get(claim.kind)
    if kind is None:
        raise UnknownExample(claim.kind, sorted(CLAIM_KINDS))
    model: Optional[RingModel] = None
    if kind.names_model:
        models = catalog_models() if models is None else models
        if claim.model not in models:
            raise UnknownExample(claim.model, sorted(models))
        model = models[claim.model]
    ctx = SearchContext(budgets=budgets or Budgets())
    p = claim.param_map
    optional = {k: p[k] for k in kind.optional if k in p}
    return inconclusive_on_budget(
        claim.id, model, ctx,
        lambda: kind.run(model, p, ctx, claim_seed(seed, claim.id),
                         claim=claim.id, **optional))


def check_expectations(claim: CatalogClaim,
                       report: VerificationReport) -> list[str]:
    """Mismatch descriptions, empty when the report meets the claim."""
    from .files import jsonify

    problems = []
    if report.verdict.value != claim.expected:
        problems.append(
            f"verdict {report.verdict.value!r}, expected {claim.expected!r}")
    for key, want in claim.expect_map.items():
        if key == "certificate":
            got = report.certificate.kind if report.certificate else None
        elif key == "exact":
            got = report.exact
        else:
            got = report.details.get(key)
        if jsonify(got) != jsonify(want):
            problems.append(f"{key}: got {jsonify(got)!r}, expected {want!r}")
    return problems


def run_suite(claims, models: Optional[dict] = None, seed: int = 0,
              budgets: Optional[Budgets] = None) -> list[ClaimResult]:
    """All claims, input order, each isolated; failures never stop the run."""
    models = catalog_models() if models is None else models
    results = []
    for claim in claims:
        t0 = time.perf_counter()
        try:
            report = run_claim(claim, models=models, seed=seed,
                               budgets=budgets)
        except SftkitError as exc:
            results.append(ClaimResult(
                claim=claim, report=None,
                error=f"{type(exc).__name__}: {exc}",
                elapsed=time.perf_counter() - t0))
            continue
        results.append(ClaimResult(
            claim=claim, report=report,
            problems=check_expectations(claim, report),
            elapsed=time.perf_counter() - t0))
    return results


def exit_code(results) -> int:
    """3 input/claim error, 1 unexpected verdict, 2 any inconclusive, 0."""
    if any(r.error for r in results):
        return 3
    inconclusive = [
        r for r in results
        if r.report is not None
        and r.report.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION]
    if any(r.problems for r in results if r not in inconclusive):
        return 1
    if inconclusive:
        return 2
    return 0


# ---------------------------------------------------------------------------
# one-command example replay


# per family: the primary (I, B, n), n=None meaning the characteristic;
# the truncation level's parameter; and the witness search's kmax, None
# meaning the generator count up to 8 (the valuation model has hundreds of
# generators, where pairs already exhibit the claim)
_PROBE = {
    "frobenius_quotient": ("max", "zero", None, "v", None),
    "fraction_monoid": ("frac", "y", 2, "v", None),
    "int_plus_2x": ("full", "two", 2, "D", None),
    "char2_xy": ("I", "B", 2, "v", None),
    "dyadic": ("max", "two", 2, "nmax", None),
    "rational_valuation": ("xV", "x", 2, "denBound", 2),
}


def run_example(model: RingModel, seed: int = 0,
                budgets: Optional[Budgets] = None) -> list[VerificationReport]:
    """The standard probe of one model: generator SFT check, all-elements
    certificate, exact VSFT decision, per-k witness search, and the minimal
    index as a function of the truncation level. Each question is a claim
    "<model name>/<question>" run by run_claim."""
    iname, bname, n, level_key, kmax = _PROBE[model.family]
    I_B = {"I": iname, "B": bname}
    data = {**I_B, "n": model.char.value if n is None else n}
    kmax = kmax or min(len(model.ideal(iname).gens), 8)
    probe = [("sft-generators", "sft_generators", data),
             ("sft-all", "sft_all_elements", data),
             ("vsft", "vsft", data),
             ("witnesses", "vsft_witness_search", {**I_B, "kmax": kmax})]
    if model.family == "rational_valuation":
        den = model.param_map["denBound"]
        probe.append(("valuation-scan", "valuation_scan",
                      {"numerators": [1, 2, math.factorial(den)], "nmax": 4}))
    levels = list(range(2, min(model.param_map[level_key], 5) + 1))
    if len(levels) >= 2:
        fixed = {k: v for k, v in model.param_map.items() if k != level_key}
        probe.append(("index-by-truncation", "divergence",
                      {"family": model.family, "level_key": level_key,
                       "levels": levels, "fixed": fixed, **I_B, "cap": 24}))
    return [run_claim(_claim(
                f"{model.name}/{question}",
                model.name if CLAIM_KINDS[kind].names_model else "", kind,
                "", **params), {model.name: model}, seed, budgets)
            for question, kind, params in probe]
