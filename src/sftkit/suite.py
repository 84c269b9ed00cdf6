"""Claim runner: builds the objects a CatalogClaim names, dispatches to the
verification operation for its kind, and compares the report against the
claim's frozen expectations.

Claims run independently: each gets a fresh SearchContext, and the per-claim
seed mixes the base seed with the claim id so reordering or subsetting a
suite never changes any single claim's outcome.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .budget import Budgets, SearchContext
from .elements import make_element, monomial_element
from .errors import SchemaError, SftkitError, UnknownExample, UnsupportedModel
from .exponents import ExponentVector
from .ideals import lattice_ideal
from .models import CatalogClaim, RingModel, catalog_models
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

# kind -> (required parameters, optional parameters), as _dispatch reads them
CLAIM_KINDS = {
    "sft_generators": ({**_I_B, "n": _INT}, {}),
    "sft_all_elements": ({**_I_B, "n": _INT}, {"samples": _INT}),
    "vsft": ({**_I_B, "n": _INT}, {}),
    "vsft_witness_search": ({**_I_B, "kmax": _INT}, {"kmin": _INT}),
    "minimal_index": ({**_I_B, "cap": _INT}, {}),
    "power_data": ({**_I_B, "n": _INT, "m": _INT}, {"mode": _MODE}),
    "modified_radical": ({"J": _NAME, "I_def": _IDEAL_DEF, "B": _NAME,
                          "n": _INT, "kmax": _INT}, {}),
    "radical_equal": ({**_I_B, "kmax": _INT}, {}),
    "anyradical": ({**_I_B, "mmax": _INT}, {}),
    "strong_convergence": ({**_I_B, "n": _INT}, {"elements": _FRACTIONS}),
    "extension_vsft": ({**_I_B, "n": _INT, "degree": _INT},
                       {"samples": _INT}),
    "extension_sft_exponent": ({**_I_B, "n": _INT, "degree": _INT,
                                "samples": _INT}, {}),
    "quotient_pushforward": ({**_I_B, "n": _INT, "kernel": _NAMES},
                             {"mode": _MODE}),
    "divergence": ({"family": _NAME, "level_key": _NAME, "levels": _INTS,
                    "fixed": _INT_MAP, **_I_B, "cap": _INT}, {}),
    "valuation_scan": ({"numerators": _INTS, "nmax": _INT}, {}),
}


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


def _modified_ideal(model, J, idef, ctx):
    """The I of a modified-radical claim, derived from J: ["power", m] is
    the full m-th power, ["gen_powers", m] the ideal of m-th generator
    powers (smaller, same radical; monoid models only)."""
    op, m = idef
    if op == "power":
        return J.power(m, ctx)
    if op == "gen_powers" and not model.is_integer_model:
        return lattice_ideal(
            model.monoid, [tuple(m * x for x in v) for v in J.generators],
            ctx, label=f"{J.label}[{m}]")
    raise UnsupportedModel(f"I_def {op!r} undefined for {model.name}")


def run_claim(claim: CatalogClaim, models: Optional[dict] = None,
              seed: int = 0, budgets: Optional[Budgets] = None
              ) -> VerificationReport:
    """Execute one claim and return its report (expectations not compared
    here; see check_expectations). Budget exhaustion anywhere, in the
    operation or in building its inputs, is an inconclusive report."""
    models = catalog_models() if models is None else models
    ctx = SearchContext(budgets=budgets or Budgets())
    model: Optional[RingModel] = None
    if claim.model:
        if claim.model not in models:
            raise UnknownExample(claim.model, sorted(models))
        model = models[claim.model]
    return inconclusive_on_budget(
        claim.id, model, ctx,
        lambda: _dispatch(claim, model, ctx, claim_seed(seed, claim.id)))


def _dispatch(claim: CatalogClaim, model: Optional[RingModel],
              ctx: SearchContext, cseed: int) -> VerificationReport:
    p = claim.param_map
    kind = claim.kind

    def data(n: int) -> SftData:
        return build_sft_data(model, model.ideal(p["I"]),
                              model.ideal(p["B"]), n, ctx)

    if kind == "sft_generators":
        return verify_sft_generators(model, data(p["n"]), ctx, claim=claim.id)
    if kind == "sft_all_elements":
        return certify_sft_all_elements(model, data(p["n"]), ctx,
                                        samples=p.get("samples"), seed=cseed,
                                        claim=claim.id)
    if kind == "vsft":
        return verify_vsft(model, data(p["n"]), ctx, claim=claim.id)
    if kind == "vsft_witness_search":
        return find_vsft_witness(model, model.ideal(p["I"]),
                                 model.ideal(p["B"]), kmax=p["kmax"],
                                 kmin=p.get("kmin", 1), ctx=ctx,
                                 claim=claim.id)
    if kind == "minimal_index":
        return minimal_vsft_index(model, model.ideal(p["I"]),
                                  model.ideal(p["B"]), cap=p["cap"], ctx=ctx,
                                  claim=claim.id)
    if kind == "power_data":
        return check_power_data(model, data(p["n"]), m=p["m"],
                                mode=p.get("mode", "vsft"), ctx=ctx,
                                claim=claim.id)
    if kind == "modified_radical":
        J = model.ideal(p["J"])
        data_j = build_sft_data(model, J, model.ideal(p["B"]), p["n"], ctx)
        I_arg = _modified_ideal(model, J, p["I_def"], ctx)
        return modified_radical_power_index(model, I_arg, J, data_j,
                                            kmax=p["kmax"], ctx=ctx,
                                            claim=claim.id)
    if kind == "radical_equal":
        return check_radical_equal(model, data(1), kmax=p["kmax"], ctx=ctx,
                                   claim=claim.id)
    if kind == "anyradical":
        return anyradical_index(model, model.ideal(p["I"]),
                                model.ideal(p["B"]), mmax=p["mmax"], ctx=ctx,
                                claim=claim.id)
    if kind == "strong_convergence":
        els = _strong_conv_elements(model, p.get("elements"), ctx)
        d = data(p["n"])
        return strong_convergence_check(model, d, els, ctx=ctx,
                                        claim=claim.id)
    if kind == "extension_vsft":
        return check_extension_vsft(model, data(p["n"]), degree=p["degree"],
                                    samples=p.get("samples", 40), seed=cseed,
                                    ctx=ctx, claim=claim.id)
    if kind == "extension_sft_exponent":
        return check_sft_extension_exponent(model, data(p["n"]),
                                            degree=p["degree"],
                                            samples=p["samples"], seed=cseed,
                                            ctx=ctx, claim=claim.id)
    if kind == "quotient_pushforward":
        return check_quotient_pushforward(model, data(p["n"]),
                                          _parse_kernel(model, p["kernel"]),
                                          mode=p.get("mode", "sft"), ctx=ctx,
                                          claim=claim.id)
    if kind == "divergence":
        return divergence_table(p["family"], p["level_key"], p["levels"],
                                p["fixed"], p["I"], p["B"], p["cap"], ctx=ctx,
                                claim=claim.id)
    if kind == "valuation_scan":
        return valuation_non_sft_scan(model, p["numerators"], p["nmax"],
                                      ctx=ctx, claim=claim.id)
    raise UnknownExample(kind, sorted(CLAIM_KINDS))


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


# primary data triple per family; n=None means the model's characteristic
_PRIMARY_DATA = {
    "frobenius_quotient": ("max", "zero", None),
    "fraction_monoid": ("frac", "y", 2),
    "int_plus_2x": ("full", "two", 2),
    "char2_xy": ("I", "B", 2),
    "dyadic": ("max", "two", 2),
    "rational_valuation": ("xV", "x", 2),
}

_LEVEL_KEY = {
    "frobenius_quotient": "v",
    "fraction_monoid": "v",
    "char2_xy": "v",
    "dyadic": "nmax",
    "int_plus_2x": "D",
    "rational_valuation": "denBound",
}

# witness searches enumerate k-subsets of generators; the valuation model
# has hundreds of generators, where pairs already exhibit the claim
_EXAMPLE_KMAX = {"rational_valuation": 2}


def run_example(model: RingModel, seed: int = 0,
                budgets: Optional[Budgets] = None) -> list[VerificationReport]:
    """The standard probe of one model: generator SFT check, all-elements
    certificate, exact VSFT decision, per-k witness search, and the minimal
    index as a function of the truncation level."""
    budgets = budgets or Budgets()
    iname, bname, n = _PRIMARY_DATA[model.family]
    if n is None:
        n = model.char.value
    I, B = model.ideal(iname), model.ideal(bname)
    tag = f"{model.name}"
    reports = []

    def fresh():
        return SearchContext(budgets=budgets)

    ctx = fresh()
    d = inconclusive_on_budget(f"{tag}/sft-data", model, ctx,
                               lambda: build_sft_data(model, I, B, n, ctx))
    if isinstance(d, VerificationReport):
        return [d]
    reports.append(verify_sft_generators(model, d, ctx,
                                         claim=f"{tag}/sft-generators"))
    reports.append(certify_sft_all_elements(
        model, d, fresh(), seed=claim_seed(seed, tag), claim=f"{tag}/sft-all"))
    reports.append(verify_vsft(model, d, fresh(), claim=f"{tag}/vsft"))
    kmax = _EXAMPLE_KMAX.get(model.family, min(len(I.gens), 8))
    reports.append(find_vsft_witness(model, I, B, kmax=kmax, kmin=1,
                                     ctx=fresh(), claim=f"{tag}/witnesses"))
    if model.family == "rational_valuation":
        den = model.param_map["denBound"]
        import math as _math
        reports.append(valuation_non_sft_scan(
            model, [1, 2, _math.factorial(den)], 4, ctx=fresh(),
            claim=f"{tag}/valuation-scan"))
    level_key = _LEVEL_KEY[model.family]
    current = model.param_map[level_key]
    levels = list(range(2, min(current, 5) + 1))
    if len(levels) >= 2:
        fixed = {k: v for k, v in model.param_map.items() if k != level_key}
        reports.append(divergence_table(
            model.family, level_key, levels, fixed, iname, bname, cap=24,
            ctx=fresh(), claim=f"{tag}/index-by-truncation"))
    return reports
