"""Batch front door.

    sftkit verify catalog
    sftkit verify claims.json --format machine -o report.jsonl
    sftkit example dyadic
    sftkit example frobenius --p 3 --v 4
    sftkit nt legendre 2000 5
    sftkit export catalog -o catalog.json

Exit codes: 0 all claims as expected, 1 unexpected verdict, 2 some check
inconclusive at the configured budgets, 3 input error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from typing import Optional

import click

from . import __version__, arith
from .budget import PROFILES, Budgets, budgets_from_env
from .errors import SftkitError, UnknownExample
from .files import (claims_doc, dumps_doc, dumps_record, jsonify, load_json,
                    model_to_record, parse_claims_doc, probe_record,
                    report_record)
from .models import FAMILIES, build_model, builtin_catalog, catalog_models
from .sftcheck import Verdict
from .suite import ClaimResult, exit_code, run_example, run_suite

_EXAMPLE_ALIASES = {
    "frobenius": "frobenius_quotient",
    "fraction": "fraction_monoid",
    "xv": "rational_valuation",
    "valuation": "rational_valuation",
}


def _budget_options(fn):
    opts = [
        click.option("--budget-profile", type=click.Choice(sorted(PROFILES)),
                     default=None,
                     help="Named budget preset (overrides SFTKIT_BUDGET_PROFILE)."),
        click.option("--budget-nodes", type=int, default=None,
                     help="Membership search node cap."),
        click.option("--budget-multisets", type=int, default=None,
                     help="Product enumeration cap."),
        click.option("--budget-samples", type=int, default=None,
                     help="Random sample cap."),
        click.option("--budget-degree-cap", type=int, default=None,
                     help="Polynomial degree cap."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _resolve_budgets(profile, nodes, multisets, samples, degree_cap) -> Budgets:
    """The one place budgets are chosen: the flags over the profile
    SFTKIT_BUDGET_PROFILE names, which must name one even when
    --budget-profile overrides it."""
    base = budgets_from_env()
    if profile:
        base = PROFILES[profile]
    overrides = {k: v for k, v in {
        "search_nodes": nodes,
        "multisets": multisets,
        "samples": samples,
        "degree_cap": degree_cap,
    }.items() if v is not None}
    return dataclasses.replace(base, **overrides) if overrides else base


def _emit(lines: list, output: Optional[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _input_error(exc) -> None:
    click.echo(f"input error: {exc}", err=True)
    sys.exit(3)


def _render_report(rep) -> list:
    mark = {"verified": "+", "refuted_with_witness": "x",
            "refuted_family": "x", "vacuously_true": "+",
            "inconclusive_at_truncation": "?"}[rep.verdict.value]
    head = f"[{mark}] {rep.claim}: {rep.verdict.value}"
    if not rep.exact:
        head += " (on samples)"
    lines = [head]
    if rep.certificate:
        lines.append(f"      certificate {rep.certificate.kind}"
                     f" {json.dumps(jsonify(rep.certificate.param_map), sort_keys=True)}")
    if rep.witness:
        lines.append(f"      witness {json.dumps(jsonify(rep.witness), sort_keys=True)}")
    det = dict(rep.details)
    per_k = det.pop("per_k", None)
    table = det.pop("table", None)
    level_key = det.pop("level_key", "level")
    if per_k:
        for entry in per_k:
            w = entry.get("witness")
            got = json.dumps(jsonify(w), sort_keys=True) if w else "none"
            lines.append(f"      k={entry['k']}: {got}")
    if table:
        for level, n in table:
            lines.append(f"      {level_key}={level}: n_min={n}")
    if det:
        lines.append(f"      {json.dumps(jsonify(det), sort_keys=True)}")
    return lines


def _render_result(r: ClaimResult) -> list:
    if r.error:
        return [f"[err ] {r.claim.id}: {r.error}"]
    mark = "ok  " if r.ok else "FAIL"
    head = (f"[{mark}] {r.claim.id}: {r.report.verdict.value}"
            f" (expected {r.claim.expected}) {r.elapsed:.2f}s")
    lines = [head]
    if r.report.witness:
        lines.append(f"       witness {json.dumps(jsonify(r.report.witness), sort_keys=True)}")
    for p in r.problems:
        lines.append(f"       !! {p}")
    return lines


class _ExitContractGroup(click.Group):
    """click exits 2 on usage errors, but 2 is reserved here for
    inconclusive verdicts; a bad flag or missing argument is an input
    error and must exit 3 like every other one."""

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as exc:
            exc.show()
            sys.exit(3)
        except click.ClickException as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.exceptions.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_ExitContractGroup)
@click.version_option(__version__, prog_name="sftkit")
def main() -> None:
    """Verify power-containment certificates on truncated ring models."""


@main.command()
@click.argument("claimfile")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed; every claim derives its own from this and its id.")
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]),
              default="text", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write the report to this file instead of stdout.")
@_budget_options
def verify(claimfile, seed, fmt, output, budget_profile, budget_nodes,
           budget_multisets, budget_samples, budget_degree_cap) -> None:
    """Run every claim in CLAIMFILE ('catalog' for the built-in suite)."""
    try:
        budgets = _resolve_budgets(budget_profile, budget_nodes,
                                   budget_multisets, budget_samples,
                                   budget_degree_cap)
        if claimfile == "catalog":
            models, claims = builtin_catalog()
        else:
            models, claims = parse_claims_doc(load_json(claimfile),
                                              where=claimfile)
            # the catalog's models back a claim that names one the file
            # does not define (and an unknown name lists them all)
            if any(c.model and c.model not in models for c in claims):
                models = {**catalog_models(), **models}
    except SftkitError as exc:
        _input_error(exc)
    results = run_suite(claims, models=models, seed=seed, budgets=budgets)
    if fmt == "machine":
        lines = [dumps_record(report_record(r)) for r in results]
    else:
        lines = []
        for r in results:
            lines.extend(_render_result(r))
        n_ok = sum(1 for r in results if r.ok)
        total = sum(r.elapsed for r in results)
        lines.append(f"{len(results)} claims: {n_ok} ok,"
                     f" {len(results) - n_ok} failed, {total:.1f}s")
    _emit(lines, output)
    sys.exit(exit_code(results))


def _resolve_example(name: str, overrides: dict):
    models = catalog_models()
    if name in models:
        model = models[name]
        if not overrides:
            return model
        return build_model(model.family, **{**model.param_map, **overrides})
    family = _EXAMPLE_ALIASES.get(name, name)
    if family in FAMILIES:
        return build_model(family, **overrides)
    raise UnknownExample(
        name, sorted(set(models) | set(FAMILIES) | set(_EXAMPLE_ALIASES)))


@main.command()
@click.argument("name")
@click.option("--p", type=int, default=None, help="Characteristic parameter.")
@click.option("--v", type=int, default=None, help="Variable count.")
@click.option("--M", "big_m", type=int, default=None,
              help="Maximum fraction level.")
@click.option("--D", "big_d", type=int, default=None, help="Degree bound.")
@click.option("--nmax", type=int, default=None, help="Dyadic generator depth.")
@click.option("--den-bound", type=int, default=None,
              help="Denominator bound (its factorial is the common denominator).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]),
              default="text", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_budget_options
def example(name, p, v, big_m, big_d, nmax, den_bound, seed, fmt, output,
            budget_profile, budget_nodes, budget_multisets, budget_samples,
            budget_degree_cap) -> None:
    """Replay one catalog example: certificates, witnesses, index table."""
    overrides = {k: val for k, val in {
        "p": p, "v": v, "M": big_m, "D": big_d, "nmax": nmax,
        "denBound": den_bound,
    }.items() if val is not None}
    try:
        budgets = _resolve_budgets(budget_profile, budget_nodes,
                                   budget_multisets, budget_samples,
                                   budget_degree_cap)
        model = _resolve_example(name, overrides)
        reports = run_example(model, seed=seed, budgets=budgets)
    except SftkitError as exc:
        _input_error(exc)
    if fmt == "machine":
        lines = [dumps_record(probe_record(rep)) for rep in reports]
    else:
        lines = [f"{model.name}  [char {model.char.value},"
                 f" ideals: {', '.join(model.ideal_names)}]"]
        for rep in reports:
            lines.extend(_render_report(rep))
    _emit(lines, output)
    if any(rep.verdict is Verdict.INCONCLUSIVE_AT_TRUNCATION
           for rep in reports):
        sys.exit(2)


@main.group()
def nt() -> None:
    """Number-theoretic lemma checks."""


@nt.command("legendre")
@click.argument("x")
@click.argument("p", type=int)
def nt_legendre(x, p) -> None:
    """Sum of floor(X/p^k) over k>=1; for integer X the p-adic valuation of X!.

    X may be a fraction like 17/2.
    """
    try:
        click.echo(str(arith.legendre(Fraction(x), p)))
    except (SftkitError, ValueError, ZeroDivisionError) as exc:
        _input_error(exc)


@nt.command("floor")
@click.argument("n")
@click.argument("m")
@click.argument("p", type=int)
@click.argument("parts", nargs=-1, required=True)
def nt_floor(n, m, p, parts) -> None:
    """Check legendre(N*M) >= legendre(N) + sum of legendre(a_i) at prime P.

    N, M, and the parts a_i may be fractions; needs N > M >= 1, parts
    nonincreasing with a_1 <= M and positive tail.
    """
    try:
        res = arith.check_floor_inequality(
            Fraction(n), Fraction(m), [Fraction(a) for a in parts], p)
    except (SftkitError, ValueError, ZeroDivisionError) as exc:
        _input_error(exc)
    click.echo(f"holds={res.holds} lhs={res.lhs} rhs={res.rhs}"
               f" rhs_terms={list(res.rhs_terms)}")
    sys.exit(0 if res.holds else 1)


@nt.command("ala")
@click.option("--scan", type=int, default=None, metavar="NMAX",
              help="Scan the excluded region M < max(parts) for failures instead.")
@click.argument("n", type=int, required=False)
@click.argument("m", type=int, required=False)
@click.argument("parts", nargs=-1, type=int)
def nt_ala(scan, n, m, parts) -> None:
    """Does N! divide the multinomial (N*M)! / prod(k_i!)?"""
    if scan is not None:
        for fn, fm, fks in arith.ala_counterexample_scan(scan):
            click.echo(f"N={fn} M={fm} parts={list(fks)}: N! does not divide")
        return
    if n is None or m is None or not parts:
        raise click.UsageError("need N M PARTS... (or --scan NMAX)")
    try:
        res = arith.check_ala(n, m, list(parts))
    except SftkitError as exc:
        _input_error(exc)
    click.echo(f"divides={res.divides} multinomial={res.multinomial}"
               f" quotient={res.quotient}")
    for prime, v_fact, v_multi in res.per_prime:
        click.echo(f"  p={prime}: v_p(N!)={v_fact} v_p(multinomial)={v_multi}")
    sys.exit(0 if res.divides else 1)


@nt.command("multinomial")
@click.argument("n", type=int)
@click.argument("parts", nargs=-1, required=True, type=int)
def nt_multinomial(n, parts) -> None:
    """N! / (k_1! ... k_m!) for parts summing to N."""
    try:
        click.echo(str(arith.multinomial(n, list(parts))))
    except SftkitError as exc:
        _input_error(exc)


@main.command()
@click.argument("name")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def export(name, output) -> None:
    """Write a model record, or 'catalog': all models plus the claim suite."""
    try:
        budgets_from_env()  # an unknown profile name is refused here too
        if name == "catalog":
            models, claims = builtin_catalog()
            doc = claims_doc(claims, models=models)
        else:
            models = catalog_models()
            if name not in models:
                raise UnknownExample(name, sorted(models))
            doc = model_to_record(models[name])
    except SftkitError as exc:
        _input_error(exc)
    text = dumps_doc(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
