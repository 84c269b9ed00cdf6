"""File formats: model records, claim files, report records.

Everything is plain JSON with a versioned "schema" field. Serialization is
canonical (sorted keys, exact fractions as strings), so equal objects produce
byte-identical payloads; report determinism tests compare these bytes with
the timing field dropped.

A model record is not trusted on read: it names a constructor family plus
integer parameters, the model is rebuilt from those, and the record must
match the rebuild structurally. That makes hand-edited generator lists a
schema error instead of a silently different ring.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from .arith import PrimeChar
from .elements import DyadicRing, IntIdeal, PolyElement
from .errors import SchemaError, SftkitError
from .exponents import ExponentVector
from .ideals import MonomialIdeal
from .models import FAMILIES, CatalogClaim, RingModel, build_model
from .sftcheck import Certificate, Verdict
from .suite import CLAIM_KINDS, ClaimResult

MODEL_SCHEMA = "sftkit/model/1"
CLAIMS_SCHEMA = "sftkit/claims/1"
REPORT_SCHEMA = "sftkit/report/1"

_VERDICT_VALUES = {v.value for v in Verdict}


# ---------------------------------------------------------------------------
# canonical JSON-able form


def jsonify(obj):
    """Canonical JSON-able form of report/record payloads. Exact values
    stay exact: fractions become "p/q" strings, never floats."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj  # only the timing field; excluded from determinism checks
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, ExponentVector):
        return [str(q) for q in obj.dense()]
    if isinstance(obj, PrimeChar):
        return obj.value
    if isinstance(obj, Certificate):
        return {"kind": obj.kind, "params": jsonify(obj.param_map)}
    if isinstance(obj, PolyElement):
        return {"terms": [[jsonify(k[0]), k[1], jsonify(c)]
                          for k, c in obj.terms]}
    if isinstance(obj, MonomialIdeal):
        s0 = obj.monoid.denominator_bound
        return {"label": obj.label,
                "gens": [_lattice_json(v, s0) for v in obj.generators]}
    if isinstance(obj, IntIdeal):
        return {"label": obj.label, "v0": obj.v0, "v_low": obj.v_low,
                "v_high": obj.v_high, "thresh": obj.thresh,
                "relax_at": obj.relax_at,
                "gens": [jsonify(g) for g in obj.gens]}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _lattice_json(v: tuple, s0: int) -> list:
    """The canonical form of the exponent vector of lattice point v at scale
    s0, read off the integers: str(Fraction(x, s0)) for each entry x."""
    out = []
    for x in v:
        g = math.gcd(x, s0)
        out.append(str(x // g) if g == s0 else f"{x // g}/{s0 // g}")
    return out


def dumps_record(rec: dict) -> str:
    """One canonical line (for report streams and byte-equality checks)."""
    return json.dumps(jsonify(rec), sort_keys=True)


def dumps_doc(doc: dict) -> str:
    return json.dumps(jsonify(doc), sort_keys=True, indent=2) + "\n"


def drop_timing(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k != "timing"}


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, str(exc)) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}", exc.msg) from None


def _require_keys(rec: dict, required: set, optional: set, where: str):
    if not isinstance(rec, dict):
        raise SchemaError(where, f"expected an object, got {type(rec).__name__}")
    missing = required - set(rec)
    if missing:
        raise SchemaError(where, f"missing fields: {', '.join(sorted(missing))}")
    unknown = set(rec) - required - optional
    if unknown:
        raise SchemaError(where, f"unknown fields: {', '.join(sorted(unknown))}")


def _first_diff(a, b, path: str) -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                return f"{path}.{k}: only in file"
            if k not in b:
                return f"{path}.{k}: missing in file"
            d = _first_diff(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = _first_diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


# ---------------------------------------------------------------------------
# model records


def _kill_to_jsonable(S) -> Optional[list]:
    """The record form of S's zero set: ["entry_ge", bound],
    ["ideal_gens", points], ["or" of both], or None."""
    bound = None if S.kill_bound is None else ["entry_ge", S.kill_bound]
    points = (["ideal_gens", [jsonify(e) for e in S.kill_points]]
              if S.kill_points else None)
    if bound and points:
        return ["or", bound, points]
    return bound or points


def model_to_record(model: RingModel) -> dict:
    if model.is_integer_model:
        coeffs = "int"
        monoid = None
    else:
        coeffs = "dyadic" if isinstance(model.ring, DyadicRing) else "charp"
        S = model.monoid
        monoid = {
            "name": S.name,
            "dim": S.dim,
            "weights": [str(w) for w in S.weights],
            "gens": [_lattice_json(v, S.denominator_bound) for v in S._pack["scaled"]],
            "kill": _kill_to_jsonable(S),
        }
    ideals = []
    for name, handle in model.ideals:
        entry = {"name": name}
        entry.update(jsonify(handle))
        ideals.append(entry)
    return {
        "schema": MODEL_SCHEMA,
        "name": model.name,
        "family": model.family,
        "params": dict(model.params),
        "char": model.char.value,
        "coefficients": coeffs,
        "monoid": monoid,
        "ideals": ideals,
        "witness_pattern": model.witness_pattern,
    }


_MODEL_KEYS = {"schema", "name", "family", "params", "char", "coefficients",
               "monoid", "ideals", "witness_pattern"}


def record_to_model(rec: dict, where: str = "model") -> RingModel:
    """Rebuild from family + parameters, then verify the record matches the
    rebuild field for field."""
    _require_keys(rec, _MODEL_KEYS, set(), where)
    if rec["schema"] != MODEL_SCHEMA:
        raise SchemaError(f"{where}.schema",
                          f"expected {MODEL_SCHEMA!r}, got {rec['schema']!r}")
    family = rec["family"]
    if family not in FAMILIES:
        raise SchemaError(f"{where}.family",
                          f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}")
    params = rec["params"]
    if (not isinstance(params, dict)
            or not all(isinstance(k, str) for k in params)
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in params.values())):
        raise SchemaError(f"{where}.params", "parameters must be an object of integers")
    try:
        model = build_model(family, **params)
    except SftkitError as exc:
        raise SchemaError(f"{where}.params", str(exc)) from None
    rebuilt = model_to_record(model)
    if rebuilt != rec:
        raise SchemaError(where, "record disagrees with its family construction "
                          f"({_first_diff(rebuilt, rec, where)})")
    return model


# ---------------------------------------------------------------------------
# claim files


def claim_to_record(claim: CatalogClaim) -> dict:
    rec = {
        "id": claim.id,
        "model": claim.model,
        "kind": claim.kind,
        "params": dict(claim.params),
        "expected": claim.expected,
    }
    if claim.expect_details:
        rec["expect_details"] = dict(claim.expect_details)
    return rec


def record_to_claim(rec: dict, where: str = "claim") -> CatalogClaim:
    _require_keys(rec, {"id", "model", "kind", "params", "expected"},
                  {"expect_details"}, where)
    if not isinstance(rec["id"], str) or not rec["id"]:
        raise SchemaError(f"{where}.id", "claim id must be a nonempty string")
    if not isinstance(rec["model"], str):
        raise SchemaError(f"{where}.model", "model must be a string (empty for multi-model claims)")
    if rec["kind"] not in CLAIM_KINDS:
        raise SchemaError(f"{where}.kind",
                          f"unknown kind {rec['kind']!r}; known: {', '.join(CLAIM_KINDS)}")
    if rec["expected"] not in _VERDICT_VALUES:
        raise SchemaError(f"{where}.expected",
                          f"unknown verdict {rec['expected']!r}")
    kind = CLAIM_KINDS[rec["kind"]]
    if bool(rec["model"]) != kind.names_model:
        raise SchemaError(f"{where}.model", f"a {rec['kind']} claim " + (
            "must name a model" if kind.names_model else "names no model"))
    params = rec["params"]
    _require_keys(params, set(kind.required), set(kind.optional),
                  f"{where}.params")
    for name, value in params.items():
        what, ok = kind.required.get(name) or kind.optional[name]
        if not ok(value):
            raise SchemaError(f"{where}.params.{name}",
                              f"must be {what}, got {value!r}")
    expect = rec.get("expect_details", {})
    if not isinstance(expect, dict) or not all(isinstance(k, str) for k in expect):
        raise SchemaError(f"{where}.expect_details", "must be an object")
    return CatalogClaim(
        id=rec["id"], model=rec["model"], kind=rec["kind"],
        params=tuple(sorted(params.items())), expected=rec["expected"],
        expect_details=tuple(sorted(expect.items())))


def claims_doc(claims, models: Optional[dict] = None) -> dict:
    doc = {
        "schema": CLAIMS_SCHEMA,
        "claims": [claim_to_record(c) for c in claims],
    }
    if models:
        doc["models"] = {key: model_to_record(m) for key, m in models.items()}
    return doc


def parse_claims_doc(doc: dict, where: str = "claims file") -> tuple[dict, list]:
    """-> (models declared in the file, claims). Models referenced by claims
    but not declared are expected to come from the built-in catalog."""
    _require_keys(doc, {"schema", "claims"}, {"models"}, where)
    if doc["schema"] != CLAIMS_SCHEMA:
        raise SchemaError(f"{where}.schema",
                          f"expected {CLAIMS_SCHEMA!r}, got {doc['schema']!r}")
    models = {}
    raw_models = doc.get("models", {})
    if not isinstance(raw_models, dict):
        raise SchemaError(f"{where}.models", "must be an object of model records")
    for key, rec in raw_models.items():
        models[key] = record_to_model(rec, where=f"{where}.models[{key!r}]")
    if not isinstance(doc["claims"], list):
        raise SchemaError(f"{where}.claims", "must be an array")
    claims = [record_to_claim(rec, where=f"{where}.claims[{i}]")
              for i, rec in enumerate(doc["claims"])]
    ids = [c.id for c in claims]
    dup = {i for i in ids if ids.count(i) > 1}
    if dup:
        raise SchemaError(f"{where}.claims",
                          f"duplicate claim ids: {', '.join(sorted(dup))}")
    return models, claims


# ---------------------------------------------------------------------------
# report records


def report_payload(rep) -> dict:
    """The verdict-bearing fields of one VerificationReport."""
    return {
        "verdict": rep.verdict.value,
        "exact": rep.exact,
        "certificate": jsonify(rep.certificate) if rep.certificate else None,
        "witness": jsonify(rep.witness) if rep.witness else None,
        "details": jsonify(rep.details),
        "seed": rep.seed,
        "truncation": jsonify(rep.truncation),
        "budgets_used": jsonify(rep.budgets_used),
    }


def report_record(result: ClaimResult) -> dict:
    rec = {
        "schema": REPORT_SCHEMA,
        "claim": result.claim.id,
        "model": result.claim.model,
        "kind": result.claim.kind,
        "expected": result.claim.expected,
        "ok": result.ok,
        "timing": round(result.elapsed, 6),
    }
    if result.error is not None:
        rec["error"] = result.error
        return rec
    rec.update(report_payload(result.report))
    if result.problems:
        rec["problems"] = list(result.problems)
    return rec


def probe_record(rep) -> dict:
    """Record for a report that did not come from a catalog claim."""
    return {"schema": REPORT_SCHEMA, "claim": rep.claim,
            **report_payload(rep)}
