"""Correctness gate, run after the timed passes.

A record fails when its claim errored, its verdict or details miss the
claim's expectations, a witness does not re-check, or the record (minus
timing) differs from the same claim's record in the run's first pass.

Witness re-check: every witness built from generator factors (the
generator_product witnesses of vsft claims and the per-k witnesses of witness
searches) is rebuilt from the claim's ideal I. On monoid models the factor
generators are re-summed and must give the witness exponent; on the integer
model they are re-multiplied. The result must then lie outside B, decided
again with a fresh SearchContext at the default budgets.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional


def _factor_witnesses(rec: dict) -> list:
    w = rec.get("witness")
    out = []
    if w and w.get("kind") == "generator_product":
        out.append(("power", w))
    for entry in (rec.get("details") or {}).get("per_k") or ():
        if entry.get("witness"):
            out.append(("distinct", entry["witness"]))
    return out


def _recheck(shape: str, w: dict, claim, models) -> Optional[str]:
    from sftkit.budget import Budgets, SearchContext
    from sftkit.elements import element_multiply
    from sftkit.files import jsonify
    from sftkit.ideals import ideal_member

    model = models[claim.model]
    p = claim.param_map
    I, B = model.ideal(p["I"]), model.ideal(p["B"])
    factors = w["factors"]
    if shape == "power" and len(factors) != p["n"]:
        return f"{len(factors)} factors for power {p['n']}"
    if shape == "distinct" and (len(factors) != w["k"]
                                or len(set(factors)) != len(factors)):
        return f"factors {factors} are not {w['k']} distinct generators"
    ctx = SearchContext(budgets=Budgets())
    if model.is_integer_model:
        prod = I.gens[factors[0]]
        for f in factors[1:]:
            prod = element_multiply(prod, I.gens[f], ctx)
        return "product lies in B" if B.contains(prod) else None
    e = I.gens[factors[0]]
    for f in factors[1:]:
        e = e + I.gens[f]
    if jsonify(e) != w["exponent"]:
        return f"factors re-sum to {jsonify(e)}, not {w['exponent']}"
    return "exponent lies in B" if ideal_member(B, e, ctx) else None


def stable_part(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k != "timing"}


def digest(records: list) -> str:
    """Hash of the verdict-bearing records: timing and budgets_used left
    out, so it stays comparable when a change recounts the meters."""
    h = hashlib.sha256()
    for rec in records:
        rest = {k: v for k, v in rec.items()
                if k not in ("timing", "budgets_used")}
        h.update(json.dumps(rest, sort_keys=True).encode() + b"\n")
    return h.hexdigest()[:16]


class Gate:
    def __init__(self, doc: dict):
        from sftkit.files import parse_claims_doc
        from sftkit.models import catalog_models

        extra, claims = parse_claims_doc(doc, where="generated doc")
        self.claims = claims
        self.models = {**catalog_models(), **extra}
        self.reference: Optional[list] = None
        self._rechecked: dict = {}
        self.problems: list = []

    def check_pass(self, label: str, lines: list) -> int:
        """Number of failed claims in one pass's report."""
        records = [json.loads(line) for line in lines if line.strip()]
        if len(records) != len(self.claims):
            self.problems.append(
                f"{label}: {len(records)} records for {len(self.claims)} claims")
            return len(self.claims)
        stable = [stable_part(r) for r in records]
        if self.reference is None:
            self.reference = stable
        failed = 0
        for claim, rec, ref in zip(self.claims, stable, self.reference):
            why = self._check(claim, rec)
            if why is None and rec != ref:
                why = "record differs from the first pass"
            if why is not None:
                failed += 1
                self.problems.append(f"{label}: {claim.id}: {why}")
        return failed

    def _check(self, claim, rec: dict) -> Optional[str]:
        if rec.get("claim") != claim.id:
            return f"record for {rec.get('claim')!r} in its place"
        if "error" in rec:
            return rec["error"]
        if not rec.get("ok"):
            return "; ".join(rec.get("problems", ())) or "not ok"
        # the record's own "ok" is the program's verdict on itself; compare
        # the expectations again from the claim
        if rec.get("verdict") != claim.expected:
            return f"verdict {rec.get('verdict')!r}, expected {claim.expected!r}"
        for key, want in claim.expect_map.items():
            if key == "certificate":
                got = (rec.get("certificate") or {}).get("kind")
            elif key == "exact":
                got = rec.get("exact")
            else:
                got = (rec.get("details") or {}).get(key)
            if got != want:
                return f"{key}: got {got!r}, expected {want!r}"
        key = json.dumps(rec, sort_keys=True)
        if key not in self._rechecked:
            self._rechecked[key] = next(
                (f"witness: {why}" for shape, w in _factor_witnesses(rec)
                 if (why := _recheck(shape, w, claim, self.models))), None)
        return self._rechecked[key]
