"""Seeded claims-doc generator for the three benchmark workloads.

    python3 claimbench/gen.py search 7 > search-7.json

Each workload is a claims document in the `sftkit verify` schema
(``sftkit/claims/1``, with a ``models`` block). The program under test sees
only that document. The same (workload, seed) always gives the same bytes.

Expectations come from rules the catalog freezes, never from running the
code: on ``fraction_monoid`` the minimal index of (frac, y) is v+1 for every
M >= 2; on ``char2_xy`` the index of (I, B) is v+1 whatever D is; on
``dyadic`` the index of (max, two) is nmax+1; on ``rational_valuation`` the
index of (xV, x) is 2 at every denBound. Catalog claims are copied with their
catalog expectations, and their models are rebuilt at a seeded level only
where that expectation does not depend on the level.

Every drawn point stays under half of each default budget (search nodes,
multisets and samples) at the commit that defined the benchmark; see
README.md for the measured maxima.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

WORKLOADS = ("search", "powers", "short")

# One round of the `short` workload is every catalog claim except these and
# the rational_valuation(6) group: the long ones (0.2 s and up), whose ground
# `search` and `powers` cover at seeded points.
_SHORT_EXCLUDED = {"frac-divergence", "xy-divergence", "dy-divergence",
                   "xy-minimal-index"}

# Per catalog model of the `short` workload: the constructor parameter that
# takes a seeded value each round, and the values it may take. Claims whose
# expectation depends on that parameter (fr2-witness-k5 expects witness_k =
# v, say) keep the model at its catalog level.
_LEVELS = {
    "frobenius_p2": ("v", (4, 5, 6)),
    "frobenius_p3": ("v", (4, 5, 6)),
    "frobenius_p5": ("v", (3, 4, 5)),
    "fraction": ("M", (3, 4, 5)),
    "int_plus_2x": ("D", (8, 9, 10, 11, 12)),
    "char2_xy": ("D", (6, 8, 10, 12, 14)),
    "char2_xy_v2": ("D", (6, 8, 10, 12, 14)),
    "dyadic": ("nmax", (4, 5, 6, 7, 8)),
}
_LEVEL_BOUND = {"fr2-witness-k5", "fr2-minimal-index", "fr2-anyradical",
                "dy-witness-k8"}

SHORT_ROUNDS = 5


def _claim(cid, model, kind, expected, expect=None, **params) -> dict:
    rec = {"id": cid, "model": model, "kind": kind, "params": params,
           "expected": expected}
    if expect:
        rec["expect_details"] = expect
    return rec


def _model(family: str, **params) -> dict:
    from sftkit.files import model_to_record
    from sftkit.models import build_model

    return model_to_record(build_model(family, **params))


def _sampled_int_claim(rng, models: dict) -> dict:
    """A small sampled all-elements check on Z + 2xZ[x]. It keeps the
    element layer live on the workloads that are otherwise pure ideal work;
    the catalog freezes SampledOnly for index 3 on this family."""
    D = rng.choice((8, 9, 10, 11, 12))
    key = f"int_plus_2x_D{D}"
    models[key] = _model("int_plus_2x", D=D)
    return _claim("int-sampled", key, "sft_all_elements", "verified",
                  {"certificate": "SampledOnly", "exact": False},
                  I="full", B="two", n=3, samples=rng.randrange(40, 101, 10))


def _search(rng) -> tuple[dict, list]:
    models: dict = {}
    claims = []
    # cheap seeded points, 0.1k-9k nodes each
    points = [(3, M) for M in rng.sample(range(2, 7), 3)]
    points += [(2, M) for M in rng.sample(range(2, 7), 2)]
    for v, M in points:
        claims.append(_fraction_index(rng, models, v, M))
    M = rng.randint(2, 6)
    claims.append(_claim(
        f"frac-divergence-M{M}", "", "divergence", "refuted_family",
        {"indices": [3, 4]}, family="fraction_monoid", level_key="v",
        levels=[2, 3], fixed={"M": M}, I="frac", B="y", cap=9))
    claims.append(_sampled_int_claim(rng, models))
    rng.shuffle(claims)
    # Then, in a fixed order because peak memory depends on it, the
    # catalog's frac-divergence group up to v=4 and the v=4 points with
    # 8k-130k nodes. The group's v=5 and v=6 levels take 1 s and 11 s; see
    # README.md on why no claim here is that long.
    claims.append(_claim(
        "frac-divergence-v2-4", "", "divergence", "refuted_family",
        {"indices": [3, 4, 5]}, family="fraction_monoid", level_key="v",
        levels=[2, 3, 4], fixed={"M": 4}, I="frac", B="y",
        cap=rng.randint(7, 9)))
    for M in (3, 4, 5, 6):
        claims.append(_fraction_index(rng, models, 4, M))
    return models, claims


def _fraction_index(rng, models: dict, v: int, M: int) -> dict:
    key = f"fraction_v{v}_M{M}"
    models[key] = _model("fraction_monoid", v=v, M=M)
    return _claim(f"frac-min-v{v}-M{M}", key, "minimal_index", "verified",
                  {"n_min": v + 1}, I="frac", B="y",
                  cap=rng.randint(v + 1, 9))


def _powers(rng) -> tuple[dict, list]:
    # The catalog's xv claims one truncation level down, on
    # rational_valuation(5): xv-vsft there sums 14,400 Fraction vectors into
    # 239 exponents (518,400 into 1,439 at the catalog's level 6, a single
    # 3-second claim). The catalog's xv-divergence freezes n_min = 2 at every
    # level, which settles each expectation below.
    models = {"xv5": _model("rational_valuation", denBound=5)}
    claims = [
        _claim("xv5-sft-gens", "xv5", "sft_generators", "verified",
               I="xV", B="x", n=2),
        _claim("xv5-vsft", "xv5", "vsft", "verified", I="xV", B="x", n=2),
        _claim("xv5-witness-none", "xv5", "vsft_witness_search", "verified",
               I="xV", B="x", kmin=2, kmax=2),
        _claim("xv5-minimal-index", "xv5", "minimal_index", "verified",
               {"n_min": 2}, I="xV", B="x", cap=rng.randint(2, 3)),
        _claim("xv5-ext-vsft", "xv5", "extension_vsft", "verified",
               I="xV", B="x", n=2, degree=2, samples=rng.randrange(20, 61, 10)),
    ]
    for v in (5, rng.choice((3, 4))):
        D = rng.randint(6, 14)
        key = f"char2_xy_v{v}_D{D}"
        models[key] = _model("char2_xy", v=v, D=D)
        claims.append(_claim(
            f"xy-min-v{v}-D{D}", key, "minimal_index", "verified",
            {"n_min": v + 1}, I="I", B="B", cap=rng.randint(v + 1, 9)))
    D = rng.randint(6, 14)
    claims.append(_claim(
        f"xy-divergence-D{D}", "", "divergence", "refuted_family",
        {"indices": [3, 4, 5, 6]}, family="char2_xy", level_key="v",
        levels=[2, 3, 4, 5], fixed={"D": D}, I="I", B="B", cap=9))
    for nmax in (5, rng.choice((3, 4))):
        key = f"dyadic_n{nmax}"
        models[key] = _model("dyadic", nmax=nmax)
        claims.append(_claim(
            f"dy-min-n{nmax}", key, "minimal_index", "verified",
            {"n_min": nmax + 1}, I="max", B="two",
            cap=rng.randint(nmax + 1, 10)))
    claims.append(_claim(
        "dy-divergence-n2-5", "", "divergence", "refuted_family",
        {"indices": [3, 4, 5, 6]}, family="dyadic", level_key="nmax",
        levels=[2, 3, 4, 5], fixed={}, I="max", B="two", cap=9))
    claims.append(_sampled_int_claim(rng, models))
    rng.shuffle(claims)
    return models, claims


def _short(rng) -> tuple[dict, list]:
    from sftkit.files import claim_to_record, model_to_record
    from sftkit.models import build_model, catalog_claims, catalog_models

    catalog = catalog_models()
    base = [c for c in catalog_claims()
            if c.id not in _SHORT_EXCLUDED and not c.id.startswith("xv-")]
    models: dict = {}
    claims = []
    for r in range(SHORT_ROUNDS):
        # fresh model objects every round, so lazy tables are rebuilt
        levels = {name: (key, rng.choice(values))
                  for name, (key, values) in _LEVELS.items()}
        batch = []
        for c in base:
            rec = claim_to_record(c)
            rec["id"] = f"{c.id}.r{r}"
            if c.model:
                params = catalog[c.model].param_map
                if c.model in levels and c.id not in _LEVEL_BOUND:
                    key, value = levels[c.model]
                    params[key] = value
                level = "_".join(f"{k}{v}" for k, v in sorted(params.items()))
                rec["model"] = f"{c.model}.{level}.r{r}"
                if rec["model"] not in models:
                    models[rec["model"]] = model_to_record(
                        build_model(catalog[c.model].family, **params))
            batch.append(rec)
        rng.shuffle(batch)
        claims += batch
    return models, claims


def build_doc(workload: str, seed: int) -> dict:
    """The claims document for one workload and seed."""
    from sftkit.files import CLAIMS_SCHEMA

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    models, claims = {"search": _search, "powers": _powers,
                      "short": _short}[workload](rng)
    return {"schema": CLAIMS_SCHEMA, "models": models, "claims": claims}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from sftkit.files import dumps_doc

    sys.stdout.write(dumps_doc(build_doc(sys.argv[1], int(sys.argv[2]))))
