"""File format and command-line tests.

Model records are rebuilt from family constructors on read and compared
field for field, so the rejection tests here (tampered generators, unknown
fields) are what keeps a hand-edited file from silently becoming a
different ring. CLI tests pin the exit-code contract: 0 expected, 1
unexpected verdict, 2 inconclusive at budget, 3 input error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from sftkit.cli import main
from sftkit.elements import IntIdeal, int_ideal_two, make_element
from sftkit.errors import SchemaError
from sftkit.exponents import ExponentVector
from sftkit.files import (
    _lattice_json,
    claim_to_record,
    claims_doc,
    drop_timing,
    dumps_doc,
    dumps_record,
    jsonify,
    load_json,
    model_to_record,
    parse_claims_doc,
    probe_record,
    record_to_claim,
    record_to_model,
    report_record,
)
from sftkit import sftcheck
from sftkit.models import build_model, catalog_claims, catalog_models
from sftkit.sftcheck import Certificate, Verdict
from sftkit.suite import ClaimResult, run_suite


def claim_by_id(cid: str):
    for c in catalog_claims():
        if c.id == cid:
            return c
    raise KeyError(cid)


class TestJsonify:
    def test_exact_values_stay_exact(self):
        assert jsonify(Fraction(9471, 256)) == "9471/256"
        assert jsonify(Fraction(-3, 1)) == "-3"
        assert jsonify(ExponentVector.from_dense((1, Fraction(1, 2)))) == ["1", "1/2"]
        assert jsonify(Verdict.VERIFIED) == "verified"

    def test_containers_recurse_and_keys_stringify(self):
        out = jsonify({"a": [Fraction(1, 3)], 2: (Fraction(5),)})
        assert out == {"a": ["1/3"], "2": ["5"]}

    def test_certificate_and_ideal_forms(self):
        cert = Certificate("FrobeniusCharP", (("p", 2), ("k", 1)))
        assert jsonify(cert) == {"kind": "FrobeniusCharP",
                                 "params": {"p": 2, "k": 1}}
        out = jsonify(int_ideal_two())
        assert out["label"] == "(2)" and out["v0"] == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-500, max_value=500), min_size=1,
                    max_size=4),
           st.integers(min_value=1, max_value=720))
    def test_lattice_points_read_as_their_exponents(self, v, s0):
        # the form model records and ideals take straight from lattice
        # points is that of the exponent vector the point stands for
        want = jsonify(ExponentVector.from_dense(Fraction(x, s0) for x in v))
        assert _lattice_json(tuple(v), s0) == want

    def test_unencodable_objects_are_an_error(self):
        with pytest.raises(TypeError):
            jsonify(object())

    def test_dumps_record_is_canonical(self):
        a = dumps_record({"b": 1, "a": Fraction(1, 2)})
        b = dumps_record({"a": Fraction(1, 2), "b": 1})
        assert a == b == '{"a": "1/2", "b": 1}'

    def test_drop_timing(self):
        assert drop_timing({"timing": 0.5, "x": 1}) == {"x": 1}


class TestLoadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_json(str(tmp_path / "absent.json"))

    def test_malformed_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"claims": [,]}')
        with pytest.raises(SchemaError) as ei:
            load_json(str(p))
        assert "bad.json:1" in ei.value.location


class TestModelRecords:
    def test_all_catalog_models_round_trip(self):
        for key, m in catalog_models().items():
            rec = model_to_record(m)
            rec2 = json.loads(dumps_doc(rec))  # through actual serialization
            assert record_to_model(rec2) == m, key

    def test_schema_field_checked(self):
        rec = model_to_record(catalog_models()["dyadic"])
        rec["schema"] = "sftkit/model/999"
        with pytest.raises(SchemaError):
            record_to_model(rec)

    def test_unknown_field_rejected(self):
        rec = model_to_record(catalog_models()["dyadic"])
        rec["comment"] = "hand edit"
        with pytest.raises(SchemaError) as ei:
            record_to_model(rec)
        assert "unknown fields" in str(ei.value)

    def test_missing_field_rejected(self):
        rec = model_to_record(catalog_models()["dyadic"])
        del rec["char"]
        with pytest.raises(SchemaError) as ei:
            record_to_model(rec)
        assert "missing fields" in str(ei.value)

    def test_unknown_family_rejected(self):
        rec = model_to_record(catalog_models()["dyadic"])
        rec["family"] = "octonion"
        with pytest.raises(SchemaError):
            record_to_model(rec)

    def test_non_integer_params_rejected(self):
        rec = model_to_record(catalog_models()["dyadic"])
        rec["params"] = {"nmax": "8"}
        with pytest.raises(SchemaError):
            record_to_model(rec)

    def test_constructor_rejections_become_schema_errors(self):
        rec = model_to_record(catalog_models()["dyadic"])
        rec["params"] = {"nmax": 0}
        with pytest.raises(SchemaError):
            record_to_model(rec)
        rec["params"] = {"wrong_name": 3}
        with pytest.raises(SchemaError):
            record_to_model(rec)
        rec["params"] = {"nmax": 8, "ctx": 3}  # build_model's own argument
        with pytest.raises(SchemaError):
            record_to_model(rec)
        rec = model_to_record(catalog_models()["frobenius_p2"])
        rec["params"] = {"p": 2, "v": 65}  # past MAX_DIM
        with pytest.raises(SchemaError) as ei:
            record_to_model(rec)
        assert "params" in ei.value.location and "v <= 64" in str(ei.value)

    def test_tampered_generator_list_rejected(self):
        rec = json.loads(dumps_doc(model_to_record(catalog_models()["dyadic"])))
        rec["monoid"]["gens"][0] = ["7/3"]
        with pytest.raises(SchemaError) as ei:
            record_to_model(rec)
        assert "disagrees" in str(ei.value)
        assert "model.monoid.gens[0]" in str(ei.value)  # the first difference


class TestClaimRecords:
    def test_all_catalog_claims_round_trip(self):
        for c in catalog_claims():
            rec = json.loads(json.dumps(jsonify(claim_to_record(c))))
            assert record_to_claim(rec) == c, c.id

    def test_bad_kind_rejected(self):
        rec = claim_to_record(claim_by_id("fr2-sft-gens"))
        rec["kind"] = "sft_everything"
        with pytest.raises(SchemaError) as ei:
            record_to_claim(rec)
        assert "unknown kind" in str(ei.value)

    def test_bad_verdict_rejected(self):
        rec = claim_to_record(claim_by_id("fr2-sft-gens"))
        rec["expected"] = "probably_fine"
        with pytest.raises(SchemaError):
            record_to_claim(rec)

    def test_empty_id_rejected(self):
        rec = claim_to_record(claim_by_id("fr2-sft-gens"))
        rec["id"] = ""
        with pytest.raises(SchemaError):
            record_to_claim(rec)

    def test_params_checked_against_kind(self):
        rec = claim_to_record(claim_by_id("fr2-witness-k5"))
        rec["params"]["kmaxx"] = 5
        with pytest.raises(SchemaError) as ei:
            record_to_claim(rec)
        assert "unknown fields: kmaxx" in str(ei.value)
        rec = claim_to_record(claim_by_id("fr2-witness-k5"))
        rec["params"]["kmin"] = True
        with pytest.raises(SchemaError) as ei:
            record_to_claim(rec)
        assert "params.kmin: must be an integer" in str(ei.value)

    def test_claims_doc_round_trip_with_models(self):
        models = {"frobenius_p2_v2": catalog_models()["frobenius_p2_v2"]}
        claims = [claim_by_id("fr2v2-sft-idx3-exhaustive")]
        doc = json.loads(dumps_doc(claims_doc(claims, models=models)))
        got_models, got_claims = parse_claims_doc(doc)
        assert got_models == models
        assert got_claims == claims

    def test_duplicate_claim_ids_rejected(self):
        c = claim_to_record(claim_by_id("fr2-sft-gens"))
        doc = {"schema": "sftkit/claims/1", "claims": [c, dict(c)]}
        with pytest.raises(SchemaError) as ei:
            parse_claims_doc(doc)
        assert "duplicate" in str(ei.value)

    def test_claims_must_be_an_array(self):
        with pytest.raises(SchemaError):
            parse_claims_doc({"schema": "sftkit/claims/1", "claims": {}})


class TestReportRecords:
    def test_error_results_have_no_verdict_fields(self):
        c = claim_by_id("fr2-sft-gens")
        rec = report_record(ClaimResult(claim=c, report=None,
                                        error="boom", elapsed=0.25))
        assert rec["error"] == "boom"
        assert rec["ok"] is False
        assert "verdict" not in rec

    def test_successful_record_shape(self):
        res = run_suite([claim_by_id("fr2-sft-gens")],
                        models=catalog_models(), seed=0)[0]
        rec = report_record(res)
        assert rec["schema"] == "sftkit/report/1"
        assert rec["ok"] is True
        assert rec["verdict"] == "verified"
        assert isinstance(rec["timing"], float)
        # machine lines for the same result are byte-identical minus timing
        line1 = dumps_record(drop_timing(rec))
        res2 = run_suite([claim_by_id("fr2-sft-gens")],
                         models=catalog_models(), seed=0)[0]
        line2 = dumps_record(drop_timing(report_record(res2)))
        assert line1 == line2


def write_claims(tmp_path, claims, name="claims.json", models=None):
    doc = claims_doc(claims, models=models)
    p = tmp_path / name
    p.write_text(dumps_doc(doc))
    return str(p)


CHEAP_IDS = ["fr2-sft-gens", "fr2v2-sft-idx3-exhaustive"]


class TestVerifyCommand:
    def test_verify_file_ok_machine(self, tmp_path):
        path = write_claims(tmp_path, [claim_by_id(i) for i in CHEAP_IDS])
        r = CliRunner().invoke(main, ["verify", path, "--format", "machine"])
        assert r.exit_code == 0, r.output
        lines = [json.loads(l) for l in r.output.splitlines()]
        assert [rec["claim"] for rec in lines] == CHEAP_IDS
        assert all(rec["ok"] for rec in lines)
        assert all(rec["schema"] == "sftkit/report/1" for rec in lines)

    def test_verify_unexpected_verdict_exits_1(self, tmp_path):
        import dataclasses
        wrong = dataclasses.replace(claim_by_id("fr2-sft-gens"),
                                    expected="refuted_with_witness")
        path = write_claims(tmp_path, [wrong])
        r = CliRunner().invoke(main, ["verify", path])
        assert r.exit_code == 1
        assert "FAIL" in r.output and "!!" in r.output

    def test_verify_starved_budget_exits_2(self, tmp_path):
        path = write_claims(tmp_path, [claim_by_id("frac-vsft")])
        r = CliRunner().invoke(main, ["verify", path,
                                      "--budget-multisets", "3"])
        assert r.exit_code == 2
        assert "inconclusive_at_truncation" in r.output

    def test_verify_missing_file_exits_3(self, tmp_path):
        r = CliRunner().invoke(main, ["verify", str(tmp_path / "nope.json")])
        assert r.exit_code == 3

    @pytest.mark.parametrize("args", [
        ["verify", "catalog"], ["verify", "catalog", "--budget-profile", "quick"],
        ["example", "dyadic"], ["export", "catalog"]])
    def test_unknown_budget_profile_exits_3(self, args):
        r = CliRunner().invoke(main, args, env={"SFTKIT_BUDGET_PROFILE": "bogus"})
        assert r.exit_code == 3, r.output
        assert isinstance(r.exception, SystemExit)  # not a crash
        assert ("unknown SFTKIT_BUDGET_PROFILE value 'bogus';"
                " available: deep, default, quick") in r.output

    def test_unknown_budget_profile_has_no_traceback(self):
        env = dict(os.environ, SFTKIT_BUDGET_PROFILE="bogus")
        run = subprocess.run([sys.executable, "-m", "sftkit.cli", "verify",
                              "catalog"], capture_output=True, text=True, env=env)
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert run.stderr.count("\n") == 1 and not run.stdout

    def test_verify_malformed_file_exits_3(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        r = CliRunner().invoke(main, ["verify", str(p)])
        assert r.exit_code == 3

    # a model record whose family is a list, for a claim file's models
    LISTED_FAMILY = {"listed": {
        **jsonify(model_to_record(build_model("frobenius_quotient", p=2, v=5))),
        "family": ["frobenius_quotient"]}}

    # catalog claim, edit of its record, text the error must show, and the
    # file's own models, if any
    MALFORMED = {
        "missing-n": ("frac-vsft", lambda r: r["params"].pop("n"),
                      "params: missing fields: n"),
        "n-as-string": ("frac-vsft", lambda r: r["params"].update(n="2"),
                        "params.n: must be an integer"),
        "vsft-without-model": ("frac-vsft", lambda r: r.update(model=""),
                               "model: a vsft claim must name a model"),
        "divergence-with-model": (
            "fr2-divergence", lambda r: r.update(model="frobenius_p2"),
            "model: a divergence claim names no model"),
        "unknown-fixed-param": (
            "fr2-divergence", lambda r: r["params"]["fixed"].update(bogus=1),
            "unknown frobenius_quotient parameter 'bogus'"),
        "divergence-level-past-cap": (
            "fr2-divergence", lambda r: r["params"].update(levels=[2, 65]),
            "precondition violated: v <= 64 (got 65)"),
        "divergence-level-past-generator-bound": (
            "xv-divergence", lambda r: r["params"].update(levels=[2, 12]),
            "precondition violated: at most 40320 generators (denBound=12 gives 12!)"),
        "divergence-level-repeated": (
            "fr2-divergence", lambda r: r["params"].update(levels=[3, 3]),
            "precondition violated: at least two strictly increasing "
            "truncation levels (got [3, 3])"),
        "divergence-levels-decreasing": (
            "fr2-divergence", lambda r: r["params"].update(levels=[4, 3]),
            "precondition violated: at least two strictly increasing "
            "truncation levels (got [4, 3])"),
        "valuation-scan-without-numerators": (
            "xv-valuation-scan", lambda r: r["params"].update(numerators=[]),
            "precondition violated: nonempty numerators and nmax >= 1 "
            "(got [], nmax 6)"),
        "valuation-scan-nmax-zero": (
            "xv-valuation-scan", lambda r: r["params"].update(nmax=0),
            "precondition violated: nonempty numerators and nmax >= 1"),
        "elements-on-rank-2": (
            "fr2-strongconv-vacuous",
            lambda r: r["params"].update(elements=["1"]),
            "params.elements: exponent strings need a rank-1 monoid model"),
        "ext-exponent-without-samples": (
            "fr3-ext-exponent", lambda r: r["params"].update(samples=0),
            "precondition violated: samples >= 1 (got 0)"),
        "ext-vsft-negative-samples": (
            "int-ext-vsft", lambda r: r["params"].update(samples=-3),
            "precondition violated: samples >= 0 (got -3)"),
        "kind-as-list": ("frac-vsft", lambda r: r.update(kind=["vsft"]),
                         "kind: unknown kind ['vsft']"),
        "expected-as-list": (
            "frac-vsft", lambda r: r.update(expected=["verified"]),
            "expected: unknown verdict ['verified']"),
        "family-as-list": (
            "fr2-sft-gens", lambda r: r.update(model="listed"),
            "family: unknown family ['frobenius_quotient']", LISTED_FAMILY),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_claim_params_exit_3(self, tmp_path, case, monkeypatch):
        cid, edit, message, *models = self.MALFORMED[case]
        rec = json.loads(json.dumps(jsonify(claim_to_record(claim_by_id(cid)))))
        edit(rec)
        p = tmp_path / "claims.json"
        p.write_text(json.dumps({"schema": "sftkit/claims/1",
                                 "claims": [rec],
                                 **({"models": models[0]} if models else {})}))
        built = []

        def recording_build(*args, **kwargs):
            model = build_model(*args, **kwargs)
            built.append(model.name)
            return model

        monkeypatch.setattr(sftcheck, "build_model", recording_build)
        r = CliRunner().invoke(main, ["verify", str(p)])
        assert r.exit_code == 3, r.output
        assert isinstance(r.exception, SystemExit)  # not a crash
        assert message in r.output
        assert "Traceback" not in r.output
        if rec["kind"] == "divergence":
            # every level is checked before the first one is built
            assert built == []

    def test_oversized_model_record_exits_3_before_building(self, tmp_path):
        # 12! = 479,001,600 generators: refused from the parameters
        rec = model_to_record(build_model("rational_valuation", denBound=2))
        rec["params"] = {"denBound": 12}
        claim = dataclasses.replace(claim_by_id("xv-sft-gens"), model="big")
        doc = claims_doc([claim])
        doc["models"] = {"big": rec}
        path = tmp_path / "claims.json"
        path.write_text(dumps_doc(doc))
        t0 = time.perf_counter()
        r = CliRunner().invoke(main, ["verify", str(path)])
        assert time.perf_counter() - t0 < 1.0
        assert r.exit_code == 3, r.output
        assert isinstance(r.exception, SystemExit)  # not a crash
        assert ("models['big'].params: precondition violated: at most 40320 "
                "generators (denBound=12 gives 12!)") in r.output

    def test_verify_unknown_model_reference_exits_3(self, tmp_path):
        missing = dataclasses.replace(claim_by_id("fr2-sft-gens"),
                                      model="no_such_model")
        path = write_claims(tmp_path, [missing])
        r = CliRunner().invoke(main, ["verify", path])
        assert r.exit_code == 3
        assert "err" in r.output
        # the error lists the catalog's models, built for this claim only
        r = CliRunner().invoke(main, ["verify", path, "--format", "machine"])
        assert r.exit_code == 3
        assert json.loads(r.output)["error"] == (
            "UnknownExample: unknown example 'no_such_model'; available: "
            + ", ".join(sorted(catalog_models())))

    def test_verify_file_with_its_own_models_builds_no_catalog(
            self, tmp_path, monkeypatch):
        claim = claim_by_id("fr2v2-sft-idx3-exhaustive")
        models = {claim.model: catalog_models()[claim.model]}
        path = write_claims(tmp_path, [claim], models=models)

        def refuse():
            raise AssertionError("catalog built for a file that needs none")

        monkeypatch.setattr("sftkit.cli.catalog_models", refuse)
        r = CliRunner().invoke(main, ["verify", path, "--format", "machine"])
        assert r.exit_code == 0, r.output
        assert json.loads(r.output)["ok"] is True

    def test_verify_machine_output_is_deterministic(self, tmp_path):
        path = write_claims(tmp_path, [claim_by_id(i) for i in CHEAP_IDS])
        args = ["verify", path, "--format", "machine", "--seed", "5"]
        out1 = CliRunner().invoke(main, args).output
        out2 = CliRunner().invoke(main, args).output
        norm1 = [dumps_record(drop_timing(json.loads(l)))
                 for l in out1.splitlines()]
        norm2 = [dumps_record(drop_timing(json.loads(l)))
                 for l in out2.splitlines()]
        assert norm1 == norm2

    def test_machine_output_is_identical_across_processes(self, tmp_path):
        # the whole catalog: both ideal kinds (monomial and integer model)
        # through every claim kind they carry
        ids = [c.id for c in catalog_claims()]
        path = write_claims(tmp_path, [claim_by_id(i) for i in ids])
        outs = []
        for hashseed in ("1", "777"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            run = subprocess.run(
                [sys.executable, "-m", "sftkit.cli", "verify", path,
                 "--format", "machine"],
                capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            outs.append([dumps_record(drop_timing(json.loads(l)))
                         for l in run.stdout.splitlines()])
        assert len(outs[0]) == len(ids)
        assert outs[0] == outs[1]

    def test_verify_writes_output_file(self, tmp_path):
        path = write_claims(tmp_path, [claim_by_id("fr2-sft-gens")])
        out = tmp_path / "report.jsonl"
        r = CliRunner().invoke(main, ["verify", path, "--format", "machine",
                                      "-o", str(out)])
        assert r.exit_code == 0
        assert json.loads(out.read_text().splitlines()[0])["ok"] is True


class TestExampleCommand:
    def test_small_example_text(self):
        r = CliRunner().invoke(main, ["example", "frobenius",
                                      "--p", "2", "--v", "2"])
        assert r.exit_code == 0, r.output
        assert "frobenius(p=2,v=2)" in r.output
        assert "[x]" in r.output  # the witness probe refutes

    def test_catalog_key_with_override_rebuilds(self):
        r = CliRunner().invoke(main, ["example", "int_plus_2x", "--D", "3",
                                      "--format", "machine"])
        assert r.exit_code == 0, r.output
        recs = [json.loads(l) for l in r.output.splitlines()]
        assert all(rec["truncation"] == {"D": 3} for rec in recs)
        assert any(rec["verdict"] == "verified" for rec in recs)

    def test_unknown_example_exits_3(self):
        r = CliRunner().invoke(main, ["example", "nosuch"])
        assert r.exit_code == 3

    def test_bad_override_for_family_exits_3(self):
        r = CliRunner().invoke(main, ["example", "dyadic", "--p", "3"])
        assert r.exit_code == 3
        assert "unknown dyadic parameter 'p'" in r.output
        r = CliRunner().invoke(main, ["example", "frobenius", "--p", "4"])
        assert r.exit_code == 3, r.output
        assert isinstance(r.exception, SystemExit)  # not a crash

    def test_dimension_past_cap_exits_3(self):
        for name, v, clause in (("frobenius", 65, "v <= 64"),
                                ("fraction", 64, "v <= 63"),
                                ("char2_xy", 64, "v <= 63")):
            r = CliRunner().invoke(main, ["example", name, "--v", str(v)])
            assert r.exit_code == 3, r.output
            assert isinstance(r.exception, SystemExit)  # not a crash
            assert clause in r.output

    def test_starved_example_exits_2(self):
        r = CliRunner().invoke(main, ["example", "fraction",
                                      "--budget-multisets", "5"])
        assert r.exit_code == 2
        assert "?" in r.output

    def test_machine_lines_have_no_timing(self):
        r = CliRunner().invoke(main, ["example", "frobenius", "--p", "2",
                                      "--v", "2", "--format", "machine"])
        recs = [json.loads(l) for l in r.output.splitlines()]
        assert recs and all("timing" not in rec for rec in recs)


class TestNtCommands:
    def test_legendre_integer_and_fraction(self):
        r = CliRunner().invoke(main, ["nt", "legendre", "10", "2"])
        assert r.exit_code == 0 and r.output.strip() == "8"
        r = CliRunner().invoke(main, ["nt", "legendre", "17/2", "2"])
        assert r.exit_code == 0 and r.output.strip() == "7"

    def test_legendre_composite_modulus_exits_3(self):
        r = CliRunner().invoke(main, ["nt", "legendre", "10", "6"])
        assert r.exit_code == 3

    def test_floor_holds(self):
        r = CliRunner().invoke(main, ["nt", "floor", "4", "3", "2", "2", "1"])
        assert r.exit_code == 0, r.output
        assert "holds=True" in r.output

    def test_floor_precondition_exits_3(self):
        r = CliRunner().invoke(main, ["nt", "floor", "4", "3", "2", "1", "2"])
        assert r.exit_code == 3

    def test_ala_divides_in_guaranteed_region(self):
        r = CliRunner().invoke(main, ["nt", "ala", "3", "2", "2", "2", "2"])
        assert r.exit_code == 0, r.output
        assert "divides=True" in r.output
        assert "p=2:" in r.output

    def test_ala_outside_region_is_a_precondition_error(self):
        # the M >= max(parts) clause is enforced, not probed; --scan is the
        # sanctioned way to look at the excluded region
        r = CliRunner().invoke(main, ["nt", "ala", "3", "1", "2", "1"])
        assert r.exit_code == 3

    def test_ala_scan_lists_failures(self):
        r = CliRunner().invoke(main, ["nt", "ala", "--scan", "3"])
        assert r.exit_code == 0
        assert "N=3 M=1 parts=[2, 1]" in r.output

    def test_multinomial(self):
        r = CliRunner().invoke(main, ["nt", "multinomial", "4", "2", "2"])
        assert r.exit_code == 0 and r.output.strip() == "6"
        r = CliRunner().invoke(main, ["nt", "multinomial", "4", "2", "1"])
        assert r.exit_code == 3


class TestExportCommand:
    def test_export_model_round_trips(self, tmp_path):
        out = tmp_path / "model.json"
        r = CliRunner().invoke(main, ["export", "dyadic", "-o", str(out)])
        assert r.exit_code == 0
        rec = json.loads(out.read_text())
        assert record_to_model(rec) == catalog_models()["dyadic"]

    def test_export_catalog_reparses_to_builtin(self, tmp_path):
        out = tmp_path / "catalog.json"
        r = CliRunner().invoke(main, ["export", "catalog", "-o", str(out)])
        assert r.exit_code == 0
        models, claims = parse_claims_doc(json.loads(out.read_text()))
        assert models == catalog_models()
        assert tuple(claims) == catalog_claims()

    def test_export_unknown_exits_3(self):
        assert CliRunner().invoke(main, ["export", "nope"]).exit_code == 3

    def test_version_flag(self):
        r = CliRunner().invoke(main, ["--version"])
        assert r.exit_code == 0 and "sftkit" in r.output
