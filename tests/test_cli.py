from __future__ import annotations

import json
from fractions import Fraction

import jsonschema
import pytest

import brieskorn.certify
import brieskorn.cli
from brieskorn.certify import read_certificates
from brieskorn.cli import main
from envelope_schema import ENVELOPE_SCHEMA, FRACTION_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    return code, envelope, err


# ------------------------------------------------------------ criterion


def test_criterion_sphere(capsys):
    code, env, _ = run_json(capsys, "criterion", "4", "5", "9", "19")
    assert code == 0
    assert env["result"]["verdict"] == "SPHERE_BY_I"
    assert env["result"]["tuple"] == ["4", "5", "9", "19"]
    assert env["result"]["isolated_points"] == [0, 1, 2, 3]


def test_criterion_not_sphere(capsys):
    code, env, _ = run_json(capsys, "criterion", "2", "2", "2", "2")
    assert code == 0
    assert env["result"]["verdict"] == "NOT_SPHERE"


def test_criterion_comma_form(capsys):
    code, out, _ = run(capsys, "criterion", "2,2,2,3,5")
    assert code == 0
    assert "SPHERE_BY_II" in out


def test_criterion_invalid_entry_exits_2(capsys):
    code, out, err = run(capsys, "criterion", "2", "1", "3")
    assert code == 2
    assert "index 1" in err


def test_criterion_too_short_exits_2(capsys):
    code, _, err = run(capsys, "criterion", "2", "3")
    assert code == 2
    assert err


# ----------------------------------------------------------- invariants


def test_invariants_reference_tuple(capsys):
    code, env, _ = run_json(capsys, "invariants", "4", "5", "9", "19")
    assert code == 0
    result = env["result"]
    assert result["chi_m"] == {"num": "407", "den": "2642"}
    assert result["kappa"] == "0"
    assert result["chi_s1"] == "3"
    assert result["total_mu_rs"] == "-2642"
    assert result["d"] == "3420"
    jsonschema.validate(result["chi_m"], FRACTION_SCHEMA)


def test_invariants_undefined_prints_and_exits_zero(capsys):
    code, out, _ = run(capsys, "invariants", "2", "4", "6", "12")
    assert code == 0
    assert "undefined (mu_RS = 0)" in out


def test_invariants_strata_table(capsys):
    code, env, _ = run_json(capsys, "invariants", "2,3,5", "--strata")
    assert code == 0
    strata = env["result"]["strata"]
    assert [s["period"] for s in strata] == ["6", "10", "15", "30"]
    assert [s["frequency"] for s in strata] == ["4", "2", "1", "1"]


def test_invariants_capacity_exits_1(capsys):
    code, _, err = run(capsys, "invariants", "2,3,5,7", "--cap-subsets", "3")
    assert code == 1
    assert "cap" in err


def test_invariants_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BK_CAP_SUBSETS", "3")
    code, _, err = run(capsys, "invariants", "2,3,5,7")
    assert code == 1
    assert "cap" in err


# ------------------------------------------------------------------ sum


def test_sum_self_pair(capsys):
    code, env, _ = run_json(capsys, "sum", "4,5,9,19", "+", "4,5,9,19")
    assert code == 0
    result = env["result"]
    assert result["chi_sum"] == {"num": "-507", "den": "2642"}
    assert result["certified_non_brieskorn"] is True
    assert result["boundary"] is False


def test_sum_single_tuple(capsys):
    code, env, _ = run_json(capsys, "sum", "4,5,9,19")
    assert code == 0
    assert env["result"]["chi_sum"] == {"num": "407", "den": "2642"}
    assert env["result"]["certified_non_brieskorn"] is False


def test_sum_rejects_mismatched_lengths(capsys):
    code, _, err = run(capsys, "sum", "2,3,5", "+", "4,5,9,19")
    assert code == 2
    assert "length" in err


def test_sum_undefined_invariant_exits_2(capsys):
    code, _, err = run(capsys, "sum", "2,4,6,12", "+", "4,5,9,19")
    assert code == 2
    assert "undefined" in err


# ---------------------------------------------------------------- family


def test_family_sigma_m_rows(capsys):
    code, env, _ = run_json(capsys, "family", "sigma-m", "--from", "4", "--to", "10")
    assert code == 0
    rows = env["result"]["rows"]
    assert rows[0]["m"] == "4"
    assert rows[0]["chi_m"] == {"num": "407", "den": "2642"}
    assert rows[0]["agrees"] is True
    assert env["result"]["closed_form_agreement"] is True
    assert env["result"]["strictly_decreasing"] is True


def test_family_sigma_m_multiple_of_three(capsys):
    code, out, _ = run(capsys, "family", "sigma-m", "--from", "3", "--to", "3")
    assert code == 0
    assert "n/a (3 | m)" in out


def test_family_fermat_single(capsys):
    code, env, _ = run_json(capsys, "family", "fermat", "--ell", "2", "--n", "3")
    assert code == 0
    row = env["result"]["rows"][0]
    assert row["tuple"] == ["17", "257", "65537", "4294967297"]
    assert row["in_interval"] is True


def test_family_fermat_scan(capsys):
    code, env, _ = run_json(
        capsys, "family", "fermat", "--ell", "2", "--n", "3", "--scan", "3"
    )
    assert code == 0
    assert [r["ell"] for r in env["result"]["rows"]] == [2, 3, 4]
    assert env["result"]["ratio_error_strictly_decreasing"] is True


@pytest.mark.parametrize("scan", ["0", "-1"])
def test_family_fermat_empty_scan_exits_2(capsys, scan):
    code, _, err = run(capsys, "family", "fermat", "--ell", "2", "--n", "3", "--scan", scan)
    assert code == 2
    assert "at least one Fermat index" in err


def test_family_missing_arguments(capsys):
    code, _, err = run(capsys, "family", "sigma-m")
    assert code == 2
    assert "--from" in err


# ---------------------------------------------------------------- search


def test_search_includes_reference_certificate(tmp_path, capsys):
    out_path = tmp_path / "certs.jsonl"
    code, env, _ = run_json(
        capsys, "search", "--max-exponent", "19", "--out", str(out_path)
    )
    assert code == 0
    certs = read_certificates(out_path)
    ref = [
        c
        for c in certs
        if c.tuple_a.entries == (4, 5, 9, 19) and c.tuple_b.entries == (4, 5, 9, 19)
    ]
    assert len(ref) == 1
    assert ref[0].chi_sum == Fraction(-507, 2642)
    assert env["result"]["certificates"] == len(certs)


@pytest.mark.parametrize("to_file", [True, False])
def test_search_builds_each_certificate_object_once(tmp_path, capsys, monkeypatch, to_file):
    honest, calls = brieskorn.certify.certificate_to_obj, []

    def counted(cert):
        calls.append(cert)
        return honest(cert)

    monkeypatch.setattr(brieskorn.certify, "certificate_to_obj", counted)
    monkeypatch.setattr(brieskorn.cli, "certificate_to_obj", counted)
    out_path = tmp_path / "certs.jsonl"
    argv = ["search", "--max-exponent", "8"] + (["--out", str(out_path)] if to_file else [])
    code, env, _ = run_json(capsys, *argv)
    assert code == 0
    listed = env["result"]["certificate_list"]
    assert len(calls) == len(listed) == env["result"]["certificates"] > 0
    if to_file:
        lines = out_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == listed


def test_search_no_spheres_no_certificates(capsys):
    code, env, _ = run_json(capsys, "search", "--max-exponent", "2")
    assert code == 0
    assert env["result"]["sphere_tuples"] == 0
    assert env["result"]["certificates"] == 0


def test_search_reruns_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["search", "--max-exponent", "10", "--out", str(p1)]) == 0
    assert main(["search", "--max-exponent", "10", "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_search_unwritable_path_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "search", "--max-exponent", "5", "--out", str(tmp_path / "no" / "dir.jsonl")
    )
    assert code == 1
    assert err
