from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import jsonschema
import pytest

import brieskorn.cli
import brieskorn.reeb
import brieskorn.topology
from brieskorn.certify import (
    certify_non_brieskorn_pairs,
    enumerate_sphere_tuples,
    read_certificates,
    write_certificates,
)
from brieskorn.cli import main
from brieskorn.errors import BrieskornError
from brieskorn.limits import DEFAULT_LIMITS
from brieskorn.topology import ExponentTuple
from brieskorn.verify import CheckResult, SuiteResult
from envelope_schema import ENVELOPE_SCHEMA, ENVELOPE_SHA256, FRACTION_SCHEMA
from oracles import json_dumps_lines, set_criterion
from verify_faults import replace_everywhere


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


CRITERION_TUPLES = [
    *combinations_with_replacement(range(2, 10), 4), (2, 3, 5), (6, 10, 15, 7, 11),
]


def test_criterion_json_matches_the_set_oracle(capsys):
    # every sorted 4-tuple over [2, 9], a 3-tuple and a 5-tuple: the graph
    # the envelope reports is the one the set-based oracle builds
    for t in CRITERION_TUPLES:
        code, env, _ = run_json(capsys, "criterion", *map(str, t))
        assert code == 0
        oracle = set_criterion(ExponentTuple(t))
        result = env["result"]
        assert result["verdict"] == oracle.kind.value, t
        assert result["components"] == [sorted(c) for c in oracle.components], t
        assert result["isolated_points"] == list(oracle.isolated_points), t
        assert result["even_component"] == {
            "indices": sorted(oracle.even_component),
            "size": len(oracle.even_component),
            "pairwise_gcd2": oracle.even_component_pairwise_gcd2,
        }, t


def test_criterion_comma_form(capsys):
    code, out, _ = run(capsys, "criterion", "2,2,2,3,5")
    assert code == 0
    assert "SPHERE_BY_II" in out


@pytest.mark.parametrize("text", [" 4 ", "+4", "1_9", "04", "-0", "\u0664"])
def test_non_canonical_tuple_entry_exits_2(capsys, text):
    code, _, err = run(capsys, "invariants", text, "5", "9", "19")
    assert code == 2
    assert f"not a decimal integer: {text!r}" in err


@pytest.mark.parametrize("token", ["4,,9,19", "4,9,19,", ",4,9,19"])
@pytest.mark.parametrize("command", [["criterion"], ["sum", "4,5,9,19", "+"]])
def test_an_empty_comma_piece_exits_2(capsys, command, token):
    code, out, err = run(capsys, *command, token)
    assert (code, out) == (2, "")
    assert f"tuple token {token!r} has an empty entry" in err


def test_criterion_invalid_entry_exits_2(capsys):
    code, out, err = run(capsys, "criterion", "2", "1", "3")
    assert code == 2
    assert "index 1" in err


def test_criterion_too_short_exits_2(capsys):
    code, _, err = run(capsys, "criterion", "2", "3")
    assert code == 2
    assert err


VALID_ARGV = [
    ["criterion", "4", "5", "9", "19"],
    ["invariants", "4,5,9,19"],
    ["sum", "4,5,9,19", "+", "4,5,9,19"],
    ["family", "sigma-m", "--from", "4", "--to", "5"],
    ["search", "--max-exponent", "5"],
    ["verify-paper"],
]


@pytest.mark.parametrize("flag, env, message", [
    (["--cap-subsets", "-1"], None, "limit subset_cap must be nonnegative"),
    ([], "abc", "BK_CAP_SUBSETS must be an integer"),
    (["--cap-fermat", "-1"], None, "limit fermat_cap must be nonnegative"),
], ids=["flag", "env", "fermat"])
def test_criterion_invalid_limit_exits_2(capsys, monkeypatch, flag, env, message):
    # main resolves the caps before any command runs, so every command refuses
    # an invalid one, the criterion too, which applies none
    if env is not None:
        monkeypatch.setenv("BK_CAP_SUBSETS", env)
    for argv in VALID_ARGV:
        code, out, err = run(capsys, *argv, *flag)
        assert (code, out) == (2, ""), argv
        assert message in err, argv


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


def test_invariants_builds_one_lattice(capsys, monkeypatch):
    # kappa, chi_S1 and chi_m are read from the same table
    built = []
    honest = brieskorn.topology.subset_lattice
    replace_everywhere(monkeypatch, honest,
                       lambda a, limits: built.append(a.entries) or honest(a, limits))
    code, _, _ = run(capsys, "invariants", "4", "5", "9", "19")
    assert code == 0
    assert built == [(4, 5, 9, 19)]


@pytest.mark.parametrize("strata", [False, True])
def test_invariants_builds_strata_only_to_print_them(capsys, monkeypatch, strata):
    built = []
    honest = brieskorn.reeb._build_strata
    replace_everywhere(monkeypatch, honest,
                       lambda a, lattice: built.append(a.entries) or honest(a, lattice))
    code, _, _ = run(capsys, "invariants", "4", "5", "9", "19", *(["--strata"] if strata else []))
    assert code == 0
    assert built == ([(4, 5, 9, 19)] if strata else [])


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


def test_invariants_over_the_default_cap_exits_1(capsys, monkeypatch):
    # the default admits only tuples whose tables fit in memory; one entry more
    # is refused before any table is built
    monkeypatch.delenv("BK_CAP_SUBSETS", raising=False)
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    entries = ",".join(map(str, primes[:DEFAULT_LIMITS.subset_cap + 1]))
    code, out, err = run(capsys, "invariants", entries, "--strata", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("capacity error: ")


class Writes(list):
    """A stdout that keeps each write apart."""

    def write(self, text):
        self.append(text)
        return len(text)


def test_the_envelope_is_written_in_pieces(monkeypatch):
    # 1,013 strata: the document reaches stdout in several writes, which join
    # to the bytes of print(json.dumps(envelope, indent=2))
    writes = Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    code = main(["invariants", "2,3,5,7,11,13,17,19,23,29", "--strata", "--json"])
    monkeypatch.undo()
    assert code == 0
    text = "".join(writes)
    envelope = json.loads(text)
    assert len(envelope["result"]["strata"]) == 1013
    assert max(map(len, writes)) < len(text) - 1  # no write holds the whole document
    assert text == json.dumps(envelope, indent=2) + "\n"


# ------------------------------------------------------------------ sum


def test_sum_self_pair(capsys):
    code, env, _ = run_json(capsys, "sum", "4,5,9,19", "+", "4,5,9,19")
    assert code == 0
    result = env["result"]
    assert result["chi_sum"] == {"num": "-507", "den": "2642"}
    assert result["certified_non_brieskorn"] is True
    assert result["boundary"] is False


def test_sum_three_summands(capsys):
    code, env, _ = run_json(capsys, "sum", "4,5,9,19", "+", "4,5,9,19", "+", "4,5,9,19")
    assert code == 0
    result = env["result"]
    # 3 * 407/2642 - 2 * 1/2
    assert result["chi_sum"] == {"num": "-1421", "den": "2642"}
    assert result["certified_non_brieskorn"] is True
    assert result["boundary"] is False
    assert len(result["summands"]) == 3


@pytest.mark.parametrize(
    "argv, position",
    [
        (["+", "4,5,9,19"], 0),
        (["4,5,9,19", "+"], 1),
        (["4,5,9,19", "+", "+", "4,5,9,19"], 1),
    ],
    ids=["leading", "trailing", "doubled"],
)
def test_sum_refuses_an_empty_summand(capsys, argv, position):
    code, out, err = run(capsys, "sum", *argv)
    assert (code, out) == (2, "")
    assert f"summand {position} is empty" in err


def test_sum_single_tuple(capsys):
    code, env, _ = run_json(capsys, "sum", "4,5,9,19")
    assert code == 0
    assert env["result"]["chi_sum"] == {"num": "407", "den": "2642"}
    assert env["result"]["certified_non_brieskorn"] is False


def test_sum_rejects_mismatched_lengths(capsys):
    code, _, err = run(capsys, "sum", "2,3,5", "+", "4,5,9,19")
    assert code == 2
    assert "summand 0 has 3 entries, but a 5-dimensional sphere needs 4" in err


def test_sum_undefined_invariant_exits_2(capsys):
    # (2, 4, 6, 12) is refused by the criterion before its undefined chi_m is reached
    code, _, err = run(capsys, "sum", "2,4,6,12", "+", "4,5,9,19")
    assert code == 2
    assert "summand 0 (2, 4, 6, 12) is not a sphere tuple (NOT_SPHERE)" in err


def test_sum_refuses_a_summand_with_undefined_chi_m(capsys, monkeypatch):
    # no sphere has total index 0 (each has an isolated exponent), so stub chi_m
    monkeypatch.setattr(
        "brieskorn.certify.mean_euler",
        lambda t, limits: SimpleNamespace(value=None),
    )
    code, out, err = run(capsys, "sum", "4,5,9,19", "+", "4,5,9,19")
    assert (code, out) == (2, "")
    assert "summand 0 (4, 5, 9, 19) has no chi_m (total index 0)" in err


@pytest.mark.parametrize("argv", [
    ["2,3,8,8"],
    ["2,3,8,8", "+", "4,5,9,19"],
    ["4,5,9,19", "+", "4,5,9,19", "+", "2,3,8,8"],
])
def test_sum_refuses_a_summand_that_is_not_a_sphere(capsys, argv):
    # Sigma(2, 3, 8, 8) is itself a Brieskorn manifold with chi_m = -1/2, so a
    # negative sum with it as a summand certifies nothing
    position = argv[:argv.index("2,3,8,8")].count("+")
    code, out, err = run(capsys, "sum", *argv)
    assert (code, out) == (2, "")
    assert f"summand {position} (2, 3, 8, 8) is not a sphere tuple (NOT_SPHERE)" in err


def test_sum_certifies_exactly_what_the_pair_search_certifies(capsys):
    for entries in combinations_with_replacement(range(2, 11), 4):
        t = ",".join(map(str, entries))
        code, out, _ = run(capsys, "sum", t, "+", t, "--json")
        if not set_criterion(ExponentTuple(entries)).is_sphere:
            assert (code, out) == (2, ""), entries
            continue
        assert code == 0, entries
        result = json.loads(out)["result"]
        certs = certify_non_brieskorn_pairs([ExponentTuple(entries)])
        assert result["certified_non_brieskorn"] == bool(certs), entries
        if certs:
            assert Fraction(int(result["chi_sum"]["num"]),
                            int(result["chi_sum"]["den"])) == certs[0].chi_sum, entries


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


# sha256 of the certificate file of `search --max-exponent A`
SEARCH_JSONL_SHA256 = {
    "12": "c6c6c501083bd60e95713b48c82271f2c03caec5c1b09615d1919bc384a413a8",
    "19": "c496b05df338bb51abb746869c75c7c91d7221700b9f79869f5cfb4a7c5884d6",
}


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
    assert env["result"]["sha256"] == SEARCH_JSONL_SHA256["19"]


def test_search_file_bytes_are_pinned_and_read_back_to_themselves(tmp_path, capsys):
    out_path, again = tmp_path / "certs.jsonl", tmp_path / "again.jsonl"
    code, env, _ = run_json(capsys, "search", "--max-exponent", "12", "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == env["result"]["sha256"] == SEARCH_JSONL_SHA256["12"]
    # reading the file and writing what was read gives the same bytes
    assert write_certificates(read_certificates(out_path), again) == SEARCH_JSONL_SHA256["12"]
    assert again.read_bytes() == data


@pytest.mark.parametrize("to_file", [True, False])
def test_search_builds_each_certificate_object_once(tmp_path, capsys, to_file):
    # a file and the envelope's list come from the one line writer, each line
    # formatted once; both must be the oracle's `json.dumps` of every certificate
    out_path = tmp_path / "certs.jsonl"
    argv = ["search", "--max-exponent", "8"] + (["--out", str(out_path)] if to_file else [])
    code, env, _ = run_json(capsys, *argv)
    assert code == 0
    expected = certify_non_brieskorn_pairs(enumerate_sphere_tuples(8))
    assert env["result"]["certificates"] == len(expected) > 0
    if to_file:
        # the envelope names the file by digest
        assert "certificate_list" not in env["result"]
        data = out_path.read_bytes()
        assert data.decode("utf-8") == json_dumps_lines(expected)
        assert env["result"]["sha256"] == hashlib.sha256(data).hexdigest()
    else:
        assert env["result"]["certificate_list"] == [
            json.loads(line) for line in json_dumps_lines(expected).splitlines()
        ]


def test_search_envelope_with_a_file_stays_small(tmp_path, capsys):
    outs = {}
    for a in ("8", "12"):
        code, out, _ = run(
            capsys, "search", "--max-exponent", a, "--out", str(tmp_path / f"{a}.jsonl"), "--json"
        )
        assert code == 0
        outs[a] = out
    assert len(outs["12"].encode()) < 1024
    keys = {a: list(json.loads(out)["result"]) for a, out in outs.items()}
    assert keys["8"] == keys["12"]
    assert keys["12"][-2:] == ["out", "sha256"]


@pytest.mark.parametrize("json_flag, calls", [([], 0), (["--json"], 1)], ids=["text", "json"])
def test_search_lists_the_certificates_only_in_the_envelope(capsys, monkeypatch, json_flag, calls):
    # the text prints only the counts, so it parses no certificate line back
    made = []
    honest = brieskorn.cli.certificate_lines
    monkeypatch.setattr(brieskorn.cli, "certificate_lines",
                        lambda certs: made.append(1) or honest(certs))
    code, _, _ = run(capsys, "search", "--max-exponent", "8", *json_flag)
    assert code == 0
    assert len(made) == calls


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


def test_search_over_the_subset_cap_exits_1_and_writes_nothing(tmp_path, capsys):
    # a summand's chi_m needs its 4-entry lattice, which a cap of 3 refuses
    out = tmp_path / "F.jsonl"
    code, _, err = run(
        capsys, "search", "--max-exponent", "12", "--cap-subsets", "3", "--out", str(out)
    )
    assert code == 1
    assert err.startswith("capacity error: ")
    assert not out.exists()


def test_search_over_the_budget_exits_1_and_writes_nothing(tmp_path, capsys):
    # the budget is checked before any work, so this refusal is instant
    out = tmp_path / "F.jsonl"
    code, stdout, err = run(capsys, "search", "--max-exponent", "70", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == ("capacity error: search space holds 1028790 candidate tuples, "
                   "exceeding the budget of 1000000\n")
    assert not out.exists()


def test_search_over_the_pair_budget_exits_1_before_any_chi_m(tmp_path, capsys, monkeypatch):
    # A = 25 makes 24,307,878 pairs, within the budget; A = 26 makes 32,148,171
    def no_chi_m(*args):
        raise AssertionError("sphere_chi called before the pair budget")

    monkeypatch.setattr("brieskorn.certify.sphere_chi", no_chi_m)
    out = tmp_path / "F.jsonl"
    code, stdout, err = run(capsys, "search", "--max-exponent", "26", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == ("capacity error: 8018 distinct sphere tuples make 32148171 pairs, "
                   "exceeding the budget of 25000000\n")
    assert not out.exists()


# ------------------------------------------------------- byte identity


def _pin_id(argv):
    # the command name for the first pin of a command, the whole argv after it
    first = next(pinned for pinned in ENVELOPE_SHA256 if pinned[0] == argv[0])
    return argv[0] if argv == first else " ".join(argv)


@pytest.mark.parametrize(
    "argv", [argv for argv in ENVELOPE_SHA256 if argv[0] != "verify-paper"], ids=_pin_id,
)
def test_output_bytes_are_pinned(capsys, argv):
    # verify-paper's digest is checked on the end-to-end run of
    # test_acceptance.py::test_criterion_12_verify_paper_end_to_end
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENVELOPE_SHA256[argv]


# ---------------------------------------------------------- verify-paper


def test_verify_paper_json_has_no_timings(capsys, monkeypatch):
    def suite(seconds):
        checks = (
            CheckResult(1, "reference values", True, "407/2642", seconds),
            CheckResult(2, "family", True, "agreement", 2 * seconds),
        )
        return lambda limits: SuiteResult(checks, 3 * seconds)

    outs = []
    for seconds in (0.125, 7.5):
        monkeypatch.setattr(brieskorn.cli, "run_reproduction_suite", suite(seconds))
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    env = json.loads(outs[0])
    jsonschema.validate(env, ENVELOPE_SCHEMA)
    assert set(env["result"]) == {"items", "all_passed"}
    assert set(env["result"]["items"][0]) == {"item", "name", "passed", "detail"}
    # the human text keeps its timings
    monkeypatch.setattr(brieskorn.cli, "run_reproduction_suite", suite(7.5))
    _, text, _ = run(capsys, "verify-paper")
    assert "(7.50s)" in text and "in 22.50s" in text


def test_internal_error_exits_1(capsys, monkeypatch):
    # a bare BrieskornError is a fault of the package, not of the input
    def suite(limits):
        raise BrieskornError("planted")

    monkeypatch.setattr(brieskorn.cli, "run_reproduction_suite", suite)
    code, out, err = run(capsys, "verify-paper")
    assert code == 1
    assert out == ""
    assert err == "internal error: planted\n"
