"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from brieskorn.topology import make_tuple  # noqa: E402


def test_search_at_a8_passes_its_checks(tmp_path):
    out = tmp_path / "certs.jsonl"
    wall, result = wl.search_pass(8, out)
    assert wall > 0
    assert len(result["certificates"]) > 0
    assert result["sink"].bytes == len(result["sink"].text().encode())
    assert wl.check_search(result, out, None) == []


def test_search_reference_mismatch_is_reported(tmp_path):
    out = tmp_path / "certs.jsonl"
    _, result = wl.search_pass(8, out)
    reference = wl.load_json("reference.json")["search"]  # frozen at A = 12
    errors = wl.check_search(result, out, reference)
    assert any("sphere_tuples" in e for e in errors)
    assert any("jsonl_sha256" in e for e in errors)


def test_tampered_chi_sum_line_is_reported(tmp_path):
    out = tmp_path / "certs.jsonl"
    _, result = wl.search_pass(8, out)
    lines = out.read_text().splitlines(keepends=True)
    obj = json.loads(lines[0])
    obj["chi_sum"]["num"] = str(int(obj["chi_sum"]["num"]) - 1)
    lines[0] = json.dumps(obj, separators=(",", ":")) + "\n"
    out.write_text("".join(lines))

    result["certificates"] = wl.read_back(out)
    assert wl.check_search(result, out, None) != []


def test_certificate_arithmetic_is_checked_by_the_benchmark():
    # Independent of the library's own validation, which `python -O` drops.
    good = SimpleNamespace(chi_a=Fraction(1, 8), chi_b=Fraction(1, 8), chi_sum=Fraction(-1, 4))
    off = SimpleNamespace(chi_a=Fraction(1, 8), chi_b=Fraction(1, 8), chi_sum=Fraction(-1, 5))
    positive = SimpleNamespace(chi_a=Fraction(1, 2), chi_b=Fraction(1, 4), chi_sum=Fraction(1, 4))
    errors = wl.certificate_errors([good, off, positive])
    assert [e.split(":")[0] for e in errors] == ["certificate 2", "certificate 3"]


def test_strata_inputs_follow_the_seed():
    pool = wl.load_json("strata_pool.json")
    first = wl.strata_inputs(3, pool)
    assert first == wl.strata_inputs(3, pool)
    assert first != wl.strata_inputs(4, pool)
    assert len(first) == len(wl.STRATA_ANCHORS) + 2 * sum(wl.STRATA_PER_LENGTH.values())
    coprime = sum(1 for item in first if item["coprime"])
    assert abs(2 * coprime - len(first)) <= len(wl.STRATA_ANCHORS)


def test_strata_with_five_tuples_passes_and_catches_a_wrong_value():
    items = wl.strata_inputs(7, wl.load_json("strata_pool.json"))[:5]
    tuples = [make_tuple(item["entries"]) for item in items]
    _, outcomes = wl.strata_pass(tuples)
    assert wl.check_strata(items, tuples, outcomes) == []

    items[0] = dict(items[0], chi="1/7")
    assert len(wl.check_strata(items, tuples, outcomes)) == 1


def test_speed_correction_scales_to_the_reference_speed():
    ref = speed.REFERENCE_PROBE_S
    # A host at half the reference speed throughout: the time halves.
    assert abs(speed.corrected(2.5, 0.5, [2 * ref] * 4) - 1.0) < 1e-12
    # Samples at even steps of wall time average speeds, not probe times.
    assert abs(speed.corrected(1.0, 0.0, [ref, ref / 3]) - 2.0) < 1e-12


def test_speed_sampler_probes_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    with sampler:
        items = wl.strata_inputs(7, wl.load_json("strata_pool.json"))[:5]
        wl.strata_pass([make_tuple(item["entries"]) for item in items])
        speed.probe(200_000)
    assert len(sampler.probes) >= 2
    assert 0 < sampler.handler_s < sampler.wall
    assert sampler.speed_wall > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0], ["d", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_traced_search_accounts_for_its_wall(tmp_path):
    original_main = sys.modules["brieskorn.cli"].main
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        wall, result = wl.search_pass(8, tmp_path / "certs.jsonl")
    finally:
        tracer.uninstall()
    assert sys.modules["brieskorn.cli"].main is original_main
    assert wl.check_search(result, tmp_path / "certs.jsonl", None) == []

    layers = tracing.layer_metrics(tracer, wall)
    assert abs(layers.pop("trace.self_sum_s") + layers["trace.unspanned_s"] - wall) < 1e-6
    spheres = layers["certify.enumerate.spheres"]
    assert layers["certify.pairs.attempted"] == spheres * (spheres + 1) // 2
    assert layers["reeb.connected_sum.calls"] == layers["certify.pairs.attempted"]
    assert layers["certify.read.lines"] == len(result["certificates"])
    assert layers["cli.main.calls"] == 1
    assert 0 < layers["reeb.mean_euler.p50_ms"] <= layers["reeb.mean_euler.p90_ms"]

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(layers) | {"cli.stdout_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
