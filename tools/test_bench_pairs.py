"""The paired comparison of tools/bench_pairs.py on canned runs.

    python3 -m pytest tools
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs as bp  # noqa: E402

METRICS = {"wall_s": {"better": "lower", "bound": 0.25},
           "ops_per_s": {"better": "higher", "bound": 0.25}}


def runs(walls: list[float]) -> list[dict]:
    # one run per wall time, with ops_per_s = 10 / wall_s
    return [{"metrics": {"wall_s": {"value": w, "unit": "s"},
                         "ops_per_s": {"value": 10 / w, "unit": "1/s"}}} for w in walls]


PARENT = [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.52]
CHANGE = [0.40, 0.41, 0.39, 0.42, 0.40, 0.50, 0.41, 0.38, 0.40, 0.43]


def test_compare_on_canned_runs():
    figures = bp.compare(runs(PARENT), runs(CHANGE), METRICS)
    wall = figures["wall_s"]
    # statistics.quantiles(n=4), exclusive method, of the sorted parent walls
    # 0.47 0.48 0.49 0.50 0.50 0.50 0.51 0.52 0.52 0.53
    assert wall["parent_median"] == pytest.approx(0.50)
    assert wall["parent_q1"] == pytest.approx(0.4875)
    assert wall["parent_q3"] == pytest.approx(0.52)
    assert wall["parent_iqr"] == pytest.approx(0.0325)
    assert wall["change_median"] == pytest.approx(0.405)
    assert wall["pairs"] == 10
    assert wall["change_wins"] == 9  # the sixth pair is a tie, which counts for neither
    assert wall["ratio"] == pytest.approx(0.50 / 0.405)
    assert wall["pair_ratios"] == pytest.approx([p / c for p, c in zip(PARENT, CHANGE)])
    assert wall["change_vs_parent"] == pytest.approx(0.405 / 0.50 - 1)
    assert wall["gain"] == pytest.approx(0.095)
    assert wall["gain_met"]
    ops = figures["ops_per_s"]
    assert ops["change_wins"] == 9
    # the median of 10 / wall, not 10 / the median wall: middle walls 0.40, 0.41
    assert ops["gain"] == pytest.approx((10 / 0.40 + 10 / 0.41) / 2 - 10 / 0.50)
    assert ops["gain_met"]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    eight_wins = CHANGE[:4] + [0.50, 0.51] + CHANGE[6:]
    assert bp.compare(runs(PARENT), runs(eight_wins), METRICS)["wall_s"]["change_wins"] == 8
    assert not bp.gain_met(bp.compare(runs(PARENT), runs(eight_wins), METRICS)["wall_s"])
    # ten wins by 0.01 each: the medians are 0.01 apart, inside the parent IQR of 0.0325
    close = [p - 0.01 for p in PARENT]
    wall = bp.compare(runs(PARENT), runs(close), METRICS)["wall_s"]
    assert wall["change_wins"] == 10
    assert not wall["gain_met"]


def test_within_parent_iqr():
    slower = [p + 0.03 for p in PARENT]
    assert bp.compare(runs(PARENT), runs(slower), METRICS)["wall_s"]["within_parent_iqr"]
    slower = [p + 0.04 for p in PARENT]
    assert not bp.compare(runs(PARENT), runs(slower), METRICS)["wall_s"]["within_parent_iqr"]
    assert bp.compare(runs(PARENT), runs(CHANGE), METRICS)["wall_s"]["within_parent_iqr"]


def test_regression_against_the_bound():
    # the parent's IQR is 0.0325 of a 0.50 median (6.5%), inside a 25% bound
    wall = bp.compare(runs(PARENT), runs([p * 1.2 for p in PARENT]), METRICS)["wall_s"]
    assert (wall["regression"], wall["within_parent_iqr"]) == ("within bound", False)
    wall = bp.compare(runs(PARENT), runs([p * 1.3 for p in PARENT]), METRICS)["wall_s"]
    assert wall["regression"] == "worse"
    # ops_per_s is better higher: 10 / (1.3 wall) is 23% lower, inside the bound
    assert bp.compare(runs(PARENT), runs([p * 1.3 for p in PARENT]),
                      METRICS)["ops_per_s"]["regression"] == "within bound"
    # a 5% bound is narrower than the parent's own spread
    tight = {"wall_s": {"better": "lower", "bound": 0.05}}
    assert bp.compare(runs(PARENT), runs(PARENT), tight)["wall_s"]["regression"] == "unresolved"
    # unless every change run reads better than every parent run
    faster = bp.compare(runs(PARENT), runs([w - 0.1 for w in PARENT]), tight)["wall_s"]
    assert faster["all_change_runs_better"]
    assert faster["regression"] == "within bound"


def test_sides_alternate_seed_by_seed():
    assert [bp.order(seed) for seed in (1, 2, 3, 41)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("parent", "change")]
    assert bp.parse_seeds("1-3") == [1, 2, 3]
    assert bp.parse_seeds("4,9") == [4, 9]


def test_a_worse_metric_on_any_compared_workload_is_named():
    # the record as main() writes it, from canned runs: the claimed workload
    # gains, and one other workload is 30% slower, beyond the 25% bound
    def record(other_walls):
        return {"workload": "strata",
                "comparison": bp.compare(runs(PARENT), runs(CHANGE), METRICS),
                "other_workloads": {"search": {"comparison": bp.compare(
                    runs(PARENT), runs(other_walls), METRICS)}}}

    assert [w for w, _ in bp.comparisons(record(PARENT))] == ["strata", "search"]
    assert bp.worse(record(PARENT)) == []
    assert bp.worse(record([p * 1.2 for p in PARENT])) == []
    assert bp.worse(record([p * 1.3 for p in PARENT])) == ["search wall_s"]
    # the claimed workload is read too
    slower = {"workload": "strata",
              "comparison": bp.compare(runs(PARENT), runs([p * 1.3 for p in PARENT]), METRICS),
              "other_workloads": {}}
    assert bp.worse(slower) == ["strata wall_s"]


@pytest.mark.parametrize("argv, command", [
    (["--parent", "p", "--out", "/some/dir/BENCH_strata.json", "--note", "x"],
     "--parent p --out BENCH_strata.json --note x"),
    (["--out=../elsewhere/BENCH_search.json", "--parent", "p"],
     "--out=BENCH_search.json --parent p"),
    (["--parent", "p", "--note", "/kept/as/given"], "--parent p --note /kept/as/given"),
], ids=["spaced", "joined", "no-out"])
def test_command_names_the_out_file_by_its_base_name(argv, command):
    assert bp.command_text(argv) == "python3 tools/bench_pairs.py " + command


def test_main_writes_its_record_then_exits_1_on_a_worse_metric(tmp_path, monkeypatch):
    # main() on canned runs: no commit is exported, and each side's runner
    # reads a fixed wall per workload; search runs 30% slower on the change
    walls = {"parent": {"strata": 0.50, "search": 0.50},
             "change": {"strata": 0.40, "search": 0.65}}

    def runner(side):
        def run_seeds(workload, seeds, seconds, trace):
            w = walls[side][workload]
            return [{"metrics": {name: {"value": value, "unit": ""} for name, value in (
                ("wall_s", w), ("ops_per_s", 10 / w), ("peak_rss_mb", 20.0),
                ("setup_s", 0.1))}}]
        return run_seeds

    monkeypatch.setattr(bp, "export", lambda rev, dest: rev)
    monkeypatch.setattr(bp, "load_runner", lambda copy, side: runner(side))
    out = tmp_path / "record.json"
    argv = ["bench_pairs.py", "--parent", "p", "--change", "c", "--workload", "strata",
            "--seeds", "1-2", "--other", "search", "--other-seeds", "1-2", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bp.main() == 1
    record = json.loads(out.read_text(encoding="utf-8"))
    assert bp.worse(record) == ["search wall_s"]
    assert record["command"].endswith("--out record.json")
    walls["change"]["search"] = 0.50
    assert bp.main() == 0
