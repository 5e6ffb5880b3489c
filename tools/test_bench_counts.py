"""The exact counts of tools/bench_counts.py, on a toy function and on real passes.

    python3 -m pytest tools
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_counts as bc  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def helper(x):
    return len(str(x))


def toy(n):
    # n Python calls of `helper`, each making one C call (`len`; `str` is a
    # type, which the profiler does not report), and one more C call here
    # (`sum`; `range` is a type too)
    return sum([helper(i) for i in range(n)])


def test_a_toy_function_has_a_fixed_count():
    counter = bc.Counter()
    assert counter.run(toy, 10) == 10
    counts = counter.summary()["modules"][bc.OUTSIDE]
    # toy, its list comprehension and the ten helpers; `sum` and ten `len`
    assert (counts["python_calls"], counts["c_calls"]) == (12, 11)
    again = bc.Counter()
    again.run(toy, 10)
    assert again.summary() == counter.summary()
    # each more call of `helper` runs the same instructions
    per_call = [bc.Counter() for _ in range(3)]
    for n, c in zip((10, 11, 20), per_call):
        c.run(toy, n)
    ten, eleven, twenty = (c.summary()["total"]["opcodes"] for c in per_call)
    assert twenty - ten == 10 * (eleven - ten) > 0


def test_a_frame_of_another_module_counts_for_the_brieskorn_frame_below_it():
    from fractions import Fraction

    from brieskorn.reeb import connected_sum_chi

    counter = bc.Counter()
    assert counter.run(connected_sum_chi, [Fraction(1, 3)] * 2, 3) == Fraction(1, 6)
    modules = counter.summary()["modules"]
    # the Fraction constructor's Python frames run under reeb
    assert set(modules) == {"reeb"}
    assert modules["reeb"]["python_calls"] > 1


def test_the_hooks_found_are_restored():
    def hook(frame, event, arg):
        return None

    sys.setprofile(hook)
    try:
        bc.Counter().run(toy, 2)
        assert sys.getprofile() is hook
    finally:
        sys.setprofile(None)


def test_the_module_counts_of_a_pass_sum_to_its_total_under_any_hash_seed():
    first = bc.run_pass(ROOT, "strata", 1, hash_seed="0")
    second = bc.run_pass(ROOT, "strata", 1, hash_seed="7")
    assert first["errors"] == []
    assert first == second
    modules = first["modules"]
    assert {"reeb", "topology", bc.OUTSIDE} <= set(modules)
    for kind in bc.KINDS:
        assert sum(c[kind] for c in modules.values()) == first["total"][kind] > 0
    ratios = bc.ratios(first, second)
    assert ratios["total"] == ratios["reeb"] == dict.fromkeys(bc.KINDS, 1.0)


def test_a_failing_workload_exits_1_after_writing_its_record(tmp_path, monkeypatch):
    # the change's copy freezes a wrong chi_m for the paper's anchor, so its
    # strata checks fail; the parent's copy is the working tree as it is
    good, bad = tmp_path / "good", tmp_path / "bad"
    for copy in (good, bad):
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
    pool_path = bad / "perfbench" / "strata_pool.json"
    pool = json.loads(pool_path.read_text(encoding="utf-8"))
    [anchor] = [item for item in pool if item["entries"] == [4, 5, 9, 19]]
    anchor["chi"] = "1/2"
    pool_path.write_text(json.dumps(pool), encoding="utf-8")

    def export(rev, dest):
        shutil.copytree({"p": good, "c": bad}[rev], dest)
        return rev

    monkeypatch.setattr(bc, "export", export)
    out = tmp_path / "counts.json"
    argv = ["--parent", "p", "--change", "c", "--workload", "strata", "--out", str(out)]
    assert bc.main(argv) == 1
    record = json.loads(out.read_text(encoding="utf-8"))
    strata = record["workloads"]["strata"]
    assert strata["parent"]["errors"] == []
    assert strata["change"]["errors"] == ["(4, 5, 9, 19): chi_m 407/2642, frozen 1/2"]
    assert record["command"] == ("python3 tools/bench_counts.py --parent p --change c "
                                 "--workload strata --out counts.json")
    # the counts are those of identical programs
    assert strata["ratios"]["total"] == dict.fromkeys(bc.KINDS, 1.0)
    monkeypatch.setattr(bc, "export", lambda rev, dest: shutil.copytree(good, dest) and rev)
    assert bc.main(argv) == 0


@pytest.mark.parametrize("argv", [["--workload", "strata"], ["--parent", "p",
                                                             "--workload", "strata"]])
def test_both_commits_are_needed_without_a_copy(argv):
    with pytest.raises(SystemExit):
        bc.main(argv)
