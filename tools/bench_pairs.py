"""Run the benchmark on two commits, alternated seed by seed, and compare them.

    python3 tools/bench_pairs.py --parent REV --change REV --workload W \\
        [--seeds 1-10] [--holdout 41] [--seconds 30] \\
        [--other search strata --other-seeds 1-5] [--out FILE] [--note TEXT]

Each commit is exported with `git archive` into a directory of its own, and
each run is that copy's own `perfbench/spread.py` `run_seeds` on one seed,
with trace off and PYTHONDONTWRITEBYTECODE=1, so neither side reads
bytecode that an earlier run compiled. For each seed both sides run one
after the other, the parent first on odd seeds and the change first on
even ones; each run records its `order`, 0 when its side ran first. The
held-out seed then runs as one more pair, kept out of the figures. Each
workload named by --other runs the same way on --other-seeds.

For every end-to-end metric of BENCHMARK.json the record holds each side's
median and quartiles (`spread.summarize`), the parent's IQR, the parent /
change ratio of the medians and of each pair, and the pairs the change
wins (ties count for neither side). Three verdicts follow:

- `gain_met`: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's IQR.
- `regression`: "within bound" when the change's median is no worse than
  the parent's by more than the metric's `bound` in BENCHMARK.json (a
  share of the parent's median), "worse" when it is, and "unresolved"
  when the parent's own spread (IQR over median) is wider than the bound,
  unless every run of the change reads better than every run of the
  parent.
- `within_parent_iqr`: the change's median is no worse than the parent's
  by more than the parent's IQR, a stricter test than the bound.

Every run made is kept under `parent` and `change`. The command exits 1,
after writing its record, when any end-to-end metric of any compared
workload reads "worse".
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import platform
import sys
import tarfile
import tempfile
from pathlib import Path
from subprocess import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from spread import parse_seeds, summarize  # noqa: E402

SIDES = ("parent", "change")


def order(seed: int) -> tuple[str, str]:
    """The sides in the order they run on `seed`: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def compare(parent: list[dict], change: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric, the comparison of runs paired by position; `metrics` maps
    each metric name to its BENCHMARK.json entry ("better", "bound")."""
    out = {}
    for name, spec in metrics.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if spec["better"] == "lower" else -1  # > 0: the change is better
        fp, fc = summarize(p), summarize(c)
        figures = out[name] = {
            "parent_median": fp["median"],
            "change_median": fc["median"],
            "parent_q1": fp["q1"],
            "parent_q3": fp["q3"],
            "change_q1": fc["q1"],
            "change_q3": fc["q3"],
            "parent_iqr": fp["q3"] - fp["q1"],
            "pairs": len(p),
            "change_wins": sum(sign * (x - y) > 0 for x, y in zip(p, c)),
            "all_change_runs_better": all(sign * (x - y) > 0 for x in p for y in c),
            "ratio": fp["median"] / fc["median"],
            "pair_ratios": [x / y for x, y in zip(p, c)],
            "change_vs_parent": fc["median"] / fp["median"] - 1,
            "gain": sign * (fp["median"] - fc["median"]),
            "bound": spec["bound"],
        }
        figures["gain_met"] = gain_met(figures)
        figures["regression"] = regression(figures)
        figures["within_parent_iqr"] = -figures["gain"] <= figures["parent_iqr"]
    return out


def gain_met(figures: dict) -> bool:
    """The change wins nine tenths of the pairs and beats the parent's
    median by more than the parent's IQR."""
    return (figures["change_wins"] >= math.ceil(0.9 * figures["pairs"])
            and figures["gain"] > figures["parent_iqr"])


def regression(figures: dict) -> str:
    """"within bound", "worse" or "unresolved", against the metric's bound
    as a share of the parent's median."""
    scale = abs(figures["parent_median"])
    if figures["parent_iqr"] > figures["bound"] * scale and not figures["all_change_runs_better"]:
        return "unresolved"
    return "within bound" if -figures["gain"] <= figures["bound"] * scale else "worse"


def comparisons(record: dict) -> list[tuple[str, dict]]:
    """(workload, figures per metric) for the claimed workload, then each
    workload named by --other."""
    return [(record["workload"], record["comparison"]),
            *((w, o["comparison"]) for w, o in record["other_workloads"].items())]


def worse(record: dict) -> list[str]:
    """"workload metric" for each metric of each compared workload whose
    regression reads "worse"."""
    return [f"{workload} {name}" for workload, figures in comparisons(record)
            for name, f in figures.items() if f["regression"] == "worse"]


def export(rev: str, dest: Path) -> str:
    """Write the files of `rev` into `dest`; return its full commit hash."""
    commit = run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                 capture_output=True, text=True, check=True).stdout.strip()
    tar = run(["git", "archive", "--format=tar", commit], cwd=ROOT,
              capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return commit


def load_runner(copy: Path, side: str):
    """The `run_seeds` of the copy's own perfbench/spread.py, which runs
    that copy's perfbench/run.py from the copy's root."""
    spec = importlib.util.spec_from_file_location(f"spread_{side}", copy / "perfbench" / "spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_seeds


def run_pairs(runners: dict, workload: str, seeds: list[int],
              seconds: float) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed in seeds:
        for position, side in enumerate(order(seed)):
            print(f"{side}: ", end="", flush=True)
            [result] = runners[side](workload, [seed], seconds, 0)
            runs[side].append({**result, "order": position})
    return runs


def command_text(argv: list[str], script: str = "tools/bench_pairs.py") -> str:
    """The command line of `script` kept in the record, with its `--out`
    file named by its base name, so a record names no directory of the
    machine that ran it."""
    words, after_out = [], False
    for word in argv:
        if after_out:
            word = Path(word).name
        elif word.startswith("--out="):
            word = "--out=" + Path(word[len("--out="):]).name
        after_out = word == "--out"
        words.append(word)
    return " ".join(["python3", script, *words])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit measured as the base")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--workload", required=True, help="the workload a gain is claimed on")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--holdout", type=int, default=None,
                        help="one more pair, on a seed kept out of the figures")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--other", nargs="*", default=[], help="more workloads to compare")
    parser.add_argument("--other-seeds", default="1-5")
    parser.add_argument("--out", default=None, help="write the record to this JSON file")
    parser.add_argument("--note", default="", help="free text kept in the record")
    args = parser.parse_args()

    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        copies = {side: Path(work) / side for side in SIDES}
        commits = {side: export(getattr(args, side), copies[side]) for side in SIDES}
        runners = {side: load_runner(copies[side], side) for side in SIDES}
        seeds = parse_seeds(args.seeds)
        runs = {args.workload: run_pairs(runners, args.workload, seeds, args.seconds)}
        holdout = None
        if args.holdout is not None:
            pair = run_pairs(runners, args.workload, [args.holdout], args.seconds)
            holdout = {"seed": args.holdout, **{side: pair[side][0] for side in SIDES}}
        other_seeds = parse_seeds(args.other_seeds)
        for workload in args.other:
            runs[workload] = run_pairs(runners, workload, other_seeds, args.seconds)

    comparison = compare(runs[args.workload]["parent"], runs[args.workload]["change"], metrics)
    record = {
        "command": command_text(sys.argv[1:]),
        "note": args.note,
        "workload": args.workload,
        "seeds": seeds,
        "comparison": comparison,
    }
    if holdout is not None:
        holdout["ratios"] = {name: holdout["parent"]["metrics"][name]["value"]
                             / holdout["change"]["metrics"][name]["value"] for name in metrics}
        record["holdout"] = holdout
    record["other_workloads"] = {}
    for workload in args.other:
        record["other_workloads"][workload] = {
            "seeds": other_seeds,
            "comparison": compare(runs[workload]["parent"], runs[workload]["change"], metrics),
        }
    for side in SIDES:
        record[side] = {
            "commit": commits[side],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "runs": {workload: pair[side] for workload, pair in runs.items()},
        }

    for workload, figures in comparisons(record):
        for name, f in figures.items():
            print(f"{workload} {name}: parent {f['parent_median']:.6g} -> change "
                  f"{f['change_median']:.6g} ({f['change_vs_parent']:+.2%}), wins "
                  f"{f['change_wins']}/{f['pairs']}, parent IQR {f['parent_iqr']:.6g}, "
                  f"gain met {f['gain_met']}, {f['regression']} (bound {f['bound']}), "
                  f"within parent IQR {f['within_parent_iqr']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if bad := worse(record):
        print(f"worse than the parent beyond the bound: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
