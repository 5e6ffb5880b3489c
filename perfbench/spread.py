"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads search strata verify_paper \\
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE --commit HASH]

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median. With --out it
also writes these figures and the per-run values as JSON, with the Python
version, the number of processors and the commit. That is how
`baseline.json` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def run_seeds(workload: str, seeds: list[int], seconds: float, trace: int) -> list[dict]:
    runs = []
    for seed in seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
    return runs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the figures to this JSON file")
    parser.add_argument("--commit", default=None, help="commit measured, recorded with --out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "commit": args.commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = run_seeds(workload, report["seeds"], args.seconds, args.trace)
        figures = {}
        for name in runs[0]["metrics"]:
            f = figures[name] = summarize([r["metrics"][name]["value"] for r in runs])
            spread = "n/a" if f["spread"] is None else f"{f['spread']:.4f}"
            bound = f"  (bound {bounds[name]})" if name in bounds else ""
            print(f"{workload:12s} {name:36s} median {f['median']:.6g}  q1 {f['q1']:.6g}  "
                  f"q3 {f['q3']:.6g}  spread {spread}{bound}", flush=True)
        report["workloads"][workload] = {"figures": figures, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
