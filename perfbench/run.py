"""The brieskorn benchmark: one command for every workload.

    python3 perfbench/run.py --workload search|strata|verify_paper \\
        --seed N --seconds S --trace 0|1

Runs passes of the workload one after another, each in a fresh interpreter
(worker.py): a closed loop with one client and one process at a time. A new
pass starts while the passes so far predict that it ends within --seconds;
there is always at least one pass (with --trace 1, one plain and one
traced). Every pass is checked against the frozen references.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, from
the plain passes, whose times are corrected for the host's speed (speed.py).
With --trace 1 it alternates plain and traced passes and
reports the per-layer metrics of the fastest traced pass, plus the tracing
overhead (fastest traced wall minus fastest plain wall). The spans of the
first traced pass are written to .bench_build/perfbench/spans-<workload>.jsonl.

Prints one `name value unit` line per metric, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics. Exits 1
when an output is wrong or a pass crashes, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from workloads import HERE, OUT_DIR, ROOT, WORKLOADS

SETUP_SAMPLES = 15  # fresh interpreters whose set-up time is measured, at least
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchmarkError(Exception):
    pass


def spans_path(workload: str) -> Path:
    return OUT_DIR / f"spans-{workload}.jsonl"


def run_worker(args, mode: str, run_id: str, pass_index: int, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--run-id", run_id, "--pass-index", str(pass_index),
    ]
    if mode == "traced" and pass_index == 1:
        # A traced search pass makes ~160k spans; keeping one pass's worth
        # on disk is enough to inspect a run.
        command += ["--spans", str(spans_path(args.workload))]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} pass {pass_index} ran past the {DEADLINE_S:.0f}s deadline")
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    result["setup_s"] = result["setup_done"] - started
    return result


def measure(args) -> tuple[list[dict], list[float]]:
    """Run the passes and the extra set-up probes; return (passes, setups)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run_id = uuid.uuid4().hex[:12]
    modes = ("plain", "traced") if args.trace else ("plain",)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path(args.workload).unlink(missing_ok=True)
    passes: list[dict] = []
    while True:
        passes.append(run_worker(args, modes[len(passes) % len(modes)], run_id, len(passes), deadline))
        elapsed = time.monotonic() - start
        if len(passes) >= len(modes) and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, "setup", run_id, len(setups), deadline)["setup_s"])
    return passes, setups


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of the plain passes.

    `wall_s` is the median over the passes of each pass's wall time at the
    reference host speed (see speed.py), and `ops_per_s` divides each
    pass's work by that time.
    """
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["speed_wall_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["speed_wall_s"] for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """The fastest traced pass's layer metrics, plus the tracing overhead:
    that pass's wall minus the fastest plain pass's, both uncorrected for
    host speed and without the speed sampler's handler time."""
    out = dict(min(traced, key=lambda p: p["wall_s"])["layers"])
    out["trace.overhead_s"] = out["trace.wall_s"] - min(p["wall_s"] - p["handler_s"] for p in plain)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "brieskorn" / "__init__.py").is_file():
        print(f"error: no brieskorn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        passes, setups = measure(args)
        plain = [p for p in passes if p["mode"] == "plain"]
        if args.trace:
            values = per_layer(plain, [p for p in passes if p["mode"] == "traced"])
        else:
            values = end_to_end(plain, setups)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            print(f"wrong output ({p['mode']} pass): {error}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
    print(
        f"plain wall, not corrected for host speed: median "
        f"{statistics.median(p['wall_s'] for p in plain):.6g} s over {len(plain)} passes"
    )
    print(
        f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations); "
        f"{len(plain)} plain and {len(passes) - len(plain)} traced passes; "
        f"{len(setups)} set-up samples"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
