"""One pass of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --mode plain|traced|setup

Prints one JSON object as the last line of stdout. `setup_done` is the
CLOCK_MONOTONIC reading once the package is imported and the inputs are
built; run.py subtracts the reading it took before starting this process.
In `setup` mode the worker stops there. A wrong output is reported in the
object; an exception ends the worker with a traceback and a nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import brieskorn.topology  # noqa: E402  (imported first so setup covers it)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedSampler, Stopwatch  # noqa: E402


def _setup(workload: str, seed: int):
    if workload == "strata":
        items = wl.strata_inputs(seed, wl.load_json("strata_pool.json"))
        return items, [brieskorn.topology.make_tuple(item["entries"]) for item in items]
    return None, None


def _kappa_cache_info():
    cached = getattr(brieskorn.topology, "_kappa_sorted", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    return (info.hits, info.misses) if info else None


def attempted_ops(workload: str, tuples, reference: dict) -> int:
    """Operations a pass attempts: one search, one `mean_euler` per tuple,
    one reproduction item."""
    if workload == "search":
        return 1
    if workload == "strata":
        return len(tuples)
    return reference["verify_paper"]["items"]


def run_pass(workload: str, items, tuples, out_path: Path, reference: dict, stopwatch):
    """Run and check one pass, timed by `stopwatch`; return (wall_s, ops,
    errors, stdout bytes).

    `ops` is the work `ops_per_s` divides: pairs decided, strata evaluated,
    reproduction items run.
    """
    if workload == "search":
        wall, out = wl.search_pass(reference["search"]["max_exponent"], out_path, stopwatch)
        errors = wl.check_search(out, out_path, reference["search"])
        return wall, reference["search"]["pairs_checked"], errors, out["sink"].bytes
    if workload == "strata":
        wall, outcomes = wl.strata_pass(tuples, stopwatch)
        errors = wl.check_strata(items, tuples, outcomes)
        return wall, sum(item["strata"] for item in items), errors, 0
    wall, suite = wl.verify_pass(stopwatch)
    items_expected = reference["verify_paper"]["items"]
    return wall, items_expected, wl.check_verify(suite, items_expected), 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--run-id", default="local")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spans", default=None, help="append traced spans to this file")
    args = parser.parse_args()

    reference = wl.load_json("reference.json")
    items, tuples = _setup(args.workload, args.seed)
    result: dict = {"setup_done": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(args.run_id)
        tracer.install()

    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = wl.OUT_DIR / "search.jsonl"
    attempted = attempted_ops(args.workload, tuples, reference)
    # Plain passes give the end-to-end times, so they sample the host's
    # speed; traced passes keep their spans free of the sampler's handler.
    stopwatch = SpeedSampler() if tracer is None else Stopwatch()
    wall, ops, errors, stdout_bytes = run_pass(
        args.workload, items, tuples, out_path, reference, stopwatch
    )
    result.update(
        wall_s=wall,
        speed_wall_s=getattr(stopwatch, "speed_wall", None),
        handler_s=getattr(stopwatch, "handler_s", 0.0),
        ops=ops,
        attempted=attempted,
        failed=min(len(errors), attempted),
        errors=errors[:20],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, wall, _kappa_cache_info())
        layers["cli.stdout_bytes"] = stdout_bytes
        residual = layers.pop("trace.self_sum_s") + layers["trace.unspanned_s"] - wall
        if abs(residual) > 1e-6 * max(1.0, wall):
            result["errors"].append(f"span self times miss the traced wall by {residual:.3g}s")
            result["failed"] = max(result["failed"], 1)
        result["layers"] = layers
        if args.spans:
            tracing.write_spans(tracer, args.pass_index, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
