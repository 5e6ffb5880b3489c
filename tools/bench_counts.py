"""Exact per-module cost counts of one benchmark pass on two commits.

    python3 tools/bench_counts.py --parent REV --change REV \\
        --workload search|strata|verify_paper [...] [--seed 1] [--out FILE] [--note TEXT]

Each commit is exported with `git archive` into a directory of its own, as
`tools/bench_pairs.py` does. For each workload and side one pass runs in a
fresh interpreter with PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1: the
copy's own `perfbench/workloads.py` builds the inputs, runs its pass
function and checks the outputs, all unchanged; only the pass function is
counted. While it runs, `sys.settrace` with `frame.f_trace_opcodes` counts
the bytecode instructions executed, and `sys.setprofile` the calls made
from Python code, to Python functions (each resumption of a generator
included) and to C functions. Each count goes to the `brieskorn` module of
the frame that runs it (`topology`, `reeb`, ...). A frame of any other
module (`fractions`, `json`, ...) counts for the innermost `brieskorn` frame
below it on the stack, and one with none below for `(outside)`: the
workload's own code.

The counts are exact, so one pass a side suffices, and they do not drift
with the host's speed or the collector's phase. Work inside one C call
counts once, so they say which layer moved and by how much work, not how
much time; a wall-time claim still comes from `bench_pairs.py`.

The record holds, per workload, each side's counts per module and in
total, its output-check errors, and per module and kind the change /
parent ratio (None where the parent counted 0). The command exits 1, after
writing its record, when a pass's output checks fail on either side.

    python3 tools/bench_counts.py --copy DIR --workload W [--seed 1]

runs one counted pass of the checkout at DIR in this interpreter and
prints its counts and errors as one JSON line; the two-commit form starts
it once per workload and side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import SIDES, command_text, export  # noqa: E402

WORKLOADS = ("search", "strata", "verify_paper")
KINDS = ("opcodes", "python_calls", "c_calls")
OUTSIDE = "(outside)"
HASH_SEED = "0"


def owner(frame) -> str:
    """The `brieskorn` module a frame counts for: its own, or that of the
    innermost `brieskorn` frame below it; `(outside)` when there is none."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name == "brieskorn" or name.startswith("brieskorn."):
            return name.rpartition(".")[2]
        frame = frame.f_back
    return OUTSIDE


class Counter:
    """Opcode and call counts per module while `run(fn, *args)` runs."""

    def __init__(self):
        self.modules: dict[str, dict[str, int]] = {}
        self._tracers = {}  # one local trace function per module
        self._labels: dict[int, str] = {}  # id of a running frame -> its module
        self._home = None  # the frame of `run`, whose own calls are not counted

    def _counts(self, label: str) -> dict[str, int]:
        counts = self.modules.get(label)
        if counts is None:
            counts = self.modules[label] = dict.fromkeys(KINDS, 0)
        return counts

    def _trace(self, frame, event, arg):
        # called at each frame's start; its opcodes go to its module
        label = owner(frame)
        local = self._tracers.get(label)
        if local is None:
            counts = self._counts(label)

            def local(frame, event, arg):
                if event == "opcode":
                    counts["opcodes"] += 1
                return local

            self._tracers[label] = local
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def _profile(self, frame, event, arg):
        if event == "call":
            label = self._labels[id(frame)] = owner(frame)
            self._counts(label)["python_calls"] += 1
        elif event == "return":
            self._labels.pop(id(frame), None)
        elif event == "c_call" and frame is not self._home:
            label = self._labels.get(id(frame)) or owner(frame)
            self._counts(label)["c_calls"] += 1

    def run(self, fn, *args):
        """`fn(*args)` with both hooks installed; the hooks it found are
        restored."""
        old_trace, old_profile = sys.gettrace(), sys.getprofile()
        self._home = sys._getframe()
        sys.settrace(self._trace)
        sys.setprofile(self._profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(old_profile)
            sys.settrace(old_trace)

    def summary(self) -> dict:
        """The counts per module, sorted by name, and their total."""
        modules = {label: dict(self.modules[label]) for label in sorted(self.modules)}
        total = {kind: sum(c[kind] for c in modules.values()) for kind in KINDS}
        return {"modules": modules, "total": total}


def counted_pass(copy: Path, workload: str, seed: int) -> dict:
    """One pass of `workload` from the checkout at `copy`, counted, and the
    errors of its output checks."""
    sys.path[:0] = [str(copy / "src"), str(copy / "perfbench")]
    import brieskorn.cli  # noqa: F401  (every module imported before counting)
    import brieskorn.topology
    import workloads as wl

    reference = wl.load_json("reference.json")
    counter = Counter()
    if workload == "strata":
        items = wl.strata_inputs(seed, wl.load_json("strata_pool.json"))
        tuples = [brieskorn.topology.make_tuple(item["entries"]) for item in items]
        _, outcomes = counter.run(wl.strata_pass, tuples)
        errors = wl.check_strata(items, tuples, outcomes)
    elif workload == "search":
        wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
        out_path = wl.OUT_DIR / "search.jsonl"
        _, out = counter.run(wl.search_pass, reference["search"]["max_exponent"], out_path)
        errors = wl.check_search(out, out_path, reference["search"])
    else:
        _, suite = counter.run(wl.verify_pass)
        errors = wl.check_verify(suite, reference["verify_paper"]["items"])
    return {**counter.summary(), "errors": errors}


def run_pass(copy: Path, workload: str, seed: int, hash_seed: str = HASH_SEED) -> dict:
    """`counted_pass` in a fresh interpreter with PYTHONHASHSEED=`hash_seed`."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(Path(__file__).resolve()), "--copy", str(copy),
               "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} pass on {copy} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def label_counts(summary: dict, label: str) -> dict[str, int]:
    """The counts of one module of a pass, or its total; 0 for a module it
    did not run."""
    if label == "total":
        return summary["total"]
    return summary["modules"].get(label, dict.fromkeys(KINDS, 0))


def ratios(parent: dict, change: dict) -> dict:
    """Change / parent per module and kind, and of the totals; None where
    the parent counted 0."""
    labels = [*sorted({*parent["modules"], *change["modules"]}), "total"]
    return {label: {kind: c[kind] / p[kind] if p[kind] else None for kind in KINDS}
            for label in labels
            for p, c in [(label_counts(parent, label), label_counts(change, label))]}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit counted as the base")
    parser.add_argument("--change", help="commit counted against it")
    parser.add_argument("--workload", nargs="+", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="the strata workload's input seed")
    parser.add_argument("--out", default="BENCH_counts.json")
    parser.add_argument("--note", default="", help="free text kept in the record")
    parser.add_argument("--copy", type=Path, default=None,
                        help="count one pass of the checkout at this directory, here")
    args = parser.parse_args(argv)

    if args.copy is not None:
        [workload] = args.workload
        print(json.dumps(counted_pass(args.copy.resolve(), workload, args.seed)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are needed unless --copy is given")

    record = {
        "command": command_text(argv, "tools/bench_counts.py"),
        "note": args.note,
        "seed": args.seed,
        "python": platform.python_version(),
        "hash_seed": HASH_SEED,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_counts_") as work:
        copies = {side: Path(work) / side for side in SIDES}
        for side in SIDES:
            record[side] = {"commit": export(getattr(args, side), copies[side])}
        for workload in args.workload:
            passes = {side: run_pass(copies[side], workload, args.seed) for side in SIDES}
            record["workloads"][workload] = {
                **passes, "ratios": ratios(passes["parent"], passes["change"])}

    failed = []
    for workload, figures in record["workloads"].items():
        for label, r in figures["ratios"].items():
            p, c = (label_counts(figures[side], label) for side in SIDES)
            print(f"{workload} {label}: " + ", ".join(
                f"{kind} {p[kind]} -> {c[kind]}"
                + ("" if r[kind] is None else f" ({r[kind] - 1:+.2%})") for kind in KINDS))
        failed += [f"{workload} {side}: {e}" for side in SIDES
                   for e in figures[side]["errors"]]
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if failed:
        print("output checks failed:\n" + "\n".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
