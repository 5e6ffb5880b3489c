"""Spans around the package's public functions, recorded from outside it.

Nothing in `src/` knows about tracing. `Tracer.install` replaces each
listed function, in every `brieskorn.*` module that holds a binding to it,
with a wrapper that records one span per call. Spans stay in memory until
the pass ends; `layer_metrics` then turns them into per-layer self times
and counters, and `write_spans` writes them out.

A span is a list `[name, start, end, parent]`, where `parent` is the index
of the enclosing span or -1. A call is single-threaded and nested, so a
span's children never overlap each other.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter


def rebind(original, replacement) -> None:
    """Point every `brieskorn.*` module binding of `original` at `replacement`.

    Modules import each other's functions by name, so patching only the
    defining module would miss the calls that matter.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "brieskorn" or name.startswith("brieskorn.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -------------------------------------------------------------- counters
#
# Each hook runs after its span has closed and adds counts derived from the
# call's arguments and result, so the count is made where the work happens.


def _count_hook(counts, args, kwargs, result):
    from brieskorn.limits import DEFAULT_LIMITS

    base, bound = args[0], args[1]
    limits = args[3] if len(args) > 3 else kwargs.get("limits", DEFAULT_LIMITS)
    # Mirrors the kernel's rule: the direct sieve runs when the candidate
    # range ceil(bound/base) - 1 is within limits.direct_count_limit.
    if (bound + base - 1) // base - 1 <= limits.direct_count_limit:
        counts["exactarith.count.direct_run"] += 1
    else:
        counts["exactarith.count.direct_skipped"] += 1


def _mean_euler_hook(counts, args, kwargs, result):
    counts["reeb.strata"] += len(result.strata)


def _enumerate_hook(counts, args, kwargs, result):
    counts["certify.enumerate.spheres"] += len(result)


def _pairs_hook(counts, args, kwargs, result):
    tuples = args[0] if args else kwargs["tuples"]
    distinct = len({tuple(sorted(t.entries)) for t in tuples})
    counts["certify.pairs.attempted"] += distinct * (distinct + 1) // 2
    counts["certify.pairs.certificates"] += len(result)


def _write_hook(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["certify.write.bytes"] += os.path.getsize(path)


def _read_hook(counts, args, kwargs, result):
    counts["certify.read.lines"] += len(result)


# (layer, module, function, hook). Layers are named after the modules.
TARGETS = (
    ("exactarith.count", "brieskorn.exactarith", "count_multiples_avoiding", _count_hook),
    ("topology.kappa", "brieskorn.topology", "kappa", None),
    ("topology.criterion", "brieskorn.topology", "evaluate_criterion", None),
    ("reeb.periods", "brieskorn.reeb", "reeb_periods", None),
    ("reeb.frequencies", "brieskorn.reeb", "frequencies", None),
    ("reeb.mean_euler", "brieskorn.reeb", "mean_euler", _mean_euler_hook),
    ("reeb.connected_sum", "brieskorn.reeb", "connected_sum_chi", None),
    ("certify.enumerate", "brieskorn.certify", "enumerate_sphere_tuples", _enumerate_hook),
    ("certify.pairs", "brieskorn.certify", "certify_non_brieskorn_pairs", _pairs_hook),
    ("certify.write", "brieskorn.certify", "write_certificates", _write_hook),
    ("certify.read", "brieskorn.certify", "read_certificates", _read_hook),
    ("families.sigma", "brieskorn.families", "sigma_family_rows", None),
    ("families.sigma", "brieskorn.families", "sigma_family_report", None),
    ("families.fermat", "brieskorn.families", "fermat_asymptotics_report", None),
    ("verify.suite", "brieskorn.verify", "run_reproduction_suite", None),
    ("cli.main", "brieskorn.cli", "main", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
COUNTERS = (
    "exactarith.count.direct_run",
    "exactarith.count.direct_skipped",
    "reeb.strata",
    "certify.enumerate.spheres",
    "certify.pairs.attempted",
    "certify.pairs.certificates",
    "certify.write.bytes",
    "certify.read.lines",
)


class Tracer:
    """Records nested spans for one pass of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target function that the imported package defines."""
        for layer, module_name, attr, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if callable(original):
                wrapper = self.wrap(layer, original, hook)
                rebind(original, wrapper)
                self._installed.append((original, wrapper))

    def uninstall(self) -> None:
        """Restore the bindings `install` replaced."""
        while self._installed:
            original, wrapper = self._installed.pop()
            rebind(wrapper, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, wall_s: float, kappa_cache_info=None) -> dict[str, float]:
    """Per-layer counters and self times of one traced pass.

    The self times of all spans plus `trace.unspanned_s` add up to `wall_s`.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += own
    rooted = sum(span[2] - span[1] for span in spans if span[3] < 0)
    mean_euler_ms = [(span[2] - span[1]) * 1000 for span in spans if span[0] == "reeb.mean_euler"]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update((name, tracer.counts[name]) for name in COUNTERS)
    count_calls = calls["exactarith.count"]
    out["exactarith.count.direct_run_ratio"] = (
        out["exactarith.count.direct_run"] / count_calls if count_calls else 0.0
    )
    attempted = out["certify.pairs.attempted"]
    out["certify.pairs.hit_ratio"] = (
        out["certify.pairs.certificates"] / attempted if attempted else 0.0
    )
    if len(mean_euler_ms) >= 2:
        out["reeb.mean_euler.p50_ms"] = statistics.median(mean_euler_ms)
        out["reeb.mean_euler.p90_ms"] = statistics.quantiles(
            mean_euler_ms, n=10, method="inclusive"
        )[8]
    else:
        out["reeb.mean_euler.p50_ms"] = out["reeb.mean_euler.p90_ms"] = 0.0
    hits, misses = kappa_cache_info if kappa_cache_info else (0, 0)
    out["topology.kappa.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.unspanned_s"] = wall_s - rooted
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(selfs)
    return out


def write_spans(tracer: Tracer, pass_index: int, path) -> None:
    """Append the pass's spans as JSON lines: run, pass, id, name, start, end, parent."""
    with open(path, "a", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps([tracer.run_id, pass_index, i, name, start, end, parent]))
            fh.write("\n")
