"""Freeze the benchmark's references from the program as it stands.

    python3 perfbench/freeze.py --commit <hash>

Writes `strata_pool.json`: the tuples the strata workload draws from, with
their exact chi_m, their stratum counts, and their cost on the machine that
froze them. Writes `reference.json`: the search counts and JSONL digest,
and the number of reproduction items. Run it only on a commit whose outputs
are trusted, because every later run is checked against what it writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time

from workloads import (
    HERE,
    OUT_DIR,
    ROOT,
    POOL_PER_DRAW,
    SEARCH_MAX_EXPONENT,
    STRATA_ANCHORS,
    STRATA_PER_LENGTH,
    fraction_text,
    search_pass,
    verify_pass,
)

POOL_SEED = 2642
MAX_ENTRY = 60


def _coprime_entries(rng: random.Random, length: int) -> tuple[int, ...]:
    while True:
        out: list[int] = []
        for _ in range(500):
            x = rng.randint(2, MAX_ENTRY)
            if all(math.gcd(x, y) == 1 for y in out):
                out.append(x)
                if len(out) == length:
                    return tuple(out)


def _shared_entries(rng: random.Random, length: int) -> tuple[int, ...]:
    while True:
        out = tuple(rng.randint(2, MAX_ENTRY) for _ in range(length))
        if any(math.gcd(x, y) > 1 for i, x in enumerate(out) for y in out[i + 1 :]):
            return out


def _cold_cost_ms(t) -> float:
    """Fastest of three `mean_euler(t)` calls, each with an empty kappa cache."""
    import brieskorn.topology
    from brieskorn.reeb import mean_euler

    costs = []
    for _ in range(3):
        brieskorn.topology._kappa_sorted.cache_clear()
        start = time.perf_counter()
        mean_euler(t)
        costs.append(time.perf_counter() - start)
    return round(min(costs) * 1000, 3)


def _pool_item(entries, anchor: bool = False) -> dict:
    from brieskorn.reeb import mean_euler
    from brieskorn.topology import make_tuple, pairwise_coprime

    t = make_tuple(entries)
    report = mean_euler(t)
    item = {
        "entries": list(entries),
        "coprime": pairwise_coprime(t),
        "chi": fraction_text(report.value),
        "strata": len(report.strata),
        "cost_ms": _cold_cost_ms(t),
    }
    if anchor:
        item["anchor"] = True
    return item


def build_pool() -> list[dict]:
    from brieskorn.errors import BrieskornError

    rng = random.Random(POOL_SEED)
    pool = [_pool_item(entries, anchor=True) for entries in STRATA_ANCHORS]
    seen = {tuple(sorted(entries)) for entries in STRATA_ANCHORS}
    for length, count in sorted(STRATA_PER_LENGTH.items()):
        for make in (_coprime_entries, _shared_entries):
            made = 0
            while made < POOL_PER_DRAW * count:
                entries = make(rng, length)
                if tuple(sorted(entries)) in seen:
                    continue
                try:
                    item = _pool_item(entries)
                except BrieskornError:  # a workload must contain no failing operation
                    continue
                seen.add(tuple(sorted(entries)))
                pool.append(item)
                made += 1
    return pool


def search_reference() -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / "freeze-search.jsonl"
    _, out = search_pass(SEARCH_MAX_EXPONENT, out_path)
    if out["code"] != 0:
        raise SystemExit(f"search exited with code {out['code']}")
    result = json.loads(out["sink"].text())["result"]
    reference = {
        "max_exponent": SEARCH_MAX_EXPONENT,
        "sphere_tuples": result["sphere_tuples"],
        "pairs_checked": result["pairs_checked"],
        "certificates": result["certificates"],
        "boundary": result["boundary"],
        "jsonl_sha256": hashlib.sha256(out_path.read_bytes()).hexdigest(),
    }
    out_path.unlink()
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the references come from")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    _, suite = verify_pass()
    if not suite.all_passed:
        raise SystemExit("verify-paper fails; refusing to freeze references")
    pool = build_pool()
    reference = {
        "commit": args.commit,
        "search": search_reference(),
        "verify_paper": {"items": len(suite.checks)},
    }
    (HERE / "strata_pool.json").write_text(
        "[\n" + ",\n".join(json.dumps(item) for item in pool) + "\n]\n", encoding="utf-8"
    )
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"{len(pool)} pool tuples; search {reference['search']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
