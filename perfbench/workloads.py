"""Inputs, one pass, and the output checks of each benchmark workload.

A pass is what one user invocation does: one `search` command and a read
back of its certificate file, one sweep of `mean_euler` over a tuple list,
or one reproduction suite. `worker.py` runs each pass in a fresh
interpreter, so caches start cold as they do for a user.

Every check compares against references frozen from the program by
`freeze.py` (`reference.json`, `strata_pool.json`) or against an
independent route computed after the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from speed import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("search", "strata", "verify_paper")

SEARCH_MAX_EXPONENT = 12
HALF = Fraction(1, 2)

# Tuples drawn per pass from each (length, kind) class of the frozen pool,
# which holds POOL_PER_DRAW times as many. Costs within a class differ up to
# 40-fold, so the draw is stratified: the class is sorted by frozen cost and
# one tuple is taken from each run of POOL_PER_DRAW neighbours. Every seed
# then gets other tuples but the same cost profile, which keeps wall time
# and the latency percentiles steady across seeds.
STRATA_PER_LENGTH = {4: 20, 5: 15, 6: 10, 7: 8, 8: 5, 9: 3, 10: 2}
POOL_PER_DRAW = 3
FIRST_TEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
FERMAT_F2_F5 = (17, 257, 65537, 4294967297)
STRATA_ANCHORS = {
    (4, 5, 9, 19): Fraction(407, 2642),
    (2, 3, 5): Fraction(-9, 2),
    FIRST_TEN_PRIMES: None,
    FERMAT_F2_F5: None,
}


def load_json(name: str):
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def fraction_text(q: Fraction | None) -> str | None:
    return None if q is None else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------- inputs


def strata_inputs(seed: int, pool: list[dict]) -> list[dict]:
    """The seed's tuple list: anchors plus a fixed number from each class.

    Each item is a pool entry: {"entries", "coprime", "chi", "strata", "cost_ms"}.
    """
    rng = random.Random(seed)
    by_class: dict[tuple[int, bool], list[dict]] = {}
    anchors = []
    for item in pool:
        if item.get("anchor"):
            anchors.append(item)
        else:
            by_class.setdefault((len(item["entries"]), item["coprime"]), []).append(item)
    chosen = list(anchors)
    for length in sorted(STRATA_PER_LENGTH):
        for coprime in (True, False):
            ranked = sorted(by_class[(length, coprime)], key=lambda item: item["cost_ms"])
            for i in range(0, len(ranked), POOL_PER_DRAW):
                chosen.append(rng.choice(ranked[i : i + POOL_PER_DRAW]))
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------- search


class ByteSink(io.TextIOBase):
    """Stdout replacement that counts the bytes written and keeps the text."""

    def __init__(self):
        self.parts: list[str] = []
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        self.bytes += len(s.encode("utf-8"))
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


def search_pass(max_exponent: int, out_path: Path, stopwatch=None) -> tuple[float, dict]:
    """`brieskorn search --max-exponent A --out F --json`, then read F back.

    Each pass function times its work with `stopwatch` (a fresh
    `speed.Stopwatch` by default) and returns (its wall time, the outputs).
    """
    import brieskorn.cli

    sink = ByteSink()
    stopwatch = stopwatch or Stopwatch()
    with stopwatch:
        with redirect_stdout(sink):
            code = brieskorn.cli.main(
                ["search", "--max-exponent", str(max_exponent), "--out", str(out_path), "--json"]
            )
        certificates = read_back(out_path)
    return stopwatch.wall, {"code": code, "sink": sink, "certificates": certificates}


def read_back(path: Path):
    """`read_certificates(path)`, or the error it raised."""
    import brieskorn.certify
    from brieskorn.errors import BrieskornError

    try:
        return brieskorn.certify.read_certificates(path)
    except BrieskornError as exc:
        return exc


def certificate_errors(certificates) -> list[str]:
    """Each certificate must satisfy chi_sum == chi_a + chi_b - 1/2 <= 0."""
    errors = []
    for lineno, c in enumerate(certificates, start=1):
        if c.chi_sum != c.chi_a + c.chi_b - HALF:
            errors.append(f"certificate {lineno}: chi_sum {c.chi_sum} != chi_a + chi_b - 1/2")
        elif c.chi_sum > 0:
            errors.append(f"certificate {lineno}: chi_sum {c.chi_sum} > 0")
    return errors


def check_search(out: dict, out_path: Path, reference: dict | None) -> list[str]:
    """Errors in one search pass; `reference` None skips the frozen counts."""
    if out["code"] != 0:
        return [f"search exited with code {out['code']}"]
    certificates = out["certificates"]
    if isinstance(certificates, Exception):
        return [f"reading the certificates back failed: {certificates}"]
    result = json.loads(out["sink"].text())["result"]
    errors = certificate_errors(certificates)
    boundary = sum(1 for c in certificates if c.boundary)
    if len(certificates) != result["certificates"] or boundary != result["boundary"]:
        errors.append("certificates read back disagree with the envelope counts")
    if reference is not None:
        got = {
            "sphere_tuples": result["sphere_tuples"],
            "pairs_checked": result["pairs_checked"],
            "certificates": result["certificates"],
            "boundary": result["boundary"],
            "jsonl_sha256": hashlib.sha256(out_path.read_bytes()).hexdigest(),
        }
        for key, value in got.items():
            if value != reference[key]:
                errors.append(f"search {key} is {value}, reference {reference[key]}")
    return errors


# ---------------------------------------------------------------- strata


def strata_pass(tuples: list, stopwatch=None) -> tuple[float, list]:
    """`mean_euler` once per tuple; an exception is kept as the outcome."""
    import brieskorn.reeb
    from brieskorn.errors import BrieskornError

    outcomes = []
    stopwatch = stopwatch or Stopwatch()
    with stopwatch:
        for t in tuples:
            try:
                outcomes.append(brieskorn.reeb.mean_euler(t))
            except BrieskornError as exc:
                outcomes.append(exc)
    return stopwatch.wall, outcomes


def check_strata(items: list[dict], tuples: list, outcomes: list) -> list[str]:
    """One error per wrong tuple: frozen value and stratum count, the coprime
    closed form, and the paper's anchor values."""
    from brieskorn.reeb import mean_euler_coprime

    errors = []
    for item, t, report in zip(items, tuples, outcomes):
        key = tuple(item["entries"])
        if isinstance(report, Exception):
            errors.append(f"{key}: raised {type(report).__name__}: {report}")
            continue
        wrong = []
        if fraction_text(report.value) != item["chi"]:
            wrong.append(f"chi_m {report.value}, frozen {item['chi']}")
        if len(report.strata) != item["strata"]:
            wrong.append(f"{len(report.strata)} strata, frozen {item['strata']}")
        if item["coprime"] and report.value != mean_euler_coprime(t):
            wrong.append(f"chi_m {report.value} != closed form {mean_euler_coprime(t)}")
        expected = STRATA_ANCHORS.get(key)
        if expected is not None and report.value != expected:
            wrong.append(f"chi_m {report.value}, paper gives {expected}")
        if wrong:
            errors.append(f"{key}: " + "; ".join(wrong))
    return errors


# ---------------------------------------------------------------- verify_paper


def verify_pass(stopwatch=None) -> tuple[float, object]:
    import brieskorn.verify

    stopwatch = stopwatch or Stopwatch()
    with stopwatch:
        suite = brieskorn.verify.run_reproduction_suite()
    return stopwatch.wall, suite


def check_verify(suite, items: int) -> list[str]:
    errors = [f"item {c.item} {c.name} failed: {c.detail}" for c in suite.checks if not c.passed]
    if len(suite.checks) != items:
        errors.append(f"suite ran {len(suite.checks)} items, reference {items}")
    return errors
