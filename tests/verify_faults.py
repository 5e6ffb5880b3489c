"""Planted faults for the reproduction suite, at least one per verify-paper item.

A case replaces one library function that its item reads with a faulty
version, in every `brieskorn` module that holds a binding to it, and runs
`brieskorn verify-paper --json` on that item and on the items whose records
it reads. The item must report FAIL and the command must exit 1. The table
lives outside the test files so that a `python -O` interpreter can run it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

import brieskorn.verify
from brieskorn.cli import main
from brieskorn.exactarith import IntPolynomial
from brieskorn.limits import DEFAULT_LIMITS


def _first_stratum(field: str, change=lambda value: value + 1):
    # `_build_strata` with one field of its first stratum changed, by default
    # moved by one, and its numerator kept
    def fault(honest):
        def build(a, lattice):
            strata, numerator = honest(a, lattice)
            first = strata[0]
            changed = first._replace(**{field: change(getattr(first, field))})
            return (changed,) + strata[1:], numerator
        return build
    return fault


def _numerator_off_by_one_at_length_six(honest):
    # `_build_strata` with its strata kept and the numerator of every 6-entry
    # tuple moved by one: the value `mean_euler` reports, and nothing else
    def build(a, lattice):
        strata, numerator = honest(a, lattice)
        return strata, numerator + (a.length == 6)
    return build


def _planted_kappa(mask: int, value: int):
    # the table of the sphere (4, 5, 9, 19) gets kappa `value` on the positions in `mask`
    def fault(honest):
        def chunk(rows):
            tables = honest(rows)
            for entries, (_, _, kap) in zip(rows, tables):
                if entries == (4, 5, 9, 19):
                    kap[mask] = value
            return tables
        return chunk
    return fault


def _negated_at_reference(honest):
    # the lattice sum of the sphere (4, 5, 9, 19) with its sign flipped
    def value(a, lattice):
        out = honest(a, lattice)
        return -out if a.entries == (4, 5, 9, 19) else out
    return value


def _chi_m_shifted(honest):
    return lambda a, limits: honest(a, limits) + Fraction(1, 10**6)


def _table_chi_m_shifted(honest):
    # `reeb._chi_m`, which reads the value off a table already built
    return lambda a, lattice: honest(a, lattice) + Fraction(1, 10**6)


def _frequency_off_by_one(honest):
    # in every table, the first closed subset of two or more positions below
    # the top gets one more multiple
    def chunk(rows):
        tables = honest(rows)
        for _, freq, _ in tables:
            J = next((J for J in range(len(freq) - 1) if freq[J] and J & (J - 1)), None)
            if J is not None:
                freq[J] += 1
        return tables
    return chunk


def _top_frequency_off_by_one(honest):
    # in every table, the whole tuple gets one more multiple than d itself
    def chunk(rows):
        tables = honest(rows)
        for _, freq, _ in tables:
            freq[-1] += 1
        return tables
    return chunk


def _oracle_off_by_one(honest):
    # an item 8 oracle that moves the first frequency of the periods of the
    # sphere (4, 5, 9, 19), whose top period is 3420, by one
    def oracle(periods):
        out = honest(periods)
        if periods[-1] == 3420:
            out[0] += 1
        return out
    return oracle


# (name, item, items whose records it reads, "module.function", fault(honest) -> faulty)
FAULTS = [
    ("closed-form-of-sigma4", 1, (), "brieskorn.reeb.mean_euler_coprime",
     lambda honest: lambda a: honest(a) + 1),
    ("lattice-chi-m-sigma4", 1, (), "brieskorn.reeb.chi_m", _chi_m_shifted),
    ("closed-form-at-m7", 2, (), "brieskorn.families.sigma_m_closed_form",
     lambda honest: lambda m: honest(m) + (m == 7)),
    ("lattice-chi-m-family", 2, (), "brieskorn.reeb._chi_m", _table_chi_m_shifted),
    ("connected-sum", 3, (), "brieskorn.reeb.connected_sum_chi",
     lambda honest: lambda values, n: honest(values, n) - Fraction(1, 10**6)),
    ("summand-chi", 3, (), "brieskorn.certify.sphere_chi",
     lambda honest: lambda t, what, limits: honest(t, what, limits) + Fraction(1, 10**6)),
    ("derivative-combination", 4, (), "brieskorn.families.derivative_combination",
     lambda honest: lambda: IntPolynomial((honest().coeffs[0] + 1,) + honest().coeffs[1:])),
    ("dominance-margin", 5, (), "brieskorn.exactarith.dominance_margin",
     lambda honest: lambda p, radius: (honest(p, radius)[0], honest(p, radius)[1] + 1)),
    ("stratum-index-parity", 6, (), "brieskorn.reeb._build_strata",
     _first_stratum("mu_rs")),
    # a stratum off its lattice row: the lattice sum does not see it
    ("stratum-chi-s1", 6, (), "brieskorn.reeb._build_strata", _first_stratum("chi_s1")),
    # the first position dropped, m_t kept: only the division route sees it
    ("stratum-positions", 6, (), "brieskorn.reeb._build_strata",
     _first_stratum("indices", lambda indices: indices[1:])),
    ("strata-numerator", 6, (), "brieskorn.reeb._build_strata",
     _numerator_off_by_one_at_length_six),
    ("triple-kappa", 7, (), "brieskorn.topology._lattice_chunk", _planted_kappa(0b0111, 1)),
    ("pair-chi-s1", 7, (), "brieskorn.topology._lattice_chunk", _planted_kappa(0b0011, -2)),
    ("sphere-chi-m-sign", 7, (), "brieskorn.reeb._chi_m", _negated_at_reference),
    ("lattice-frequency", 8, (6, 7), "brieskorn.topology._lattice_chunk",
     _frequency_off_by_one),
    # the top stratum's frequency, read off the table like any other
    ("lattice-top-frequency", 8, (6, 7), "brieskorn.topology._lattice_chunk",
     _top_frequency_off_by_one),
    ("recurrence-frequency", 8, (6, 7), "brieskorn.verify._recurrence_frequencies",
     _oracle_off_by_one),
    ("direct-count-frequency", 8, (6, 7), "brieskorn.verify._direct_frequencies",
     _oracle_off_by_one),
    ("fermat-number", 9, (), "brieskorn.families.fermat_number",
     lambda honest: lambda k, limits: honest(k, limits) + 2 * (k == 5)),
    # far below what the asymptotic checks resolve: only the general route sees it
    ("fermat-closed-form", 9, (), "brieskorn.families.mean_euler_coprime",
     lambda honest: lambda t: honest(t) + Fraction(1, 10**60)),
    ("total-index", 10, (), "brieskorn.reeb.total_rs_index", lambda honest: lambda a: 0),
    ("isolated-exponent", 10, (), "brieskorn.reeb.has_isolated_exponent",
     lambda honest: lambda a: True),
    ("stratum-frequency", 11, (), "brieskorn.reeb._build_strata",
     _first_stratum("frequency")),
]


def replace_everywhere(patch: pytest.MonkeyPatch, honest, replacement) -> None:
    """Point every `brieskorn` module binding of `honest` at `replacement`.

    Modules import each other's functions by name, so patching only the
    defining module would miss the calls that matter.
    """
    for loaded, module in list(sys.modules.items()):
        if loaded.split(".")[0] == "brieskorn":
            for attr, value in list(vars(module).items()):
                if value is honest:
                    patch.setattr(module, attr, replacement)


def run_case(case, planted: bool = True) -> tuple[bool, int]:
    """The item's `passed` flag and the exit code of `verify-paper --json`,
    run on the case's item and the items it needs, with the fault planted
    or not."""
    _, item, needs, target, fault = case
    module_name, name = target.rsplit(".", 1)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(brieskorn.verify, "_ITEMS",
                      [entry for entry in brieskorn.verify._ITEMS if entry[0] in (*needs, item)])
        if planted:
            honest = getattr(sys.modules[module_name], name)
            replace_everywhere(patch, honest, fault(honest))
        with contextlib.redirect_stdout(out):
            code = main(["verify-paper", "--json"])
    items = json.loads(out.getvalue())["result"]["items"]
    return {r["item"]: r["passed"] for r in items}[item], code


if __name__ == "__main__":
    # one line per case: its id, the item's passed flag and the exit code
    for case in FAULTS:
        print(json.dumps([case[0], *run_case(case)]))
