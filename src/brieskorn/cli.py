"""Command-line front end.

Every command prints a human-readable summary by default and a single JSON
envelope on stdout with `--json`; diagnostics go to stderr. Exit codes:
0 success, 1 internal or capacity failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .certify import (
    certificate_to_obj,
    certify_non_brieskorn_pairs,
    enumerate_sphere_tuples,
    write_certificates,
)
from .errors import BrieskornError, CapacityError, InvalidInputError
from .families import closed_form_checks, fermat_asymptotics_report, sigma_family_rows
from .limits import Limits, limits_from_env
from .reeb import connected_sum_chi, mean_euler
from .serialize import fraction_obj
from .topology import ExponentTuple, build_graph, evaluate_criterion, kappa, chi_s1
from .verify import run_reproduction_suite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2


def _parse_int_token(token: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise InvalidInputError(f"not an integer: {token!r}") from None


def _parse_tuple_tokens(tokens: list[str]) -> ExponentTuple:
    """Accept `4 5 9 19` as well as `4,5,9,19` (and mixtures)."""
    entries = []
    for token in tokens:
        for piece in token.split(","):
            if piece:
                entries.append(_parse_int_token(piece))
    return ExponentTuple(tuple(entries))


def _tuple_json(t: ExponentTuple) -> list[str]:
    return [str(e) for e in t.entries]


def _opt_fraction_json(q: Fraction | None):
    return None if q is None else fraction_obj(q)


def _envelope(command: str, input_obj: dict, result: dict, warnings: list[str]) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "input": input_obj,
        "result": result,
        "warnings": warnings,
    }


def _emit(args, envelope: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        for line in human_lines:
            print(line)


def _limits_from_args(args) -> Limits:
    return limits_from_env().with_overrides(
        subset_cap=args.cap_subsets, fermat_cap=args.cap_fermat
    )


# ---------------------------------------------------------------- commands


def _cmd_criterion(args) -> int:
    t = _parse_tuple_tokens(args.entries)
    verdict = evaluate_criterion(t)
    graph = build_graph(t)

    comp_strs = [
        "{" + ", ".join(f"a_{i}={t.entries[i]}" for i in sorted(c)) + "}"
        for c in graph.components
    ]
    ec = sorted(graph.even_component)
    human = [
        f"tuple:            {t}",
        f"verdict:          {verdict.kind.value}",
        f"components:       {' '.join(comp_strs)}",
        f"isolated points:  "
        + (", ".join(f"a_{i}={t.entries[i]}" for i in verdict.isolated_points) or "none"),
        f"even component:   "
        + (("{" + ", ".join(f"a_{i}={t.entries[i]}" for i in ec) + "}"
            + f" size {len(ec)}, pairwise gcd 2: {verdict.even_component_pairwise_gcd2}")
           if ec else "empty"),
    ]
    result = {
        "tuple": _tuple_json(t),
        "verdict": verdict.kind.value,
        "is_sphere": verdict.is_sphere,
        "components": [sorted(c) for c in graph.components],
        "isolated_points": list(verdict.isolated_points),
        "even_component": {
            "indices": ec,
            "size": verdict.even_component_size,
            "pairwise_gcd2": verdict.even_component_pairwise_gcd2,
        },
    }
    _emit(args, _envelope("criterion", {"tuple": _tuple_json(t)}, result, []), human)
    return EXIT_OK


def _stratum_json(s) -> dict:
    return {
        "period": str(s.period),
        "indices": list(s.indices),
        "subtuple": _tuple_json(s.subtuple),
        "m_t": s.m_t,
        "dim": s.dim,
        "quotient_dim": s.quotient_dim,
        "mu_rs": str(s.mu_rs),
        "chi_s1": str(s.chi_s1),
        "frequency": str(s.frequency),
    }


def _cmd_invariants(args) -> int:
    limits = _limits_from_args(args)
    t = _parse_tuple_tokens(args.entries)
    report = mean_euler(t, limits)
    k = kappa(t, limits)
    chi = chi_s1(t, limits)

    chi_m_str = str(report.value) if report.defined else "undefined (mu_RS = 0)"
    human = [
        f"tuple:           {t}   (n = {t.n}, manifold dimension {t.dimension})",
        f"d (lcm):         {t.d}",
        f"kappa:           {k}",
        f"chi_S1:          {chi}",
        f"total mu_RS:     {report.total_index}",
        f"chi_m:           {chi_m_str}",
    ]
    if args.strata:
        human.append("strata (period, subtuple, dim, mu_RS, frequency, chi_S1):")
        for s in report.strata:
            human.append(
                f"  T={s.period:<12} b={str(s.subtuple):<24} dim={s.dim:<3} "
                f"mu_RS={s.mu_rs:<8} phi={s.frequency:<8} chi_S1={s.chi_s1}"
            )
    result = {
        "tuple": _tuple_json(t),
        "n": t.n,
        "dimension": t.dimension,
        "d": str(t.d),
        "kappa": str(k),
        "chi_s1": str(chi),
        "total_mu_rs": str(report.total_index),
        "chi_m_defined": report.defined,
        "chi_m": _opt_fraction_json(report.value),
    }
    if args.strata:
        result["strata"] = [_stratum_json(s) for s in report.strata]
    _emit(args, _envelope("invariants", {"tuple": _tuple_json(t), "strata": bool(args.strata)},
                          result, []), human)
    return EXIT_OK


def _cmd_sum(args) -> int:
    limits = _limits_from_args(args)
    groups: list[list[str]] = [[]]
    for token in args.entries:
        if token == "+":
            groups.append([])
        else:
            groups[-1].append(token)
    tuples = [_parse_tuple_tokens(g) for g in groups if g]
    if not tuples:
        raise InvalidInputError("no tuples given")
    for t in tuples:
        if t.length != 4:
            raise InvalidInputError(
                f"connected sums are computed in dimension 5 (4-tuples); got {t} "
                f"of length {t.length}"
            )
    values = []
    for t in tuples:
        report = mean_euler(t, limits)
        if not report.defined:
            raise InvalidInputError(
                f"mean Euler characteristic of {t} is undefined (total index 0)"
            )
        values.append(report.value)
    total = connected_sum_chi(values, n=3)
    certified = total <= 0

    human = [f"summand {i}: {t}  chi_m = {v}" for i, (t, v) in enumerate(zip(tuples, values))]
    human.append(f"connected sum chi_m = {total}")
    if certified:
        human.append(
            "certified non-Brieskorn: every 5-dimensional Brieskorn sphere has "
            "chi_m > 0, and this sum is "
            + ("0" if total == 0 else "negative")
        )
    result = {
        "n": 3,
        "dimension": 5,
        "summands": [
            {"tuple": _tuple_json(t), "chi_m": fraction_obj(v)}
            for t, v in zip(tuples, values)
        ],
        "chi_sum": fraction_obj(total),
        "certified_non_brieskorn": certified,
        "boundary": total == 0,
    }
    _emit(args, _envelope("sum", {"tuples": [_tuple_json(t) for t in tuples]}, result, []), human)
    return EXIT_OK


def _family_row_json(row) -> dict:
    return {
        "m": str(row.parameter),
        "tuple": _tuple_json(row.exponents),
        "verdict": row.verdict.kind.value,
        "pairwise_coprime": row.pairwise_coprime,
        "chi_m": _opt_fraction_json(row.chi_m),
        "closed_form": _opt_fraction_json(row.closed_form),
        "agrees": row.agrees,
    }


def _cmd_family(args) -> int:
    limits = _limits_from_args(args)
    if args.kind == "sigma-m":
        if args.m_from is None or args.m_to is None:
            raise InvalidInputError("family sigma-m needs --from and --to")
        rows = sigma_family_rows(args.m_from, args.m_to, limits)
        agreement, decreasing = closed_form_checks(rows)
        human = []
        for r in rows:
            closed = str(r.closed_form) if r.closed_form is not None else "n/a (3 | m)"
            mark = {True: "ok", False: "MISMATCH", None: "-"}[r.agrees]
            human.append(
                f"m={r.parameter:<5} {str(r.exponents):<28} {r.verdict.kind.value:<12} "
                f"chi_m={str(r.chi_m):<18} closed={closed:<18} agreement: {mark}"
            )
        human.append(
            f"summary: closed-form agreement {agreement}, strictly decreasing "
            f"over coprime parameters {decreasing}"
        )
        result = {
            "family": "sigma-m",
            "rows": [_family_row_json(r) for r in rows],
            "closed_form_agreement": agreement,
            "strictly_decreasing": decreasing,
        }
        input_obj = {"family": "sigma-m", "from": str(args.m_from), "to": str(args.m_to)}
    else:  # fermat
        if args.ell is None or args.n is None:
            raise InvalidInputError("family fermat needs --ell and --n")
        scan = 1 if args.scan is None else args.scan
        ells = list(range(args.ell, args.ell + scan))
        report = fermat_asymptotics_report(ells, args.n, limits)
        human = []
        for r in report.rows:
            human.append(
                f"l={r.ell:<3} tuple={r.exponents}  chi_m={r.chi_m}  "
                f"|ratio-1|={r.ratio_error}  in (0,1/4): {r.in_interval}  "
                f"self-sum negative: {r.self_sum_sign_negative}"
            )
        human.append(
            f"summary: ratio error strictly decreasing {report.ratio_error_strictly_decreasing}, "
            f"first index in (0,1/4): {report.first_in_interval}"
        )
        result = {
            "family": "fermat",
            "n": args.n,
            "rows": [
                {
                    "ell": r.ell,
                    "tuple": _tuple_json(r.exponents),
                    "chi_m": fraction_obj(r.chi_m),
                    "signed_chi": fraction_obj(r.signed_chi),
                    "ratio": fraction_obj(r.ratio),
                    "ratio_error": fraction_obj(r.ratio_error),
                    "in_interval": r.in_interval,
                    "self_sum": fraction_obj(r.self_sum),
                    "self_sum_sign_negative": r.self_sum_sign_negative,
                }
                for r in report.rows
            ],
            "ratio_error_strictly_decreasing": report.ratio_error_strictly_decreasing,
            "first_in_interval": report.first_in_interval,
            "in_interval_from_first_on": report.in_interval_from_first_on,
        }
        input_obj = {
            "family": "fermat",
            "ell": str(args.ell),
            "n": str(args.n),
            "scan": str(scan),
        }
    _emit(args, _envelope("family", input_obj, result, []), human)
    return EXIT_OK


def _cmd_search(args) -> int:
    limits = _limits_from_args(args)
    spheres = enumerate_sphere_tuples(args.max_exponent, 4, limits)
    certs = certify_non_brieskorn_pairs(spheres, limits)
    boundary = sum(1 for c in certs if c.boundary)
    pairs = len(spheres) * (len(spheres) + 1) // 2
    # one JSON object per certificate serves both the file and the envelope
    objs = write_certificates(certs, args.out) if args.out else list(map(certificate_to_obj, certs))

    human = [
        f"sphere tuples with entries in [2, {args.max_exponent}]: {len(spheres)}",
        f"unordered pairs checked: {pairs}",
        f"non-Brieskorn certificates: {len(certs)} ({boundary} boundary cases)",
    ]
    if args.out:
        human.append(f"certificates written to {args.out}")
    result = {
        "max_exponent": args.max_exponent,
        "sphere_tuples": len(spheres),
        "pairs_checked": pairs,
        "certificates": len(certs),
        "boundary": boundary,
        "out": args.out,
        "certificate_list": objs,
    }
    _emit(args, _envelope("search", {"max_exponent": str(args.max_exponent),
                                     "out": args.out}, result, []), human)
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    limits = _limits_from_args(args)
    suite = run_reproduction_suite(limits)
    human = []
    for c in suite.checks:
        status = "PASS" if c.passed else "FAIL"
        human.append(f"{status}  item {c.item:>2}  {c.name}  ({c.seconds:.2f}s)")
        human.append(f"       {c.detail}")
    human.append(
        f"{'all items passed' if suite.all_passed else 'SOME ITEMS FAILED'} "
        f"in {suite.total_seconds:.2f}s"
    )
    result = {
        "items": [
            {
                "item": c.item,
                "name": c.name,
                "passed": c.passed,
                "detail": c.detail,
                "seconds": round(c.seconds, 3),
            }
            for c in suite.checks
        ],
        "all_passed": suite.all_passed,
        "total_seconds": round(suite.total_seconds, 3),
    }
    _emit(args, _envelope("verify-paper", {}, result, []), human)
    return EXIT_OK if suite.all_passed else EXIT_INTERNAL


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON envelope on stdout")
    common.add_argument("--cap-subsets", type=int, default=None, metavar="N",
                        help="max tuple length for 2^L subset enumerations")
    common.add_argument("--cap-fermat", type=int, default=None, metavar="N",
                        help="max Fermat index")

    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description="Exact topological and contact invariants of Brieskorn manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criterion", parents=[common],
                       help="apply the sphere criterion to an exponent tuple")
    p.add_argument("entries", nargs="+", help="tuple entries (space or comma separated)")
    p.set_defaults(fn=_cmd_criterion)

    p = sub.add_parser("invariants", parents=[common],
                       help="homology rank, Euler characteristics and chi_m")
    p.add_argument("entries", nargs="+", help="tuple entries (space or comma separated)")
    p.add_argument("--strata", action="store_true", help="include the period strata table")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("sum", parents=[common],
                       help="mean Euler characteristic of a contact connected sum")
    p.add_argument("entries", nargs="+",
                   help="tuples separated by '+', e.g. 4,5,9,19 + 4,5,9,19")
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("family", parents=[common], help="scan a parametric family")
    p.add_argument("kind", choices=["sigma-m", "fermat"])
    p.add_argument("--from", dest="m_from", type=int, default=None, metavar="M")
    p.add_argument("--to", dest="m_to", type=int, default=None, metavar="M")
    p.add_argument("--ell", type=int, default=None, metavar="L")
    p.add_argument("--n", type=int, default=None, metavar="N")
    p.add_argument("--scan", type=int, default=None, metavar="K",
                   help="number of consecutive Fermat indices to scan")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("search", parents=[common],
                       help="enumerate sphere tuples and certify non-Brieskorn sums")
    p.add_argument("--max-exponent", type=int, required=True, metavar="A")
    p.add_argument("--out", default=None, metavar="FILE.jsonl",
                   help="write certificates as JSONL")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="run the full reproduction suite (items 1-11)")
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrieskornError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())
