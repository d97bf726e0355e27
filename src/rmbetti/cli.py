"""Command-line front end.

Subcommands construct codes, print dimension/distance/weight data, emit
Betti tables and purity verdicts, build and check non-purity certificates,
and run verification sweeps; betti and purity print what the one Betti
route, verify.purity_by_betti, returns.  Text output is a convenience; JSON
is the contract (stable field names, deterministic byte-for-byte given the
same arguments, timing excluded under --no-timing).

Exit codes: 0 success/match, 2 bad parameters, 3 guard exceeded or out of
memory, 4 verification failure, 5 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time

import numpy as np

from . import codes, linalg, rm, verify
from .errors import (CertificateError, CrossCheckError, ParameterError,
                     TooLargeError)
from .gf import field

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_TOO_LARGE = 3
EXIT_VERIFICATION = 4
EXIT_CROSS_CHECK = 5


def _guards(args) -> verify.Guards:
    """Default guards, overridden by explicit flags; a negative guard, or
    --jobs below 1, is a parameter error."""
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    overrides = {name: getattr(args, name) for name in ("max_n_betti", "max_enum")
                 if getattr(args, name) is not None}
    for name, value in overrides.items():
        if value < 0:
            raise ParameterError(f"guard {name} must be >= 0, got {value}")
    return dataclasses.replace(verify.DEFAULT_GUARDS, **overrides)


def _report(q, m, r, *, guards, code=None, ghw=None, betti=None, purity=None,
            certificate=None, prediction=None, match=None, details=None):
    return {
        "params": {"q": q, "m": m, "r": r},
        "code": code,
        "ghw": ghw,
        "betti": betti,
        "purity": purity,
        "certificate": certificate,
        "prediction": prediction,
        "match": match,
        "details": details,
        "guards": dataclasses.asdict(guards),
    }


# -- command bodies ----------------------------------------------------------


def _cmd_dim(args, guards):
    """Ranks the generator matrix only: the parity-check matrix of a long
    low-order code would be far larger and no source needs it."""
    q, m, r = args.q, args.m, args.r
    G = rm.generator_matrix(q, r, m)
    n, k = G.shape[1], linalg.rank(field(q), G)
    d = rm.min_distance_formula(q, r, m)
    sources = rm.dimension_sources(q, r, m, G, k)
    agree = len(set(sources.values())) == 1
    report = _report(q, m, r, code={"n": n, "k": k, "d": d}, details=sources,
                     match=agree, guards=guards)
    text = (f"RM_q(r,m) with q={q}, r={r}, m={m}: [{n}, {k}, {d}]\n"
            + "\n".join(f"  {name}: {val}" for name, val in sources.items())
            + f"\n  all sources agree: {agree}")
    return report, text, None, EXIT_OK if agree else EXIT_CROSS_CHECK


def _cmd_distance(args, guards):
    q, m, r = args.q, args.m, args.r
    code = rm.build_code(q, r, m)
    formula = rm.min_distance_formula(q, r, m)
    brute = codes.bruteforce_distance(code, guards.max_enum)
    agree = brute is None or brute == formula
    details = {"formula": formula, "bruteforce": brute,
               "method": codes.distance_source(brute)}
    report = _report(q, m, r, code=verify.code_obj(code), details=details,
                     match=agree, guards=guards)
    text = (f"minimum distance of [{code.n}, {code.k}]_{q}: formula {formula}"
            + (f", brute force {brute}" if brute is not None else " (enumeration skipped)"))
    return report, text, None, EXIT_OK if agree else EXIT_CROSS_CHECK


def _cmd_ghw(args, guards):
    q, m, r = args.q, args.m, args.r
    code = rm.build_code(q, r, m)
    profile = codes.ghw_profile(code)
    report = _report(q, m, r, code=verify.code_obj(code), ghw=list(profile),
                     guards=guards)
    text = "generalized Hamming weights: " + ", ".join(
        f"d_{i + 1}={d}" for i, d in enumerate(profile))
    return report, text, [("i", "d_i"), *enumerate(profile, 1)], EXIT_OK


def _cmd_betti(args, guards):
    q, m, r = args.q, args.m, args.r
    comp = verify.purity_by_betti(q, m, r, guards, args.backend, args.char)
    code, table, verdict = rm.build_code(q, r, m), comp.table, comp.verdict
    report = _report(q, m, r, code=verify.code_obj(code), betti=table.to_json_obj(),
                     purity=dataclasses.asdict(verdict), guards=guards)
    lines = [f"graded Betti numbers of the [{code.n}, {code.k}]_{q} code:"]
    lines += [f"  beta_{{{i},{j}}} = {b}" for i, j, b in table.rows()]
    lines.append(f"  pure: {verdict.pure}" +
                 (f", type {verdict.type}, linear: {verdict.linear}"
                  if verdict.pure else f", violations: {list(verdict.violations)}"))
    return report, "\n".join(lines), [("i", "j", "beta"), *table.rows()], EXIT_OK


def _cmd_purity(args, guards):
    q, m, r = args.q, args.m, args.r
    comp = verify.purity_by_betti(q, m, r, guards)
    predicted = verify.purity_predicate(q, m, r)
    match = comp.verdict.pure == predicted
    report = _report(q, m, r, code=verify.code_obj(rm.build_code(q, r, m)),
                     betti=comp.table.to_json_obj(),
                     purity=dataclasses.asdict(comp.verdict),
                     prediction={"pure_predicted": predicted},
                     match=match, guards=guards)
    text = (f"purity of (q={q}, m={m}, r={r}): computed {comp.verdict.pure}, "
            f"predicted {predicted}, match: {match}")
    return report, text, None, EXIT_OK if match else EXIT_VERIFICATION


def _cmd_certificate(args, guards):
    q, m, r = args.q, args.m, args.r
    cert = verify.non_purity_certificate(q, m, r, guards)
    check = verify.check_certificate(cert, guards)
    report = _report(q, m, r, code=verify.code_obj(rm.build_code(q, r, m)),
                     certificate=cert,
                     prediction={"pure_predicted": verify.purity_predicate(q, m, r)},
                     match=check.ok, guards=guards)
    text = (f"non-purity certificate for (q={q}, m={m}, r={r}): "
            f"witness weight {cert['weight']} > d_1 = {cert['d1']}; "
            f"1-minimal weight {cert['one_minimal_weight']}; "
            f"re-check {'passed' if check.ok else 'FAILED: ' + ', '.join(check.reasons)}")
    return report, text, None, EXIT_OK if check.ok else EXIT_VERIFICATION


# a row's match as a verdict: verify-theorem writes words, verify-mds booleans
_VERDICTS = {"match": True, "mismatch": False, "skipped": None,
             True: True, False: False, None: None}


def _sweep(args, guards, row, *row_args, routes, guard_skipped, cells):
    """Sweep row(q, m, r, guards, *row_args); the report is {params, rows,
    match, guards} and the table a header and, per row, its parameters,
    cells(row) and match.

    The rows' verdicts decide both the exit code and the report's match,
    which is true exactly when the exit code is 0.  A sweep that decides no
    row has nothing to mismatch: it exits 3 when a guard skipped a row and 2
    when none of the requested routes applies to any row.
    """
    rows = verify.sweep(row, args.q, args.m, None if args.r_all else args.r,
                        guards, *row_args, jobs=args.jobs)
    verdicts = [_VERDICTS[row["match"]] for row in rows]
    skipped = sum(map(guard_skipped, rows))
    if False in verdicts:
        exit_code = EXIT_VERIFICATION
    elif True in verdicts:
        exit_code = EXIT_OK
    elif skipped:
        _print_too_large(f"no row was decided: a guard skipped {skipped} "
                         f"of {len(rows)} rows of (q={args.q}, m={args.m})")
        exit_code = EXIT_TOO_LARGE
    else:
        print(f"error: no requested route ({', '.join(routes)}) applies to "
              f"any row of (q={args.q}, m={args.m})", file=sys.stderr)
        exit_code = EXIT_PARAMS
    report = {"params": {"q": args.q, "m": args.m,
                         "r": "all" if args.r_all else args.r},
              "rows": rows,
              "match": exit_code == EXIT_OK,
              "guards": dataclasses.asdict(guards)}
    table = [("q", "m", "r", "n", "k", "d", "predicted", "computed",
              "certificate_ok", "match"),
             *((row["params"]["q"], row["params"]["m"], row["params"]["r"],
                row["code"]["n"], row["code"]["k"], row["code"]["d"],
                *cells(row), row["match"]) for row in rows)]
    return report, table, exit_code


def _cmd_verify_theorem(args, guards):
    methods = ("betti", "certificate") if args.method == "both" else (args.method,)
    report, table, exit_code = _sweep(
        args, guards, verify.theorem_row, methods, routes=methods,
        guard_skipped=lambda row: row["betti_method"] == "skipped:guard",
        cells=lambda row: (row["prediction"]["pure_predicted"],
                           row["purity"] and row["purity"]["pure"],
                           row["certificate"] and row["certificate"]["check_passed"]))
    lines = ["q m r  n   k   d  predicted computed cert  match"]
    lines += [f"{q} {m} {r}  {n:<3} {k:<3} {d:<3} {str(predicted):<9} "
              f"{str(computed):<8} {str(cert_ok):<5} {match}"
              for q, m, r, n, k, d, predicted, computed, cert_ok, match in table[1:]]
    lines.append(f"all rows match: {report['match']}")
    return report, "\n".join(lines), table, exit_code


def _cmd_verify_mds(args, guards):
    report, table, exit_code = _sweep(
        args, guards, verify.mds_check, routes=("mds",),
        guard_skipped=lambda row: row["mds_computed"] is None,
        cells=lambda row: (row["prediction"]["mds_predicted"], row["mds_computed"], None))
    lines = ["q m r  n   k   d  predicted computed match"]
    lines += [f"{q} {m} {r}  {n:<3} {k:<3} {d:<3} {str(predicted):<9} "
              f"{str(computed):<8} {match}"
              for q, m, r, n, k, d, predicted, computed, _, match in table[1:]]
    lines.append(f"all decided rows match: {report['match']}")
    return report, "\n".join(lines), table, exit_code


# -- output plumbing ----------------------------------------------------------


def _csv_text(args, table) -> str:
    if table is None:
        raise ParameterError(f"--output csv is not supported for '{args.command}'")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def _print_too_large(message: str) -> None:
    print(json.dumps({"error": "too_large", "message": message}), file=sys.stderr)


def _array_text(a: np.ndarray, pad: str) -> str:
    if not (a.dtype.kind in "iu" and a.ndim in (1, 2) and a.size
            and 0 <= a.min() and a.max() < a.size):
        return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + pad)
    cells = np.array([str(i) for i in range(a.max() + 1)], dtype=object)[a].tolist()
    inner = pad + "  "
    sep = ",\n" + inner
    if a.ndim == 1:
        return f"[\n{inner}{sep.join(cells)}\n{pad}]"
    row_sep = sep + "  "
    body = sep.join([f"[\n{inner}  {row_sep.join(row)}\n{inner}]" for row in cells])
    return f"[\n{inner}{body}\n{pad}]"


def _json_text(report) -> str:
    """json.dumps(report, indent=2, default=np.ndarray.tolist), byte for byte.

    One json.dumps writes each array as a placeholder string, a run of NULs;
    the placeholders are then replaced in order by the arrays' text, each
    indented as its placeholder's line.  A 1-d or 2-d integer array whose
    entries lie in 0..size-1 is written row by row from a table of the
    strings of 0..max, any other as json.dumps(a.tolist(), indent=2).  A
    report string or key that spells the placeholder shows in its count, and
    the report is written again with one NUL more.  Any other value json
    cannot encode raises TypeError, as it does in json.dumps.
    """
    def stash(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return mark

    mark = "\x00"
    while True:
        arrays: list[np.ndarray] = []
        text = json.dumps(report, indent=2, default=stash)
        if text.count(json.dumps(mark)) == len(arrays):
            break
        mark += "\x00"
    pieces = text.split(json.dumps(mark))
    out = [pieces[0]]
    for a, before, after in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        out += [_array_text(a, " " * (len(line) - len(line.lstrip(" ")))), after]
    return "".join(out)


def _emit(args, report, text, table, started) -> None:
    if args.output == "json":
        if not args.no_timing:
            report["timing_ms"] = int((time.monotonic() - started) * 1000)
        payload = _json_text(report) + "\n"
    elif args.output == "csv":
        payload = _csv_text(args, table)
    else:
        payload = text + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


# name: (help, handler, whether --r-all may replace --r, extra options)
_COMMANDS = {
    "dim": ("dimension by all four sources", _cmd_dim, False),
    "distance": ("minimum distance: formula and brute force", _cmd_distance, False),
    "ghw": ("generalized Hamming weight profile", _cmd_ghw, False),
    "betti": ("graded Betti table", _cmd_betti, False,
              ("--backend", dict(choices=("fast", "homology", "both"), default="fast")),
              ("--char", dict(type=int, default=verify.HOMOLOGY_CHAR,
                             help="homology coefficient prime"))),
    "purity": ("purity verdict vs predicted purity", _cmd_purity, False),
    "certificate": ("build and check a non-purity certificate", _cmd_certificate, False),
    "verify-theorem": ("purity characterization sweep", _cmd_verify_theorem, True, (
        "--method", dict(choices=("betti", "certificate", "both"), default="both"))),
    "verify-mds": ("MDS characterization sweep", _cmd_verify_mds, True),
}


def _build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every command, or of `only` alone when it names one:
    an invocation builds just the options it can use, while help and errors
    above the subcommand still list all of them."""
    parser = argparse.ArgumentParser(
        prog="rmbetti",
        description="Exact Reed-Muller code resolutions: Betti tables, "
                    "purity verdicts, certificates, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [only] if only in _COMMANDS else _COMMANDS:
        help_text, _, r_all, *extra = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--q", type=int, required=True, help="field size (prime power)")
        p.add_argument("--m", type=int, required=True, help="number of variables")
        group = p.add_mutually_exclusive_group(required=True) if r_all else p
        group.add_argument("--r", type=int, required=not r_all,
                           help="single order r" if r_all else "order r")
        if r_all:
            group.add_argument("--r-all", action="store_true",
                               help="sweep every 0 <= r <= m(q-1)")
        p.add_argument("--output", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", type=str, default=None, help="write to this path")
        p.add_argument("--no-timing", action="store_true",
                       help="omit timing_ms from JSON (for byte comparison)")
        p.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
        p.add_argument("--max-n-betti", type=int, default=None)
        p.add_argument("--max-enum", type=int, default=None)
        for flag, options in extra:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    started = time.monotonic()
    try:
        report, text, table, exit_code = _COMMANDS[args.command][1](args, _guards(args))
        _emit(args, report, text, table, started)
        return exit_code
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except TooLargeError as exc:
        _print_too_large(str(exc))
        return EXIT_TOO_LARGE
    except MemoryError as exc:           # an allocation no guard foresaw
        _print_too_large(f"out of memory: {exc}" if str(exc) else "out of memory")
        return EXIT_TOO_LARGE
    except CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except CrossCheckError as exc:
        print(f"internal cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK


if __name__ == "__main__":
    sys.exit(main())
