"""Batch front-end: corpus checks, the equivalence matrix, solvers, selftest.

Exit codes: 0 pass/complete, 1 input error, 2 verdict fail, 3 inconclusive,
4 solver stall. All verdicts are conveyed by the exit code, never only by
prose. All randomness flows from --seed; nothing reads the environment.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import report as rpt
from .conditions import (CONDITION_NAMES, MatrixEntry, equivalence_matrix,
                         run_entry_conditions, worst_verdict)
from .corpus import Corpus, default_corpus, load_corpus
from .oracles import check_assumption, parse_oracle
from .piecewise import PiecewiseError, validate_continuity
from .selftest import SelftestContext, available_groups, run_selftest
from .solvers import (
    newton_rate_estimate,
    semismooth_newton,
    subgradient_descent,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_STALL = 4


class InputError(Exception):
    """Bad corpus, unknown id, or malformed flags: maps to exit 1."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def _get_corpus(args) -> Corpus:
    if args.corpus:
        try:
            return load_corpus(args.corpus)
        except (OSError, PiecewiseError) as exc:
            raise InputError(f"cannot load corpus {args.corpus!r}: {exc}") from None
    return default_corpus()


def _get_function(corpus: Corpus, fid: str):
    try:
        return corpus.function(fid)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None


def _build_entry(corpus: Corpus, fid: str, oracle_id: str) -> MatrixEntry:
    cf = _get_function(corpus, fid)
    try:
        oracle = parse_oracle(oracle_id, cf.func)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return MatrixEntry(f"{fid}:{oracle_id}", cf.func, oracle,
                       cf.base_points, cf.curves, cf.partition)


def _finite_float(text: str) -> float:
    """float(text), refusing nan and inf."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive(text: str, parse=int, kind: str = "integer"):
    """parse(text) > 0 (argparse type for --iters; --c parses a finite float)."""
    try:
        value = parse(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a positive {kind}: {text!r}")
    return value


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        vals = [_finite_float(v) for v in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"cannot parse point {text!r}: {exc}") from None
    if len(vals) != dim:
        raise InputError(f"point {text!r} has {len(vals)} coordinates, expected {dim}")
    return np.array(vals)


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    corpus = _get_corpus(args)
    entry = _build_entry(corpus, args.function, args.oracle)
    requested = tuple(c.strip() for c in args.conditions.split(",") if c.strip())
    if not requested:
        raise InputError(f"--conditions names no condition: {args.conditions!r}")
    if not set(requested) <= CONDITION_NAMES.keys():
        raise InputError(f"unknown condition ids in {args.conditions!r}")

    continuity = validate_continuity(entry.F)
    assumption = check_assumption(entry.D, entry.F, entry.base_points)
    reports = run_entry_conditions(entry, args.seed, requested)

    verdicts = [r.verdict for r in reports.values()] + [   # "fail (probe ...)" -> "fail"
        "pass" if continuity.ok else "fail", assumption.full_domain.split()[0],
        assumption.homogeneity, assumption.lipschitz]
    overall = worst_verdict(verdicts)
    text = rpt.render_check_report(args.function, args.oracle, args.seed,
                                   continuity, assumption, reports, overall)
    _emit(text, args.output)
    return {"fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}.get(overall, EXIT_OK)


def cmd_matrix(args) -> int:
    corpus = _get_corpus(args)
    if not corpus.matrix_rows:
        raise InputError("corpus declares no matrix rows")
    entries = [_build_entry(corpus, fid, oid) for fid, oid in corpus.matrix_rows]
    matrix = equivalence_matrix(entries, seed=args.seed)
    text = rpt.render_matrix_report(matrix, seed=args.seed)
    _emit(text, args.output)
    if args.csv:
        _write(args.csv, rpt.matrix_csv(matrix))
    return EXIT_OK if matrix.all_consistent else EXIT_FAIL


def _solver_source(spec: str, F):
    """"clarke" (the lexicographically minimal Clarke vertex) or an oracle."""
    if spec == "clarke":
        return spec
    try:
        return parse_oracle(spec, F)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_solve(args) -> int:
    corpus = _get_corpus(args)
    cf = _get_function(corpus, args.function)
    x0 = _parse_point(args.x0, cf.func.ambient_dim)
    if args.solver == "newton":
        source = _solver_source(args.jacobian, cf.func)
        try:
            trace = semismooth_newton(cf.func, source, x0)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        root = cf.minimizer if args.use_known_root and cf.minimizer is not None else None
        rates = newton_rate_estimate(trace, root=root)
        text = rpt.render_newton_trace(args.function, trace, rates, args.seed)
        _emit(text, args.output)
        if args.dump:
            _write(args.dump, rpt.newton_csv(trace))
        return EXIT_STALL if trace.status == "singular_stall" else EXIT_OK
    # subgradient
    if cf.func.output_dim != 1:
        raise InputError(f"{args.function!r} is not a scalar objective")
    source = _solver_source(args.oracle, cf.func)
    try:
        trace = subgradient_descent(cf.func, source, x0, rule=args.rule,
                                    c=args.c, iters=args.iters)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    text = rpt.render_subgradient_trace(args.function, trace, args.seed)
    _emit(text, args.output)
    if args.dump:
        _write(args.dump, rpt.subgradient_csv(trace))
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.filter and args.filter not in available_groups():
        raise InputError(f"unknown selftest group {args.filter!r}; "
                         f"known: {', '.join(available_groups())}")
    results = run_selftest(SelftestContext(), group_filter=args.filter)
    _emit(rpt.render_selftest(results), args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------

@functools.cache     # one parser per process: building one leaves cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratacalc",
        description="Verification harness for generalized directional "
                    "derivatives of piecewise-polynomial maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--corpus", help="corpus file (stratacalc-corpus/1); "
                                        "defaults to the built-in corpus")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all sampling (default 0)")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("check", help="run condition checks for one (F, D) binding")
    common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--oracle", required=True,
                   help="exact | clarke | branch | scale:<c> | reflect:<base> "
                        "| zero-strata:<base>")
    p.add_argument("--conditions", default="1,2,3,4,5",
                   help="comma-separated subset of 1..5")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("matrix", help="equivalence matrix over the corpus rows")
    common(p)
    p.add_argument("--csv", help="also write the comma-separated table here")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("solve", help="run a solver on a corpus function")
    common(p)
    p.add_argument("solver", choices=("newton", "subgrad"))
    p.add_argument("--function", required=True)
    p.add_argument("--x0", required=True, help="comma-separated start point")
    p.add_argument("--jacobian", default="clarke",
                   help="newton: clarke (lexicographically minimal Clarke "
                        "vertex) | a singleton oracle id, e.g. branch")
    p.add_argument("--oracle", default="clarke",
                   help="subgrad: clarke | an oracle id")
    p.add_argument("--rule", default="one_over_k",
                   choices=("constant", "one_over_k", "c_over_sqrt_k"))
    p.add_argument("--c", type=lambda text: _positive(text, _finite_float, "number"),
                   default=1.0, help="step-size constant")
    p.add_argument("--iters", type=_positive, default=200)
    p.add_argument("--use-known-root", action="store_true",
                   help="newton: rate ratios against the corpus minimizer")
    p.add_argument("--dump", help="per-iteration CSV dump path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--filter", help="restrict to one group "
                                    f"({', '.join(available_groups())})")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputError, PiecewiseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
