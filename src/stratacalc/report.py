"""Deterministic text rendering of reports (versioned stratacalc-report/1).

Float values are rendered with repr (shortest round-trip), so identical runs
produce byte-identical reports; nothing here reads clocks, paths, or the
environment.
"""

from __future__ import annotations

from .conditions import CONDITION_NAMES, ConditionReport, MatrixReport
from .oracles import AssumptionReport
from .piecewise import ContinuityReport
from .solvers import NewtonTrace, SubgradientTrace

REPORT_TAG = "stratacalc-report/1"


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(_fmt(v) for v in vec) + ")"


def render_condition(rep: ConditionReport) -> list[str]:
    name = CONDITION_NAMES.get(rep.condition, rep.condition)
    lines = [f"condition {rep.condition} ({name}): {rep.verdict}"]
    if rep.slope is not None:
        lines.append(f"  slope: {_fmt(rep.slope)}")
    if rep.residual_table:
        lines.append("  residuals:")
        for key, v in rep.residual_table:
            lines.append(f"    {key} {_fmt(v)}")
    if rep.witnesses:
        lines.append("  witnesses:")
        for w in rep.witnesses:
            lines.append(f"    point={_fmt_vec(w.point)} "
                         f"direction={_fmt_vec(w.direction)} value={_fmt(w.value)}")
    else:
        lines.append("  witnesses: (none)")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    return lines


def render_continuity(rep: ContinuityReport) -> list[str]:
    lines = [f"continuity: {'pass' if rep.ok else 'fail'} "
             f"({rep.pairs_checked} facet pairs)"]
    for v in rep.violations:
        lines.append(f"  violation: pieces {v.sign_a!r}|{v.sign_b!r} "
                     f"at {_fmt_vec(v.point)} gap {_fmt(v.gap)}")
    return lines


def render_assumption(rep: AssumptionReport) -> list[str]:
    lines = [f"assumption full_domain: {rep.full_domain}",
             f"assumption homogeneity: {rep.homogeneity}",
             f"assumption lipschitz: {rep.lipschitz} "
             f"(L per probe: {', '.join(_fmt(L) for L in rep.lipschitz_constants)})"]
    return lines + [f"  note: {note}" for note in rep.notes]


def render_check_report(function_id: str, oracle_id: str, seed: int,
                        continuity: ContinuityReport,
                        assumption: AssumptionReport,
                        condition_reports: dict[str, ConditionReport],
                        overall: str) -> str:
    lines = [REPORT_TAG,
             "command: check",
             f"function: {function_id}",
             f"oracle: {oracle_id}",
             f"seed: {seed}"]
    lines += render_continuity(continuity)
    lines += render_assumption(assumption)
    for cid in sorted(condition_reports):
        lines += render_condition(condition_reports[cid])
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: MatrixReport) -> str:
    lines = ["entry_id,cond1,cond2,cond3,cond4,cond5,consistent"]
    for row in matrix.rows:
        v = row.verdicts
        lines.append(",".join([row.entry_id] + [v[k] for k in CONDITION_NAMES]
                              + [str(row.consistent).lower()]))
    return "\n".join(lines) + "\n"


def render_matrix_report(matrix: MatrixReport, seed: int) -> str:
    lines = [REPORT_TAG,
             "command: matrix",
             f"seed: {seed}",
             f"rows: {len(matrix.rows)}"]
    for row in matrix.rows:
        v = row.verdicts
        verdict_str = " ".join(f"{k}={v[k]}" for k in CONDITION_NAMES)
        flag = "consistent" if row.consistent else "INCONSISTENT"
        if row.has_inconclusive:
            flag += " (has inconclusive)"
        lines.append(f"entry {row.entry_id}: {verdict_str} [{flag}]")
    for row in matrix.rows:
        lines.append(f"--- entry {row.entry_id}")
        for cid in sorted(row.reports):
            lines += ["  " + l for l in render_condition(row.reports[cid])]
    lines.append(f"all_consistent: {str(matrix.all_consistent).lower()}")
    lines.append("csv:")
    lines.append(matrix_csv(matrix).rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_newton_trace(function_id: str, trace: NewtonTrace,
                        rates: list[float], seed: int) -> str:
    lines = [REPORT_TAG,
             "command: solve newton",
             f"function: {function_id}",
             f"seed: {seed}",
             f"status: {trace.status}",
             f"iterations: {len(trace.iterates) - 1}",
             f"final_residual: {_fmt(trace.residual_norms[-1])}",
             f"solution: {_fmt_vec(trace.iterates[-1])}"]
    lines.append("trace:")
    for k, (x, r) in enumerate(zip(trace.iterates, trace.residual_norms)):
        lines.append(f"  k={k} x={_fmt_vec(x)} residual={_fmt(r)}")
    if rates:
        lines.append("rate_ratios: " + ", ".join(_fmt(r) for r in rates))
    else:
        lines.append("rate_ratios: (none)")
    for entry in trace.damping_log:
        lines.append(f"damping: {entry}")
    return "\n".join(lines) + "\n"


def newton_csv(trace: NewtonTrace) -> str:
    lines = ["k,x,residual"]
    for k, (x, r) in enumerate(zip(trace.iterates, trace.residual_norms)):
        xs = ";".join(_fmt(v) for v in x)
        lines.append(f"{k},{xs},{_fmt(r)}")
    return "\n".join(lines) + "\n"


def render_subgradient_trace(function_id: str, trace: SubgradientTrace,
                             seed: int) -> str:
    lines = [REPORT_TAG,
             "command: solve subgrad",
             f"function: {function_id}",
             f"seed: {seed}",
             f"iterations: {len(trace.iterates) - 1}",
             f"final_value: {_fmt(trace.values[-1])}",
             f"best_value: {_fmt(trace.best_value)}",
             f"final_point: {_fmt_vec(trace.iterates[-1])}"]
    lines.append("trace:")
    step = max(1, (len(trace.iterates) - 1) // 20)
    for k in range(0, len(trace.iterates), step):
        lines.append(f"  k={k} x={_fmt_vec(trace.iterates[k])} "
                     f"f={_fmt(trace.values[k])}")
    return "\n".join(lines) + "\n"


def subgradient_csv(trace: SubgradientTrace) -> str:
    lines = ["k,x,f"]
    for k, (x, v) in enumerate(zip(trace.iterates, trace.values)):
        xs = ";".join(_fmt(c) for c in x)
        lines.append(f"{k},{xs},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def render_selftest(results) -> str:
    lines = [REPORT_TAG, "command: selftest"]
    n_pass = sum(1 for r in results if r.passed)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.group}/{r.name}: {r.detail}")
    lines.append(f"summary: {n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
