"""Numerical verifiers for the five first-order approximation conditions.

Each check sweeps sampled data (shrinking spheres around a base point,
piecewise-polynomial curves, or stratum-wise tangent directions) and reduces
the evidence to a verdict with a residual table and witnesses:

  1  semismooth residual anchored at the moving point y, direction y-x
  2  same with direction x-y and a sign flip
  3  chain rule along curves at almost every time (conservativity)
  4  D equals the directional derivative on stratum tangents
  5  D(x,u) lies in the row-wise Clarke-subdifferential box on tangents

The Clarke projection formula (Bolte, Daniilidis, Lewis & Shiota 2007) is
condition 4 with D the Clarke oracle, so it has no check of its own. The
limit statements are operationalized by a two-sided pass rule: absolute
threshold at the smallest radius OR a fitted log-log decay slope. "Almost
every t" is decided at Chebyshev nodes of each subinterval of the composed
curve, where both sides of the chain rule are polynomials in t, and
conditions 4-5 on a principal lattice in each cell, where each residual is a
polynomial in x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import diameters, row_norms
# re-exports: the benchmark tracer wraps them here
from .geometry import hausdorff, linear_range_over_polytope, project  # noqa: F401
from .oracles import GeneralizedDerivative
from .piecewise import (
    EPS_EQ,
    EPS_ROUND,
    Arrangement,
    Curve,
    PiecewiseFunction,
    compose_exact,
    refine,
    sample_cell_point,
)
from .seeding import substream, unit_directions

CONDITION_NAMES = {     # condition id -> name, in report order
    "1": "semismooth I",
    "2": "semismooth II",
    "3": "conservative",
    "4": "stratified derivative",
    "5": "stratified subdifferential",
}


# Fixed decision rules (README "Verdict rules").
RADII = tuple(0.1 * 0.1 ** k for k in range(7))   # sweep radii, 1e-1 down to 1e-7
ABS_PASS_FACTOR = 1e-6   # sweep passes below this * scale at the smallest radius
SLOPE_PASS = 0.5         # ... or with a log-log decay slope at least this
MAX_WITNESSES = 5

N_UNIFORM_DIRECTIONS = 64   # uniform sweep directions per base point


class VerifierConfig:
    """No check reads this class: conditions 4-5 draw nothing and take no
    sampling budget. It stays importable because the benchmark's
    known-defect tests import it, and goes when they stop."""


@dataclass(frozen=True, eq=False)
class Witness:
    point: tuple[float, ...]
    direction: tuple[float, ...]
    value: float


@dataclass(frozen=True, eq=False)
class ConditionReport:
    condition: str
    verdict: str                                  # pass / fail / inconclusive
    residual_table: tuple[tuple[str, float], ...]
    slope: float | None = None
    witnesses: tuple[Witness, ...] = ()
    notes: tuple[str, ...] = ()
    # per-(radius, direction) residuals, kept for reflection-duality checks
    sample_residuals: tuple[tuple[float, ...], ...] | None = None


def worst_verdict(verdicts) -> str:
    """"fail" if any verdict fails, else "inconclusive" if any is, else "pass"."""
    return min(verdicts, key=("fail", "inconclusive", "pass").index, default="pass")


def _formless_notes(D: GeneralizedDerivative, rows: str) -> tuple[str, ...]:
    """The note of conditions 3-5 for a kernel without a vertex form: the
    finite rows that decide a built-in oracle need not decide it."""
    return () if D.form is not None else (
        f"oracle {D.name!r} has no vertex form: only the {rows} were examined",)


def _fit_slope(radii, residuals) -> float | None:
    pts = [(r, e) for r, e in zip(radii, residuals) if e > 0.0]
    if len(pts) < 2:
        return None
    lr = np.log10([p[0] for p in pts])
    le = np.log10([p[1] for p in pts])
    return float(np.polyfit(lr, le, 1)[0])


def _sweep_verdict(radii, residuals, scale):
    """Two-sided decision rule for Limsup-style residual sweeps."""
    if not radii:
        return "inconclusive", None
    slope = _fit_slope(radii, residuals) if len(radii) >= 4 else None
    if residuals[-1] <= ABS_PASS_FACTOR * scale:
        return "pass", slope
    if len(radii) < 4:
        return "inconclusive", slope
    if slope is not None and slope >= SLOPE_PASS:
        return "pass", slope
    return "fail", slope


def _sweep_directions(F: PiecewiseFunction, x: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """N_UNIFORM_DIRECTIONS uniform directions plus +/- the tangent basis of
    the stratum through x (so tangential approach directions are always
    exercised)."""
    n = F.ambient_dim
    dirs = [unit_directions(rng, n, N_UNIFORM_DIRECTIONS)]
    sigma = F.arrangement.sign_vector(x)
    cell = F.arrangement.cell(sigma)
    if cell.tangent.dim:
        dirs.append(cell.tangent.basis)
        dirs.append(-cell.tangent.basis)
    return np.vstack(dirs)


def check_semismooth(F: PiecewiseFunction, D: GeneralizedDerivative, x,
                     rng: np.random.Generator | None = None) -> tuple[ConditionReport, ...]:
    """Residual sweeps for condition 1, F(y) - F(x) - D(y, y-x), and its
    mirror condition 2, F(y) - F(x) + D(y, x-y), over shrinking spheres.

    The value of D is anchored at the moving point y, which is what
    distinguishes the semismooth estimate from a plain first-order expansion
    at x. The base point itself (y = x) is never evaluated. F(y)-F(x) is
    compensated: cancellation would otherwise swamp the residual at small
    radii. Both conditions share the rows y = x + r*d, for every radius r and
    sweep direction d, F(y)-F(x) and one D.batch.

    Samples outside the box are not evaluated (NaN); a radius at which every
    sample left the box is dropped. The witness of a failed sweep is the first
    maximum at the last radius kept.
    """
    x = np.asarray(x, dtype=float)
    rng = rng or np.random.default_rng(0)
    dirs = _sweep_directions(F, x, rng)
    lo, hi = F.box
    radii = np.array(RADII)
    ys = x + radii[:, None, None] * dirs
    inside = np.all((ys >= lo) & (ys <= hi), axis=2)
    kept = [k for k in range(len(radii)) if inside[k].any()]
    scale = max(1.0, float(F.lipschitz_hint or 1.0))
    Y, r = ys[inside], np.broadcast_to(radii[:, None], inside.shape)[inside]
    diff = F.value_differences(Y, x[None])[:, None, :]
    plus, minus = np.split(D.batch(np.vstack([Y, Y]), np.vstack([Y - x, x - Y])), 2)
    reports = []
    for condition, values in (("1", row_norms(diff - plus).max(axis=1) / r),
                              ("2", row_norms(diff + minus).max(axis=1) / r)):
        res = np.full(inside.shape, np.nan)
        res[inside] = values
        best = np.nanargmax(res[kept], axis=1).tolist()
        table = [float(res[k, i]) for k, i in zip(kept, best)]
        verdict, slope = _sweep_verdict([RADII[k] for k in kept], table, scale)
        witnesses = ((Witness(tuple(ys[kept[-1], best[-1]]), tuple(dirs[best[-1]]), table[-1]),)
                     if verdict == "fail" else ())
        reports.append(ConditionReport(
            condition, verdict, tuple((f"{RADII[k]:.0e}", v) for k, v in zip(kept, table)),
            slope=slope, witnesses=witnesses,
            sample_residuals=tuple(tuple(res[k].tolist()) for k in kept)))
    return tuple(reports)


def check_semismooth_I(F: PiecewiseFunction, D: GeneralizedDerivative, x,
                       rng: np.random.Generator | None = None) -> ConditionReport:
    """Condition 1 alone: the first report of check_semismooth."""
    return check_semismooth(F, D, x, rng)[0]


def check_semismooth_II(F: PiecewiseFunction, D: GeneralizedDerivative, x,
                        rng: np.random.Generator | None = None) -> ConditionReport:
    """Condition 2 alone: the second report of check_semismooth."""
    return check_semismooth(F, D, x, rng)[1]


# ---------------------------------------------------------------------------
# curve-based check (condition 3)

def _node_times(F: PiecewiseFunction, curve: Curve, comp: Curve) -> np.ndarray:
    """deg F * deg c + 1 Chebyshev nodes of the first kind strictly inside
    each subinterval of comp = compose_exact(F, curve): deg F is the largest
    total degree of F's pieces, deg c (at least 1) that of the curve's piece.
    The nodes of one subinterval lie in one cell: see check_conservative."""
    deg_f = F.degree
    times = []
    for a, b in zip(comp.breakpoints[:-1], comp.breakpoints[1:]):
        piece = curve.pieces[int(curve.interval_index(0.5 * (a + b)))]
        N = deg_f * max(1, int(np.flatnonzero(piece.any(axis=0)).max(initial=0))) + 1
        nodes = np.cos((2 * np.arange(N) + 1) * np.pi / (2 * N))
        times.append(0.5 * (a + b + (b - a) * nodes))
    return np.concatenate(times)


def check_conservative(F: PiecewiseFunction, D: GeneralizedDerivative,
                       curves) -> ConditionReport:
    """Chain rule along curves: D(curve(t), velocity(t)) must be a singleton
    equal to the exact derivative of the composition at almost every t.

    On each subinterval of compose_exact the curve is polynomial and stays
    in one cell (decided with exact signs, up to crossings closer together
    than its 1e-12 merge), so (F o c)' and each vertex of a built-in oracle
    are polynomials in t of degree below deg F * deg c + 1, decided by their
    values at `_node_times` (one D.batch per curve). A node fails when its
    residual exceeds EPS_EQ * (1 + |velocity|) plus a rounding allowance of
    EPS_ROUND * comp.velocity_terms(t), or, where that does not cover it,
    plus EPS_ROUND times the sum of |monomial| values of F at the curve
    point (F.term_sums), the scale of the terms that comp was summed from;
    any failing node fails the curve.
    The rule is exact for the built-in kernels, whose vertices are
    polynomial on each cell; a handcrafted kernel need not be (its report
    notes so). Without curves there is no evidence: inconclusive.
    """
    table, witnesses = [], []
    for ci, curve in enumerate(curves):
        comp = compose_exact(F, curve)
        ts = _node_times(F, curve, comp)
        X, V = curve.value(ts), curve.velocity(ts)
        img = D.batch(X, V)
        miss = row_norms(img - comp.velocity(ts)[:, None, :]).max(axis=1)
        res = np.maximum(diameters(img), miss)
        table.append((f"curve{ci}", float(np.max(res, initial=0.0))))
        tol = EPS_EQ * (1.0 + row_norms(V)) + EPS_ROUND * comp.velocity_terms(ts)
        over = ~(res <= tol)
        if over.any():
            tol[over] += EPS_ROUND * F.term_sums(X[over])
        for i in np.flatnonzero(~(res <= tol)):
            witnesses.append(Witness(tuple(X[i]), tuple(V[i]), float(res[i])))
    verdict = "fail" if witnesses else "pass" if table else "inconclusive"
    return ConditionReport(condition="3", verdict=verdict, residual_table=tuple(table),
                           witnesses=tuple(witnesses[:MAX_WITNESSES]),
                           notes=(() if table else ("no curves to follow",))
                           + _formless_notes(D, "Chebyshev nodes of each curve"))


# ---------------------------------------------------------------------------
# stratified checks (conditions 4 and 5)

def _tangent_directions(cell, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (x, u) for each of the cell's points x, in point order, with u
    running over +/- the tangent basis: each vertex residual is linear in u,
    so these directions decide it for every tangent u."""
    basis = cell.tangent.basis
    U = np.stack([basis, -basis], axis=1).reshape(-1, basis.shape[1])
    return np.repeat(pts, len(U), axis=0), np.tile(U, (len(pts), 1))


def check_stratified(F: PiecewiseFunction, D: GeneralizedDerivative,
                     partition: Arrangement) -> tuple[ConditionReport, ...]:
    """Conditions 4 and 5 on one set of rows (x, u), with one D.batch: x
    runs over the points that `sample_cell_point` places around the LP
    witness of every nonempty cell of positive dimension, u over +/- its
    tangent basis. D must be a singleton equal to F'(x, u) (4) and lie
    row-wise in J(x)u (5). For tangent u, membership reduces to that of
    every vertex component in <component Clarke subdifferential, u>; the
    residual of 5 is the largest distance to it. A direction fails when its
    residual exceeds EPS_EQ * (1 + |u|).

    On a cell, each vertex of a built-in oracle is c J_p(x) u with the piece
    p fixed, so a residual of 4 is a polynomial in x of degree below deg F,
    linear in u: it vanishes on the cell iff it vanishes on these rows.
    Through the projection formula (condition 4 of the Clarke oracle),
    condition 5 on tangents reduces to the same identity. A handcrafted
    kernel is examined on the same rows, with a note. A vertex is not: its
    only tangent is u = 0, where D(x, 0) = {0} = F'(x, 0) by contract.
    """
    degree, rows = F.degree, []
    for sign in partition.all_nonempty_signs():
        cell = partition.cell(sign)
        if cell.dimension:
            rows.append(_tangent_directions(cell, sample_cell_point(partition, sign, degree)))
    empty = np.empty((0, F.ambient_dim))
    X = np.concatenate([empty] + [x for x, _ in rows])
    U = np.concatenate([empty] + [u for _, u in rows])
    img = D.batch(X, U)
    target = F.directional_derivatives(X, U)
    lo, hi = F.component_ranges(X, U)
    gap = np.maximum(lo[:, None, :] - img, img - hi[:, None, :])
    residuals = (np.maximum(diameters(img), row_norms(img - target[:, None, :]).max(axis=1)),
                 np.maximum(gap, 0.0).max(axis=(1, 2)))
    tol = EPS_EQ * (1.0 + row_norms(U))
    notes = _formless_notes(D, "lattice points of each cell")
    reports = []
    for condition, res in zip("45", residuals):
        fails = np.flatnonzero(res > tol)
        reports.append(ConditionReport(
            condition, "fail" if fails.size else "pass",
            (("max", float(np.max(res, initial=0.0))),),
            witnesses=tuple(Witness(tuple(X[i]), tuple(U[i]), float(res[i]))
                            for i in fails[:MAX_WITNESSES]), notes=notes))
    return tuple(reports)


def check_stratified_derivative(F: PiecewiseFunction, D: GeneralizedDerivative,
                                partition: Arrangement) -> ConditionReport:
    """Condition 4 alone: the first report of check_stratified."""
    return check_stratified(F, D, partition)[0]


def check_stratified_subdifferential(F: PiecewiseFunction, D: GeneralizedDerivative,
                                     partition: Arrangement) -> ConditionReport:
    """Condition 5 alone: the second report of check_stratified."""
    return check_stratified(F, D, partition)[1]


# ---------------------------------------------------------------------------
# aggregation and the equivalence matrix

def merge_reports(condition: str, reports: list[ConditionReport]) -> ConditionReport:
    """Combine per-base-point reports: fail dominates, then inconclusive.
    No reports at all (no base points) is inconclusive."""
    if not reports:
        return ConditionReport(condition=condition, verdict="inconclusive",
                               residual_table=(), notes=("no base points to sweep",))
    verdict = worst_verdict(r.verdict for r in reports)
    table: dict[str, float] = {}
    for r in reports:
        for key, v in r.residual_table:
            table[key] = max(table.get(key, 0.0), v)
    slopes = [r.slope for r in reports if r.slope is not None]
    witnesses = tuple(w for r in reports for w in r.witnesses)[:MAX_WITNESSES]
    notes = tuple(n for r in reports for n in r.notes)
    return ConditionReport(condition=condition, verdict=verdict,
                           residual_table=tuple(table.items()),
                           slope=min(slopes) if slopes else None,
                           witnesses=witnesses, notes=notes)


@dataclass(frozen=True, eq=False)
class MatrixEntry:
    entry_id: str
    F: PiecewiseFunction
    D: GeneralizedDerivative
    base_points: tuple
    curves: tuple[Curve, ...]
    partition: Arrangement


@dataclass(frozen=True, eq=False)
class MatrixRow:
    entry_id: str
    reports: dict[str, ConditionReport]   # keys "1".."5"

    @property
    def verdicts(self) -> dict[str, str]:
        return {k: r.verdict for k, r in self.reports.items()}

    @property
    def has_inconclusive(self) -> bool:
        return any(v == "inconclusive" for v in self.verdicts.values())

    @property
    def consistent(self) -> bool:
        decided = {v for v in self.verdicts.values() if v != "inconclusive"}
        return len(decided) <= 1


@dataclass(frozen=True, eq=False)
class MatrixReport:
    rows: tuple[MatrixRow, ...]

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.rows)


def run_entry_conditions(entry: MatrixEntry, seed: int,
                         conditions: tuple[str, ...] = tuple(CONDITION_NAMES),
                         ) -> dict[str, ConditionReport]:
    """Run the requested condition checks for one (F, D) binding.

    Conditions 1 and 2 are one sweep per base point, on its own "semismooth"
    substream, whose rows y are evaluated once for both reports (reflection
    duality compares them sample-for-sample). Conditions 4 and 5 are one
    pass over the (x, u) rows of the per-cell lattices. A pair runs when
    either of its conditions is requested; only requested reports are kept.
    Conditions 3-5 draw nothing: F, the curves and the partition fix their
    rows.
    """
    F, D = entry.F, entry.D
    out: dict[str, ConditionReport] = {}
    if {"1", "2"} & set(conditions):
        sweeps = [check_semismooth(F, D, x, substream(seed, entry.entry_id, "semismooth", i))
                  for i, x in enumerate(entry.base_points)]
        out.update({c: merge_reports(c, [s[k] for s in sweeps]) for k, c in enumerate("12")})
    if "3" in conditions:
        out["3"] = check_conservative(F, D, entry.curves)
    if {"4", "5"} & set(conditions):
        out.update(zip("45", check_stratified(F, D, refine(F.arrangement, entry.partition))))
    return {c: r for c, r in out.items() if c in conditions}


def equivalence_matrix(entries, seed: int = 0) -> MatrixReport:
    """Run conditions 1-5 for every (F, D) entry and flag row consistency.

    The theory predicts all five verdicts agree per row; the consistency
    flag records exactly that, with inconclusive verdicts excluded."""
    rows = []
    for entry in entries:
        reports = run_entry_conditions(entry, seed)
        rows.append(MatrixRow(entry_id=entry.entry_id, reports=reports))
    return MatrixReport(rows=tuple(rows))
