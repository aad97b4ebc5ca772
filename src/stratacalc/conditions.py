"""Numerical verifiers for the five first-order approximation conditions.

Each check sweeps sampled data (shrinking spheres around a base point,
piecewise-polynomial curves, or stratum-wise tangent directions) and reduces
the evidence to a verdict with a residual table and witnesses:

  1  semismooth residual anchored at the moving point y, direction y-x
  2  same with direction x-y and a sign flip
  3  chain rule along curves at almost every time (conservativity)
  4  D equals the directional derivative on stratum tangents
  5  D(x,u) lies in the row-wise Clarke-subdifferential box on tangents

plus two sanity checks that selftest runs: the first-order expansion
anchored at the base point and the scalar projection formula. The limit
statements are operationalized by a two-sided pass rule: absolute threshold
at the smallest radius OR a fitted log-log decay slope; "almost every t"
skips samples within a tolerance of detected crossing times and requires a
99% pass fraction elsewhere.
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
    REJECTION_CAP,
    Arrangement,
    Curve,
    PiecewiseFunction,
    compose_exact,
    refine,
    sample_cell_point,
)
from .seeding import substream, unit_directions

CONDITION_NAMES = {
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
AE_FRACTION = 0.99       # pass fraction required per curve
CROSSING_TOL = 1e-10     # curve failures this close to a crossing are excused
MAX_WITNESSES = 5

N_UNIFORM_DIRECTIONS = 64   # uniform sweep directions per base point
CURVE_SAMPLES = 512         # sampled times per curve
CELL_POINTS = 20            # sampled points per cell
TANGENT_COMBOS = 10         # random tangent combinations per cell point


@dataclass(frozen=True)
class VerifierConfig:
    """The rejection-sampling budget of a cell, shared by its CELL_POINTS
    draws. Only the per-cell checks (conditions 4, 5 and the projection
    formula) take a config."""
    rejection_cap: int = REJECTION_CAP


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


def _scale_of(F: PiecewiseFunction) -> float:
    return max(1.0, float(F.lipschitz_hint or 1.0))


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


def _sweep(F: PiecewiseFunction, x: np.ndarray, rng,
           condition: str, residual) -> ConditionReport:
    """Shrinking-sphere sweep shared by conditions 1, 2 and the base-anchored
    check: residual(Y, r) at the rows y = x + r*d of Y for every radius r and
    sweep direction d, evaluated in one call.

    Samples outside the box are not evaluated (NaN); a radius at which every
    sample left the box is dropped. The witness of a failed sweep is the first
    maximum at the last radius kept.
    """
    rng = rng or np.random.default_rng(0)
    dirs = _sweep_directions(F, x, rng)
    lo, hi = F.box
    radii = np.array(RADII)
    ys = x + radii[:, None, None] * dirs
    inside = np.all((ys >= lo) & (ys <= hi), axis=2)
    res = np.full(inside.shape, np.nan)
    res[inside] = residual(ys[inside], np.broadcast_to(radii[:, None], inside.shape)[inside])
    kept = [k for k in range(len(radii)) if inside[k].any()]
    best = [int(np.nanargmax(res[k])) for k in kept]
    table = [float(res[k, i]) for k, i in zip(kept, best)]
    verdict, slope = _sweep_verdict([RADII[k] for k in kept], table, _scale_of(F))
    witnesses = ()
    if verdict == "fail":
        witnesses = (Witness(tuple(ys[kept[-1], best[-1]]), tuple(dirs[best[-1]]), table[-1]),)
    return ConditionReport(
        condition=condition,
        verdict=verdict,
        residual_table=tuple((f"{RADII[k]:.0e}", v) for k, v in zip(kept, table)),
        slope=slope,
        witnesses=witnesses,
        sample_residuals=tuple(tuple(res[k].tolist()) for k in kept),
    )


def check_semismooth_I(F: PiecewiseFunction, D: GeneralizedDerivative, x,
                       rng: np.random.Generator | None = None) -> ConditionReport:
    """Residual sweep for F(y) - F(x) - D(y, y-x) over shrinking spheres.

    The value of D is anchored at the moving point y, which is what
    distinguishes the semismooth estimate from a plain first-order expansion
    at x. The base point itself (y = x) is never evaluated. F(y)-F(x) is
    compensated: cancellation would otherwise swamp the residual at small
    radii.
    """
    x = np.asarray(x, dtype=float)

    def residual(Y, r):
        diff = F.value_differences(Y, np.broadcast_to(x, Y.shape))
        return row_norms(diff[:, None, :] - D.batch(Y, Y - x)).max(axis=1) / r

    return _sweep(F, x, rng, "1", residual)


def check_semismooth_II(F: PiecewiseFunction, D: GeneralizedDerivative, x,
                        rng: np.random.Generator | None = None) -> ConditionReport:
    """Residual sweep for F(y) - F(x) + D(y, x-y); the mirror of check I."""
    x = np.asarray(x, dtype=float)

    def residual(Y, r):
        diff = F.value_differences(Y, np.broadcast_to(x, Y.shape))
        return row_norms(diff[:, None, :] + D.batch(Y, x - Y)).max(axis=1) / r

    return _sweep(F, x, rng, "2", residual)


def check_base_anchored(F: PiecewiseFunction, x,
                        rng: np.random.Generator | None = None,
                        fixed_matrix: np.ndarray | None = None) -> ConditionReport:
    """Sanity sweep for the plain first-order expansion anchored at x.

    With the true directional derivative the residual must vanish (this is
    the classical property of Lipschitz directionally differentiable maps);
    with a fixed matrix chosen at x it fails at kinks, which demonstrates
    why the moving anchor point matters.
    """
    x = np.asarray(x, dtype=float)

    def residual(Y, r):
        X = np.broadcast_to(x, Y.shape)
        if fixed_matrix is None:
            pred = F.directional_derivatives(X, Y - x)
        else:
            pred = np.matmul(fixed_matrix, (Y - x)[..., None])[..., 0]
        return row_norms(F.value_differences(Y, X) - pred) / r

    return _sweep(F, x, rng, "b_der", residual)


# ---------------------------------------------------------------------------
# curve-based check (condition 3)

def check_conservative(F: PiecewiseFunction, D: GeneralizedDerivative,
                       curves, rng: np.random.Generator | None = None) -> ConditionReport:
    """Chain rule along curves: D(curve(t), velocity(t)) must be a singleton
    equal to the exact derivative of the composition at almost every t.

    All sampled times of a curve are evaluated in one call. Samples on
    boundary subintervals (curve traveling inside a stratum) are tested like
    any other: the velocity is tangent there and the composed derivative is
    the tangential derivative. A failing sample within CROSSING_TOL of a
    detected crossing time is excused as measure zero; any other failure is
    genuine.
    """
    rng = rng or np.random.default_rng(0)
    table, witnesses, notes = [], [], []
    all_ok = True
    for ci, curve in enumerate(curves):
        comp = compose_exact(F, curve)
        ts = rng.uniform(0.0, 1.0, size=CURVE_SAMPLES)
        X, V = curve.value(ts), curve.velocity(ts)
        img = D.batch(X, V)
        miss = row_norms(img - comp.velocity(ts)[:, None, :]).max(axis=1)
        res = np.maximum(diameters(img), miss)
        passed = res <= EPS_EQ * (1.0 + row_norms(V))
        near = np.min(np.abs(comp.breakpoints[:, None] - ts), axis=0) <= CROSSING_TOL
        excused = ~passed & near
        genuine = ~passed & ~near
        for i in np.flatnonzero(genuine)[:MAX_WITNESSES - len(witnesses)]:
            witnesses.append(Witness(tuple(X[i]), tuple(V[i]), float(res[i])))
        table.append((f"curve{ci}", float(np.max(res, initial=0.0))))
        ok, n_genuine = int(passed.sum()), int(genuine.sum())
        frac = ok / (ok + n_genuine) if ok + n_genuine else 1.0
        if n_genuine > 0 or frac < AE_FRACTION:
            all_ok = False
        if excused.any():
            notes.append(f"curve{ci}: {int(excused.sum())} samples excused at crossings")
    return ConditionReport(condition="3",
                           verdict="pass" if all_ok else "fail",
                           residual_table=tuple(table),
                           witnesses=tuple(witnesses), notes=tuple(notes))


# ---------------------------------------------------------------------------
# stratified checks (conditions 4, 5, projection formula)

def _cell_samples(F, partition: Arrangement, cfg, rng):
    """Sample points from every nonempty cell of positive dimension;
    skipped cells become notes."""
    out, notes = [], []
    box = F.box
    for sign in partition.all_nonempty_signs():
        cell = partition.cell(sign)
        if cell.dimension == 0:
            continue
        pts = []
        for _ in range(CELL_POINTS):
            p = sample_cell_point(partition, sign, box, rng,
                                  cap=cfg.rejection_cap // CELL_POINTS)
            if p is not None:
                pts.append(p)
        if not pts:
            notes.append(f"cell {sign!r}: sampling failed, skipped")
            continue
        out.append((cell, pts))
    return out, notes


def _tangent_directions(cell, rng) -> list[np.ndarray]:
    """+/- the tangent basis plus, from dimension 2 on, random unit
    combinations of it (on a line they would only repeat +/- the basis)."""
    basis = cell.tangent.basis
    dirs = [s * b for b in basis for s in (1.0, -1.0)]
    for _ in range(TANGENT_COMBOS if cell.dimension >= 2 else 0):
        c = rng.normal(size=cell.dimension)
        u = basis.T @ c
        nrm = float(np.linalg.norm(u))
        if nrm > 1e-12:
            dirs.append(u / nrm)
    return dirs


def _stratified_check(F: PiecewiseFunction, partition: Arrangement,
                      cfg: VerifierConfig, rng, condition: str,
                      residual) -> ConditionReport:
    """Per-cell loop shared by conditions 4, 5 and the projection formula:
    residual(X, U) at sampled points x of every cell, for directions u
    tangent to the cell. All points and directions are drawn first, then
    evaluated in one call. A direction fails when its residual exceeds
    EPS_EQ * (1 + |u|).

    Zero-dimensional cells are not sampled: their only tangent direction is
    u = 0, where D(x, 0) = {0} by the GeneralizedDerivative contract and
    F'(x, 0) = 0, so every oracle would pass there.
    """
    rng = rng or np.random.default_rng(0)
    samples, notes = _cell_samples(F, partition, cfg, rng)
    X, U = [], []
    for cell, pts in samples:
        for x in pts:
            dirs = _tangent_directions(cell, rng)
            X += [x] * len(dirs)
            U += dirs
    X = np.array(X).reshape(-1, F.ambient_dim)
    U = np.array(U).reshape(-1, F.ambient_dim)
    res = residual(X, U)
    fails = np.flatnonzero(res > EPS_EQ * (1.0 + row_norms(U)))
    return ConditionReport(condition=condition,
                           verdict="fail" if fails.size else "pass",
                           residual_table=(("max", float(np.max(res, initial=0.0))),),
                           witnesses=tuple(Witness(tuple(X[i]), tuple(U[i]), float(res[i]))
                                           for i in fails[:MAX_WITNESSES]),
                           notes=tuple(notes))


def check_stratified_derivative(F: PiecewiseFunction, D: GeneralizedDerivative,
                                partition: Arrangement,
                                cfg: VerifierConfig = VerifierConfig(),
                                rng: np.random.Generator | None = None) -> ConditionReport:
    """On each cell of the partition, D must be a singleton equal to the
    directional derivative for directions tangent to the cell."""
    def residual(X, U):
        img = D.batch(X, U)
        target = F.directional_derivatives(X, U)
        return np.maximum(diameters(img), row_norms(img - target[:, None, :]).max(axis=1))

    return _stratified_check(F, partition, cfg, rng, "4", residual)


def check_stratified_subdifferential(F: PiecewiseFunction, D: GeneralizedDerivative,
                                     partition: Arrangement,
                                     cfg: VerifierConfig = VerifierConfig(),
                                     rng: np.random.Generator | None = None) -> ConditionReport:
    """Row-wise containment D(x,u) in J(x)u on stratum tangents.

    For tangent u the normal-space shift contributes nothing, so membership
    reduces (subset-modulo-subspace style) to per-component membership of
    every vertex in the interval <component Clarke subdifferential, u>. The
    residual is the largest distance of a vertex component to its interval.
    """
    def residual(X, U):
        img = D.batch(X, U)
        lo, hi = F.component_ranges(X, U)
        gap = np.maximum(lo[:, None, :] - img, img - hi[:, None, :])
        return np.maximum(gap, 0.0).max(axis=(1, 2))

    return _stratified_check(F, partition, cfg, rng, "5", residual)


def check_projection_formula(F: PiecewiseFunction, partition: Arrangement,
                             cfg: VerifierConfig = VerifierConfig(),
                             rng: np.random.Generator | None = None) -> ConditionReport:
    """Scalar projection formula: on tangents of each cell, the interval
    <component Clarke subdifferential, u> degenerates to {F_i'(x,u)}."""
    def residual(X, U):
        target = F.directional_derivatives(X, U)
        lo, hi = F.component_ranges(X, U)
        return np.maximum(np.abs(lo - target), np.abs(hi - target)).max(axis=1)

    return _stratified_check(F, partition, cfg, rng, "projection_formula", residual)


# ---------------------------------------------------------------------------
# aggregation and the equivalence matrix

def merge_reports(condition: str, reports: list[ConditionReport]) -> ConditionReport:
    """Combine per-base-point reports: fail dominates, then inconclusive."""
    verdict = "pass"
    if any(r.verdict == "fail" for r in reports):
        verdict = "fail"
    elif any(r.verdict == "inconclusive" for r in reports):
        verdict = "inconclusive"
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
                         conditions: tuple[str, ...] = ("1", "2", "3", "4", "5"),
                         ) -> dict[str, ConditionReport]:
    """Run the requested condition checks for one (F, D) binding.

    Substreams are keyed by (entry id, condition id), except that the two
    semismooth sweeps share per-point direction streams so their residuals
    are comparable sample-for-sample (reflection duality).
    """
    F, D = entry.F, entry.D
    out: dict[str, ConditionReport] = {}
    if "1" in conditions:
        reps = [check_semismooth_I(F, D, x,
                                   substream(seed, entry.entry_id, "semismooth", i))
                for i, x in enumerate(entry.base_points)]
        out["1"] = merge_reports("1", reps)
    if "2" in conditions:
        reps = [check_semismooth_II(F, D, x,
                                    substream(seed, entry.entry_id, "semismooth", i))
                for i, x in enumerate(entry.base_points)]
        out["2"] = merge_reports("2", reps)
    if "3" in conditions:
        out["3"] = check_conservative(F, D, entry.curves,
                                      substream(seed, entry.entry_id, "3"))
    refined = refine(F.arrangement, entry.partition)
    if "4" in conditions:
        out["4"] = check_stratified_derivative(F, D, refined,
                                               rng=substream(seed, entry.entry_id, "4"))
    if "5" in conditions:
        out["5"] = check_stratified_subdifferential(F, D, refined,
                                                    rng=substream(seed, entry.entry_id, "5"))
    return out


def equivalence_matrix(entries, seed: int = 0) -> MatrixReport:
    """Run conditions 1-5 for every (F, D) entry and flag row consistency.

    The theory predicts all five verdicts agree per row; the consistency
    flag records exactly that, with inconclusive verdicts excluded."""
    rows = []
    for entry in entries:
        reports = run_entry_conditions(entry, seed)
        rows.append(MatrixRow(entry_id=entry.entry_id, reports=reports))
    return MatrixReport(rows=tuple(rows))
