"""Built-in invariant suite: every module's documented properties, runnable
without pytest via the selftest command.

Checks are registered per group (geometry / piecewise / oracles /
conditions / solvers / corpus) and each returns pass/fail plus a one-line
detail. Comparison tolerances come from the context so a corrupted
tolerance is caught by the harness itself (e.g. the geometry metric check
requires the metric to separate known-distinct sets by more than eps_eq).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import conditions as cond
from . import solvers
from .corpus import Corpus, corpus_from_json, corpus_to_json, default_corpus
from .geometry import (
    Polytope,
    Subspace,
    dist_point_polytope,
    hausdorff,
    linear_image,
    MatrixPolytope,
    project,
    subset_mod_subspace,
)
from .oracles import (
    oracle_branch_selection,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
    reflect_oracle,
)
from .piecewise import Curve, compose_exact
from .report import render_matrix_report
from .seeding import substream


@dataclass
class SelftestContext:
    eps_eq: float = 1e-9
    seed: int = 0
    corpus: Corpus = field(default_factory=default_corpus)
    fast: bool = False   # trims sample counts for unit-test use


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


_REGISTRY: list[tuple[str, str, callable]] = []


def _check(group: str, name: str):
    def deco(fn):
        _REGISTRY.append((group, name, fn))
        return fn
    return deco


def available_groups() -> list[str]:
    return sorted({g for g, _, _ in _REGISTRY})


def run_selftest(ctx: SelftestContext | None = None,
                 group_filter: str | None = None) -> list[CheckResult]:
    ctx = ctx or SelftestContext()
    results = []
    for group, name, fn in _REGISTRY:
        if group_filter and group != group_filter:
            continue
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(group, name, bool(ok), detail))
    return results


# ---------------------------------------------------------------------------
# geometry

@_check("geometry", "projection idempotent and nonexpansive")
def _g_project(ctx):
    rng = substream(ctx.seed, "g-project")
    worst = 0.0
    for _ in range(20 if ctx.fast else 100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, n + 1))
        V = Subspace.from_spanning(rng.normal(size=(k, n)), n) if k else Subspace.zero(n)
        v = rng.normal(size=n)
        p = project(v, V)
        worst = max(worst, float(np.linalg.norm(project(p, V) - p)))
        if np.linalg.norm(p) > np.linalg.norm(v) + 1e-12:
            return False, "projection expanded the norm"
    return worst <= 1e-10, f"max idempotency defect {worst:.2e}"


@_check("geometry", "hausdorff is a metric that separates sets")
def _g_metric(ctx):
    rng = substream(ctx.seed, "g-metric")
    for _ in range(10 if ctx.fast else 40):
        n = int(rng.integers(1, 4))
        polys = [Polytope(rng.normal(size=(int(rng.integers(1, 5)), n)))
                 for _ in range(3)]
        P, Q, R = polys
        if abs(hausdorff(P, Q) - hausdorff(Q, P)) > 1e-12:
            return False, "symmetry violated"
        if hausdorff(P, R) > hausdorff(P, Q) + hausdorff(Q, R) + 1e-9:
            return False, "triangle inequality violated"
        if hausdorff(P, P) > 1e-12:
            return False, "self-distance nonzero"
    # separation against the configured tolerance: known-distinct unit-apart
    # polytopes must register as farther than eps_eq
    d = hausdorff(Polytope([[0.0]]), Polytope([[1.0]]))
    if not d > ctx.eps_eq:
        return False, (f"metric does not separate unit-distant sets at "
                       f"eps_eq={ctx.eps_eq:g} (d={d!r})")
    return True, "symmetry, triangle inequality, separation hold"


def member_sum_hull_lp(point, b_vertices, v_basis, tol=1e-9) -> bool:
    """Brute-force membership of point in conv(B) + span(V): an L1-slack LP
    (HiGHS) whose optimum is zero exactly for members. Raises RuntimeError
    when HiGHS does not solve the LP."""
    point = np.asarray(point, float)
    bv = np.atleast_2d(np.asarray(b_vertices, float))
    n = point.size
    kb, kv = bv.shape[0], v_basis.shape[0]
    # variables: lam (>=0), mu (free), e+ (>=0), e- (>=0)
    blocks = [bv.T]
    if kv:
        blocks.append(v_basis.T)
    blocks += [np.eye(n), -np.eye(n)]
    A_eq = np.vstack([np.hstack(blocks),
                      np.concatenate([np.ones(kb), np.zeros(kv + 2 * n)])])
    b_eq = np.append(point, 1.0)
    c = np.concatenate([np.zeros(kb + kv), np.ones(2 * n)])
    bounds = [(0, None)] * kb + [(None, None)] * kv + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"membership LP not solved: {res.message}")
    return bool(res.fun <= tol)


@_check("geometry", "subset-mod-subspace agrees with direct membership")
def _g_subset(ctx):
    rng = substream(ctx.seed, "g-subset")
    trials = 25 if ctx.fast else 100
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        A = Polytope(rng.normal(size=(int(rng.integers(1, 4)), n)))
        B = Polytope(rng.normal(size=(int(rng.integers(1, 4)), n)))
        kv = int(rng.integers(0, n))
        V = Subspace.from_spanning(rng.normal(size=(kv, n)), n) if kv else Subspace.zero(n)
        got = subset_mod_subspace(A, B, V)
        samples = list(A.vertices)
        w = rng.dirichlet(np.ones(A.n_vertices), size=100)
        samples.extend(list(w @ A.vertices))
        want = all(member_sum_hull_lp(s, B.vertices, V.basis) for s in samples)
        if got != want:
            return False, f"disagreement on an instance in dim {n}"
    return True, f"{trials} random instances, zero disagreements"


@_check("geometry", "linear image commutes with convex combination")
def _g_linear_image(ctx):
    rng = substream(ctx.seed, "g-image")
    for _ in range(10 if ctx.fast else 30):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A1, A2 = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        u = rng.normal(size=n)
        lam = float(rng.uniform())
        img = linear_image(MatrixPolytope(np.array([A1, A2])), u)
        mix = (lam * A1 + (1 - lam) * A2) @ u
        if dist_point_polytope(mix, img) > 1e-10 * (1 + float(np.linalg.norm(mix))):
            return False, "mixed vertex image left the hull"
    return True, "mixtures stay inside the image hull"


# ---------------------------------------------------------------------------
# piecewise

def _corpus_items(ctx):
    return sorted(ctx.corpus.functions.items())


def univariate_gap(functions, rng: np.random.Generator, n_curves: int) -> float:
    """Max |velocity(0) - derivative limit at 0+| of F along n_curves random
    cubic curves per function, the limit extrapolated from two times below
    the first breakpoint."""
    worst = 0.0
    for F in functions:
        for _ in range(n_curves):
            gamma = Curve.from_coeffs(rng.uniform(-2.0, 2.0, size=(F.ambient_dim, 4)))
            comp = compose_exact(F, gamma)
            v0 = comp.velocity(0.0)
            first = comp.breakpoints[1] if comp.breakpoints.size > 2 else 1.0
            t1, t2 = min(1e-7, first / 4), min(1e-8, first / 8)
            d1, d2 = comp.velocity(t1), comp.velocity(t2)
            limit = d2 + (d2 - d1) * t2 / (t1 - t2)
            worst = max(worst, float(np.max(np.abs(v0 - limit))))
    return worst


@_check("piecewise", "one-sided velocity equals derivative limit at 0")
def _p_univariate(ctx):
    worst = univariate_gap([cf.func for _, cf in _corpus_items(ctx)],
                           substream(ctx.seed, "p-uni"), 5 if ctx.fast else 20)
    return worst <= 1e-8, f"max gap {worst:.2e} over corpus curves"


def forward_difference_slope_ok(F, x, u, ts=(1e-3, 1e-4, 1e-5),
                                min_slope=0.9) -> tuple[bool, float | None]:
    """Forward differences vs the exact directional derivative.

    Errors below the floating-point cancellation floor eps*|F|/t count as
    exact agreement (linear pieces have zero truncation error, so only
    rounding noise remains and its slope is meaningless). A genuinely wrong
    derivative shows up as a flat error curve above the floor.
    """
    ts = np.asarray(ts, dtype=float)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = F.directional_derivative(x, u)
    fx = F.value(x)
    errs = np.array([float(np.linalg.norm((F.value(x + t * u) - fx) / t - d))
                     for t in ts])
    scale = 1.0 + float(np.linalg.norm(fx)) + float(np.linalg.norm(x) * np.linalg.norm(u))
    floors = 5e-13 * scale / ts
    above = errs > floors
    if above.sum() < 2:
        return True, None
    slope = float(np.polyfit(np.log10(ts[above]), np.log10(errs[above]), 1)[0])
    return slope >= min_slope, slope


@_check("piecewise", "directional derivative matches forward differences")
def _p_fd(ctx):
    rng = substream(ctx.seed, "p-fd")
    samples = 20 if ctx.fast else 100
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for _ in range(samples):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            ok, slope = forward_difference_slope_ok(F, x, u)
            if not ok:
                return False, f"{fid}: slope {slope:.3f} < 0.9 at x={x}"
    return True, "log-log error slope >= 0.9 (or exact) everywhere"


@_check("piecewise", "clarke jacobian is a singleton on open cells")
def _p_singleton(ctx):
    rng = substream(ctx.seed, "p-single")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for _ in range(10):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            if "0" in F.arrangement.sign_vector(x, eps=1e-6):
                continue
            if F.clarke_jacobian(x).n_vertices != 1:
                return False, f"{fid}: multiple vertices at interior point {x}"
    return True, "interior Jacobians are singletons"


@_check("piecewise", "directional derivative positively homogeneous")
def _p_homog(ctx):
    rng = substream(ctx.seed, "p-homog")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for _ in range(10):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            d1 = F.directional_derivative(x, u)
            d2 = F.directional_derivative(x, 2 * u)
            if not np.array_equal(2 * d1, d2):
                return False, f"{fid}: homogeneity broken at {x}"
            if np.any(F.directional_derivative(x, np.zeros(F.ambient_dim)) != 0):
                return False, f"{fid}: nonzero derivative at u=0"
    return True, "exact 2-homogeneity and zero at u=0"


@_check("piecewise", "restriction to cells is polynomial (generic smoothness)")
def _p_smooth(ctx):
    rng = substream(ctx.seed, "p-smooth")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for sign in F.arrangement.full_dim_signs():
            if sign not in F.pieces:
                return False, f"{fid}: missing piece {sign!r}"
            from .piecewise import sample_cell_point
            pt = sample_cell_point(F.arrangement, sign, F.box,
                                   rng, cap=5000)
            if pt is None:
                continue
            if float(np.linalg.norm(F.value(pt) - F.piece_value(sign, pt))) > 0:
                return False, f"{fid}: eval disagrees with the active polynomial"
    return True, "eval coincides with the active piece polynomial"


@_check("piecewise", "continuity validation passes on the corpus")
def _p_continuity(ctx):
    from .piecewise import validate_continuity
    for fid, cf in _corpus_items(ctx):
        rep = validate_continuity(cf.func, n_samples=10 if ctx.fast else 50,
                                  seed=ctx.seed)
        if not rep.ok:
            return False, f"{fid}: {len(rep.violations)} facet violations"
    return True, "all corpus functions facet-continuous"


# ---------------------------------------------------------------------------
# oracles

def _corpus_oracles(F):
    return [oracle_exact_directional(F), oracle_clarke_linear(F),
            oracle_branch_selection(F)]


@_check("oracles", "zero direction maps to the zero singleton")
def _o_zero(ctx):
    rng = substream(ctx.seed, "o-zero")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for D in _corpus_oracles(F):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            out = D(x, np.zeros(F.ambient_dim))
            if out.n_vertices != 1 or np.any(out.vertices != 0.0):
                return False, f"{fid}/{D.name}: D(x,0) != {{0}}"
    return True, "D(x,0) = {0} for every corpus oracle"


@_check("oracles", "exact derivative lies in the clarke image")
def _o_inclusion(ctx):
    rng = substream(ctx.seed, "o-incl")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        E, C = oracle_exact_directional(F), oracle_clarke_linear(F)
        for _ in range(5 if ctx.fast else 15):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            d = dist_point_polytope(E(x, u).vertices[0], C(x, u))
            if d > 1e-10 * (1 + float(np.linalg.norm(u))):
                return False, f"{fid}: F'(x,u) escaped the Clarke image by {d:.2e}"
    return True, "F'(x,u) in Clarke image at every sample"


@_check("oracles", "reflection is an involution")
def _o_reflect(ctx):
    rng = substream(ctx.seed, "o-reflect")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        D = oracle_clarke_linear(F)
        RR = reflect_oracle(reflect_oracle(D))
        for _ in range(5):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            if hausdorff(RR(x, u), D(x, u)) > 1e-12:
                return False, f"{fid}: reflect twice changed the oracle"
    return True, "reflect(reflect(D)) = D on samples"


@_check("oracles", "positive oracles coincide on open cells")
def _o_coincide(ctx):
    rng = substream(ctx.seed, "o-coincide")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        oracles = _corpus_oracles(F)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            if "0" in F.arrangement.sign_vector(x, eps=1e-6):
                continue
            u = rng.normal(size=F.ambient_dim)
            outs = [D(x, u).vertices for D in oracles]
            if not all(o.shape[0] == 1 for o in outs):
                return False, f"{fid}: set-valued output on an open cell"
            if not (np.allclose(outs[0], outs[1], atol=1e-12)
                    and np.allclose(outs[1], outs[2], atol=1e-12)):
                return False, f"{fid}: oracles disagree at {x}"
    return True, "exact = clarke = branch on open-cell samples"


# ---------------------------------------------------------------------------
# conditions

def _matrix_entries(ctx, rows):
    entries = []
    for fid, oid in rows:
        cf = ctx.corpus.function(fid)
        entries.append(cond.MatrixEntry(f"{fid}:{oid}", cf.func,
                                        parse_oracle(oid, cf.func),
                                        cf.base_points, cf.curves, cf.partition))
    return entries


def _fast_cfg(ctx):
    if not ctx.fast:
        return cond.VerifierConfig()
    return cond.VerifierConfig(n_uniform_directions=16, curve_samples=64,
                               cell_points=5, tangent_combos=3)


@_check("conditions", "clarke oracle is semismooth on the whole corpus")
def _c_clarke_semismooth(ctx):
    cfg = _fast_cfg(ctx)
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        D = oracle_clarke_linear(F)
        for i, x in enumerate(cf.base_points):
            rep = cond.check_semismooth_I(F, D, x, cfg,
                                          substream(ctx.seed, fid, "cor", i))
            if rep.verdict != "pass":
                return False, f"{fid} base point {i}: verdict {rep.verdict}"
    return True, "semismooth I passes at every base point incl. kinks"


@_check("conditions", "equivalence matrix is consistent; 3 implies 1 and 2")
def _c_matrix(ctx):
    rows = ctx.corpus.matrix_rows if not ctx.fast else ctx.corpus.matrix_rows[:4]
    rep = cond.equivalence_matrix(_matrix_entries(ctx, rows), _fast_cfg(ctx),
                                  seed=ctx.seed)
    for row in rep.rows:
        v = row.verdicts
        if v["3"] == "pass" and ("fail" in (v["1"], v["2"])):
            return False, f"{row.entry_id}: condition 3 passed but 1/2 failed"
    if not rep.all_consistent:
        bad = [r.entry_id for r in rep.rows if not r.consistent]
        return False, f"inconsistent rows: {bad}"
    return True, f"{len(rep.rows)} rows, all consistent"


@_check("conditions", "reflection duality of the semismooth sweeps")
def _c_duality(ctx):
    cfg = _fast_cfg(ctx)
    cases = [("abs1d", "clarke"), ("max2d", "exact"), ("id1d", "scale:2")]
    for fid, oid in cases:
        cf = ctx.corpus.function(fid)
        D = parse_oracle(oid, cf.func)
        x = cf.base_points[0]
        r1 = cond.check_semismooth_I(cf.func, D, x, cfg,
                                     substream(ctx.seed, fid, "dual"))
        r2 = cond.check_semismooth_II(cf.func, reflect_oracle(D), x, cfg,
                                      substream(ctx.seed, fid, "dual"))
        a = np.array(r1.sample_residuals, dtype=float)
        b = np.array(r2.sample_residuals, dtype=float)
        mask = ~(np.isnan(a) | np.isnan(b))
        if r1.verdict != r2.verdict or not np.allclose(a[mask], b[mask], atol=ctx.eps_eq):
            return False, f"{fid}:{oid}: duality mismatch"
    return True, "I(D) matches II(reflect D) sample-for-sample"


@_check("conditions", "first-order expansion anchored at the base point")
def _c_bder(ctx):
    cfg = _fast_cfg(ctx)
    for fid, cf in _corpus_items(ctx):
        for i, x in enumerate(cf.base_points):
            rep = cond.check_base_anchored(cf.func, x, cfg,
                                           substream(ctx.seed, fid, "bder", i))
            if rep.verdict != "pass":
                return False, f"{fid} base point {i}: expansion residual persists"
    # fixed wrong branch at the kink of |x| must fail
    absf = ctx.corpus.function("abs1d").func
    rep = cond.check_base_anchored(absf, [0.0], cfg,
                                   substream(ctx.seed, "bder-neg"),
                                   fixed_matrix=np.array([[-1.0]]))
    if rep.verdict != "fail":
        return False, "wrong-branch control unexpectedly passed"
    return True, "expansion decays with F'(x,.) and fails with a fixed branch"


@_check("conditions", "projection formula on the corpus partitions")
def _c_projection(ctx):
    cfg = _fast_cfg(ctx)
    for fid, cf in _corpus_items(ctx):
        part = cond.refine(cf.func.arrangement, cf.partition)
        rep = cond.check_projection_formula(cf.func, part, cfg,
                                            substream(ctx.seed, fid, "proj"))
        if rep.verdict != "pass":
            return False, f"{fid}: projection formula verdict {rep.verdict}"
    return True, "tangential Clarke intervals are degenerate everywhere"


# ---------------------------------------------------------------------------
# solvers

@_check("solvers", "piecewise-linear equations terminate at exact zero")
def _s_linear(ctx):
    F = ctx.corpus.function("absplus").func
    for x0 in ([2.0], [7.0], [0.3]):
        trace = solvers.semismooth_newton(F, "clarke", x0)
        if not trace.converged or trace.residual_norms[-1] != 0.0:
            return False, f"absplus from {x0}: status {trace.status}"
        if len(trace.iterates) > 3:
            return False, f"absplus from {x0}: too many steps"
    return True, "exact-zero residual within the cell count"


@_check("solvers", "scale:2 control converges linearly at rate 1/2")
def _s_rate(ctx):
    F = ctx.corpus.function("id1d").func
    D = parse_oracle("scale:2", F)
    trace = solvers.semismooth_newton(F, D, [1.0])
    ratios = solvers.newton_rate_estimate(trace, root=[0.0])
    if not ratios:
        return False, "no ratios recorded"
    if any(abs(r - 0.5) > 1e-6 for r in ratios):
        return False, "ratios deviate from 1/2"
    return True, f"{len(ratios)} ratios all equal to 1/2"


@_check("solvers", "subgradient descent reaches the grid minimum")
def _s_subgrad(ctx):
    cf = ctx.corpus.function("maxreg2d")
    res = 5e-3 if ctx.fast else 1e-3
    best_pt, best_val = solvers.grid_minimize(cf.func, [-1.0, -1.0], [0.0, 0.0],
                                              resolution=res)
    trace = solvers.subgradient_descent(cf.func, "clarke", [1.0, 1.0],
                                        rule="c_over_sqrt_k", c=0.5, iters=400)
    gap = trace.best_value - best_val
    if gap > 0.05:
        return False, f"value gap {gap:.3g} above tolerance"
    return True, f"value gap {gap:.3g} vs brute-force minimum"


# ---------------------------------------------------------------------------
# corpus / reports

@_check("corpus", "serialization round-trips bit-exactly")
def _r_roundtrip(ctx):
    t1 = corpus_to_json(ctx.corpus)
    t2 = corpus_to_json(corpus_from_json(t1))
    if t1 != t2:
        return False, "serialized forms differ"
    return True, f"{len(t1)} bytes stable under load/serialize/load"


@_check("corpus", "matrix reports are byte-identical across runs")
def _r_determinism(ctx):
    rows = ctx.corpus.matrix_rows[:3]
    cfg = _fast_cfg(ctx)
    texts = []
    for _ in range(2):
        rep = cond.equivalence_matrix(_matrix_entries(ctx, rows), cfg,
                                      seed=ctx.seed)
        texts.append(render_matrix_report(rep, seed=ctx.seed))
    if texts[0] != texts[1]:
        return False, "two identical runs rendered different bytes"
    return True, f"{len(texts[0])} bytes, identical on rerun"
