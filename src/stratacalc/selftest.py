"""Built-in invariant suite: the module properties that no acceptance
criterion in tests/test_acceptance.py owns, runnable without pytest via the
selftest command.

Checks are registered per group (geometry / piecewise / oracles /
conditions / solvers / corpus) and each returns pass/fail plus a one-line
detail; a check that raises counts as failed. Sampled checks draw from
substreams of the context seed; the cell-smoothness, continuity and
projection-formula checks are exact and draw nothing. The geometry metric
check requires the metric to separate known-distinct sets by more than
EPS_EQ, the agreement tolerance of piecewise.py, so a corrupted tolerance
is caught by the harness itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conditions as cond
from . import solvers
from .corpus import Corpus, corpus_from_json, corpus_to_json, default_corpus
from .geometry import (
    MatrixPolytope,
    Polytope,
    Subspace,
    dist_point_polytope,
    hausdorff,
    linear_image,
    project,
)
from .oracles import (
    oracle_branch_selection,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
)
from .piecewise import EPS_EQ, validate_continuity
from .seeding import substream


@dataclass
class SelftestContext:
    seed: int = 0
    corpus: Corpus = field(init=False, repr=False, default_factory=default_corpus)


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
    for _ in range(100):
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
    for _ in range(40):
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
    # separation against the agreement tolerance: known-distinct unit-apart
    # polytopes must register as farther than EPS_EQ
    d = hausdorff(Polytope([[0.0]]), Polytope([[1.0]]))
    if not d > EPS_EQ:
        return False, (f"metric does not separate unit-distant sets at "
                       f"EPS_EQ={EPS_EQ:g} (d={d!r})")
    return True, "symmetry, triangle inequality, separation hold"


@_check("geometry", "linear image commutes with convex combination")
def _g_linear_image(ctx):
    rng = substream(ctx.seed, "g-image")
    for _ in range(30):
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


@_check("piecewise", "clarke jacobian is a singleton on open cells")
def _p_singleton(ctx):
    rng = substream(ctx.seed, "p-single")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for _ in range(10):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            if np.any(np.abs(F.arrangement.residuals(x)) <= 1e-6):
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
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        for sign in F.arrangement.full_dim_signs():
            if sign not in F.pieces:
                return False, f"{fid}: missing piece {sign!r}"
            pt = F.arrangement.cell_point(sign)
            if float(np.linalg.norm(F.value(pt) - F.piece_value(sign, pt))) > 0:
                return False, f"{fid}: eval disagrees with the active polynomial"
    return True, "eval coincides with the active piece polynomial"


@_check("piecewise", "continuity validation passes on the corpus")
def _p_continuity(ctx):
    for fid, cf in _corpus_items(ctx):
        rep = validate_continuity(cf.func)
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
        for _ in range(15):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            d = dist_point_polytope(E(x, u).vertices[0], C(x, u))
            if d > 1e-10 * (1 + float(np.linalg.norm(u))):
                return False, f"{fid}: F'(x,u) escaped the Clarke image by {d:.2e}"
    return True, "F'(x,u) in Clarke image at every sample"


@_check("oracles", "reflection is -D(x,-u)")
def _o_reflect(ctx):
    rng = substream(ctx.seed, "o-reflect")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        E, R = oracle_exact_directional(F), parse_oracle("reflect:exact", F)
        for x in cf.base_points:    # kinks among them, where the sign of u matters
            u = rng.normal(size=F.ambient_dim)
            if hausdorff(R(x, u), Polytope(-E(x, -u).vertices)) > 1e-12:
                return False, f"{fid}: reflect(D)(x,u) != -D(x,-u)"
    return True, "reflect(D)(x,u) = -D(x,-u) at every base point"


@_check("oracles", "positive oracles coincide on open cells")
def _o_coincide(ctx):
    rng = substream(ctx.seed, "o-coincide")
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        oracles = _corpus_oracles(F)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            if np.any(np.abs(F.arrangement.residuals(x)) <= 1e-6):
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

@_check("conditions", "first-order expansion anchored at the base point")
def _c_bder(ctx):
    for fid, cf in _corpus_items(ctx):
        for i, x in enumerate(cf.base_points):
            rep = cond.check_base_anchored(cf.func, x,
                                           rng=substream(ctx.seed, fid, "bder", i))
            if rep.verdict != "pass":
                return False, f"{fid} base point {i}: expansion residual persists"
    # fixed wrong branch at the kink of |x| must fail
    absf = ctx.corpus.function("abs1d").func
    rep = cond.check_base_anchored(absf, [0.0], rng=substream(ctx.seed, "bder-neg"),
                                   fixed_matrix=np.array([[-1.0]]))
    if rep.verdict != "fail":
        return False, "wrong-branch control unexpectedly passed"
    return True, "expansion decays with F'(x,.) and fails with a fixed branch"


@_check("conditions", "projection formula on the corpus partitions")
def _c_projection(ctx):
    for fid, cf in _corpus_items(ctx):
        part = cond.refine(cf.func.arrangement, cf.partition)
        rep = cond.check_projection_formula(cf.func, part)
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


@_check("solvers", "subgradient descent reaches the grid minimum")
def _s_subgrad(ctx):
    cf = ctx.corpus.function("maxreg2d")
    _, best_val = solvers.grid_minimize(cf.func, [-1.0, -1.0], [0.0, 0.0])
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
