"""Built-in invariant suite: the module properties that no acceptance
criterion in tests/test_acceptance.py owns, runnable without pytest via the
selftest command.

Checks are registered per group (piecewise / oracles / conditions /
solvers / corpus) and each returns pass/fail plus a one-line detail; a
check that raises counts as failed. Sampled checks draw from substreams of
the context seed; the cell-smoothness, continuity and projection-formula
checks are exact and draw nothing. Geometry properties live in
tests/test_geometry.py only. The wrong-branch control of the base-anchored
check requires its residual to exceed EPS_EQ, the agreement tolerance of
piecewise.py, so a corrupted tolerance is caught by the harness itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conditions as cond
from . import solvers
from .corpus import Corpus, corpus_from_json, corpus_to_json, default_corpus
from .geometry import Polytope, dist_point_polytope, hausdorff
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
            pt = F.arrangement.cell(sign).point
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
            if not (np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])):
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
    # its last residual, (|y| + y)/r = 2 at y = r, must stand clear of the
    # agreement tolerance, or EPS_EQ is corrupted
    last = rep.residual_table[-1][1]
    if rep.verdict != "fail" or not last > EPS_EQ:
        return False, (f"wrong-branch control read {rep.verdict} with residual "
                       f"{last:g} at EPS_EQ={EPS_EQ:g}")
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
