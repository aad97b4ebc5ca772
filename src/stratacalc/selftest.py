"""Built-in invariant suite: the module properties that no acceptance
criterion in tests/test_acceptance.py owns, runnable without pytest via the
selftest command.

Checks are registered per group (piecewise / oracles / conditions /
solvers / corpus) and each returns pass/fail plus a one-line detail; a
check that raises counts as failed. Every check is decided on fixed data
and draws nothing: the cells of each corpus function, their lattices, the
directions {-1, 0, 1}^n, and the base points and minimizers the corpus
records. Geometry properties live in tests/test_geometry.py only. The
wrong-branch control of the base-anchored check requires its residual to
exceed EPS_EQ, the agreement tolerance of piecewise.py, so a corrupted
tolerance is caught by the harness itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import conditions as cond
from . import solvers
from .corpus import Corpus, corpus_from_json, corpus_to_json, default_corpus
from .geometry import row_norms
from .oracles import (
    oracle_branch_selection,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
)
from .piecewise import EPS_EQ, sample_cell_point, validate_continuity


@dataclass
class SelftestContext:
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


def _lattice(F, signs) -> np.ndarray:
    """The stacked `sample_cell_point` lattices of F's cells `signs`."""
    return np.vstack([sample_cell_point(F.arrangement, s, F.degree) for s in signs])


def _rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (x, u) for each point x and nonzero u in {-1, 0, 1}^n: for n <= 2
    these run along and across every shipped hyperplane and partition line."""
    U = np.array([u for u in itertools.product((-1.0, 0.0, 1.0), repeat=points.shape[1])
                  if any(u)])
    return np.repeat(points, len(U), axis=0), np.tile(U, (len(points), 1))


@_check("piecewise", "clarke jacobian is a singleton on open cells")
def _p_singleton(ctx):
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        if F.clarke_jacobians(_lattice(F, F.arrangement.full_dim_signs())).shape[1] != 1:
            return False, f"{fid}: multiple vertices on an open cell"
    return True, "interior Jacobians are singletons"


@_check("piecewise", "directional derivative positively homogeneous")
def _p_homog(ctx):
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        X, U = _rows(_lattice(F, F.arrangement.all_nonempty_signs()))
        d1, d2, d0 = np.split(F.directional_derivatives(
            np.vstack([X, X, X]), np.vstack([U, 2 * U, np.zeros_like(U)])), 3)
        if not np.array_equal(2 * d1, d2):
            return False, f"{fid}: homogeneity broken"
        if np.any(d0 != 0):
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
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        X = _lattice(F, F.arrangement.all_nonempty_signs())
        for D in _corpus_oracles(F):
            out = D.batch(X, np.zeros_like(X))
            if out.shape[1] != 1 or np.any(out != 0.0):
                return False, f"{fid}/{D.name}: D(x,0) != {{0}}"
    return True, "D(x,0) = {0} for every corpus oracle"


@_check("oracles", "exact derivative lies in the clarke image")
def _o_inclusion(ctx):
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        X, U = _rows(_lattice(F, F.arrangement.all_nonempty_signs()))
        img = oracle_clarke_linear(F).batch(X, U)
        miss = row_norms(img - F.directional_derivatives(X, U)[:, None, :]).min(axis=1)
        if np.any(miss > 1e-10 * (1.0 + row_norms(U))):
            return False, f"{fid}: F'(x,u) lies {miss.max():.2e} from every Clarke vertex"
    return True, "F'(x,u) is a vertex of the Clarke image on every cell"


@_check("oracles", "reflection is -D(x,-u)")
def _o_reflect(ctx):
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        E, R = oracle_exact_directional(F), parse_oracle("reflect:exact", F)
        X, U = _rows(np.array(cf.base_points))   # kinks among them, where the sign of u matters
        if np.max(np.abs(R.batch(X, U) + E.batch(X, -U))) > 1e-12:
            return False, f"{fid}: reflect(D)(x,u) != -D(x,-u)"
    return True, "reflect(D)(x,u) = -D(x,-u) at every base point"


@_check("oracles", "positive oracles coincide on open cells")
def _o_coincide(ctx):
    for fid, cf in _corpus_items(ctx):
        F = cf.func
        X, U = _rows(_lattice(F, F.arrangement.full_dim_signs()))
        outs = [D.batch(X, U) for D in _corpus_oracles(F)]
        if not all(o.shape[1] == 1 for o in outs):
            return False, f"{fid}: set-valued output on an open cell"
        if not (np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])):
            return False, f"{fid}: oracles disagree on an open cell"
    return True, "exact = clarke = branch on every open cell"


# ---------------------------------------------------------------------------
# conditions

def base_anchored_residual(F, x, fixed_matrix=None) -> float:
    """The largest |c1 - F'(x, t)| / |t| over the cells C of positive
    dimension whose closure holds x, for t = w - x with C's LP witness w (or
    t = +/- C's tangent basis when w is x) and c1 the h-coefficient of C's
    piece along x + h t. A fixed_matrix A replaces F'(x, t) with A t.

    F is C's piece on the segment (x, w], so the first-order expansion
    anchored at x holds exactly with F'(x, .), while a matrix fixed at a
    kink misses it on some cell.
    """
    x = np.asarray(x, dtype=float)
    arr, worst = F.arrangement, 0.0
    # the cells whose closure holds x agree with x's sign wherever it is nonzero
    options = ["-0+" if c == "0" else c for c in arr.sign_vector(x)]
    for sign in map("".join, itertools.product(*options)):
        if not (arr.cell_nonempty(sign) and arr.cell(sign).dimension):
            continue
        cell = arr.cell(sign)
        t = cell.point - x
        T = t[None] if np.any(t) else np.vstack([cell.tangent.basis, -cell.tangent.basis])
        piece = F.pieces[arr.compatible_full_signs(sign)[0]]
        c1 = np.array([[np.append(p.compose_univariate(list(np.stack([x, u], axis=1))), 0.0)[1]
                        for p in piece] for u in T])
        pred = (T @ fixed_matrix.T if fixed_matrix is not None
                else F.directional_derivatives(np.broadcast_to(x, T.shape), T))
        worst = max(worst, float(np.max(row_norms(c1 - pred) / row_norms(T))))
    return worst


@_check("conditions", "first-order expansion anchored at the base point")
def _c_bder(ctx):
    for fid, cf in _corpus_items(ctx):
        for i, x in enumerate(cf.base_points):
            res = base_anchored_residual(cf.func, x)
            if not res <= EPS_EQ:
                return False, f"{fid} base point {i}: expansion residual {res:g}"
    # the wrong branch -1 at the kink of |x| misses by (|t| + t)/|t| = 2 on
    # the + cell, which must stand clear of EPS_EQ, or EPS_EQ is corrupted
    res = base_anchored_residual(ctx.corpus.function("abs1d").func, [0.0],
                                 fixed_matrix=np.array([[-1.0]]))
    if not res > EPS_EQ:
        return False, f"wrong-branch control residual {res:g} at EPS_EQ={EPS_EQ:g}"
    return True, "expansion holds with F'(x,.) on every star cell, fails with a fixed branch"


@_check("conditions", "projection formula on the corpus partitions")
def _c_projection(ctx):
    for fid, cf in _corpus_items(ctx):
        part = cond.refine(cf.func.arrangement, cf.partition)
        rep = cond.check_stratified(cf.func, oracle_clarke_linear(cf.func), part)[0]
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


@_check("solvers", "subgradient descent reaches the known minimum")
def _s_subgrad(ctx):
    cf = ctx.corpus.function("maxreg2d")
    trace = solvers.subgradient_descent(cf.func, "clarke", [1.0, 1.0],
                                        rule="c_over_sqrt_k", c=0.5, iters=400)
    gap = trace.best_value - float(cf.func.value(cf.minimizer)[0])
    if not 0.0 <= gap <= 0.05:
        return False, f"value gap {gap:.3g} outside [0, 0.05]"
    return True, f"value gap {gap:.3g} vs known minimum"


# ---------------------------------------------------------------------------
# corpus / reports

@_check("corpus", "serialization round-trips bit-exactly")
def _r_roundtrip(ctx):
    t1 = corpus_to_json(ctx.corpus)
    t2 = corpus_to_json(corpus_from_json(t1))
    if t1 != t2:
        return False, "serialized forms differ"
    return True, f"{len(t1)} bytes stable under load/serialize/load"
