"""Semismooth Newton for piecewise-polynomial equations and a subgradient
method driven by generalized-derivative oracles.

The Newton step inverts one deterministic element of the generalized
Jacobian (lexicographically minimal vertex of the Clarke polytope, or the
matrix assembled from a singleton oracle such as the branch selection);
near-singular selections are damped diagonally on a fixed schedule. Rate
estimates quantify the superlinear convergence that the semismoothness
conditions certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import as_vector, diameters
from .oracles import GeneralizedDerivative
from .piecewise import PiecewiseFunction


NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
DET_TOL = 1e-12
DAMP_INIT = 1e-8
DAMP_MAX = 1e-2
STEP_MAX = 1e6   # damped steps beyond this are a stall, not progress
GRID_RESOLUTION = 1e-3   # node spacing of grid_minimize
GRID_CHUNK = 200_000   # grid nodes evaluated per call in grid_minimize


@dataclass(frozen=True, eq=False)
class NewtonTrace:
    iterates: tuple[np.ndarray, ...]
    residual_norms: tuple[float, ...]
    jacobians: tuple[np.ndarray, ...]
    status: str   # converged / max_iter / singular_stall
    damping_log: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _jacobian_from_oracle(D: GeneralizedDerivative, x: np.ndarray) -> np.ndarray:
    """Assemble a matrix column-by-column from a singleton oracle."""
    n = D.input_dim
    cols = D.batch(np.tile(x, (n, 1)), np.eye(n))
    if np.max(diameters(cols)) > 1e-9:
        raise ValueError(
            f"oracle {D.name!r} is set-valued at {x}; cannot assemble a Jacobian")
    return cols[:, 0, :].T


def _select_jacobian(F: PiecewiseFunction, source, x: np.ndarray) -> np.ndarray:
    """The lexicographically minimal Clarke vertex for "clarke", else the
    matrix of a singleton oracle."""
    if source == "clarke":
        return F.clarke_jacobian(x).lex_min_vertex()
    if isinstance(source, GeneralizedDerivative):
        return _jacobian_from_oracle(source, x)
    raise ValueError(f"unknown jacobian source {source!r}")


def _finite_step(solver: str, k: int, x, step, scale: float = 1.0) -> np.ndarray:
    """x - scale * step, or a ValueError naming the solver, the iteration k
    and the last finite iterate x when the new iterate overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        new = x - scale * step
    if not np.isfinite(new).all():
        raise ValueError(f"{solver} diverged at iteration k={k}: the step from "
                         f"the last finite iterate {x.tolist()} is not finite")
    return new


def semismooth_newton(F: PiecewiseFunction, jacobian_source, x0) -> NewtonTrace:
    """Newton iteration x+ = x - A(x)^{-1} F(x) on a square piecewise map.

    A(x) is the selected generalized Jacobian: jacobian_source is "clarke" or
    a singleton oracle such as `oracle_branch_selection(F)`. When
    |det A| < DET_TOL the matrix is damped as A + lambda*I with lambda
    doubling from DAMP_INIT up to DAMP_MAX; if no lambda restores
    invertibility, or the damped step is absurdly long (flat singular
    pieces), the run stops as singular_stall.
    """
    if F.output_dim != F.ambient_dim:
        raise ValueError("semismooth Newton needs a square system (m = n)")
    x = np.asarray(x0, dtype=float).copy()
    iterates = [x.copy()]
    jacobians: list[np.ndarray] = []
    damping_log: list[str] = []
    residuals: list[float] = []
    status = "max_iter"
    for k in range(NEWTON_MAX_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            fx = F.value(x)
            norm = float(np.linalg.norm(fx))
        if not np.isfinite(fx).all():   # then so is the step from x
            _finite_step("semismooth Newton", k, x, fx)
        if norm == np.inf:              # ||F||^2 overflowed: rescale by max |F_i|
            big = float(np.max(np.abs(fx)))
            norm = big * float(np.linalg.norm(fx / big))
        residuals.append(norm)
        if norm <= NEWTON_TOL:
            status = "converged"
            break
        if k == NEWTON_MAX_ITER:
            break
        A = _select_jacobian(F, jacobian_source, x)
        damped = False
        if abs(float(np.linalg.det(A))) < DET_TOL:
            lam = DAMP_INIT
            while lam <= DAMP_MAX * (1 + 1e-12):
                if abs(float(np.linalg.det(A + lam * np.eye(A.shape[0])))) >= DET_TOL:
                    damping_log.append(f"k={k} lambda={lam:g}")
                    A = A + lam * np.eye(A.shape[0])
                    damped = True
                    break
                lam *= 2.0
            if not damped:
                status = "singular_stall"
                damping_log.append(f"k={k} damping exhausted at lambda={DAMP_MAX:g}")
                jacobians.append(A)
                break
        step = np.linalg.solve(A, fx)
        if damped and float(np.linalg.norm(step)) > STEP_MAX:
            status = "singular_stall"
            damping_log.append(
                f"k={k} damped step length {float(np.linalg.norm(step)):.3g} "
                f"exceeds {STEP_MAX:g}")
            jacobians.append(A)
            break
        x = _finite_step("semismooth Newton", k, x, step)
        iterates.append(x.copy())
        jacobians.append(A)
    return NewtonTrace(tuple(iterates), tuple(residuals), tuple(jacobians),
                       status, tuple(damping_log))


def newton_rate_estimate(trace: NewtonTrace, root=None) -> list[float]:
    """Error contraction ratios e_{k+1}/e_k with e_k = ||x_k - x*||.

    x* defaults to the final iterate (self-referential estimate); pass the
    known root when available. Ratios are reported only where e_k exceeds
    100*NEWTON_TOL, below which the estimate is noise.
    """
    xs = trace.iterates
    if len(xs) < 3 and root is None:
        return []
    xstar = np.asarray(root, dtype=float) if root is not None else xs[-1]
    errs = [float(np.linalg.norm(x - xstar)) for x in xs]
    ratios = []
    for k in range(len(errs) - 1):
        if errs[k] > 100.0 * NEWTON_TOL:
            ratios.append(errs[k + 1] / errs[k])
    return ratios


# ---------------------------------------------------------------------------
# subgradient descent

@dataclass(frozen=True, eq=False)
class SubgradientTrace:
    iterates: tuple[np.ndarray, ...]
    values: tuple[float, ...]
    subgradients: tuple[np.ndarray, ...]
    step_sizes: tuple[float, ...]

    @property
    def best_value(self) -> float:
        return min(self.values)


def step_size(rule: str, c: float, k: int) -> float:
    """k is 1-based. Rules: constant | one_over_k | c_over_sqrt_k."""
    if rule == "constant":
        return c
    if rule == "one_over_k":
        return 1.0 / k
    if rule == "c_over_sqrt_k":
        return c / np.sqrt(k)
    raise ValueError(f"unknown step rule {rule!r}")


def subgradient_descent(f: PiecewiseFunction, grad_source, x0,
                        rule: str = "one_over_k", c: float = 1.0,
                        iters: int = 200) -> SubgradientTrace:
    """x+ = x - alpha_k g_k for a scalar objective.

    g_k is the lexicographically minimal Clarke subgradient when
    grad_source == "clarke", or the singleton value of a generalized
    derivative oracle assembled coordinate-wise.
    """
    if f.output_dim != 1:
        raise ValueError("subgradient descent needs a scalar objective")
    x = as_vector(x0, f.ambient_dim).copy()
    iterates = [x.copy()]
    grads: list[np.ndarray] = []
    steps: list[float] = []
    for k in range(1, iters + 1):
        g = _select_jacobian(f, grad_source, x)[0]
        alpha = step_size(rule, c, k)
        x = _finite_step("subgradient descent", k, x, g, alpha)
        iterates.append(x.copy())
        grads.append(g)
        steps.append(alpha)
    with np.errstate(over="ignore", invalid="ignore"):   # no step reads F: inf stands
        values = tuple(map(float, f.values(np.array(iterates))[:, 0]))
    return SubgradientTrace(tuple(iterates), values, tuple(grads),
                            tuple(steps))


def grid_minimize(f: PiecewiseFunction, lo, hi) -> tuple[np.ndarray, float]:
    """Brute-force grid search for the minimizer of a scalar objective.

    Independent of the descent path: evaluates every grid node of the box
    at spacing GRID_RESOLUTION (piece selected per node by sign compatibility).
    """
    if f.output_dim != 1:
        raise ValueError("grid search needs a scalar objective")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.arange(l, h + GRID_RESOLUTION / 2, GRID_RESOLUTION) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    best_val, best_pt = np.inf, None
    for start in range(0, pts.shape[0], GRID_CHUNK):
        block = pts[start:start + GRID_CHUNK]
        vals = f.values(block)[:, 0]
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_pt = block[idx].copy()
    return best_pt, best_val
