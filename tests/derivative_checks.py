"""Reference checks of the directional derivative (acceptance criteria 8
and 10): one-sided velocity limits along curves and forward differences,
and the active piece's sign vector found one row at a time."""

import numpy as np

from stratacalc.piecewise import EPS_CELL, Curve, PiecewiseError, compose_exact


def directional_sign(F, x, u) -> str:
    """Sign vector of the piece active on (x, x + eps*u], u != 0, one
    character per hyperplane: the residual's sign off it, else the sign of
    <a_i, u>, else '+' where u is tangent to it. Raises for an empty cell
    (a degenerate arrangement) and for a cell without a piece."""
    arr = F.arrangement
    r, du = arr.normals @ x - arr.offsets, arr.normals @ u
    unorm = float(np.linalg.norm(u))
    chars = []
    for ri, di in zip(r, du):
        if abs(ri) > EPS_CELL:
            chars.append("+" if ri > 0 else "-")
        elif abs(di) > EPS_CELL * unorm:
            chars.append("+" if di > 0 else "-")
        else:
            chars.append("+")
    sign = "".join(chars)
    if not arr.cell_nonempty(sign):
        raise PiecewiseError(f"directional cell {sign!r} is empty: arrangement is "
                             "degenerate (duplicate hyperplanes with opposite orientations?)")
    if sign not in F.pieces:
        raise PiecewiseError(f"no piece for directional cell {sign!r}")
    return sign


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
