"""The numpy max-margin cell LP against the HiGHS formulation it replaced.

`highs_cell_lp` is the reference: the same LP through scipy's linprog.
`Arrangement.cell_nonempty` must reach the decision the reference reaches on
every sign vector of the arrangements below, with the same margin.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from stratacalc import piecewise
from stratacalc.piecewise import EPS_CELL, LP_BOX, Arrangement, Hyperplane


def highs_cell_lp(arr: Arrangement, sign: str):
    """max m s.t. s_i (a_i.x - b_i) >= m, a_j.x = b_j on the zero rows,
    |x|_inf <= LP_BOX, m <= 1, by HiGHS; (margin, point) or (-inf, None)."""
    n = arr.ambient_dim
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for a, b, c in zip(arr.normals, arr.offsets, sign):
        if c == "0":
            A_eq.append(np.append(a, 0.0))
            b_eq.append(b)
        else:
            s = 1.0 if c == "+" else -1.0
            # s*(a.x - b) >= m  <=>  -s*a.x + m <= -s*b
            A_ub.append(np.append(-s * a, 1.0))
            b_ub.append(-s * b)
    c_obj = np.zeros(n + 1)
    c_obj[-1] = -1.0
    res = linprog(c_obj,
                  A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=[(-LP_BOX, LP_BOX)] * n + [(None, 1.0)], method="highs")
    if not res.success:
        return -np.inf, None
    return float(res.x[-1]), res.x[:-1].copy()


def highs_nonempty(arr: Arrangement, sign: str, margin, point) -> bool:
    """cell_nonempty's rule applied to the reference LP's answer."""
    zero = [c == "0" for c in sign]
    return bool(margin > 1e-9 and np.all(np.abs(arr.residuals(point)[zero]) <= EPS_CELL))


def arrangement(rng, n: int, k: int) -> Arrangement:
    """k >= 3 hyperplanes in R^n: k - 2 random ones through one vertex, then
    one parallel to the first (shifted) and the second again with the
    opposite orientation."""
    v = rng.uniform(-3.0, 3.0, n)
    normals = rng.normal(size=(k - 2, n))
    hps = [Hyperplane(a, a @ v) for a in normals]
    hps.append(Hyperplane(hps[0].normal, hps[0].offset + rng.uniform(0.5, 2.0)))
    hps.append(Hyperplane(-hps[1 % (k - 2)].normal, -hps[1 % (k - 2)].offset))
    return Arrangement(n, tuple(hps))


# (n, k): five lines in the plane, three through one vertex, then one
# arrangement per dimension up to MAX_DIM = 8; 540 sign vectors in all
SHAPES = [(1, 4), (2, 5), (3, 4)] + [(n, 3) for n in range(4, 9)]


@pytest.mark.parametrize("n, k", SHAPES)
def test_cell_lp_matches_highs_on_every_sign_vector(n, k):
    arr = arrangement(np.random.default_rng(100 * n + k), n, k)
    for sign in map("".join, itertools.product("-0+", repeat=k)):
        margin, point, _ = arr._solve_cell_lp(sign)
        ref_margin, ref_point = highs_cell_lp(arr, sign)
        assert arr.cell_nonempty(sign) == highs_nonempty(arr, sign, ref_margin, ref_point), sign
        if arr.cell_nonempty(sign):    # the witness lies in the cell
            assert arr.sign_vector(arr.cell(sign).point) == sign
        if np.isfinite(ref_margin):
            assert abs(margin - ref_margin) <= 1e-9, sign
        # HiGHS also reports inconsistent zero rows infeasible; this LP
        # returns their least-squares point, which the residual test rejects
        if not np.isfinite(margin):
            assert not np.isfinite(ref_margin), sign


# the affine hull of the zero rows meets the box, but its min-norm point
# lies outside it: phase 1 must find a point in the box (HiGHS's answers)
def test_phase1_hull_point_outside_box():
    arr = Arrangement(2, (Hyperplane([0.6, 0.8], 1.3e4),))
    assert arr.cell_nonempty("0")
    assert np.max(np.abs(arr.cell("0").point)) <= LP_BOX


def test_phase1_with_a_second_hyperplane():
    arr = Arrangement(2, (Hyperplane([0.6, 0.8], 1.3e4), Hyperplane([1, 0], 5000)))
    assert arr.cell_nonempty("0+")
    assert not arr.cell_nonempty("0-")
    assert not arr.cell_nonempty("00")
    # on that line within the box x >= 25000/3, so the best '0-' margin is
    # 5000 - 25000/3 < 0: feasible, but empty
    assert arr._solve_cell_lp("0-")[0] == pytest.approx(-10000 / 3)


def test_phase1_hull_misses_box():
    arr = Arrangement(2, (Hyperplane([0.6, 0.8], 1.5e4),))
    assert not arr.cell_nonempty("0")
    assert arr._solve_cell_lp("0")[:2] == (-np.inf, None)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(piecewise, "LP_MAX_PIVOTS", 1)
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([0, 1], 0.0)))
    with pytest.raises(RuntimeError, match="pivots"):
        arr._solve_cell_lp("++")
