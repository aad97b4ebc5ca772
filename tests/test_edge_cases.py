from dataclasses import replace

import numpy as np
import pytest

from stratacalc.conditions import check_stratified, check_stratified_derivative
from stratacalc.oracles import GeneralizedDerivative, oracle_clarke_linear
from stratacalc.piecewise import (
    Arrangement,
    Curve,
    Hyperplane,
    PiecewiseError,
    PiecewiseFunction,
    Polynomial,
    compose_exact,
    refine,
)

from test_piecewise import P, make_abs1d


def test_directional_cell_degenerate_arrangement_raises():
    # duplicate hyperplane with flipped orientation: both tie-break to '+',
    # an infeasible combination that must be reported, not silently used
    arr = Arrangement(2, (Hyperplane([1.0, 0.0], 0.0),
                          Hyperplane([-1.0, 0.0], 0.0)))
    zero = Polynomial.constant(2, 0.0)
    F = PiecewiseFunction(arr, 1, {
        "+-": (zero,), "-+": (zero,),
    })
    with pytest.raises(PiecewiseError, match=r"sign vector '\+\+'.* empty"):
        F.directional_derivative([0.0, 0.0], [0.0, 1.0])


def test_compose_crossing_at_existing_breakpoint():
    # the curve's own breakpoint coincides with the kink crossing
    F = make_abs1d()
    gamma = Curve(np.array([0.0, 0.5, 1.0]),
                  (np.array([[-0.5, 1.0]]), np.array([[-0.5, 1.0]])))
    comp = compose_exact(F, gamma)
    assert np.allclose(comp.value(0.2), [0.3])
    assert np.allclose(comp.value(0.8), [0.3])
    # breakpoints merged: no duplicated subdivision at 0.5
    assert np.all(np.diff(comp.breakpoints) > 1e-9)


@pytest.mark.parametrize("c0", [0.3, 0.5])
def test_compose_two_close_crossings(c0):
    # (t - c0)^2 - 1e-8 crosses the kink of |x| at c0 -+ 1e-4: two sign
    # changes 2e-4 apart are both cuts, with the curve left of 0 between them
    comp = compose_exact(make_abs1d(), Curve.from_coeffs([[c0 * c0 - 1e-8, -2 * c0, 1.0]]))
    assert len(comp.pieces) == 3
    assert np.allclose(comp.breakpoints[1:3], [c0 - 1e-4, c0 + 1e-4], atol=1e-12)
    assert comp.value(c0)[0] == pytest.approx(1e-8, rel=1e-6)   # |x| = -x there


def test_compose_curve_constant_at_kink():
    F = make_abs1d()
    comp = compose_exact(F, Curve.from_coeffs([[0.0]]))
    assert comp.boundary == (True,)
    for t in (0.0, 0.5, 1.0):
        assert comp.value(t)[0] == 0.0
        assert comp.velocity(t)[0] == 0.0


def _sliver_check(gap: float):
    """Condition 4 on x over two parallel hyperplanes `gap` apart, and the
    sign vectors of the rows the oracle was evaluated at."""
    arr = Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], gap)))
    x = Polynomial.coordinate(1, 0)
    F = PiecewiseFunction(arr, 1, {
        "--": (x,), "+-": (x,), "++": (x,),
    })
    D = oracle_clarke_linear(F)
    rows = []

    def recording(X, U):
        rows.extend(X)
        return D.kernel(X, U)

    rep = check_stratified_derivative(F, replace(D, kernel=recording), arr)
    return rep, {arr.sign_vector(x) for x in rows}


def test_two_parallel_hyperplanes_1e9_apart_share_no_point():
    # the zero rows of '00' share no point: the LP's witness lies off one
    # of them (HiGHS's by 1e-9, the least-squares one by 5e-10 off both)
    arr = Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], 1e-9)))
    assert "00" not in arr.all_nonempty_signs()


def test_stratified_check_examines_the_sliver_cell_1e8_apart():
    # hyperplanes 1e-8 apart: the sliver full-dim cell is nonempty for the
    # LP (margin 5e-9 > 1e-9), and its lattice lies within 2.5e-9 of the
    # witness, so it is examined like any other cell
    rep, signs = _sliver_check(1e-8)
    assert rep.verdict == "pass" and rep.notes == ()
    assert "+-" in signs


@pytest.mark.xfail(strict=True, reason=(
    "Arrangement.cell_nonempty judges the real sliver cells '0-', '+-', '+0' "
    "empty at an absolute 1e-9 margin, so the sliver is never reached"))
def test_stratified_check_examines_the_sliver_cell_1e9_apart():
    # the same check with the hyperplanes 1e-9 apart: the sliver '+-' is a
    # real cell, so it must be examined as well
    rep, signs = _sliver_check(1e-9)
    assert rep.verdict == "pass" and rep.notes == ()
    assert "+-" in signs


def test_cell_outside_the_box_is_examined():
    # |x| with the partition line x = 20: the cells '+0' and '++' lie
    # outside the +/-10 box, and a kernel that doubles F' only where x > 20
    # is wrong on '++' alone; its lattice at the witness 21 finds it
    F = make_abs1d()
    part = refine(F.arrangement, Arrangement(1, (Hyperplane([1.0], 20.0),)))

    def doubled_past_20(X, U):
        return (np.where(X > 20.0, 2.0, 1.0) * F.directional_derivatives(X, U))[:, None, :]

    D = GeneralizedDerivative("doubled", "handcrafted", 1, 1, kernel=doubled_past_20)
    for rep in check_stratified(F, D, part):
        assert rep.verdict == "fail" and rep.notes == ()
        assert rep.witnesses[0].point == (20.75,)


def test_eval_outside_any_piece_raises():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 1, {"+": (Polynomial.coordinate(1, 0),)})
    with pytest.raises(PiecewiseError, match="adjacent"):
        F.value([-2.0])


def test_piecewise_function_rejects_bad_pieces():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    with pytest.raises(PiecewiseError, match="sign"):
        PiecewiseFunction(arr, 1, {"0": (Polynomial.coordinate(1, 0),)})
    with pytest.raises(PiecewiseError, match="components"):
        PiecewiseFunction(arr, 2, {"+": (Polynomial.coordinate(1, 0),)})


def test_value_difference_exact_matches_naive():
    rng = np.random.default_rng(5)
    F = make_abs1d()
    for _ in range(50):
        x = rng.uniform(-5, 5, 1)
        y = x + rng.uniform(-1, 1, 1)
        naive = F.value(y) - F.value(x)
        comp = F.value_difference_exact(y, x)
        assert np.allclose(naive, comp, atol=1e-12)
