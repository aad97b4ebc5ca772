import numpy as np
import pytest

from stratacalc import conditions
from stratacalc.conditions import VerifierConfig, check_stratified_derivative
from stratacalc.oracles import oracle_clarke_linear
from stratacalc.piecewise import (
    Arrangement,
    Curve,
    Hyperplane,
    PiecewiseError,
    PiecewiseFunction,
    Polynomial,
    compose_exact,
    sample_cell_point,
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
    with pytest.raises(PiecewiseError, match="empty"):
        F.directional_cell([0.0, 0.0], [0.0, 1.0])


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


def test_sample_cell_point_cap_exhaustion():
    # a sliver cell the box sampler cannot hit within a tiny cap
    arr = Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], 1e-9)))
    rng = np.random.default_rng(0)
    box = np.array([[-10.0], [10.0]])
    pt = sample_cell_point(arr, "+-", box, rng, 1, cap=50)
    assert pt is None


def _sliver_check(monkeypatch, gap: float):
    """Condition 4 on x over two parallel hyperplanes `gap` apart."""
    arr = Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], gap)))
    x = Polynomial.coordinate(1, 0)
    F = PiecewiseFunction(arr, 1, {
        "--": (x,), "+-": (x,), "++": (x,),
    })
    D = oracle_clarke_linear(F)
    monkeypatch.setattr(conditions, "CELL_POINTS", 3)
    monkeypatch.setattr(conditions, "TANGENT_COMBOS", 2)
    cfg = VerifierConfig(rejection_cap=300)
    return check_stratified_derivative(F, D, arr, cfg, np.random.default_rng(1))


def test_two_parallel_hyperplanes_1e9_apart_share_no_point():
    # the zero rows of '00' share no point: the LP's witness lies off one
    # of them (HiGHS's by 1e-9, the least-squares one by 5e-10 off both)
    arr = Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], 1e-9)))
    assert "00" not in arr.all_nonempty_signs()


def test_stratified_check_skips_unsamplable_cells_with_note(monkeypatch):
    # hyperplanes 1e-8 apart: the sliver full-dim cell is nonempty for the
    # LP (margin 5e-9 > 1e-9) but defeats rejection sampling at the default
    # margin, so it must be skipped and logged
    rep = _sliver_check(monkeypatch, 1e-8)
    assert rep.verdict == "pass"
    assert any("skipped" in n for n in rep.notes)


@pytest.mark.xfail(strict=True, reason=(
    "Arrangement.cell_nonempty judges the real sliver cells '0-', '+-', '+0' "
    "empty at an absolute 1e-9 margin, so the unsamplable sliver is never "
    "reached and no note is written"))
def test_stratified_check_skips_sliver_cell_1e9_apart_with_note(monkeypatch):
    # the same check with the hyperplanes 1e-9 apart: the sliver '+-' is a
    # real cell, so it must be skipped and logged as well
    rep = _sliver_check(monkeypatch, 1e-9)
    assert rep.verdict == "pass"
    assert any("skipped" in n for n in rep.notes)


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
