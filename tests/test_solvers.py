import warnings

import numpy as np
import pytest

from stratacalc.oracles import oracle_branch_selection, parse_oracle
from stratacalc.piecewise import Arrangement, Hyperplane, PiecewiseFunction
from stratacalc.solvers import (
    grid_minimize,
    newton_rate_estimate,
    semismooth_newton,
    subgradient_descent,
)

from test_piecewise import P, make_abs1d
from test_conditions import make_id1d


def make_absplus():
    # F(x) = x + |x| - 1: constant -1 on the left, 2x - 1 on the right
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    return PiecewiseFunction(arr, 1, {
        "-": (P(1, [((0,), -1.0)]),),
        "+": (P(1, [((1,), 2.0), ((0,), -1.0)]),),
    })


def make_relukink():
    # F(x) = x|x| + x - 2: root at x=1 on the quadratic x^2 + x - 2 piece
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    return PiecewiseFunction(arr, 1, {
        "-": (P(1, [((2,), -1.0), ((1,), 1.0), ((0,), -2.0)]),),
        "+": (P(1, [((2,), 1.0), ((1,), 1.0), ((0,), -2.0)]),),
    })


def make_maxpair2d():
    # F(x,y) = (max(x,y) - 1, x - y), root (1,1)
    arr = Arrangement(2, (Hyperplane([1.0, -1.0], 0.0),))
    return PiecewiseFunction(arr, 2, {
        "+": (P(2, [((1, 0), 1.0), ((0, 0), -1.0)]),
              P(2, [((1, 0), 1.0), ((0, 1), -1.0)])),
        "-": (P(2, [((0, 1), 1.0), ((0, 0), -1.0)]),
              P(2, [((1, 0), 1.0), ((0, 1), -1.0)])),
    })


def make_maxreg2d():
    # max(x,y) + 0.5*(x^2 + y^2): strongly convex with minimizer (-1/2, -1/2)
    arr = Arrangement(2, (Hyperplane([1.0, -1.0], 0.0),))
    quad = [((2, 0), 0.5), ((0, 2), 0.5)]
    return PiecewiseFunction(arr, 1, {
        "+": (P(2, [((1, 0), 1.0)] + quad),),
        "-": (P(2, [((0, 1), 1.0)] + quad),),
    })


# ---------------------------------------------------------------------------
# semismooth Newton

def test_newton_absplus_two_evaluations():
    # hand iteration: A_0 = 2, x_1 = 2 - 3/2 = 0.5, F(0.5) = 0
    trace = semismooth_newton(make_absplus(), "clarke", [2.0])
    assert trace.converged
    assert len(trace.iterates) == 2
    assert trace.iterates[1][0] == pytest.approx(0.5)
    assert trace.residual_norms[-1] == 0.0


def test_newton_identity_one_step():
    F = make_id1d()
    trace = semismooth_newton(F, "clarke", [5.0])
    assert trace.converged and len(trace.iterates) == 2
    assert trace.iterates[-1][0] == pytest.approx(0.0, abs=1e-15)


def test_newton_maxpair_hand_iteration():
    # from (3,0): active cell x>y, A = [[1,0],[1,-1]], next iterate (1,1), F=0
    trace = semismooth_newton(make_maxpair2d(), "clarke", [3.0, 0.0])
    assert trace.converged
    assert np.allclose(trace.iterates[1], [1.0, 1.0])
    assert trace.residual_norms[-1] == 0.0


def test_newton_piecewise_linear_exact_zero_residual():
    # finite termination with residual exactly 0 on piecewise-linear systems
    for F, x0 in ((make_absplus(), [7.0]), (make_maxpair2d(), [-2.0, 5.0])):
        trace = semismooth_newton(F, "clarke", x0)
        assert trace.converged
        assert trace.residual_norms[-1] == 0.0
        assert len(trace.iterates) <= 4


def test_newton_branch_source():
    F = make_absplus()
    trace = semismooth_newton(F, oracle_branch_selection(F), [2.0])
    assert trace.converged


def test_newton_takes_clarke_or_an_oracle():
    with pytest.raises(ValueError, match="unknown jacobian source 'branch'"):
        semismooth_newton(make_absplus(), "branch", [2.0])


def test_newton_relukink_superlinear():
    trace = semismooth_newton(make_relukink(), "clarke", [2.0])
    assert trace.converged
    ratios = newton_rate_estimate(trace, root=[1.0])
    # quadratic convergence on the active smooth piece
    assert min(ratios) < 1e-3
    assert len(trace.iterates) <= 7
    # ratios shrink monotonically until the noise floor
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_newton_scaled_oracle_linear_rate_half():
    # the scale:2 control halves the step: x_{k+1} = x_k/2 exactly
    F = make_id1d()
    D = parse_oracle("scale:2", F)
    trace = semismooth_newton(F, D, [1.0])
    assert trace.converged
    ratios = newton_rate_estimate(trace, root=[0.0])
    assert ratios
    assert all(abs(r - 0.5) <= 1e-6 for r in ratios)


def test_newton_flat_piece_stalls():
    # the left piece of absplus is constant: damped Jacobian yields a 1e8 step
    trace = semismooth_newton(make_absplus(), "clarke", [-1.0])
    assert trace.status == "singular_stall"
    assert trace.damping_log
    assert any("lambda" in line for line in trace.damping_log)


def test_newton_requires_square():
    with pytest.raises(ValueError):
        semismooth_newton(make_maxreg2d(), "clarke", [0.0, 0.0])


def test_rate_estimate_self_referential():
    trace = semismooth_newton(make_relukink(), "clarke", [2.0])
    ratios_self = newton_rate_estimate(trace)
    ratios_known = newton_rate_estimate(trace, root=[1.0])
    # both see the superlinear collapse
    assert min(ratios_self) < 1e-2 and min(ratios_known) < 1e-3


# ---------------------------------------------------------------------------
# subgradient descent

def test_subgradient_abs_one_over_k():
    F = make_abs1d()
    trace = subgradient_descent(F, "clarke", [1.0], rule="one_over_k", iters=200)
    assert abs(trace.iterates[-1][0]) <= 0.1
    assert len(trace.iterates) == 201
    assert all(a > 0 for a in trace.step_sizes)


def test_subgradient_square_constant_step():
    arr = Arrangement(1, ())
    F = PiecewiseFunction(arr, 1, {"": (P(1, [((2,), 1.0)]),)})
    trace = subgradient_descent(F, "clarke", [1.0], rule="constant", c=0.4,
                                iters=50)
    # x_{k+1} = x_k (1 - 0.8): linear convergence
    assert abs(trace.iterates[-1][0]) <= 0.2 ** 40
    assert trace.values[-1] <= 1e-20


def test_subgradient_oracle_source():
    F = make_abs1d()
    D = parse_oracle("exact", F)
    trace = subgradient_descent(F, D, [1.0], rule="one_over_k", iters=100)
    assert abs(trace.iterates[-1][0]) <= 0.2


def test_subgradient_maxreg_approaches_grid_minimum():
    F = make_maxreg2d()
    best_pt, best_val = grid_minimize(F, [-1.0, -1.0], [0.0, 0.0])
    # brute-force grid locates the known minimizer (-0.5, -0.5), f* = -0.25
    assert np.allclose(best_pt, [-0.5, -0.5], atol=2e-3)
    assert best_val == pytest.approx(-0.25, abs=1e-5)
    trace = subgradient_descent(F, "clarke", [1.0, 1.0], rule="c_over_sqrt_k",
                                c=0.5, iters=400)
    assert trace.best_value - best_val <= 0.05
    # function values settle: late iterates cluster near the minimizer
    best = trace.iterates[int(np.argmin(trace.values))]
    assert np.linalg.norm(best - best_pt) <= 0.2


def test_step_rules():
    from stratacalc.solvers import step_size
    assert step_size("constant", 0.3, 7) == 0.3
    assert step_size("one_over_k", 1.0, 4) == 0.25
    assert step_size("c_over_sqrt_k", 2.0, 4) == 1.0
    with pytest.raises(ValueError):
        step_size("bogus", 1.0, 1)


# ---------------------------------------------------------------------------
# kernel calls per run, and the traces they give

@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of PiecewiseFunction.values and .clarke_jacobians calls."""
    calls = {"values": 0, "clarke_jacobians": 0}
    for name in calls:
        def counted(self, *args, _name=name, _kernel=getattr(PiecewiseFunction, name)):
            calls[_name] += 1
            return _kernel(self, *args)
        monkeypatch.setattr(PiecewiseFunction, name, counted)
    return calls


def test_subgradient_evaluates_all_values_in_one_batch(kernel_calls):
    trace = subgradient_descent(make_maxreg2d(), "clarke", [1.0, 1.0], iters=25)
    assert kernel_calls == {"values": 1, "clarke_jacobians": 25}
    assert len(trace.values) == 26


@pytest.mark.parametrize("make, x0", [(make_relukink, [3.0]), (make_absplus, [2.0]),
                                      (make_maxpair2d, [3.0, -1.0])])
def test_newton_evaluates_F_once_per_iterate(kernel_calls, make, x0):
    trace = semismooth_newton(make(), "clarke", x0)
    assert len(trace.iterates) > 1
    assert kernel_calls == {"values": len(trace.iterates),
                            "clarke_jacobians": len(trace.jacobians)}


def _shipped(keep):
    from stratacalc.corpus import default_corpus
    return [cf for cf in default_corpus().functions.values() if keep(cf.func)]


def test_subgradient_values_equal_one_point_values():
    # starts: random, every base point (kinks included), and the abs1d run
    # from -0.657... whose iterate 1.2e-11 snaps onto the kink at 0
    rng = np.random.default_rng(5)
    on_kink = 0
    for cf in _shipped(lambda F: F.output_dim == 1):
        F, n = cf.func, cf.func.ambient_dim
        starts = list(cf.base_points) + list(rng.uniform(-3, 3, size=(3, n)))
        on_kink += sum("0" in F.arrangement.sign_vector(x0) for x0 in starts)
        for x0 in starts:
            for source in ("clarke", parse_oracle("branch", F)):
                trace = subgradient_descent(F, source, x0, iters=60)
                for x, v in zip(trace.iterates, trace.values):
                    assert v == float(F.value(x)[0])
    assert on_kink >= 6
    F = next(cf.func for cf in _shipped(lambda F: F.output_dim == 1) if cf.fid == "abs1d")
    trace = subgradient_descent(F, "clarke", [-0.6574918168863819], iters=200)
    assert min(trace.values) == -1.200318924116095e-11
    assert trace.values == tuple(float(F.value(x)[0]) for x in trace.iterates)


def test_newton_residuals_equal_norms_of_one_point_values():
    rng = np.random.default_rng(6)
    for cf in _shipped(lambda F: F.output_dim == F.ambient_dim):
        F, n = cf.func, cf.func.ambient_dim
        for x0 in list(cf.base_points) + list(rng.uniform(-3, 3, size=(4, n))):
            trace = semismooth_newton(F, "clarke", x0)
            assert trace.residual_norms == tuple(
                float(np.linalg.norm(F.value(x))) for x in trace.iterates)


def test_diverging_subgradient_names_the_iteration_and_last_finite_iterate():
    # the overflowing step raises this error, and no numpy warning before it
    pattern = r"subgradient descent diverged at iteration k=2: .*\[-1e\+200, -2e\+200\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=pattern):
            subgradient_descent(make_maxreg2d(), "clarke", [1.0, 1.0],
                                rule="constant", c=1e200)


def test_newton_value_overflow_after_a_finite_step_names_the_next_iteration():
    # the step from x0 = 1 on the nearly flat right piece lands at -1e10,
    # where the left piece 1e300 x^2 + 1 overflows: step k=1 cannot be finite
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 1, {
        "-": (P(1, [((2,), 1e300), ((0,), 1.0)]),),
        "+": (P(1, [((1,), 1e-10), ((0,), 1.0)]),),
    })
    pattern = (r"^semismooth Newton diverged at iteration k=1: the step from the "
               r"last finite iterate \[-10000000000\.0\] is not finite$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=pattern):
            semismooth_newton(F, "clarke", [1.0])
