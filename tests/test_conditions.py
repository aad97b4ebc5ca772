import numpy as np
import pytest

from stratacalc.conditions import (
    ConditionReport,
    MatrixEntry,
    VerifierConfig,
    check_base_anchored,
    check_conservative,
    check_projection_formula,
    check_semismooth_I,
    check_semismooth_II,
    check_stratified_derivative,
    check_stratified_subdifferential,
    equivalence_matrix,
    merge_reports,
)
from stratacalc.geometry import Polytope
from stratacalc.oracles import (
    GeneralizedDerivative,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
    reflect_oracle,
)
from stratacalc.piecewise import (
    Arrangement,
    Curve,
    Hyperplane,
    PiecewiseFunction,
    Polynomial,
    refine,
)
from stratacalc.seeding import substream

from test_piecewise import P, make_abs1d, make_max2d

CFG = VerifierConfig()


def make_id1d():
    arr = Arrangement(1, ())
    return PiecewiseFunction(arr, 1, {"": (P(1, [((1,), 1.0)]),)}, lipschitz_hint=1.0)


def make_square1d():
    arr = Arrangement(1, ())
    return PiecewiseFunction(arr, 1, {"": (P(1, [((2,), 1.0)]),)})


@pytest.fixture(scope="module")
def abs1d():
    return make_abs1d()


@pytest.fixture(scope="module")
def max2d():
    return make_max2d()


@pytest.fixture(scope="module")
def id1d():
    return make_id1d()


# ---------------------------------------------------------------------------
# semismooth sweeps

def test_semismooth_I_abs_clarke_zero_residuals(abs1d):
    D = oracle_clarke_linear(abs1d)
    rep = check_semismooth_I(abs1d, D, [0.0], substream(0, "t1"))
    assert rep.verdict == "pass"
    # |y| - 0 - (sign y)(y - 0) = 0 exactly on both sides of the kink
    assert all(v <= 1e-12 for _, v in rep.residual_table)


def test_semismooth_I_scaled_identity_fails(id1d):
    D = parse_oracle("scale:2", id1d)
    rep = check_semismooth_I(id1d, D, [0.0], substream(0, "t2"))
    assert rep.verdict == "fail"
    # F(y) - 2y = -y: unit residual at every radius
    assert all(v == pytest.approx(1.0, abs=1e-9) for _, v in rep.residual_table)
    assert rep.witnesses


def test_semismooth_I_smooth_slope_one():
    F = make_square1d()
    D = oracle_exact_directional(F)
    rep = check_semismooth_I(F, D, [1.0], substream(0, "t3"))
    assert rep.verdict == "pass"
    assert rep.slope == pytest.approx(1.0, abs=0.05)


def test_semismooth_II_abs_clarke(abs1d):
    D = oracle_clarke_linear(abs1d)
    rep = check_semismooth_II(abs1d, D, [0.0], substream(0, "t4"))
    assert rep.verdict == "pass"
    assert all(v <= 1e-12 for _, v in rep.residual_table)


def test_semismooth_II_scaled_fails(id1d):
    D = parse_oracle("scale:2", id1d)
    rep = check_semismooth_II(id1d, D, [0.0], substream(0, "t5"))
    assert rep.verdict == "fail"
    assert all(v == pytest.approx(1.0, abs=1e-9) for _, v in rep.residual_table)


def test_semismooth_II_exact_smooth_point(abs1d):
    D = oracle_exact_directional(abs1d)
    rep = check_semismooth_II(abs1d, D, [1.5], substream(0, "t6"))
    assert rep.verdict == "pass"


def test_reflection_duality_sample_for_sample(abs1d, max2d, id1d):
    # Semismooth I for D coincides with semismooth II for reflect(D)
    cases = [(abs1d, oracle_clarke_linear(abs1d), [0.0]),
             (max2d, oracle_exact_directional(max2d), [0.0, 0.0]),
             (id1d, parse_oracle("scale:2", id1d), [0.5])]
    for F, D, x in cases:
        r1 = check_semismooth_I(F, D, x, substream(7, "dual", F.ambient_dim))
        r2 = check_semismooth_II(F, reflect_oracle(D), x,
                                 substream(7, "dual", F.ambient_dim))
        assert r1.verdict == r2.verdict
        a = np.array(r1.sample_residuals, dtype=float)
        b = np.array(r2.sample_residuals, dtype=float)
        assert a.shape == b.shape
        mask = ~(np.isnan(a) | np.isnan(b))
        assert np.allclose(a[mask], b[mask], atol=1e-9)


def test_base_anchored_first_order(abs1d):
    # the plain expansion anchored at x holds with the true derivative ...
    rep = check_base_anchored(abs1d, [0.0], substream(0, "t7"))
    assert rep.verdict == "pass"
    # ... and fails with a fixed wrong-branch matrix at the kink
    rep2 = check_base_anchored(abs1d, [0.0], substream(0, "t7"),
                               fixed_matrix=np.array([[-1.0]]))
    assert rep2.verdict == "fail"


# ---------------------------------------------------------------------------
# conservative along curves

def test_conservative_abs_clarke_passes(abs1d):
    D = oracle_clarke_linear(abs1d)
    gamma = Curve.from_coeffs([[-1.0, 2.0]])
    rep = check_conservative(abs1d, D, [gamma], substream(0, "c1"))
    assert rep.verdict == "pass"


def test_conservative_max_diagonal_boundary_passes(max2d):
    # tangential travel inside the stratum: image of the Clarke Jacobian
    # under (1,1) is the singleton {1}, matching d/dt t = 1
    D = oracle_clarke_linear(max2d)
    gamma = Curve.from_coeffs([[-1.0, 2.0], [-1.0, 2.0]])
    rep = check_conservative(max2d, D, [gamma], substream(0, "c2"))
    assert rep.verdict == "pass"


def test_conservative_scaled_identity_fails_everywhere(id1d):
    D = parse_oracle("scale:2", id1d)
    gamma = Curve.from_coeffs([[0.0, 1.0]])
    rep = check_conservative(id1d, D, [gamma], substream(0, "c3"))
    assert rep.verdict == "fail"
    assert rep.witnesses


# ---------------------------------------------------------------------------
# stratified checks

def test_stratified_derivative_abs_clarke(abs1d):
    D = oracle_clarke_linear(abs1d)
    rep = check_stratified_derivative(abs1d, D, abs1d.arrangement, CFG,
                                      substream(0, "d1"))
    assert rep.verdict == "pass"


def test_stratified_derivative_max_diagonal(max2d):
    D = oracle_clarke_linear(max2d)
    rep = check_stratified_derivative(max2d, D, max2d.arrangement, CFG,
                                      substream(0, "d2"))
    assert rep.verdict == "pass"


def test_stratified_derivative_scaled_fails(id1d):
    D = parse_oracle("scale:2", id1d)
    rep = check_stratified_derivative(id1d, D, id1d.arrangement, CFG,
                                      substream(0, "d3"))
    assert rep.verdict == "fail"
    assert rep.witnesses


def test_stratified_subdifferential_cases(abs1d, max2d, id1d):
    assert check_stratified_subdifferential(
        abs1d, oracle_clarke_linear(abs1d), abs1d.arrangement, CFG,
        substream(0, "e1")).verdict == "pass"
    assert check_stratified_subdifferential(
        max2d, oracle_exact_directional(max2d), max2d.arrangement, CFG,
        substream(0, "e2")).verdict == "pass"
    rep = check_stratified_subdifferential(
        id1d, parse_oracle("scale:2", id1d), id1d.arrangement, CFG,
        substream(0, "e3"))
    assert rep.verdict == "fail"


def test_stratified_checks_with_user_partition(max2d):
    # refining with an extra hyperplane must not break the positive verdicts
    extra = Arrangement(2, (Hyperplane([0.0, 1.0], 0.25),))
    part = refine(max2d.arrangement, extra)
    D = oracle_clarke_linear(max2d)
    assert check_stratified_derivative(max2d, D, part, CFG,
                                       substream(0, "d4")).verdict == "pass"
    assert check_stratified_subdifferential(max2d, D, part, CFG,
                                            substream(0, "e4")).verdict == "pass"


def test_projection_formula(abs1d, max2d):
    for F in (abs1d, max2d):
        rep = check_projection_formula(F, F.arrangement, CFG, substream(0, "p1"))
        assert rep.verdict == "pass"


@pytest.mark.parametrize("check", [check_stratified_derivative,
                                   check_stratified_subdifferential])
def test_zero_dimensional_cells_are_not_evaluated(max2d, check, monkeypatch):
    # The only tangent direction of a vertex is u = 0, where D(x, 0) = {0}
    # by contract: no oracle can fail there, so the vertex is not sampled.
    part = refine(max2d.arrangement, Arrangement(2, (Hyperplane([0.0, 1.0], 0.25),)))
    vertex = part.cell("00").point            # the lines cross at (0.25, 0.25)
    seen = []
    batch = GeneralizedDerivative.batch

    def spy(self, X, U):
        seen.extend(np.asarray(X))
        return batch(self, X, U)

    monkeypatch.setattr(GeneralizedDerivative, "batch", spy)
    rep = check(max2d, oracle_clarke_linear(max2d), part, CFG, substream(0, "z0"))
    assert rep.verdict == "pass" and seen
    assert not any(np.allclose(x, vertex, atol=1e-9) for x in seen)


def test_one_dimensional_cell_directions_are_plus_minus_basis():
    # random combinations of a single basis vector are only +/- that vector
    from stratacalc.conditions import _tangent_directions
    cell = make_max2d().arrangement.cell("0")
    rng = np.random.default_rng(0)
    dirs = _tangent_directions(cell, rng)
    basis = cell.tangent.basis
    assert np.array_equal(np.array(dirs), np.vstack([basis, -basis]))
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


# ---------------------------------------------------------------------------
# aggregation / matrix

def test_inconsistent_row_is_flagged():
    # cannot arise from the stock oracle bindings (that is the point of the
    # reproduction), so synthesize one to pin the reporting contract
    from stratacalc.conditions import MatrixReport, MatrixRow
    from stratacalc.report import matrix_csv, render_matrix_report
    reports = {k: ConditionReport(k, "pass" if k != "3" else "fail", ())
               for k in "12345"}
    row = MatrixRow(entry_id="synthetic", reports=reports)
    assert not row.consistent
    rep = MatrixReport(rows=(row,))
    assert not rep.all_consistent
    text = render_matrix_report(rep, seed=0)
    assert "INCONSISTENT" in text
    assert "all_consistent: false" in text
    assert matrix_csv(rep).splitlines()[1].endswith("false")


def test_inconclusive_verdicts_excluded_from_consistency():
    from stratacalc.conditions import MatrixRow
    reports = {k: ConditionReport(k, "pass", ()) for k in "1245"}
    reports["3"] = ConditionReport("3", "inconclusive", ())
    row = MatrixRow(entry_id="partial", reports=reports)
    assert row.consistent and row.has_inconclusive


def test_merge_reports_worst_verdict():
    a = ConditionReport("1", "pass", (("1e-01", 0.1),))
    b = ConditionReport("1", "fail", (("1e-01", 0.7),))
    c = ConditionReport("1", "inconclusive", ())
    assert merge_reports("1", [a, b]).verdict == "fail"
    assert merge_reports("1", [a, c]).verdict == "inconclusive"
    merged = merge_reports("1", [a, b])
    assert dict(merged.residual_table)["1e-01"] == 0.7


def _run_all_five(F, D, base_points, curves, partition, seed=11):
    entry = MatrixEntry("adhoc", F, D, tuple(np.asarray(p, float) for p in base_points),
                        tuple(curves), partition)
    from stratacalc.conditions import run_entry_conditions
    return {k: r.verdict for k, r in
            run_entry_conditions(entry, seed).items()}


def test_corruption_at_point_stratum_passes_all_five(abs1d):
    # Changing D only at the kink point of |x| is invisible to every
    # condition: the 0-dimensional stratum has trivial tangent space, the
    # semismooth sweeps anchor D at the moving point y != x, and curves
    # spend measure zero at the point. The row stays consistent (all pass).
    exact = oracle_exact_directional(abs1d)

    def corrupted(x, u):
        if abs(float(x[0])) <= 1e-12:
            return Polytope([[7.0 * float(u[0])]])
        return exact(x, u)

    D = GeneralizedDerivative("corrupt-point", "handcrafted", 1, 1, corrupted)
    verdicts = _run_all_five(
        abs1d, D, [[0.0], [0.7]],
        [Curve.from_coeffs([[-1.0, 2.0]]), Curve.from_coeffs([[0.0]])],
        Arrangement(1, ()))
    assert verdicts == {k: "pass" for k in "12345"}


def test_corruption_on_line_stratum_fails_all_five(max2d):
    # Doubling D on the diagonal's tangent directions breaks every
    # condition at once: the consistent all-fail row of the dichotomy.
    exact = oracle_exact_directional(max2d)

    def corrupted(x, u):
        if abs(float(x[0] - x[1])) <= 1e-12:
            return exact(x, u).scale(2.0)
        return exact(x, u)

    D = GeneralizedDerivative("corrupt-line", "handcrafted", 2, 1, corrupted)
    diag = Curve.from_coeffs([[-1.0, 2.0], [-1.0, 2.0]])
    crossing = Curve.from_coeffs([[-1.0, 2.0], [1.0, -2.0]])
    verdicts = _run_all_five(max2d, D, [[0.0, 0.0], [1.5, 1.5]],
                             [diag, crossing], Arrangement(2, ()))
    assert verdicts == {k: "fail" for k in "12345"}


def test_equivalence_matrix_two_rows(abs1d, id1d):
    entries = [
        MatrixEntry("abs1d:clarke", abs1d, oracle_clarke_linear(abs1d),
                    (np.array([0.0]), np.array([0.7])),
                    (Curve.from_coeffs([[-1.0, 2.0]]), Curve.from_coeffs([[0.0]])),
                    Arrangement(1, ())),
        MatrixEntry("id1d:scale:2", id1d, parse_oracle("scale:2", id1d),
                    (np.array([0.0]),),
                    (Curve.from_coeffs([[0.0, 1.0]]),),
                    Arrangement(1, ())),
    ]
    report = equivalence_matrix(entries, seed=3)
    row0, row1 = report.rows
    assert row0.verdicts == {k: "pass" for k in "12345"}
    assert row1.verdicts == {k: "fail" for k in "12345"}
    assert row0.consistent and row1.consistent
    assert report.all_consistent
