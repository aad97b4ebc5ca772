import collections

import numpy as np
import pytest

from stratacalc.conditions import (
    ConditionReport,
    MatrixEntry,
    check_conservative,
    check_semismooth_I,
    check_semismooth_II,
    check_stratified,
    check_stratified_derivative,
    check_stratified_subdifferential,
    equivalence_matrix,
    merge_reports,
)
from stratacalc.oracles import (
    GeneralizedDerivative,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
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
from stratacalc.selftest import base_anchored_residual

from test_piecewise import (
    CURVE_LARGE_VALUED,
    P,
    make_abs1d,
    make_cancelling,
    make_large_valued,
    make_max2d,
)


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
    cases = [(abs1d, "clarke", [0.0]), (max2d, "exact", [0.0, 0.0]), (id1d, "scale:2", [0.5])]
    for F, spec, x in cases:
        r1 = check_semismooth_I(F, parse_oracle(spec, F), x,
                                substream(7, "dual", F.ambient_dim))
        r2 = check_semismooth_II(F, parse_oracle("reflect:" + spec, F), x,
                                 substream(7, "dual", F.ambient_dim))
        assert r1.verdict == r2.verdict
        a = np.array(r1.sample_residuals, dtype=float)
        b = np.array(r2.sample_residuals, dtype=float)
        assert a.shape == b.shape
        mask = ~(np.isnan(a) | np.isnan(b))
        assert np.allclose(a[mask], b[mask], atol=1e-9)


def test_base_anchored_first_order(abs1d):
    # the plain expansion anchored at x holds exactly with the true derivative ...
    assert base_anchored_residual(abs1d, [0.0]) == 0.0
    # ... and fails with a fixed wrong-branch matrix at the kink: along t > 0
    # into the + cell, |x| has h-coefficient t where -1 predicts -t
    assert base_anchored_residual(abs1d, [0.0], fixed_matrix=np.array([[-1.0]])) == 2.0


# ---------------------------------------------------------------------------
# conservative along curves

def test_conservative_abs_clarke_passes(abs1d):
    D = oracle_clarke_linear(abs1d)
    gamma = Curve.from_coeffs([[-1.0, 2.0]])
    rep = check_conservative(abs1d, D, [gamma])
    assert rep.verdict == "pass"


def test_conservative_max_diagonal_boundary_passes(max2d):
    # tangential travel inside the stratum: image of the Clarke Jacobian
    # under (1,1) is the singleton {1}, matching d/dt t = 1
    D = oracle_clarke_linear(max2d)
    gamma = Curve.from_coeffs([[-1.0, 2.0], [-1.0, 2.0]])
    rep = check_conservative(max2d, D, [gamma])
    assert rep.verdict == "pass"


def test_conservative_scaled_identity_fails_everywhere(id1d):
    D = parse_oracle("scale:2", id1d)
    gamma = Curve.from_coeffs([[0.0, 1.0]])
    rep = check_conservative(id1d, D, [gamma])
    assert rep.verdict == "fail"
    assert rep.witnesses


def test_conservative_fails_on_a_short_stretch_along_the_kink(max2d):
    # regression: the curve runs on the kink x = y of max(x, y) for 1e-4 of
    # its time, where the zeroed oracle gives {0} but (F o c)' = 1. Uniform
    # sample times missed that stretch on most seeds.
    D = parse_oracle("zero-strata:clarke", max2d)
    gamma = Curve(np.array([0.0, 0.5, 0.5 + 1e-4, 1.0]),
                  (np.array([[-1.0, 2.0], [0.0, 0.0]]),     # (-1, 0) to the origin
                   np.array([[-0.5, 1.0], [-0.5, 1.0]]),    # diagonal to (1e-4, 1e-4)
                   np.array([[-0.5, 1.0], [1e-4, 0.0]])))   # along y = 1e-4
    rep = check_conservative(max2d, D, [gamma])
    assert rep.verdict == "fail"
    assert rep.witnesses and all(w.point[0] == w.point[1] for w in rep.witnesses)


def test_conservative_large_valued_map_passes_honest_and_fails_scaled():
    # regression: the honest row's nodes miss by 4.8e-7, rounding of values
    # near 6e8, against an absolute tolerance of 2.7e-9
    F, curves = make_large_valued(), [Curve.from_coeffs(CURVE_LARGE_VALUED)]
    rep = check_conservative(F, oracle_clarke_linear(F), curves)
    assert rep.verdict == "pass" and rep.residual_table[0][1] > 1e-8
    assert check_conservative(F, parse_oracle("scale:2", F), curves).verdict == "fail"


def test_conservative_cancelling_map_passes_honest_and_fails_scaled():
    # regression: the composition raised; its velocity rounds at the scale
    # of F's monomials along the curve (3e10), not of its own coefficients
    F, curves = make_cancelling(), [Curve.from_coeffs(CURVE_LARGE_VALUED)]
    rep = check_conservative(F, oracle_clarke_linear(F), curves)
    assert rep.verdict == "pass"
    assert check_conservative(F, parse_oracle("scale:2", F), curves).verdict == "fail"


def test_conservative_fails_on_a_dip_between_close_crossings(abs1d):
    # regression: (t - 0.3)^2 - 1e-8 is negative only for |t - 0.3| < 1e-4,
    # where the oracle doubles F'. Both crossings lay inside one interval of
    # a 1024-interval root grid, so the curve composed to one piece and the
    # nodes of that piece never looked at the dip.
    exact = oracle_exact_directional(abs1d)
    D = GeneralizedDerivative(
        "double-left", 1, 1,
        kernel=lambda X, U: np.where(X[:, None, :] < 0, 2.0, 1.0) * exact.batch(X, U))
    rep = check_conservative(abs1d, D, [Curve.from_coeffs([[0.09 - 1e-8, -0.6, 1.0]])])
    assert rep.verdict == "fail"
    assert rep.witnesses and all(w.point[0] < 0 for w in rep.witnesses)


# ---------------------------------------------------------------------------
# stratified checks

def test_stratified_derivative_abs_clarke(abs1d):
    D = oracle_clarke_linear(abs1d)
    rep = check_stratified_derivative(abs1d, D, abs1d.arrangement)
    assert rep.verdict == "pass"


def test_stratified_derivative_max_diagonal(max2d):
    D = oracle_clarke_linear(max2d)
    rep = check_stratified_derivative(max2d, D, max2d.arrangement)
    assert rep.verdict == "pass"


def test_stratified_derivative_scaled_fails(id1d):
    D = parse_oracle("scale:2", id1d)
    rep = check_stratified_derivative(id1d, D, id1d.arrangement)
    assert rep.verdict == "fail"
    assert rep.witnesses


def test_stratified_derivative_scaled_max2d_fails_at_default_cap(max2d):
    D = parse_oracle("scale:2", max2d)
    rep = check_stratified_derivative(max2d, D, max2d.arrangement)
    assert rep.verdict == "fail"


def test_stratified_subdifferential_cases(abs1d, max2d, id1d):
    assert check_stratified_subdifferential(
        abs1d, oracle_clarke_linear(abs1d), abs1d.arrangement).verdict == "pass"
    assert check_stratified_subdifferential(
        max2d, oracle_exact_directional(max2d), max2d.arrangement).verdict == "pass"
    rep = check_stratified_subdifferential(
        id1d, parse_oracle("scale:2", id1d), id1d.arrangement)
    assert rep.verdict == "fail"


def test_stratified_checks_with_user_partition(max2d):
    # refining with an extra hyperplane must not break the positive verdicts
    extra = Arrangement(2, (Hyperplane([0.0, 1.0], 0.25),))
    part = refine(max2d.arrangement, extra)
    D = oracle_clarke_linear(max2d)
    assert check_stratified_derivative(max2d, D, part).verdict == "pass"
    assert check_stratified_subdifferential(max2d, D, part).verdict == "pass"


def test_projection_formula(abs1d, max2d):
    # the projection formula is condition 4 with D the Clarke oracle
    for F in (abs1d, max2d):
        rep = check_stratified_derivative(F, oracle_clarke_linear(F), F.arrangement)
        assert rep.verdict == "pass"


@pytest.mark.parametrize("check", [check_stratified_derivative,
                                   check_stratified_subdifferential])
def test_zero_dimensional_cells_are_not_evaluated(max2d, check, monkeypatch):
    # The only tangent direction of a vertex is u = 0, where D(x, 0) = {0}
    # by contract: no oracle can fail there, so the vertex is not examined.
    part = refine(max2d.arrangement, Arrangement(2, (Hyperplane([0.0, 1.0], 0.25),)))
    vertex = part.cell("00").point            # the lines cross at (0.25, 0.25)
    seen = []
    batch = GeneralizedDerivative.batch

    def spy(self, X, U):
        seen.extend(np.asarray(X))
        return batch(self, X, U)

    monkeypatch.setattr(GeneralizedDerivative, "batch", spy)
    rep = check(max2d, oracle_clarke_linear(max2d), part)
    assert rep.verdict == "pass" and seen
    assert not any(np.allclose(x, vertex, atol=1e-9) for x in seen)


def test_stratified_checks_draw_no_random_numbers(monkeypatch):
    from stratacalc import conditions
    from stratacalc.conditions import run_entry_conditions
    from stratacalc.corpus import default_corpus

    def refuse(*args, **kwargs):
        raise AssertionError("a per-cell check drew a random number")

    corpus = default_corpus()         # its shipped curves come from a fixed seed
    monkeypatch.setattr(conditions, "substream", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for fid, cf in corpus.functions.items():
        entry = MatrixEntry(f"{fid}:clarke", cf.func, oracle_clarke_linear(cf.func),
                            cf.base_points, cf.curves, cf.partition)
        assert set(run_entry_conditions(entry, 7, ("4", "5"))) == {"4", "5"}
        part = refine(cf.func.arrangement, cf.partition)
        assert check_stratified_derivative(
            cf.func, oracle_clarke_linear(cf.func), part).verdict == "pass"


HONEST_ORACLES = ("exact", "clarke", "branch", "reflect:clarke", "reflect:exact",
                  "reflect:branch", "scale:1")


def test_condition_5_is_exact_for_honest_oracles(monkeypatch):
    # each vertex of an honest oracle is one of the products J(x)u that give
    # the Clarke image, so condition 5 reads exactly 0.0, not a rounding gap
    from pathlib import Path
    from stratacalc.corpus import default_corpus
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gencorpus import generate_corpus
    from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
    corpora = (default_corpus(), generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES))
    rows = 0
    for corpus in corpora:
        for fid, cf in corpus.functions.items():
            part = refine(cf.func.arrangement, cf.partition)
            for oracle_id in HONEST_ORACLES:
                rep = check_stratified_subdifferential(
                    cf.func, parse_oracle(oracle_id, cf.func), part)
                assert (fid, oracle_id, rep.residual_table, rep.witnesses) == \
                    (fid, oracle_id, (("max", 0.0),), ())
                rows += 1
    assert rows == 70


def test_one_dimensional_cell_directions_are_plus_minus_basis():
    from stratacalc.conditions import _tangent_directions
    cell = make_max2d().arrangement.cell("0")
    _, dirs = _tangent_directions(cell, cell.point[None, :])
    basis = cell.tangent.basis
    assert np.array_equal(dirs, np.vstack([basis, -basis]))


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
    empty = merge_reports("1", [])
    assert empty.verdict == "inconclusive" and empty.notes == ("no base points to sweep",)


def test_conservative_without_curves_is_inconclusive(abs1d):
    rep = check_conservative(abs1d, parse_oracle("scale:2", abs1d), [])
    assert rep.verdict == "inconclusive" and rep.notes == ("no curves to follow",)


def test_kernel_without_form_is_noted_on_conditions_3_to_5(abs1d):
    # 2 F'(x, u) where x > 5 is wrong only away from the '+' cell's lattice
    # (around its witness x = 1) and from the curve's nodes, so conditions
    # 3-5 pass; for a kernel without a vertex form they say on which rows
    exact = oracle_exact_directional(abs1d)
    D = GeneralizedDerivative(
        "doubled-past-5", 1, 1,
        kernel=lambda X, U: np.where(X[:, None, :] > 5.0, 2.0, 1.0) * exact.batch(X, U))
    curves = [Curve.from_coeffs([[-1.0, 2.0]])]
    reps = (check_conservative(abs1d, D, curves),) + check_stratified(abs1d, D, abs1d.arrangement)
    assert [r.verdict for r in reps] == ["pass"] * 3
    head = "oracle 'doubled-past-5' has no vertex form: only the "
    assert reps[0].notes == (head + "Chebyshev nodes of each curve were examined",)
    assert reps[1].notes == reps[2].notes == (head + "lattice points of each cell were examined",)
    built_in = (check_conservative(abs1d, exact, curves),) + \
        check_stratified(abs1d, exact, abs1d.arrangement)
    assert [r.notes for r in built_in] == [()] * 3


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

    def corrupted(X, U):
        at_kink = np.abs(X[:, None, :]) <= 1e-12
        return np.where(at_kink, 7.0 * U[:, None, :], exact.batch(X, U))

    D = GeneralizedDerivative("corrupt-point", 1, 1, kernel=corrupted)
    verdicts = _run_all_five(
        abs1d, D, [[0.0], [0.7]],
        [Curve.from_coeffs([[-1.0, 2.0]]), Curve.from_coeffs([[0.0]])],
        Arrangement(1, ()))
    assert verdicts == {k: "pass" for k in "12345"}


def test_corruption_on_line_stratum_fails_all_five(max2d):
    # Doubling D on the diagonal's tangent directions breaks every
    # condition at once: the consistent all-fail row of the dichotomy.
    exact = oracle_exact_directional(max2d)

    def corrupted(X, U):
        on_line = np.abs(X[:, 0] - X[:, 1]) <= 1e-12
        return np.where(on_line[:, None, None], 2.0, 1.0) * exact.batch(X, U)

    D = GeneralizedDerivative("corrupt-line", 2, 1, kernel=corrupted)
    diag = Curve.from_coeffs([[-1.0, 2.0], [-1.0, 2.0]])
    crossing = Curve.from_coeffs([[-1.0, 2.0], [1.0, -2.0]])
    verdicts = _run_all_five(max2d, D, [[0.0, 0.0], [1.5, 1.5]],
                             [diag, crossing], Arrangement(2, ()))
    assert verdicts == {k: "fail" for k in "12345"}


def test_stratified_conditions_share_their_sample_rows():
    # conditions 4 and 5 draw the same (x, u) rows, so a wrong oracle is
    # caught at the same witnesses by both
    from stratacalc.conditions import run_entry_conditions
    from stratacalc.corpus import default_corpus
    cf = default_corpus().function("max2d")
    entry = MatrixEntry("max2d:zero-strata:clarke", cf.func,
                        parse_oracle("zero-strata:clarke", cf.func),
                        cf.base_points, cf.curves, cf.partition)
    reps = run_entry_conditions(entry, 7, ("4", "5"))
    w4, w5 = ([(w.point, w.direction) for w in reps[c].witnesses] for c in "45")
    assert reps["4"].verdict == reps["5"].verdict == "fail"
    assert w4 and w4 == w5


def test_entry_conditions_evaluate_each_row_set_once(monkeypatch):
    # conditions 1-2 evaluate one sweep per base point, conditions 4-5 one
    # set of stratum rows: one cell enumeration, one lattice per cell, one D.batch
    from stratacalc import conditions
    from stratacalc.conditions import run_entry_conditions
    from stratacalc.corpus import default_corpus
    cf = default_corpus().function("max2d")
    entry = MatrixEntry("max2d:clarke", cf.func, oracle_clarke_linear(cf.func),
                        cf.base_points, cf.curves, cf.partition)
    refined = refine(entry.F.arrangement, entry.partition)
    cells = [s for s in refined.all_nonempty_signs() if refined.cell(s).dimension > 0]
    calls = collections.Counter()
    for owner, name in ((PiecewiseFunction, "value_differences"),
                        (GeneralizedDerivative, "batch"),
                        (conditions, "sample_cell_point"),
                        (Arrangement, "all_nonempty_signs")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    run_entry_conditions(entry, 7, ("1", "2", "3"))
    batch_without_strata = calls["batch"]
    calls.clear()
    run_entry_conditions(entry, 7)
    assert calls["value_differences"] == len(entry.base_points)
    assert calls["batch"] - batch_without_strata == 1
    assert calls["sample_cell_point"] == len(cells) > 0
    assert calls["all_nonempty_signs"] == 1


def _fields(rep):
    return repr((rep.condition, rep.verdict, rep.residual_table, rep.slope,
                 [(w.point, w.direction, w.value) for w in rep.witnesses],
                 rep.notes, rep.sample_residuals))


@pytest.mark.parametrize("oracle_id", ["clarke", "scale:2", "zero-strata:clarke"])
def test_one_condition_alone_reports_as_in_the_full_run(oracle_id):
    # each pair function returns both reports; a subset keeps the right half
    from stratacalc.conditions import run_entry_conditions
    from stratacalc.corpus import default_corpus
    corpus = default_corpus()
    for fid, cf in corpus.functions.items():
        entry = MatrixEntry(f"{fid}:{oracle_id}", cf.func, parse_oracle(oracle_id, cf.func),
                            cf.base_points, cf.curves, cf.partition)
        full = run_entry_conditions(entry, 7)
        for c in "1245":
            alone = run_entry_conditions(entry, 7, (c,))
            assert list(alone) == [c] and alone[c].condition == c
            assert _fields(alone[c]) == _fields(full[c]), (fid, c)


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
