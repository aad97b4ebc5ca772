import numpy as np
import pytest

from stratacalc.cli import main
from stratacalc.corpus import default_corpus
from stratacalc.geometry import hausdorff
from stratacalc.piecewise import Arrangement, Hyperplane, PiecewiseFunction, Polynomial
from stratacalc.report import render_assumption
from stratacalc.oracles import (
    GeneralizedDerivative,
    VertexForm,
    check_assumption,
    oracle_branch_selection,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
)

from test_piecewise import make_abs1d, make_max2d


@pytest.fixture(scope="module")
def abs1d():
    return make_abs1d()


@pytest.fixture(scope="module")
def max2d():
    return make_max2d()


def test_exact_oracle_abs(abs1d):
    D = oracle_exact_directional(abs1d)
    assert D([0.0], [1.0]).vertices[0, 0] == pytest.approx(1.0)
    assert D([0.0], [-1.0]).vertices[0, 0] == pytest.approx(1.0)
    assert np.allclose(D([3.0], [0.0]).vertices, 0.0)


def test_exact_oracle_max_tangential(max2d):
    D = oracle_exact_directional(max2d)
    out = D([0.0, 0.0], [1.0, 1.0])
    assert out.n_vertices == 1 and out.vertices[0, 0] == pytest.approx(1.0)


def test_clarke_oracle_abs(abs1d):
    D = oracle_clarke_linear(abs1d)
    assert sorted(D([0.0], [1.0]).vertices[:, 0]) == [-1.0, 1.0]
    assert np.allclose(D([2.0], [0.7]).vertices, 0.7)


def test_clarke_oracle_max_image(max2d):
    D = oracle_clarke_linear(max2d)
    out = D([0.0, 0.0], [1.0, 0.0])
    assert sorted(out.vertices[:, 0]) == [0.0, 1.0]


def test_branch_oracle_picks_minus_side(abs1d):
    # lexicographic order '-' < '+' selects the left branch at the kink
    D = oracle_branch_selection(abs1d)
    assert D([0.0], [1.0]).vertices[0, 0] == pytest.approx(-1.0)
    assert D([0.0], [-2.0]).vertices[0, 0] == pytest.approx(2.0)


def test_branch_oracle_smooth_points_match_exact(abs1d):
    D = oracle_branch_selection(abs1d)
    E = oracle_exact_directional(abs1d)
    for x in ([1.3], [-0.4]):
        for u in ([1.0], [-0.5]):
            assert np.allclose(D(x, u).vertices, E(x, u).vertices)


def test_branch_oracle_max_diagonal(max2d):
    # the x<y side is lexicographically smallest: picks the y-piece gradient
    D = oracle_branch_selection(max2d)
    out = D([1.0, 1.0], [0.0, 3.0])
    assert out.vertices[0, 0] == pytest.approx(3.0)


def test_scale_identity_and_double(abs1d):
    E = oracle_exact_directional(abs1d)
    assert np.allclose(parse_oracle("scale:1", abs1d)([0.3], [1.0]).vertices,
                       E([0.3], [1.0]).vertices)
    S = parse_oracle("scale:2", abs1d)
    assert S([5.0], [1.0]).vertices[0, 0] == pytest.approx(2.0)


def test_reflect_of_clarke_is_itself(abs1d):
    D = oracle_clarke_linear(abs1d)
    R = parse_oracle("reflect:clarke", abs1d)
    for x in ([0.0], [1.0], [-2.0]):
        for u in ([1.0], [-0.7]):
            assert hausdorff(R(x, u), D(x, u)) <= 1e-12


def test_reflect_involution(max2d):
    D = oracle_clarke_linear(max2d)
    RR = parse_oracle("reflect:reflect:clarke", max2d)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, u = rng.uniform(-3, 3, 2), rng.normal(size=2)
        assert hausdorff(RR(x, u), D(x, u)) <= 1e-12


def test_zero_at_strata(max2d):
    D = parse_oracle("zero-strata:clarke", max2d)
    assert np.allclose(D([1.0, 1.0], [1.0, 1.0]).vertices, 0.0)
    off = D([2.0, 1.0], [1.0, 0.0])
    assert off.vertices[0, 0] == pytest.approx(1.0)


def test_positive_oracles_coincide_on_open_cells(max2d):
    oracles = [oracle_exact_directional(max2d), oracle_clarke_linear(max2d),
               oracle_branch_selection(max2d)]
    rng = np.random.default_rng(8)
    for _ in range(15):
        x = rng.uniform(-5, 5, 2)
        if abs(x[0] - x[1]) < 1e-6:
            continue
        u = rng.normal(size=2)
        vals = [o(x, u).vertices for o in oracles]
        assert all(v.shape[0] == 1 for v in vals)
        assert np.allclose(vals[0], vals[1]) and np.allclose(vals[1], vals[2])


def test_exact_in_clarke_image(abs1d, max2d):
    for F in (abs1d, max2d):
        E, C = oracle_exact_directional(F), oracle_clarke_linear(F)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.uniform(-4, 4, F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            from stratacalc.geometry import dist_point_polytope
            d = dist_point_polytope(E(x, u).vertices[0], C(x, u))
            assert d <= 1e-10 * (1 + np.linalg.norm(u))


def test_parse_oracle_ids(abs1d):
    assert parse_oracle("exact", abs1d).name == "exact"
    assert parse_oracle("clarke", abs1d).name == "clarke"
    assert parse_oracle("branch", abs1d).name == "branch"
    assert parse_oracle("scale:2", abs1d)([1.0], [1.0]).vertices[0, 0] == pytest.approx(2.0)
    assert parse_oracle("reflect:clarke", abs1d).name == "reflect:clarke"
    assert parse_oracle("zero-strata:exact", abs1d).name == "zero-strata:exact"
    with pytest.raises(ValueError):
        parse_oracle("bogus", abs1d)
    for spec in ("scale:x", "scale:nan", "scale:inf", "scale:-inf"):
        with pytest.raises(ValueError, match="bad scale factor"):
            parse_oracle(spec, abs1d)


def test_zero_direction_shortcircuit(abs1d):
    # asserted per call for every oracle built by the module
    for spec in ("exact", "clarke", "branch", "scale:3", "reflect:clarke",
                 "zero-strata:exact"):
        D = parse_oracle(spec, abs1d)
        out = D([0.5], np.zeros(1))
        assert out.n_vertices == 1 and np.allclose(out.vertices, 0.0)


# ---------------------------------------------------------------------------
# check_assumption

def test_assumption_clarke_abs_passes(abs1d):
    D = oracle_clarke_linear(abs1d)
    rep = check_assumption(D, abs1d, [[0.0], [1.0]])
    assert (rep.full_domain, rep.homogeneity, rep.lipschitz) == ("pass",) * 3
    # the pieces -x and x both have gradient norm 1: exactly 1, not a sample
    assert rep.lipschitz_constants == (1.0, 1.0)
    assert rep.notes == ()


def test_assumption_without_probes_is_inconclusive(abs1d):
    # regression: with no probe points all three lines read pass, though no
    # probe was evaluated
    rep = check_assumption(oracle_clarke_linear(abs1d), abs1d, [])
    assert (rep.full_domain, rep.homogeneity, rep.lipschitz) == ("inconclusive",) * 3
    assert rep.lipschitz_constants == () and rep.notes == ()


def test_assumption_of_a_kernel_without_form_is_inconclusive():
    # handcrafted D(x,u) = {||u||^2}, not positively homogeneous: without a
    # vertex form no line is decided, and the note names the missing form
    F = make_abs1d()
    D = GeneralizedDerivative("quad", 1, 1,
                              kernel=lambda X, U: np.sum(U * U, axis=1)[:, None, None])
    rep = check_assumption(D, F, [[0.5]])
    assert (rep.full_domain, rep.homogeneity, rep.lipschitz) == ("inconclusive",) * 3
    assert rep.notes == ("oracle 'quad' has no vertex form: a handcrafted kernel "
                         "is not decided",)
    assert render_assumption(rep)[-1] == f"  note: {rep.notes[0]}"


def test_assumption_exact_passes_both(abs1d, max2d):
    for F in (abs1d, max2d):
        D = oracle_exact_directional(F)
        pts = [np.zeros(F.ambient_dim), np.full(F.ambient_dim, 0.5)]
        rep = check_assumption(D, F, pts)
        assert (rep.full_domain, rep.homogeneity, rep.lipschitz) == ("pass",) * 3
        assert rep.lipschitz_constants == (1.0, 1.0)


def test_assumption_full_domain_fails_where_a_piece_jacobian_overflows():
    # F(x) = x^3 on both sides of x = 0: J = 3x^2 is inf at x = 1e200, so
    # probe 1 fails full domain, and its infinite constant fails Lipschitz
    cube = (Polynomial.from_terms(1, [((3,), 1.0)]),)
    F = PiecewiseFunction(Arrangement(1, (Hyperplane([1.0], 0.0),)), 1,
                          {"-": cube, "+": cube})
    rep = check_assumption(parse_oracle("scale:-2", F), F, [[-1.0], [1e200], [0.0]])
    assert rep.full_domain == ("fail (probe 1 at (1e+200,) has a non-finite "
                               "piece Jacobian)")
    assert (rep.homogeneity, rep.lipschitz) == ("pass", "fail")
    assert rep.lipschitz_constants == (6.0, np.inf, 0.0)
    assert render_assumption(rep)[0] == f"assumption full_domain: {rep.full_domain}"


SPECS = ("exact", "clarke", "branch", "scale:2", "reflect:clarke", "zero-strata:exact",
         "reflect:zero-strata:branch")


def test_every_oracle_of_the_grammar_carries_a_form(abs1d):
    forms = {spec: parse_oracle(spec, abs1d).form for spec in SPECS}
    assert forms == {
        "exact": VertexForm("directional"),
        "clarke": VertexForm("adjacent"),
        "branch": VertexForm("first"),
        "scale:2": VertexForm("directional", c=2.0),
        "reflect:clarke": VertexForm("adjacent", reflect=True),
        "zero-strata:exact": VertexForm("directional", zero_on_strata=True),
        "reflect:zero-strata:branch": VertexForm("first", reflect=True,
                                                 zero_on_strata=True),
    }
    assert parse_oracle("reflect:reflect:exact", abs1d).form == VertexForm("directional")


@pytest.mark.parametrize("spec", SPECS)
def test_check_decides_the_assumption_lines_of_every_built_in(tmp_path, spec):
    for fid in sorted(default_corpus().functions):
        out = tmp_path / f"{fid}.txt"
        main(["check", "--function", fid, "--oracle", spec, "--seed", "3",
              "--output", str(out)])
        lines = out.read_text().splitlines()
        assert "assumption full_domain: pass" in lines
        assert "assumption homogeneity: pass" in lines
        head = "assumption lipschitz: pass (L per probe: "
        line = next(l for l in lines if l.startswith("assumption lipschitz:"))
        assert line.startswith(head) and line.endswith(")")
        constants = [float(v) for v in line[len(head):-1].split(", ")]
        assert constants and np.isfinite(constants).all()
