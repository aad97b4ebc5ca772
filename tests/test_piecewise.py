import json
import math
from pathlib import Path

import numpy as np
import pytest

from stratacalc.geometry import hausdorff, Polytope
from stratacalc.piecewise import (
    Arrangement,
    Curve,
    EPS_EQ,
    Hyperplane,
    PiecewiseError,
    PiecewiseFunction,
    Polynomial,
    compose_exact,
    refine,
    sample_cell_point,
    validate_continuity,
)


# ---------------------------------------------------------------------------
# builders shared with other test modules via conftest fixtures

def P(num_vars, terms):
    return Polynomial.from_terms(num_vars, terms)


def ev(p, x):
    """p at x, through a one-piece map over the empty arrangement."""
    F = PiecewiseFunction(Arrangement(p.num_vars, ()), 1, {"": (p,)})
    return float(F.value(x)[0])


def make_abs1d():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    return PiecewiseFunction(arr, 1, {
        "-": (P(1, [((1,), -1.0)]),),
        "+": (P(1, [((1,), 1.0)]),),
    }, lipschitz_hint=1.0)


def make_max2d():
    # hyperplane x - y = 0, oriented so '+' is the x > y side
    arr = Arrangement(2, (Hyperplane([1.0, -1.0], 0.0),))
    return PiecewiseFunction(arr, 1, {
        "+": (P(2, [((1, 0), 1.0)]),),
        "-": (P(2, [((0, 1), 1.0)]),),
    }, lipschitz_hint=1.0)


def make_xabs():
    # F(x) = x|x|: pieces -x^2 and x^2
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    return PiecewiseFunction(arr, 1, {
        "-": (P(1, [((2,), -1.0)]),),
        "+": (P(1, [((2,), 1.0)]),),
    })


def make_large_valued():
    # 1000 x^6 and 1000 x^6 + x - 9, which agree on x = 9, where both
    # reach 5.3e8; with CURVE_LARGE_VALUED, which crosses x = 9 at t = 0.586
    arr = Arrangement(1, (Hyperplane([1.0], 9.0),))
    return PiecewiseFunction(arr, 1, {
        "-": (P(1, [((6,), 1000.0)]),),
        "+": (P(1, [((6,), 1000.0), ((1,), 1.0), ((0,), -9.0)]),),
    })


CURVE_LARGE_VALUED = [[8.0, 1.7, 0.013]]


def make_cancelling():
    # 1000 (x - 9)^6 written out in monomials (coefficients up to 5.3e8),
    # and the same plus x - 9: both near 0 at x = 9, so the composed
    # pieces' small coefficients are sums of terms near 3e10
    six = [((k,), 1000.0 * math.comb(6, k) * (-9.0) ** (6 - k)) for k in range(7)]
    arr = Arrangement(1, (Hyperplane([1.0], 9.0),))
    return PiecewiseFunction(arr, 1, {
        "-": (P(1, six),),
        "+": (P(1, six + [((1,), 1.0), ((0,), -9.0)]),),
    })


# ---------------------------------------------------------------------------
# Polynomial

def test_polynomial_eval_and_gradient():
    p = P(2, [((2, 0), 1.0), ((1, 1), -3.0), ((0, 0), 2.0)])
    x = np.array([2.0, 1.0])
    assert ev(p, x) == pytest.approx(4 - 6 + 2)
    gx, gy = p.gradient()
    assert ev(gx, x) == pytest.approx(2 * 2 - 3 * 1)
    assert ev(gy, x) == pytest.approx(-3 * 2)


def test_polynomial_merges_duplicate_terms():
    p = P(1, [((1,), 1.0), ((1,), 2.0), ((0,), 0.0)])
    assert p.terms() == [((1,), 3.0)]


def test_polynomial_degree_cap():
    with pytest.raises(ValueError):
        P(1, [((7,), 1.0)])


def test_polynomial_rejects_fractional_exponent():
    # regression: the int cast truncated x^1.5 to x
    with pytest.raises(ValueError, match="integers, got 1.5"):
        P(1, [((1.5,), 1.0)])
    assert P(1, [((2.0,), 1.0)]).terms() == [((2,), 1.0)]


def test_polynomial_arithmetic():
    x = Polynomial.coordinate(1, 0)
    q = x * x + Polynomial.constant(1, -1.0)
    assert ev(q, [3.0]) == pytest.approx(8.0)
    assert ev(-q, [3.0]) == pytest.approx(-8.0)


def test_compose_univariate_chain_rule():
    # p(x, y) = x^2 y, gamma(t) = (t+1, t^2): p(gamma) = (t+1)^2 t^2
    p = P(2, [((2, 1), 1.0)])
    coeffs = p.compose_univariate([np.array([1.0, 1.0]), np.array([0.0, 0.0, 1.0])])
    want = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polypow([1.0, 1.0], 2), [0, 0, 1.0])
    assert np.allclose(coeffs, want)


# ---------------------------------------------------------------------------
# sign vectors / cells

def test_sign_vector_basic():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    assert arr.sign_vector([3.0]) == "+"
    assert arr.sign_vector([0.0]) == "0"


def test_sign_vector_three_planes_hand():
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0),
                          Hyperplane([0, 1], 0.0),
                          Hyperplane([1, -1], 0.0)))
    # at (1,-1): x=1>0, y=-1<0, x-y=2>0, evaluated by hand
    assert arr.sign_vector([1.0, -1.0]) == "+-+"


def test_cell_nonempty_and_tangent():
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([0, 1], 0.0)))
    assert arr.cell_nonempty("++")
    assert arr.cell_nonempty("0+")
    cell = arr.cell("0+")
    assert cell.dimension == 1
    assert np.allclose(np.abs(cell.tangent.basis), [[0, 1]])
    origin = arr.cell("00")
    assert origin.dimension == 0


def test_cell_is_built_once_per_sign(tmp_path, monkeypatch):
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([0, 1], 0.0)))
    assert arr.cell("0+") is arr.cell("0+")
    # over a whole matrix run, the one SVD of each cell LP with a zero row
    # also gives the cell its tangent space: no cell takes a second one
    from stratacalc.cli import main
    svds, zero_row_lps = [0], [0]
    svd, solve = np.linalg.svd, Arrangement._solve_cell_lp

    def counted_svd(*args, **kwargs):
        svds[0] += 1
        return svd(*args, **kwargs)

    def counted_lp(self, sign):
        zero_row_lps[0] += "0" in sign
        return solve(self, sign)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(Arrangement, "_solve_cell_lp", counted_lp)
    main(["matrix", "--seed", "7", "--output", str(tmp_path / "m.txt")])
    assert svds[0] == zero_row_lps[0] == 19


def test_cell_tangent_bases_equal_the_recorded_ones(monkeypatch):
    # every nonempty cell's tangent basis, bit for bit, on the shipped
    # arrangements, their refinements with the corpus partitions and the
    # generated arrangements; the reference (float.hex rows) was recorded
    # from a separate SVD of each cell's zero rows
    from stratacalc.corpus import default_corpus
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gencorpus import generate_corpus
    from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
    ref = json.loads((Path(__file__).parent / "data" / "tangent_bases.json").read_text())
    arrangements = {}
    for corpus in (default_corpus(), generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES)):
        for fid, cf in corpus.functions.items():
            arrangements[fid] = cf.func.arrangement
            refined = refine(cf.func.arrangement, cf.partition)
            if refined is not cf.func.arrangement:
                arrangements[fid + " refined"] = refined
    assert list(arrangements) == list(ref)
    dims = set()
    for label, arr in arrangements.items():
        assert arr.all_nonempty_signs() == list(ref[label]), label
        for sign, rows in ref[label].items():
            want = np.array([[float.fromhex(v) for v in row] for row in rows])
            basis = arr.cell(sign).tangent.basis
            assert basis.shape == want.reshape(len(rows), arr.ambient_dim).shape, (label, sign)
            assert basis.tobytes() == want.tobytes(), (label, sign)
            dims.add((arr.ambient_dim, len(rows)))
    # vertices and full-dimensional cells in R^1, R^2 and R^3
    assert {(n, d) for n in (1, 2, 3) for d in (0, n)} <= dims


def test_hyperplane_side_and_normalization():
    h = Hyperplane([3.0, 0.0], 6.0)   # scales to <(1,0), x> = 2
    assert np.allclose(h.normal, [1.0, 0.0])
    assert h.offset == pytest.approx(2.0)
    side = Arrangement(2, (h,)).residuals
    assert side([5.0, 1.0])[0] == pytest.approx(3.0)
    assert side([2.0, -4.0])[0] == pytest.approx(0.0)


def test_parallel_planes_infeasible_cell():
    arr = Arrangement(2, (Hyperplane([1, 0], -1.0), Hyperplane([1, 0], 1.0)))
    # x < -1 and x > 1 simultaneously is empty
    assert not arr.cell_nonempty("-+")
    assert arr.cell_nonempty("+-")


def test_sample_cell_point_respects_signs():
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([0, 1], 0.0)))
    pts = sample_cell_point(arr, "0+", 3)
    assert pts.shape == (4, 2)               # the degree-3 lattice on a segment
    assert np.all(np.abs(pts[:, 0]) <= 1e-10) and np.all(pts[:, 1] > 0)


# ---------------------------------------------------------------------------
# eval

def test_eval_abs():
    F = make_abs1d()
    assert F.value([0.0]) == pytest.approx(0.0)
    assert F.value([-3.0]) == pytest.approx(3.0)
    assert F.value([2.5]) == pytest.approx(2.5)


def test_eval_max():
    F = make_max2d()
    assert F.value([2.0, 1.0]) == pytest.approx(2.0)
    assert F.value([1.0, 1.0]) == pytest.approx(1.0)


def test_eval_missing_piece_errors():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 1, {"+": (P(1, [((1,), 1.0)]),)})
    with pytest.raises(PiecewiseError):
        F.value([-1.0])
    with pytest.raises(PiecewiseError, match="-"):
        F.validate()


# ---------------------------------------------------------------------------
# directional cells and derivatives

def directional_signs(F, X, U):
    """Sign vector of the piece active on (x, x + eps*u] for each row."""
    tuples, inv = F._directional_ids(np.array(X, dtype=float), np.array(U, dtype=float))
    return [F._signs[tuples[g][0]] for g in inv]


def test_directional_cell_abs():
    F = make_abs1d()
    assert directional_signs(F, [[0.0], [0.0]], [[1.0], [-1.0]]) == ["+", "-"]


def test_directional_cell_tie_break():
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([0, 1], 0.0)))
    # each piece's x-slope names it (continuity plays no part here)
    F = PiecewiseFunction(arr, 1, {
        s: (P(2, [((1, 0), float(j))]),) for j, s in enumerate(("--", "-+", "+-", "++"))
    })
    # at the origin along (1,0): first plane resolves to '+', second is
    # tangent (<a2,u>=0) and tie-breaks to '+'
    assert directional_signs(F, [[0.0, 0.0]], [[1.0, 0.0]]) == ["++"]
    assert F.directional_derivative([0.0, 0.0], [1.0, 0.0]).tolist() == [3.0]


def test_directional_derivative_abs_kink():
    F = make_abs1d()
    assert F.directional_derivative([0.0], [1.0])[0] == pytest.approx(1.0)
    assert F.directional_derivative([0.0], [-1.0])[0] == pytest.approx(1.0)
    assert np.allclose(F.directional_derivative([0.0], [0.0]), 0.0)


def test_directional_derivative_max():
    F = make_max2d()
    assert F.directional_derivative([0.0, 0.0], [1.0, 0.0])[0] == pytest.approx(1.0)


def test_directional_derivative_xabs_zero_and_fd():
    F = make_xabs()
    for u in ([1.0], [-1.0], [0.3]):
        assert F.directional_derivative([0.0], u)[0] == pytest.approx(0.0)
    # forward-difference cross-check at t=1e-6 within 1e-4
    t = 1e-6
    for u in ([1.0], [-1.0]):
        fd = (F.value(np.array([0.0]) + t * np.array(u)) - F.value([0.0])) / t
        assert abs(fd[0] - F.directional_derivative([0.0], u)[0]) <= 1e-4


def test_positive_homogeneity():
    F = make_max2d()
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=2)
        u = rng.normal(size=2)
        d1 = F.directional_derivative(x, u)
        d2 = F.directional_derivative(x, 2 * u)
        assert np.allclose(d2, 2 * d1)


# ---------------------------------------------------------------------------
# Clarke Jacobians

def test_clarke_abs_at_kink():
    F = make_abs1d()
    J = F.clarke_jacobian([0.0])
    vals = sorted(J.vertices[:, 0, 0])
    assert vals == [-1.0, 1.0]


def test_clarke_abs_smooth_point():
    F = make_abs1d()
    J = F.clarke_jacobian([2.0])
    assert J.n_vertices == 1 and J.vertices[0, 0, 0] == pytest.approx(1.0)


def test_clarke_max_at_diagonal():
    F = make_max2d()
    J = F.clarke_jacobian([0.0, 0.0])
    rows = sorted(tuple(v[0]) for v in J.vertices)
    assert rows == [(0.0, 1.0), (1.0, 0.0)]


def test_clarke_singleton_on_open_cell_property():
    F = make_max2d()
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=2)
        if abs(x[0] - x[1]) < 1e-6:
            continue
        J = F.clarke_jacobian(x)
        assert J.n_vertices == 1


def test_component_clarke():
    # F = (|x|, x)
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 2, {
        "-": (P(1, [((1,), -1.0)]), P(1, [((1,), 1.0)])),
        "+": (P(1, [((1,), 1.0)]), P(1, [((1,), 1.0)])),
    })
    c1 = F.component_clarke([0.0], 1)
    assert sorted(c1.vertices[:, 0]) == [-1.0, 1.0]
    c2 = F.component_clarke([0.0], 2)
    assert np.allclose(c2.vertices, 1.0)
    # max at a diagonal point
    Fm = make_max2d()
    cm = Fm.component_clarke([3.0, 3.0], 1)
    assert sorted(tuple(v) for v in cm.vertices) == [(0.0, 1.0), (1.0, 0.0)]


# ---------------------------------------------------------------------------
# continuity validation

def test_validate_continuity_pass():
    assert validate_continuity(make_abs1d()).ok
    assert validate_continuity(make_max2d()).ok


def test_validate_continuity_fail_jump():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 1, {
        "+": (P(1, [((1,), 1.0)]),),
        "-": (P(1, [((1,), 1.0), ((0,), 1.0)]),),  # x + 1 on the left: jump
    })
    rep = validate_continuity(F)
    assert not rep.ok
    v = rep.violations[0]
    assert abs(v.point[0]) <= 1e-9 and v.gap == pytest.approx(1.0, abs=1e-9)


def _constants(arr, ones):
    """Scalar map over arr: 1 on the full cells in `ones`, 0 on the others."""
    return PiecewiseFunction(arr, 1, {
        s: (P(arr.ambient_dim, [((0,) * arr.ambient_dim, float(s in ones))]),)
        for s in arr.full_dim_signs()})


@pytest.mark.parametrize("F, pair, pairs", [
    # the facet x = 20 lies outside the +/-10 box
    (_constants(Arrangement(1, (Hyperplane([1.0], 20.0),)), {"+"}), {"-", "+"}, 1),
    # a bump on the sliver 0 < x < 1e-7, y > 0, which no box sample reaches
    (_constants(Arrangement(2, (Hyperplane([1.0, 0.0], 0.0),
                                Hyperplane([1.0, 0.0], 1e-7),
                                Hyperplane([0.0, 1.0], 0.0))), {"+-+"}),
     {"+-+", "+--"}, 7),
], ids=["facet-outside-box", "sliver"])
def test_validate_continuity_catches_unsampled_jumps(F, pair, pairs):
    # regression: facet sampling never reached these facets and passed them
    rep = validate_continuity(F)
    assert not rep.ok and rep.pairs_checked == pairs
    hit = [v for v in rep.violations if {v.sign_a, v.sign_b} == pair]
    assert hit and hit[0].gap == 1.0


def test_validate_continuity_names_a_missing_piece():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 1, {"+": (P(1, [((1,), 1.0)]),)})
    with pytest.raises(PiecewiseError, match="missing piece .* '-'"):
        validate_continuity(F)


def test_validate_continuity_checks_each_facet_of_the_shipped_corpus():
    from stratacalc.corpus import default_corpus
    pairs = {fid: validate_continuity(cf.func).pairs_checked
             for fid, cf in default_corpus().functions.items()}
    assert pairs == {"abs1d": 1, "id1d": 0, "max2d": 1, "relukink": 1, "absplus": 1,
                     "l1norm2d": 4, "maxreg2d": 1, "pwq2d": 2}


def test_validate_continuity_lists_violations_in_facet_sign_order():
    # 1 on the quadrant x < 0, y < 0 and 0 elsewhere jumps across its two
    # facets '-0' and '0-', which come in sign order, '-' < '0' < '+'
    arr = Arrangement(2, (Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)))
    rep = validate_continuity(_constants(arr, {"--"}))
    assert rep.pairs_checked == 4
    assert [(v.sign_a, v.sign_b, v.gap) for v in rep.violations] == \
        [("--", "-+", 1.0), ("--", "+-", 1.0)]


def _chebyshev6(n, scale):
    """scale * T6(x/6) in n variables, T6 the degree-6 Chebyshev polynomial."""
    return P(n, [((e,) + (0,) * (n - 1), scale * c / 6.0 ** e)
                 for e, c in ((6, 32.0), (4, -48.0), (2, 18.0), (0, -1.0))])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("jump", ["chebyshev", "monomial"])
def test_validate_continuity_catches_jumps_growing_off_lattice(n, jump):
    # regression: a lattice of unit spacing around the hyperplane's foot
    # point kept these jumps within EPS_EQ there, while on the facet at
    # x = +/-10 they reach 3.6e-7 and 2e-8
    q = _chebyshev6(n, 1e-9) if jump == "chebyshev" else P(n, [((6,) + (0,) * (n - 1), 2e-14)])
    normal = [0.0] * (n - 1) + [1.0]
    F = PiecewiseFunction(Arrangement(n, (Hyperplane(normal, 0.0),)), 1,
                          {"-": (P(n, []),), "+": (q,)})
    rep = validate_continuity(F)
    assert not rep.ok and rep.pairs_checked == 1
    v = rep.violations[0]
    assert {v.sign_a, v.sign_b} == {"-", "+"} and v.gap > 10 * EPS_EQ


def test_validate_continuity_draws_no_samples(monkeypatch):
    from stratacalc import piecewise
    from stratacalc.corpus import default_corpus
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gencorpus import generate_corpus
    from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES

    def refuse(*args, **kwargs):
        raise AssertionError("continuity drew a cell sample")

    monkeypatch.setattr(piecewise, "sample_cell_point", refuse)
    shipped = default_corpus().functions
    generated = generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES).functions
    funcs = [shipped["max2d"].func, shipped["pwq2d"].func] + \
        [cf.func for cf in generated.values()]
    assert len(funcs) == 4
    for F in funcs:
        rep = validate_continuity(F)
        assert rep.ok and rep.pairs_checked > 0


@pytest.mark.parametrize("n", [2, 3])
def test_validate_continuity_passes_degree6_far_from_origin(n):
    # pieces p and p + h*g agree exactly on h = 0, a hyperplane at offset
    # 500 where degree-6 monomials reach ~1e16: rounding must not fail it
    rng = np.random.default_rng(n)
    normal = rng.normal(size=n)
    plane = Hyperplane(normal, 500.0 * np.linalg.norm(normal))
    exps = [e for e in np.ndindex(*(7,) * n) if sum(e) <= 6]
    p = P(n, [(e, rng.normal()) for e in exps])
    g = P(n, [(e, rng.normal()) for e in exps if sum(e) <= 5])
    h = P(n, [(tuple(row), a) for row, a in zip(np.eye(n, dtype=int), plane.normal)]
          + [((0,) * n, -plane.offset)])
    F = PiecewiseFunction(Arrangement(n, (plane,)), 1,
                          {"-": (p,), "+": (p + h * g,)})
    rep = validate_continuity(F)
    assert rep.ok and rep.pairs_checked == 1


# ---------------------------------------------------------------------------
# refine

@pytest.mark.parametrize("n", [0, 9])
def test_arrangement_outside_max_dim_is_refused_naming_the_dimension(n):
    # a cell is built with its tangent Subspace, which holds 1..MAX_DIM = 8
    with pytest.raises(PiecewiseError, match=f"ambient dimension {n} outside 1..8"):
        Arrangement(n, ())


def test_refine_dedup():
    a = Arrangement(1, (Hyperplane([1.0], 0.0),))
    assert refine(a, a).k == 1
    flipped = Arrangement(1, (Hyperplane([-1.0], 0.0),))
    assert refine(a, flipped).k == 1


def test_refine_keeps_two_lines_at_a_small_angle():
    # lines through the origin 4e-6 rad apart are distinct: all 9 cells of
    # the pair are nonempty, so refine must keep both (numpy's default
    # relative tolerance of 1e-5 on the normals would merge them)
    t = np.pi / 4
    a = Arrangement(2, (Hyperplane([np.cos(t), np.sin(t)], 0.0),))
    b = Arrangement(2, (Hyperplane([np.cos(t + 4e-6), np.sin(t + 4e-6)], 0.0),))
    assert len(Arrangement(2, a.hyperplanes + b.hyperplanes).all_nonempty_signs()) == 9
    assert not a.hyperplanes[0].same_as(b.hyperplanes[0])
    assert refine(a, b).k == 2


def test_refine_union():
    a = Arrangement(2, (Hyperplane([1, 0], 0.0),))
    b = Arrangement(2, (Hyperplane([0, 1], 0.0),))
    assert refine(a, b).k == 2


def test_cell_margin_is_the_witness_margin():
    # the least strict-sign residual at the witness, capped at 1 like the LP
    arr = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([1, 1], 1.0),
                          Hyperplane([0, 1], 0.5)))
    for sign in arr.all_nonempty_signs():
        cell = arr.cell(sign)
        s = np.array(["-0+".index(c) - 1 for c in sign])
        r = s * arr.residuals(cell.point)
        assert cell.margin == min(1.0, r[s != 0].min(initial=1.0)) > 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_lattice_is_unisolvent(n):
    # the monomials of degree <= d in tangent coordinates are independent on
    # the lattice: a residual of that degree vanishing there vanishes on the cell
    from itertools import product
    from math import comb
    arr = Arrangement(n, (Hyperplane(np.arange(1.0, n + 1), 0.3),))
    for sign in ("+", "0"):
        cell = arr.cell(sign)
        m = cell.dimension
        for d in range(1, 7):
            pts = sample_cell_point(arr, sign, d)
            t = (pts - cell.point) @ cell.tangent.basis.T / (0.5 * cell.margin)
            exps = [e for e in product(range(d + 1), repeat=m) if sum(e) <= d]
            V = np.prod(t[:, None, :] ** np.array(exps, dtype=float), axis=2)
            assert V.shape == (comb(m + d, d),) * 2
            assert np.linalg.matrix_rank(V) == len(exps)


def test_degree_is_the_largest_total_degree_of_a_piece():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 2, {"-": (P(1, [((0,), 2.0)]), P(1, [])),
                                   "+": (P(1, [((1,), 1.0)]), P(1, [((3,), 1.0)]))})
    assert F.degree == 3
    assert PiecewiseFunction(arr, 1, {"-": (P(1, []),), "+": (P(1, []),)}).degree == 0


def test_refine_compatibility_sampling():
    # every cell of the refinement maps into a single cell of each input
    a = Arrangement(2, (Hyperplane([1, 0], 0.0), Hyperplane([1, 1], 1.0)))
    b = Arrangement(2, (Hyperplane([0, 1], 0.5),))
    r = refine(a, b)
    cells = [s for s in r.all_nonempty_signs() if r.cell(s).dimension > 0]
    assert len(r.full_dim_signs()) == 7 and len(cells) == 7 + 9   # 3 lines, 3 vertices
    for sign in cells:
        pts = sample_cell_point(r, sign, 4)
        assert len(pts) == (15 if r.cell(sign).dimension == 2 else 5)
        seen_a = {a.sign_vector(pt) for pt in pts}
        seen_b = {b.sign_vector(pt) for pt in pts}
        assert len(seen_a) == 1 and len(seen_b) == 1


def test_refine_is_computed_once_per_pair_of_arrangements():
    # the refinement is kept on the first arrangement, keyed by the second
    # (identity), so rows sharing a function and partition share its cells
    a = Arrangement(2, (Hyperplane([1, 0], 0.0),))
    p = Arrangement(2, (Hyperplane([0, 1], 0.5),))
    r = refine(a, p)
    assert r.k == 2 and refine(a, p) is r
    other = Arrangement(2, p.hyperplanes)
    assert refine(a, other) is not r and refine(a, other).k == 2


def test_refine_leaves_no_reference_cycle():
    # an arrangement kept on itself would outlive its function until the
    # cyclic collector runs, at a point no op controls
    import gc
    import weakref
    a = Arrangement(2, (Hyperplane([1, 0], 0.0),))
    p = Arrangement(2, ())
    assert refine(a, p) is a
    gone = weakref.ref(a)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del a
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_refine_without_a_new_hyperplane_is_the_first_arrangement():
    # each matrix row of a function then shares its cell decisions
    from stratacalc.corpus import default_corpus
    for cf in default_corpus().functions.values():
        F = cf.func
        assert refine(F.arrangement, Arrangement(F.ambient_dim, ())) is F.arrangement
    a = Arrangement(1, (Hyperplane([1.0], 0.0),))
    assert refine(a, Arrangement(1, (Hyperplane([-2.0], 0.0),))) is a
    # a first arrangement with a duplicate of its own is still deduplicated
    twice = Arrangement(1, a.hyperplanes * 2)
    assert refine(twice, Arrangement(1, ())).k == 1


# ---------------------------------------------------------------------------
# curves

def test_curve_eval_velocity_parabola():
    gamma = Curve.from_coeffs([[0.0, 1.0], [0.0, 0.0, 1.0]])  # (t, t^2)
    assert np.allclose(gamma.value(0.0), [0, 0])
    assert np.allclose(gamma.velocity(0.0), [1, 0])


def test_curve_constant_velocity_zero():
    gamma = Curve.from_coeffs([[5.0]])
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(gamma.velocity(t), 0.0)


def test_curve_cubic_hand_values():
    gamma = Curve.from_coeffs([[0.0, -1.0, 0.0, 1.0]])  # t^3 - t
    assert gamma.value(1.0)[0] == pytest.approx(0.0)
    assert gamma.velocity(1.0)[0] == pytest.approx(2.0)  # 3t^2-1 at 1


def test_curve_breakpoint_conventions():
    # two pieces: t on [0,1/2], then 1-t... use matching values: t then t
    gamma = Curve(np.array([0.0, 0.5, 1.0]),
                  (np.array([[0.0, 1.0]]), np.array([[1.0, -1.0]])))
    # left velocity at the interior breakpoint
    assert gamma.velocity(0.5)[0] == pytest.approx(1.0)
    assert gamma.velocity(0.75)[0] == pytest.approx(-1.0)


def test_curve_discontinuous_rejected():
    with pytest.raises(ValueError):
        Curve(np.array([0.0, 0.5, 1.0]),
              (np.array([[0.0, 1.0]]), np.array([[9.0, 1.0]])))


# ---------------------------------------------------------------------------
# compose_exact

def test_compose_abs_affine_crossing():
    F = make_abs1d()
    gamma = Curve.from_coeffs([[-1.0, 2.0]])  # 2t - 1 crosses 0 at t=1/2
    comp = compose_exact(F, gamma)
    assert len(comp.pieces) == 2
    assert comp.breakpoints[1] == pytest.approx(0.5, abs=1e-12)
    # pieces 1-2t then 2t-1 (solved by hand)
    assert np.allclose(comp.pieces[0][0, :2], [1.0, -2.0])
    assert np.allclose(comp.pieces[1][0, :2], [-1.0, 2.0])


def test_compose_large_valued_map_keeps_its_crossing():
    # regression: the composed pieces meet at the crossing within rounding
    # of their 5.3e8 values, but Curve rejected the 6e-8 gap as a jump
    F = make_large_valued()
    assert validate_continuity(F).ok
    gamma = Curve.from_coeffs(CURVE_LARGE_VALUED)
    comp = compose_exact(F, gamma)
    assert len(comp.pieces) == 2
    assert comp.breakpoints[1] == pytest.approx((-1.7 + np.sqrt(1.7 ** 2 + 0.052)) / 0.026)
    ts = np.linspace(0.0, 1.0, 11)
    assert np.allclose(comp.value(ts), F.values(gamma.value(ts)), rtol=1e-13, atol=0.0)


def test_compose_cancelling_map_keeps_its_crossing():
    # regression: the composed pieces' coefficients are small, so their own
    # terms gave no allowance for the rounding of the 3e10 monomials of F
    # they were summed from, and Curve rejected the crossing as a jump
    F = make_cancelling()
    assert validate_continuity(F).ok
    gamma = Curve.from_coeffs(CURVE_LARGE_VALUED)
    comp = compose_exact(F, gamma)
    assert len(comp.pieces) == 2
    assert comp.breakpoints[1] == pytest.approx((-1.7 + np.sqrt(1.7 ** 2 + 0.052)) / 0.026)
    ts = np.linspace(0.0, 1.0, 11)
    assert np.allclose(comp.value(ts), F.values(gamma.value(ts)), rtol=0.0, atol=1e-4)


def test_curve_breakpoint_tolerance_scales_with_its_terms():
    # pieces near 1e9 that meet within rounding join; a jump of 1 does not
    big = np.array([[1e9, 1.0]])
    Curve(np.array([0.0, 0.5, 1.0]), (big, big + np.array([[1e-6, 0.0]])))
    with pytest.raises(ValueError, match="discontinuous at t=0.5"):
        Curve(np.array([0.0, 0.5, 1.0]), (big, big + np.array([[1.0, 0.0]])))


def test_compose_smooth_polynomial_single_piece():
    arr = Arrangement(1, ())
    F = PiecewiseFunction(arr, 1, {"": (P(1, [((2,), 1.0), ((0,), 1.0)]),)})
    gamma = Curve.from_coeffs([[0.0, 0.0, 1.0]])  # t^2
    comp = compose_exact(F, gamma)
    assert len(comp.pieces) == 1
    # (t^2)^2 + 1
    assert np.allclose(comp.pieces[0][0], [1.0, 0, 0, 0, 1.0])


def test_compose_tangential_travel_marked_boundary():
    F = make_max2d()
    gamma = Curve.from_coeffs([[0.0, 1.0], [0.0, 1.0]])  # (t, t) inside x=y
    comp = compose_exact(F, gamma)
    # composition is t on all of [0,1]
    assert np.allclose(comp.value(0.3), [0.3])
    assert np.allclose(comp.velocity(0.7), [1.0])


def test_compose_even_touch_keeps_correct_side():
    # gamma(t) = (t - 1/2)^2 touches the kink of |x| from above: F(gamma) = gamma
    F = make_abs1d()
    gamma = Curve.from_coeffs([[0.25, -1.0, 1.0]])
    comp = compose_exact(F, gamma)
    for t in (0.1, 0.5, 0.9):
        assert comp.value(t)[0] == pytest.approx((t - 0.5) ** 2, abs=1e-12)


def _sign_change_cases(rng):
    """(H, lo, hi): integer polynomials, low to high, over [lo, hi]."""
    import sympy
    t, R = sympy.Symbol("t"), sympy.Rational

    def from_roots(roots, deg):
        # monic in t with the given rational roots, raised to degree deg by
        # factors without real roots; integer coefficients after clearing
        poly = sympy.prod([t - r for r in roots])
        while sympy.degree(poly, t) < deg:
            poly *= t ** 2 + R(int(rng.integers(1, 9)), 7)
        coeffs = sympy.Poly(poly, t).all_coeffs()[::-1]
        den = sympy.ilcm(*[sympy.fraction(c)[1] for c in coeffs])
        return [int(c * den) for c in coeffs]

    def rat(x):  # a rational that is not a double
        return R(int(round(x * 3 ** 20)), 3 ** 20)

    cases = []
    for deg in range(1, 7):
        for _ in range(8):  # random integer coefficients
            H = [int(c) for c in rng.integers(-50, 51, size=deg + 1)]
            cases.append((H[:-1] + [H[-1] or 1], 0.0, 1.0))
        for _ in range(10 if deg > 1 else 0):  # a near-double root pair 2e-7 to 2e-2 apart
            r = rat(rng.uniform(0.0, 1.0))
            gap = rat(10 ** rng.uniform(-6.7, -1.7))
            more = [rat(x) for x in rng.uniform(-0.2, 1.2, size=int(rng.integers(0, deg - 1)))]
            cases.append((from_roots([r, r + gap] + more, deg), 0.0, 1.0))
    cases += [
        (from_roots([R(1, 3), R(1, 3), R(7, 10)], 3), 0.0, 1.0),   # touch point
        (from_roots([R(1, 2), R(1, 2), R(1, 5)], 5), 0.0, 1.0),    # touch at a double
        (from_roots([R(1, 2), R(1, 3)], 4), 0.0, 1.0),             # root at a double
        (from_roots([R(1, 4), R(3, 4)], 2), 0.25, 1.0),            # root at lo
        (from_roots([R(1, 4), R(3, 4)], 2), 0.0, 0.75),            # root at hi
    ]
    return cases


def test_sign_changes_match_sympy_isolation():
    # each odd-multiplicity real root strictly inside (lo, hi) gets one
    # bracket, in order: a root at a double, or two adjacent doubles at
    # which H has opposite signs; even-order roots and roots at lo or hi
    # get none
    import sympy
    from stratacalc.piecewise import _sign_changes
    R = sympy.Rational
    rng = np.random.default_rng(17)
    for H, lo, hi in _sign_change_cases(rng):
        P = sympy.Poly(H[::-1], sympy.Symbol("t"))
        want = [(a, b) for (a, b), mult in P.intervals(eps=R(1, 10 ** 20))
                if mult % 2 and lo < a and b < hi]
        got = _sign_changes(H, lo, hi)
        assert len(got) == len(want), (H, lo, hi)
        for (a, b), (ra, rb) in zip(got, want):
            qa, qb = R(*a.as_integer_ratio()), R(*b.as_integer_ratio())
            assert qa <= rb and ra <= qb
            if a == b:
                assert P.eval(qa) == 0
            else:
                assert b == np.nextafter(a, 2.0)
                assert P.eval(qa) * P.eval(qb) < 0


def test_compose_velocity_matches_finite_difference():
    F = make_max2d()
    gamma = Curve.from_coeffs([[-1.0, 2.0, 0.5], [0.3, -1.0, 0.0, 0.8]])
    comp = compose_exact(F, gamma)
    for t in (0.13, 0.49, 0.81):
        h = 1e-7
        fd = (comp.value(t + h) - comp.value(t - h)) / (2 * h)
        if any(abs(t - c) < 1e-3 for c in comp.breakpoints[1:-1]):
            continue
        assert np.allclose(comp.velocity(t), fd, atol=1e-5)


def test_compose_univariate_semismoothness_property():
    # one-sided velocity at 0 equals the limit of the derivative from the right
    F = make_xabs()
    rng = np.random.default_rng(21)
    for _ in range(10):
        gamma = Curve.from_coeffs([rng.uniform(-2, 2, size=4)])
        comp = compose_exact(F, gamma)
        v0 = comp.velocity(0.0)
        first_bp = comp.breakpoints[1] if comp.breakpoints.size > 2 else 1.0
        t1, t2 = min(1e-7, first_bp / 4), min(1e-8, first_bp / 8)
        d1, d2 = comp.velocity(t1), comp.velocity(t2)
        # linear extrapolation of the derivative to t=0
        limit = d2 + (d2 - d1) * t2 / (t1 - t2)
        assert np.allclose(v0, limit, atol=1e-8)
