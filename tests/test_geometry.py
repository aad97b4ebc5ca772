import itertools

import numpy as np
import pytest

from stratacalc.geometry import (
    DimensionMismatchError,
    MatrixPolytope,
    Polytope,
    Subspace,
    dist_point_polytope,
    hausdorff,
    linear_image,
    linear_range_over_polytope,
    project,
    subset_mod_subspace,
)


# ---------------------------------------------------------------------------
# Independent oracles (never used by the library itself)

def oracle_dist_to_hull(v, vertices):
    """Exact distance to conv(vertices) by exhaustive face enumeration.

    For every affinely independent vertex subset, project v onto its affine
    hull (least-squares in difference coordinates) and keep projections with
    nonnegative barycentric coordinates. By Caratheodory the nearest hull
    point is such a projection, so the minimum over them is the distance.
    """
    v = np.asarray(v, float)
    verts = np.atleast_2d(np.asarray(vertices, float))
    k = verts.shape[0]
    best = min(float(np.linalg.norm(v - s)) for s in verts)
    for size in range(2, k + 1):
        for idx in itertools.combinations(range(k), size):
            S = verts[list(idx)]
            D = (S[1:] - S[0]).T
            if np.linalg.matrix_rank(D, tol=1e-10) < size - 1:
                continue  # affinely dependent; covered by smaller faces
            t = np.linalg.lstsq(D, v - S[0], rcond=None)[0]
            if np.all(t >= -1e-9) and t.sum() <= 1 + 1e-9:
                proj = S[0] + D @ t
                best = min(best, float(np.linalg.norm(v - proj)))
    return best


# ---------------------------------------------------------------------------
# project

def test_project_axis():
    assert np.allclose(project([1, 1], Subspace(2, [[1, 0]])), [1, 0])


def test_project_zero_subspace():
    assert np.allclose(project([3, 4], Subspace.zero(2)), [0, 0])


def test_project_diagonal_hand_value():
    # <v,b> b with b=(1,1,1)/sqrt(3), <v,b>=6/sqrt(3): solved by hand -> (2,2,2)
    b = np.ones(3) / np.sqrt(3)
    out = project([1, 2, 3], Subspace(3, [b]))
    assert np.allclose(out, [2, 2, 2], atol=1e-12)


def test_project_idempotent_and_nonexpansive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, n + 1))
        V = Subspace.from_spanning(rng.normal(size=(k, n)), n) if k else Subspace.zero(n)
        v = rng.normal(size=n)
        p = project(v, V)
        assert np.allclose(project(p, V), p, atol=1e-10)
        assert np.linalg.norm(p) <= np.linalg.norm(v) + 1e-12


def test_project_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        project([1, 2, 3], Subspace(2, [[1, 0]]))


# ---------------------------------------------------------------------------
# dist_point_polytope

def test_dist_interior_point_1d():
    assert dist_point_polytope([0.5], Polytope([[0.0], [1.0]])) == pytest.approx(0.0, abs=1e-10)


def test_dist_nearest_vertex():
    P = Polytope([[0, 0], [0, 1]])
    assert dist_point_polytope([2, 0], P) == pytest.approx(2.0, abs=1e-10)


def test_dist_perpendicular_foot():
    # closest point (1,0) by perpendicular foot: distance 1
    P = Polytope([[0, 0], [2, 0]])
    assert dist_point_polytope([1, 1], P) == pytest.approx(1.0, abs=1e-10)


def test_dist_matches_nnls_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        P = Polytope(rng.normal(size=(k, n)))
        v = 2 * rng.normal(size=n)
        got = dist_point_polytope(v, P)
        want = oracle_dist_to_hull(v, P.vertices)
        assert got == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# hausdorff

def test_hausdorff_identical():
    P = Polytope([[0, 0], [1, 2]])
    assert hausdorff(P, P) == pytest.approx(0.0, abs=1e-10)


def test_hausdorff_intervals():
    assert hausdorff(Polytope([[0.0], [1.0]]), Polytope([[0.0], [2.0]])) == pytest.approx(1.0, abs=1e-10)


def test_hausdorff_point_to_point():
    assert hausdorff(Polytope([[0, 0]]), Polytope([[3, 4]])) == pytest.approx(5.0, abs=1e-10)


def test_hausdorff_metric_properties_random():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        polys = [Polytope(rng.normal(size=(int(rng.integers(1, 5)), n))) for _ in range(3)]
        P, Q, R = polys
        assert hausdorff(P, Q) == pytest.approx(hausdorff(Q, P), abs=1e-9)
        assert hausdorff(P, R) <= hausdorff(P, Q) + hausdorff(Q, R) + 1e-9
        assert hausdorff(P, P) <= 1e-9


# ---------------------------------------------------------------------------
# subset_mod_subspace (the brute-force comparison is acceptance criterion 5)

def test_subset_mod_subspace_trivial_cases():
    e2 = Subspace(2, [[0, 1]])
    assert subset_mod_subspace(Polytope([[1, 5]]), Polytope([[1, 0]]), e2)
    assert not subset_mod_subspace(Polytope([[0, 0], [1, 0]]), Polytope([[0, 0]]), e2)


# ---------------------------------------------------------------------------
# linear_image / linear_range_over_polytope

def test_linear_image_scaling():
    J = MatrixPolytope(np.array([[[-1.0]], [[1.0]]]))
    out = linear_image(J, [2.0])
    assert sorted(out.vertices[:, 0]) == [-2.0, 2.0]


def test_linear_image_zero_direction():
    J = MatrixPolytope(np.array([[[0.3, -2.0]], [[1.0, 4.0]]]))
    out = linear_image(J, [0.0, 0.0])
    assert np.allclose(out.vertices, 0.0)


def test_linear_image_collapsing():
    # both vertices (1,0) and (0,1) as 1x2 rows map u=(1,1) to 1
    J = MatrixPolytope(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    out = linear_image(J, [1.0, 1.0])
    assert np.allclose(out.vertices, 1.0)


def test_linear_image_convexity_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A1, A2 = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        u = rng.normal(size=n)
        lam = float(rng.uniform())
        J = MatrixPolytope(np.array([A1, A2]))
        img = linear_image(J, u)
        mix = (lam * A1 + (1 - lam) * A2) @ u
        assert dist_point_polytope(mix, img) <= 1e-10 * (1 + np.linalg.norm(mix))


def test_linear_range_abs_subdifferential():
    assert linear_range_over_polytope(Polytope([[-1.0], [1.0]]), [1.0]) == (-1.0, 1.0)


def test_linear_range_singleton():
    lo, hi = linear_range_over_polytope(Polytope([[0.5, -2.0]]), [2.0, 1.0])
    assert lo == hi == pytest.approx(-1.0)


def test_linear_range_two_vertices():
    lo, hi = linear_range_over_polytope(Polytope([[1, 0], [0, 1]]), [2, 1])
    assert (lo, hi) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# construction guards

def test_subspace_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        Subspace(2, [[1, 1]])


def test_polytope_rejects_dim_beyond_cap():
    with pytest.raises(DimensionMismatchError):
        Polytope(np.zeros((1, 9)))

