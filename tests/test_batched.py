"""The array kernels, bit for bit: against their one-row views and against
the scalar formulas they replaced, which stay here as the reference.

Inputs cover random points, points on hyperplanes (with tangent directions,
which exercise the directional tie-break), vertices of the arrangement,
rows with u = 0, and a handcrafted pointwise oracle.
"""

import math

import numpy as np
import pytest

from stratacalc import GeneralizedDerivative, Polytope, default_corpus, parse_oracle
from stratacalc.geometry import diameters, linear_range_over_polytope, row_norms
from stratacalc.piecewise import EPS_CELL

ORACLES = ("exact", "clarke", "branch", "scale:2", "scale:-0.5", "reflect:clarke",
           "reflect:exact", "zero-strata:clarke", "zero-strata:exact")


@pytest.fixture(scope="module")
def functions():
    corpus = default_corpus()
    return [corpus.function(fid).func for fid in corpus.functions]


def _inputs(F, seed=0):
    """Rows (x, u): random, on each hyperplane, at each vertex, and u = 0."""
    rng = np.random.default_rng(seed)
    arr, n = F.arrangement, F.ambient_dim
    X = [rng.uniform(-3, 3, size=(20, n))]
    U = [rng.normal(size=(20, n))]
    for a, b in zip(arr.normals, arr.offsets):
        on = rng.uniform(-3, 3, size=(8, n))
        on -= np.outer(on @ a - b, a)
        tangent = rng.normal(size=(8, n))
        tangent -= np.outer(tangent @ a, a)
        X += [on, on]
        U += [tangent if n > 1 else rng.normal(size=(8, n)), rng.normal(size=(8, n))]
    vertices = [arr.cell(s).point for s in arr.all_nonempty_signs()
                if arr.cell(s).dimension == 0]
    if vertices:
        X.append(np.array(vertices))
        U.append(rng.normal(size=(len(vertices), n)))
    X, U = np.vstack(X), np.vstack(U)
    U[::7] = 0.0
    return X, U


# -- the scalar formulas the kernels replaced ---------------------------------

def _scalar_eval(ev, x):
    vals = ev.coeffs * np.prod(x[None, :] ** ev.exponents, axis=1)
    return np.bincount(ev.slots, weights=vals, minlength=ev.size).reshape(ev.shape)


def _scalar_directional_sign(F, x, u):
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
    return "".join(chars)


def _scalar_derivative(F, x, u):
    if float(np.linalg.norm(u)) == 0.0:
        return np.zeros(F.output_dim)
    return _scalar_eval(F._jac_eval(_scalar_directional_sign(F, x, u)), x) @ u


def _scalar_difference(F, y, x):
    out = []
    for i in range(F.output_dim):
        parts = []
        for z, sgn in ((y, 1.0), (x, -1.0)):
            ev = F._value_eval(F.adjacent_full_signs(z)[0])
            vals = ev.coeffs * np.prod(z[None, :] ** ev.exponents, axis=1)
            parts += [sgn * float(v) for v, s in zip(vals, ev.slots) if s == i]
        out.append(math.fsum(parts))
    return np.array(out)


def _scalar_diameter(v):
    if v.shape[0] == 1:
        return 0.0
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))


def _scalar_oracle(F, oracle_id, x, u):
    if float(np.linalg.norm(u)) == 0.0:
        return np.zeros((1, F.output_dim))
    if oracle_id == "exact":
        return _scalar_derivative(F, x, u)[None]
    jacs = [_scalar_eval(F._jac_eval(s), x) for s in F.adjacent_full_signs(x)]
    if oracle_id == "branch":
        jacs = jacs[:1]
    return np.array(jacs) @ u


# -----------------------------------------------------------------------------

@pytest.mark.parametrize("oracle_id", ORACLES)
def test_oracle_batch_rows_equal_one_row_calls(functions, oracle_id):
    for F in functions:
        D = parse_oracle(oracle_id, F)
        X, U = _inputs(F)
        B = D.batch(X, U)
        for x, u, row in zip(X, U, B):
            V = D(x, u).vertices
            assert np.array_equal(row[:len(V)], V)
            assert np.array_equal(row[len(V):], np.repeat(V[:1], len(row) - len(V), axis=0))
            if oracle_id in ("exact", "clarke", "branch"):
                assert np.array_equal(V, _scalar_oracle(F, oracle_id, x, u))


def test_pointwise_oracle_goes_through_the_row_loop(functions):
    F = functions[0]
    calls = []

    def fn(x, u):   # one vertex left of 0, two on the right: ragged rows
        calls.append(1)
        v = float(u[0])
        return Polytope([[v]] if x[0] < 0 else [[v], [2 * v]])

    D = GeneralizedDerivative("ragged", "handcrafted", 1, 1, fn)
    X = np.array([[-1.0], [1.0], [2.0], [-3.0]])
    U = np.array([[1.0], [0.0], [-1.0], [2.0]])
    B = D.batch(X, U)
    assert len(calls) == 3                       # the u = 0 row never reaches fn
    assert B.shape == (4, 2, 1)
    assert np.array_equal(B[:, :, 0], [[1, 1], [0, 0], [-1, -2], [2, 2]])
    assert np.array_equal(D(X[2], U[2]).vertices, [[-1.0], [-2.0]])


def test_piecewise_array_forms_equal_one_row_forms(functions):
    for F in functions:
        X, U = _inputs(F, seed=1)
        Y = X + 1e-3 * U
        vals = F.values(X)
        diffs = F.value_differences(Y, X)
        ders = F.directional_derivatives(X, U)
        J, counts = F.clarke_jacobians(X)
        lo, hi = F.component_ranges(X, U)
        for k, (x, y, u) in enumerate(zip(X, Y, U)):
            sign = F.adjacent_full_signs(x)[0]
            assert np.array_equal(vals[k], F.value(x))
            assert np.array_equal(vals[k], _scalar_eval(F._value_eval(sign), x))
            assert np.array_equal(diffs[k], F.value_difference_exact(y, x))
            assert np.array_equal(diffs[k], _scalar_difference(F, y, x))
            assert np.array_equal(ders[k], F.directional_derivative(x, u))
            assert np.array_equal(ders[k], _scalar_derivative(F, x, u))
            jac = F.clarke_jacobian(x).vertices
            assert counts[k] == len(jac) and np.array_equal(J[k, :counts[k]], jac)
            for i in range(F.output_dim):
                rng_i = linear_range_over_polytope(F.component_clarke(x, i + 1), u)
                assert (lo[k, i], hi[k, i]) == rng_i


def test_row_norms_and_diameters_equal_numpy_per_row():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 5):
        V = rng.normal(size=(500, 3, m)) * 10.0 ** rng.integers(-6, 6, size=(500, 1, 1))
        norms = row_norms(V)
        for k in range(len(V)):
            assert np.array_equal(norms[k], [np.linalg.norm(v) for v in V[k]])
            assert diameters(V[k]) == _scalar_diameter(V[k])
            assert diameters(V[k, :1]) == 0.0
        padded = np.concatenate([V, V[:, :1]], axis=1)
        assert np.array_equal(diameters(padded), diameters(V))


def test_empty_batches(functions):
    # zero rows are a valid batch: a check with no samples passes vacuously
    from stratacalc import VerifierConfig, check_conservative
    F = functions[0]
    none = np.zeros((0, F.ambient_dim))
    assert F.values(none).shape == (0, F.output_dim)
    assert F.value_differences(none, none).shape == (0, F.output_dim)
    assert F.component_ranges(none, none)[0].shape == (0, F.output_dim)
    assert parse_oracle("clarke", F).batch(none, none).shape == (0, 1, F.output_dim)
    cf = default_corpus().function("max2d")
    rep = check_conservative(cf.func, parse_oracle("clarke", cf.func), cf.curves,
                             VerifierConfig(curve_samples=0), np.random.default_rng(0))
    assert rep.verdict == "pass"
