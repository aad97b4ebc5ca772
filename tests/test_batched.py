"""The array kernels, bit for bit: against their one-row views and against
the scalar formulas they replaced, which stay here as the reference.

Inputs cover random points, points on hyperplanes (with tangent directions,
which exercise the directional tie-break), vertices of the arrangement,
and rows with u = 0. The assumption checker is compared with the one-row
loop it replaced, report field by field, also on handcrafted oracles.
Tangent directions are compared with the one-point loop they replaced: same
directions, and the generator left in the same state. Cell sampling, a
plain blocked rejection loop, is tested for its properties: points of the
cell inside the box, independent of the block size, and within the budget.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from stratacalc import GeneralizedDerivative, Polytope, default_corpus, parse_oracle
from stratacalc.geometry import (
    diameters,
    hausdorff,
    hausdorffs,
    linear_range_over_polytope,
    row_norms,
)
from stratacalc import oracles
from stratacalc.conditions import TANGENT_COMBOS, _tangent_directions
from stratacalc.oracles import (
    EPS_HOM,
    HOM_T_FACTORS,
    LIPSCHITZ_BLOWUP,
    LIPSCHITZ_PAIRS,
    LIPSCHITZ_RADIUS,
    AssumptionReport,
    check_assumption,
)
from stratacalc import piecewise
from stratacalc.piecewise import (
    EPS_CELL,
    Arrangement,
    Hyperplane,
    sample_cell_point,
)
from stratacalc.seeding import substream

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


def _scalar_assumption(D, probe_points, seed):
    """check_assumption as a loop of one-row oracle calls and Hausdorff
    distances, in the draw and scan order the batched form keeps, with the
    sample sizes the oracles module holds at call time."""
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    n = D.input_dim
    hom_worst, hom_witness = 0.0, None
    witnesses = []
    for pi, x in enumerate(probes):
        rng = substream(seed, "assumption", pi)
        dirs = rng.normal(size=(oracles.DIRECTIONS_PER_PROBE, n))
        zero = Polytope(D.kernel(x[None], np.zeros((1, n)))[0])
        gap0 = hausdorff(zero, Polytope(np.zeros((1, D.output_dim))))
        if gap0 > EPS_HOM:
            hom_worst = max(hom_worst, gap0)
            hom_witness = (tuple(x), (0.0,) * n, 0.0)
        for u in dirs:
            out = D(x, u)
            for t in HOM_T_FACTORS:
                gap = hausdorff(D(x, t * u), out.scale(t))
                tol = EPS_HOM * max(1.0, t * float(np.linalg.norm(u)))
                if gap > tol and gap > hom_worst:
                    hom_worst = gap
                    hom_witness = (tuple(x), tuple(u), t)
    if hom_witness is not None:
        witnesses.append(hom_witness)
    lipschitz_constants, lipschitz = [], "pass"
    for pi, p in enumerate(probes):
        rng = substream(seed, "lipschitz", pi)
        L = 0.0
        for _ in range(oracles.LIPSCHITZ_CENTERS):
            x = p + LIPSCHITZ_RADIUS * rng.uniform(-1, 1, size=n)
            for _ in range(LIPSCHITZ_PAIRS):
                u1 = rng.normal(size=n)
                u2 = rng.normal(size=n)
                du = float(np.linalg.norm(u1 - u2))
                if du < 1e-12:
                    continue
                L = max(L, hausdorff(D(x, u1), D(x, u2)) / du)
        lipschitz_constants.append(L)
        if L > LIPSCHITZ_BLOWUP:
            lipschitz = "fail"
            witnesses.append((tuple(p), None, L))
    full_domain, homogeneity = "pass", "pass" if hom_witness is None else "fail"
    if not probes:  # nothing evaluated: no evidence either way
        full_domain = homogeneity = lipschitz = "inconclusive"
    return AssumptionReport(full_domain, homogeneity, hom_worst, hom_witness, lipschitz,
                            tuple(lipschitz_constants), tuple(witnesses))


def _assert_same_report(got, want):
    for f in dataclasses.fields(AssumptionReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


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


def test_value_differences_share_one_base_row(functions):
    # one row x broadcasts against every y, its terms computed once: bit for
    # bit the broadcast_to form and the one-row view; the rows of _inputs
    # include points on every hyperplane and the vertices, as y and as x
    for F in functions:
        Y, _ = _inputs(F, seed=2)
        for x in Y[::5]:
            diffs = F.value_differences(Y, x[None])
            assert np.array_equal(diffs, F.value_differences(Y, np.broadcast_to(x, Y.shape)))
            for y, row in zip(Y, diffs):
                assert np.array_equal(row, F.value_difference_exact(y, x))


def test_value_differences_name_both_shapes_when_rows_do_not_broadcast(functions):
    F = functions[0]
    Y, X = np.zeros((5, F.ambient_dim)), np.zeros((3, F.ambient_dim))
    with pytest.raises(ValueError, match=re.escape(f"X of shape {X.shape} does not broadcast "
                                                   f"against Y of shape {Y.shape}")):
        F.value_differences(Y, X)


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
    # zero rows are a valid batch for every kernel
    F = functions[0]
    none = np.zeros((0, F.ambient_dim))
    assert F.values(none).shape == (0, F.output_dim)
    assert F.value_differences(none, none).shape == (0, F.output_dim)
    assert F.directional_derivatives(none, none).shape == (0, F.output_dim)
    assert F.component_ranges(none, none)[0].shape == (0, F.output_dim)
    assert parse_oracle("clarke", F).batch(none, none).shape == (0, 1, F.output_dim)


def _pad(V, width):
    """Pad a (V, m) vertex list to `width` rows by repeating vertex 0."""
    return np.concatenate([V, np.repeat(V[:1], width - len(V), axis=0)])


def test_hausdorffs_rows_equal_hausdorff():
    rng = np.random.default_rng(4)
    cases = []  # (P, Q) vertex lists of one dimension m
    for m in (1, 2, 3):
        for _ in range(30):
            p, q = rng.normal(size=(2, 1, m)) * 10.0 ** rng.integers(-3, 4)
            cases += [(p, q), (p, p)]                                 # singletons
            cases += [(_pad(p, 3), _pad(q, 2)), (p, _pad(q, 4))]      # padded singletons
            cases.append((rng.normal(size=(2, m)), q))                # mixed
    for _ in range(40):
        a, b = np.sort(rng.normal(size=(2, 2, 1)), axis=1)
        cases += [(a, b), (a, a), (_pad(a[:1], 2), b)]                # 1-D intervals
        P, Q = rng.normal(size=(2, 4, 2))
        cases += [(P, Q), (P, P), (P, _pad(Q[:3], 4)), (P[::-1], P)]  # 2-D polytopes
    for m in (1, 2, 3):
        same = [(P, Q) for P, Q in cases if P.shape[1] == m]
        V = max(len(P) for P, _ in same)
        W = max(len(Q) for _, Q in same)
        Ps = np.array([_pad(P, V) for P, _ in same])
        Qs = np.array([_pad(Q, W) for _, Q in same])
        got = hausdorffs(Ps, Qs)
        for k, (P, Q) in enumerate(same):
            assert got[k] == hausdorff(Polytope(P), Polytope(Q))
    assert hausdorffs(np.zeros((0, 1, 2)), np.zeros((0, 3, 2))).shape == (0,)


def _handcrafted_oracles():
    return [
        # not positively homogeneous: exercises the witness scan and its ties
        GeneralizedDerivative("quad", "handcrafted", 1, 1,
                              kernel=lambda X, U: np.sum(U * U, axis=1)[:, None, None]),
        # {1} at u = 0 on the unasserted map, an interval elsewhere
        GeneralizedDerivative("shift", "handcrafted", 1, 1,
                              kernel=lambda X, U: np.stack([np.ones_like(U), 1.0 + U], axis=1)),
    ]


def _set_sizes(monkeypatch, directions, centers):
    monkeypatch.setattr(oracles, "DIRECTIONS_PER_PROBE", directions)
    monkeypatch.setattr(oracles, "LIPSCHITZ_CENTERS", centers)


def test_check_assumption_equals_one_row_loop(monkeypatch):
    _set_sizes(monkeypatch, 4, 10)
    corpus = default_corpus()
    for fid in sorted(corpus.functions):
        cf = corpus.function(fid)
        for oracle_id in ("exact", "clarke", "branch", "scale:2", "zero-strata:clarke"):
            D = parse_oracle(oracle_id, cf.func)
            _assert_same_report(check_assumption(D, cf.func, cf.base_points, seed=3),
                                _scalar_assumption(D, cf.base_points, seed=3))
    F = corpus.function("abs1d").func
    probes = [[0.5], [0.0], [-2.0]]
    for D in _handcrafted_oracles():
        rep = check_assumption(D, F, probes, seed=5)
        assert rep.homogeneity == "fail"
        _assert_same_report(rep, _scalar_assumption(D, probes, seed=5))


@pytest.mark.parametrize("cfg, probes", [   # cfg: (directions per probe, centers)
    ((8, 0), [[0.5], [0.0]]),
    ((0, 5), [[0.5], [0.0]]),
    ((8, 200), []),
])
def test_check_assumption_degenerate_configs(monkeypatch, cfg, probes):
    _set_sizes(monkeypatch, *cfg)
    F = default_corpus().function("abs1d").func
    for D in [parse_oracle("clarke", F)] + _handcrafted_oracles():
        _assert_same_report(check_assumption(D, F, probes, seed=2),
                            _scalar_assumption(D, probes, seed=2))


# ---------------------------------------------------------------------------
# cell sampling, and tangent directions against the one-point loop

def _one_point_tangent_directions(cell, rng):
    """One point's directions by the loop that _tangent_directions replaced."""
    basis = cell.tangent.basis
    dirs = [s * b for b in basis for s in (1.0, -1.0)]
    for _ in range(TANGENT_COMBOS if cell.dimension >= 2 else 0):
        c = rng.normal(size=cell.dimension)
        u = basis.T @ c
        nrm = float(np.linalg.norm(u))
        if nrm > 1e-12:
            dirs.append(u / nrm)
    return dirs


def _random_arrangements(seed=5):
    """One arrangement for each n <= 3 and k <= 4, redrawn until every
    vertex lies inside [-8, 8]^n, so that each cell meets the box
    [-10, 10]^n."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            while True:
                arr = Arrangement(n, tuple(Hyperplane(rng.normal(size=n), rng.uniform(-3, 3))
                                           for _ in range(k)))
                cells = [arr.cell(s) for s in arr.all_nonempty_signs()]
                if all(np.abs(c.point).max() < 8 for c in cells if c.dimension == 0):
                    break
            out.append(arr)
    return out


def _sampled_cells():
    """(arrangement, sign, box) for every cell of positive dimension."""
    for arr in _random_arrangements():
        box = np.array([[-10.0] * arr.ambient_dim, [10.0] * arr.ambient_dim])
        for sign in arr.all_nonempty_signs():
            if arr.cell(sign).dimension > 0:
                yield arr, sign, box


class _CountingRng:
    """A generator that counts the box rows drawn through it."""

    def __init__(self, seed):
        self.rng, self.rows = np.random.default_rng(seed), 0

    def uniform(self, lo, hi, size):
        self.rows += size[0]
        return self.rng.uniform(lo, hi, size=size)


def _slab(gap):
    """Two parallel hyperplanes `gap` apart on the line, and the box."""
    return (Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], gap))),
            np.array([[-10.0], [10.0]]))


def test_sample_cell_point_carries_the_cell_sign_inside_the_box():
    for i, (arr, sign, box) in enumerate(_sampled_cells()):
        pts = sample_cell_point(arr, sign, box, np.random.default_rng(i), 20)
        assert pts is not None and 0 < len(pts) <= 20    # short edges get fewer
        assert [arr.sign_vector(x) for x in pts] == [sign] * len(pts)
        assert np.all((pts >= box[0]) & (pts <= box[1]))


def test_sample_cell_point_does_not_depend_on_the_blocking(monkeypatch):
    # the first accepted draws in draw order, whatever the block size; the
    # 0.4 slab runs out of its 200 draws before its 20 points
    slab, line = _slab(0.4)
    cases = list(_sampled_cells())[::3] + [(slab, "+-", line)]
    for i, (arr, sign, box) in enumerate(cases):
        want = sample_cell_point(arr, sign, box, np.random.default_rng(i), 20, cap=200)
        with monkeypatch.context() as m:
            m.setattr(piecewise, "SAMPLE_BLOCK", 1)
            got = sample_cell_point(arr, sign, box, np.random.default_rng(i), 20, cap=200)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
    assert 0 < len(want) < 20


@pytest.mark.parametrize("cap", [1, 19, 20, 50, 5000, 10_000])
def test_sample_cell_point_draws_at_most_cap_rows(cap):
    arr, box = _slab(1e-8)
    rng = _CountingRng(0)
    assert sample_cell_point(arr, "+-", box, rng, 20, cap=cap) is None
    assert rng.rows == cap              # the slab rejects every draw
    for i, (arr, sign, box) in enumerate(list(_sampled_cells())[::4]):
        rng = _CountingRng(i)
        pts = sample_cell_point(arr, sign, box, rng, 20, cap=cap)
        assert rng.rows <= cap
        assert pts is None or len(pts) <= min(20, cap)


def test_sample_cell_point_returns_none_without_points():
    arr, box = _slab(1e-8)      # thinner than twice the sampling margin
    assert sample_cell_point(arr, "+-", box, np.random.default_rng(0), 20) is None
    wide, box = _slab(5.0)
    for cap in (0, -5):
        assert sample_cell_point(wide, "+-", box, np.random.default_rng(0), 20,
                                 cap=cap) is None


def test_tangent_directions_equal_per_point_loop():
    for i, arr in enumerate(_random_arrangements()):
        for sign in arr.all_nonempty_signs():
            cell = arr.cell(sign)
            if cell.dimension == 0:
                continue
            pts = np.random.default_rng(i).uniform(-5, 5, size=(7, arr.ambient_dim))
            rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
            X, U = _tangent_directions(cell, pts, rng)
            want = [(x, u) for x in pts for u in _one_point_tangent_directions(cell, ref_rng)]
            assert np.array_equal(X, np.array([x for x, _ in want]))
            assert np.array_equal(U, np.array([u for _, u in want]))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Replay:
    """Serves normal draws from a fixed sequence, whatever shape is asked."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def normal(self, size):
        k = int(np.prod(size))
        out = self.values[self.used:self.used + k].reshape(size)
        self.used += k
        return out


def test_tangent_directions_drop_null_combinations_like_per_point_loop():
    arr = Arrangement(3, (Hyperplane([1.0, 1.0, 0.0], 0.5),))
    cell = arr.cell("0")
    pts = np.zeros((4, 3))
    C = np.random.default_rng(0).normal(size=(4, TANGENT_COMBOS, cell.dimension))
    C[0, 3] = C[2, 0] = C[2, -1] = 0.0
    X, U = _tangent_directions(cell, pts, _Replay(C.ravel()))
    ref = _Replay(C.ravel())
    want = [u for _ in pts for u in _one_point_tangent_directions(cell, ref)]
    assert len(want) == 4 * (2 * cell.dimension + TANGENT_COMBOS) - 3
    assert np.array_equal(U, np.array(want)) and len(X) == len(want)
