"""The array kernels, bit for bit: against their one-row views and against
the scalar formulas they replaced, which stay here as the reference.

Inputs cover random points, points on hyperplanes (with tangent directions,
which exercise the directional tie-break), vertices of the arrangement,
and rows with u = 0; every oracle of the grammar is compared with its
definition on the scalar formulas.
Tangent directions are compared with a one-point loop. Cell lattices are
tested for their properties: every point carries the cell's sign and lies
within half the witness's margin of it.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stratacalc import default_corpus, parse_oracle
from stratacalc.geometry import diameters, row_norms
from stratacalc.conditions import _tangent_directions
from stratacalc import piecewise
from stratacalc.piecewise import (
    EPS_CELL,
    Arrangement,
    Hyperplane,
    PiecewiseError,
    sample_cell_point,
)

from derivative_checks import directional_sign

ORACLES = ("exact", "clarke", "branch", "scale:2", "scale:-0.5", "reflect:clarke",
           "reflect:exact", "zero-strata:clarke", "zero-strata:exact",
           "reflect:zero-strata:branch")


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


def _scalar_derivative(F, x, u):
    if float(np.linalg.norm(u)) == 0.0:
        return np.zeros(F.output_dim)
    return _scalar_eval(F._jac_eval(directional_sign(F, x, u)), x) @ u


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
    """One row of an oracle: the three bases from the scalar formulas, and
    scale, reflect and zero-strata by their definitions on the base row."""
    if float(np.linalg.norm(u)) == 0.0:
        return np.zeros((1, F.output_dim))
    head, _, base = oracle_id.partition(":")
    if head == "scale":
        return float(base) * _scalar_oracle(F, "exact", x, u)
    if head == "reflect":
        return -_scalar_oracle(F, base, x, -u)
    if head == "zero-strata":   # {0} itself, not c = 0: 0 * -1 is -0.0, 0 * inf nan
        if "0" in F.arrangement.sign_vector(x):
            return np.zeros((1, F.output_dim))
        return _scalar_oracle(F, base, x, u)
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
            assert np.array_equal(V, _scalar_oracle(F, oracle_id, x, u))


def test_piecewise_array_forms_equal_one_row_forms(functions):
    for F in functions:
        X, U = _inputs(F, seed=1)
        Y = X + 1e-3 * U
        vals = F.values(X)
        diffs = F.value_differences(Y, X)
        ders = F.directional_derivatives(X, U)
        J = F.clarke_jacobians(X)
        lo, hi = F.component_ranges(X, U)
        clarke = parse_oracle("clarke", F)
        for k, (x, y, u) in enumerate(zip(X, Y, U)):
            sign = F.adjacent_full_signs(x)[0]
            assert np.array_equal(vals[k], F.value(x))
            assert np.array_equal(vals[k], _scalar_eval(F._value_eval(sign), x))
            assert np.array_equal(diffs[k], F.value_difference_exact(y, x))
            assert np.array_equal(diffs[k], _scalar_difference(F, y, x))
            assert np.array_equal(ders[k], F.directional_derivative(x, u))
            assert np.array_equal(ders[k], _scalar_derivative(F, x, u))
            jac = F.clarke_jacobian(x).vertices
            assert np.array_equal(J[k, :len(jac)], jac)
            assert (J[k, len(jac):] == jac[0]).all()
            # the extremes of the Clarke oracle's own vertices, bit for bit
            V = clarke(x, u).vertices
            assert np.array_equal(lo[k], V.min(axis=0)) and np.array_equal(hi[k], V.max(axis=0))


def _cell_rows(F, seed):
    """_inputs rows, every cell's witness point (the intersections of
    hyperplanes included), and rows 5e-11 and 2e-10 off each hyperplane, in
    a shuffled order."""
    rng = np.random.default_rng(seed)
    arr = F.arrangement
    X = [_inputs(F, seed)[0], [arr.cell(s).point for s in arr.all_nonempty_signs()]]
    for a, b in zip(arr.normals, arr.offsets):
        on = X[0][:6] - np.outer(X[0][:6] @ a - b, a) / (a @ a)
        X += [on + d * a / np.linalg.norm(a) for d in (-2e-10, -5e-11, 5e-11, 2e-10)]
    X = np.vstack(X)
    return X[rng.permutation(len(X))]


def _per_row(grouped):
    """The piece-index tuple of each row, from _piece_ids's grouped form."""
    tuples, inv = grouped
    return [tuples[g] for g in inv]


def _fresh_functions(monkeypatch, corpus):
    """Newly built functions (empty key tables) of the shipped corpus or of
    the benchmark's generated corpus (k = 3)."""
    if corpus == "shipped":
        return [cf.func for cf in default_corpus().functions.values()]
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gencorpus import generate_corpus
    from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
    funcs = [cf.func for cf in generate_corpus(GENERATED_CORPUS_SEED,
                                               GENERATED_SHAPES).functions.values()]
    assert {F.arrangement.k for F in funcs} == {3}
    return funcs


@pytest.mark.parametrize("corpus", ["shipped", "generated"])
def test_adjacent_ids_equal_per_row_adjacent_full_signs(monkeypatch, corpus):
    # packed-key grouping and the per-function key table, on fresh functions
    # (empty table) and again (filled table), against the string path
    for seed, F in enumerate(_fresh_functions(monkeypatch, corpus)):
        X = _cell_rows(F, seed)
        expected = [F.adjacent_full_signs(x) for x in X]
        for _ in range(2):
            rows = _per_row(F._adjacent_ids(X))
            for row, signs in zip(rows, expected):
                assert [F._signs[i] for i in row] == signs
            for k in range(0, len(X), 7):
                assert _per_row(F._adjacent_ids(X[k:k + 1])) == [rows[k]]


def test_adjacent_ids_raise_for_a_cell_without_pieces_on_every_call():
    F = default_corpus().function("abs1d").func
    F = dataclasses.replace(F, pieces={"+": F.pieces["+"]})
    for _ in range(2):
        with pytest.raises(PiecewiseError, match="no adjacent full-dimensional piece"):
            F._adjacent_ids(np.array([[0.5], [-1.0]]))
    assert [len(row) for row in _per_row(F._adjacent_ids(np.array([[0.0], [2.0]])))] == [1, 1]


def test_packed_keys_tell_cells_apart_with_39_hyperplanes():
    # hyperplanes x = 0, 1, ..., 38 on the line; the piece of the cell left
    # of j + 1 of them is the constant j, and the keys reach 3^39 - 1
    arr = Arrangement(1, tuple(Hyperplane([1.0], float(i)) for i in range(39)))
    F = piecewise.PiecewiseFunction(arr, 1, {
        "+" * j + "-" * (39 - j): (piecewise.Polynomial.constant(1, j),)
        for j in range(40)})
    X = np.array([[-1.0], [0.5], [37.5], [40.0], [38.0], [0.0], [0.5]])
    assert F.values(X)[:, 0].tolist() == [0, 1, 38, 39, 38, 0, 1]
    assert [len(row) for row in _per_row(F._adjacent_ids(X))] == [1, 1, 1, 1, 2, 2, 1]
    ids = _per_row(F._directional_ids(np.array([[38.0], [0.0], [37.5]]),
                                      np.array([[1.0], [-1.0], [1.0]])))
    assert [F._signs[i].count("+") for i, in ids] == [39, 0, 38]
    # exact in int64, first hyperplane most significant
    assert arr._key_weights.tolist() == [3 ** (38 - i) for i in range(39)]


def _cells_and_pieces(F, X, first=False):
    """How many distinct cells the rows of X lie in, and how many distinct
    pieces are adjacent to them (only the first of each cell's, with first)."""
    signs = [F.adjacent_full_signs(x)[:1] if first else F.adjacent_full_signs(x) for x in X]
    cells = {F.arrangement.sign_vector(x) for x in X}
    return len(cells), len(set().union(*signs))


def test_grouped_rows_equal_one_row_calls_at_every_cell_witness(monkeypatch):
    # the witness of every nonempty cell of the generated (3, 3) function,
    # whose vertex has all 8 pieces adjacent: all of them in one batch (more
    # cells than pieces) and in small mixed batches (fewer cells than pieces,
    # also counting only the first piece of each cell), every kernel and
    # every built-in oracle bit for bit against one-row calls
    F, = [F for F in _fresh_functions(monkeypatch, "generated") if F.ambient_dim == 3]
    arr = F.arrangement
    W = np.array([arr.cell(s).point for s in arr.all_nonempty_signs()])
    assert F.clarke_jacobians(W).shape[1] == 8
    rng = np.random.default_rng(4)
    U = rng.normal(size=W.shape)
    vertex = [k for k, s in enumerate(arr.all_nonempty_signs()) if s == "000"]
    batches = [np.arange(len(W)), vertex + [0], vertex + [1, 2]]
    batches += [rng.permutation(len(W))[:3] for _ in range(8)]
    spread = [_cells_and_pieces(F, W[b], first) for b in batches for first in (False, True)]
    assert any(c > p for c, p in spread) and any(c <= p for c, p in spread)
    oracles = [parse_oracle(o, F) for o in ORACLES]
    # kernels with a vertex axis, as (X, U) -> rows; a row's vertices are
    # its one-row call's, padded by repeating vertex 0
    stacks = [lambda X, U, sel=sel: F.selected_jacobians(X, U, sel)
              for sel in ("directional", "adjacent", "first")]
    stacks += [lambda X, U: F.clarke_jacobians(X)] + [D.batch for D in oracles]
    for b in batches:
        X, U_, Y = W[b], U[b], W[b][::-1]
        vals, diffs, (lo, hi) = F.values(X), F.value_differences(Y, X), F.component_ranges(X, U_)
        batch = [kernel(X, U_) for kernel in stacks]
        for k, (x, u, y) in enumerate(zip(X, U_, Y)):
            assert np.array_equal(vals[k], F.values(x[None])[0])
            assert np.array_equal(diffs[k], F.value_differences(y[None], x[None])[0])
            one_lo, one_hi = F.component_ranges(x[None], u[None])
            assert np.array_equal(lo[k], one_lo[0]) and np.array_equal(hi[k], one_hi[0])
            for kernel, rows in zip(stacks, batch):
                one = kernel(x[None], u[None])[0]
                assert np.array_equal(rows[k, :len(one)], one)
                assert (rows[k, len(one):] == one[0]).all()
            assert len(F.clarke_jacobians(x[None])[0]) == len(F.adjacent_full_signs(x))
    # compose_exact's lookup: a curve resting at a witness takes the first
    # adjacent piece of the witness's cell
    for w in W:
        comp = piecewise.compose_exact(F, piecewise.Curve.from_coeffs(w[:, None]))
        first = F.pieces[F.adjacent_full_signs(w)[0]]
        want = [p.compose_univariate([np.array([c]) for c in w]) for p in first]
        assert np.array_equal(comp.pieces[0], piecewise.Curve.from_coeffs(want).pieces[0])


def _directional_rows(F, seed):
    """Every _cell_rows row (on hyperplanes, at their intersections, just
    off them, random) with each direction of a pool: +-a_i, a random u
    tangent to hyperplane i, that u tilted 5e-11 and 2e-10 of its length
    towards a_i, for n = 3 a u along each pair's intersection line, and a
    random u. Rows with u = 0 (the tangents of n = 1) are left out."""
    rng = np.random.default_rng(seed)
    arr, n = F.arrangement, F.ambient_dim
    pool = [rng.normal(size=n)]
    for i, a in enumerate(arr.normals):
        t = rng.normal(size=n)
        t -= (t @ a) * a
        pool += [a, -a, t] + [t + d * np.linalg.norm(t) * a for d in (5e-11, 2e-10)]
        if n == 3:
            pool += [np.cross(a, b) for b in arr.normals[i + 1:]]
    X0 = _cell_rows(F, seed)
    X, U = np.repeat(X0, len(pool), axis=0), np.tile(np.array(pool), (len(X0), 1))
    keep = row_norms(U) > 1e-9
    return X[keep], U[keep]


@pytest.mark.parametrize("corpus", ["shipped", "generated"])
def test_directional_ids_equal_the_per_row_string_loop(monkeypatch, corpus):
    # with an empty key table, then a filled one, then after point rows of
    # the same rows filled it, and row by row
    for seed, F in enumerate(_fresh_functions(monkeypatch, corpus)):
        X, U = _directional_rows(F, seed)
        arr = F.arrangement
        r, du = arr.residuals(X), np.matmul(arr.normals, U[..., None])[..., 0]
        ties = (np.abs(r) <= EPS_CELL) & (np.abs(du) <= EPS_CELL * row_norms(U)[:, None])
        assert F.ambient_dim == 1 or ties.any()       # zero signs that tie-break to '+'
        expected = [directional_sign(F, x, u) for x, u in zip(X, U)]
        for _ in range(2):
            assert [F._signs[i] for i, in _per_row(F._directional_ids(X, U))] == expected
        fresh = dataclasses.replace(F)
        fresh.values(X)
        assert [fresh._signs[i] for i, in _per_row(fresh._directional_ids(X, U))] == expected
        for k in range(0, len(X), 13):
            (i,), = _per_row(F._directional_ids(X[k:k + 1], U[k:k + 1]))
            assert F._signs[i] == expected[k]


def test_a_second_directional_call_decides_no_cell(monkeypatch, functions):
    # every packed key of the first call is in the table: the second call
    # asks the arrangement nothing
    calls = []
    for name in ("cell_nonempty", "compatible_full_signs"):
        method = getattr(Arrangement, name)
        monkeypatch.setattr(Arrangement, name,
                            lambda self, sign, _m=method: calls.append(sign) or _m(self, sign))
    for F in functions:
        X, U = _inputs(F, seed=2)
        first = F.directional_derivatives(X, U)
        calls.clear()
        assert np.array_equal(F.directional_derivatives(X, U), first)
        assert calls == []


def test_directional_and_point_rows_of_one_open_cell_share_one_table_entry():
    # from the origin along (1, 0): '+' off x = 0 by <a_1, u> > 0, '+' by
    # the tie-break on y = 0; the point (0.5, 0.5) lies in the same cell
    F = default_corpus().function("l1norm2d").func
    assert F.directional_derivative([0.0, 0.0], [1.0, 0.0]).tolist() == [1.0]
    assert F._adjacent == {8: (F._index["++"],)}
    F.values(np.array([[0.5, 0.5]]))
    assert F._adjacent == {8: (F._index["++"],)}


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


# ---------------------------------------------------------------------------
# cell lattices, and tangent directions against the one-point loop

def _random_arrangements(seed=5):
    """One random arrangement for each n <= 3 and k <= 4."""
    rng = np.random.default_rng(seed)
    return [Arrangement(n, tuple(Hyperplane(rng.normal(size=n), rng.uniform(-3, 3))
                                 for _ in range(k)))
            for n in (1, 2, 3) for k in (1, 2, 3, 4)]


def _lattice_cases(monkeypatch):
    """(arrangement, sign, degree) for every cell of positive dimension: of
    both corpora's refined partitions at their functions' degrees, of the
    random arrangements at degrees 0-3, and of the 1e-8 and 1e-9 slivers."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gencorpus import generate_corpus
    from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
    cases = []
    for corpus in (default_corpus(), generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES)):
        for cf in corpus.functions.values():
            cases.append((piecewise.refine(cf.func.arrangement, cf.partition), cf.func.degree))
    cases += [(arr, i % 4) for i, arr in enumerate(_random_arrangements())]
    cases += [(Arrangement(1, (Hyperplane([1.0], 0.0), Hyperplane([1.0], gap))), 1)
              for gap in (1e-8, 1e-9)]
    return [(arr, sign, d) for arr, d in cases for sign in arr.all_nonempty_signs()
            if arr.cell(sign).dimension > 0]


def test_sample_cell_point_lattice_carries_the_cell_sign(monkeypatch):
    # every point of a cell's lattice has the cell's sign codes, lies within
    # half the witness's margin of it, and there are C(m + d, m) of them
    for arr, sign, degree in _lattice_cases(monkeypatch):
        cell = arr.cell(sign)
        pts = sample_cell_point(arr, sign, degree)
        d = max(1, degree)
        assert len(pts) == math.comb(cell.dimension + d, d)
        assert len(np.unique(pts, axis=0)) == len(pts)
        codes = np.array(["-0+".index(c) for c in sign])
        assert np.array_equal(arr.sign_codes(pts), np.broadcast_to(codes, (len(pts), arr.k)))
        assert row_norms(pts - cell.point).max() <= 0.5 * cell.margin


def test_tangent_directions_equal_per_point_loop():
    # for each point in order, +/- each basis vector
    for i, arr in enumerate(_random_arrangements()):
        for sign in arr.all_nonempty_signs():
            cell = arr.cell(sign)
            if cell.dimension == 0:
                continue
            pts = np.random.default_rng(i).uniform(-5, 5, size=(7, arr.ambient_dim))
            X, U = _tangent_directions(cell, pts)
            want = [(x, s * b) for x in pts for b in cell.tangent.basis for s in (1.0, -1.0)]
            assert np.array_equal(X, np.array([x for x, _ in want]))
            assert np.array_equal(U, np.array([u for _, u in want]))
