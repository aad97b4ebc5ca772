"""Piecewise-polynomial maps over hyperplane arrangements.

A map R^n -> R^m is given by an ordered list of hyperplanes plus one
polynomial piece per nonempty full-dimensional sign cell, continuous across
facets. Cells of lower dimension carry no data of their own: values and
derivatives there come from adjacent full-dimensional pieces, which is
exactly the Clarke construction over the set of differentiability points.

Everything is exact: directional derivatives are piece Jacobians times the
direction, Clarke Jacobians are finite vertex lists of adjacent piece
Jacobians, and curve composition substitutes the curve into the active piece
after isolating all hyperplane crossing times with exact integer signs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import (
    MAX_DIM,
    MatrixPolytope,
    Polytope,
    Subspace,
    as_rows,
    as_vector,
    row_norms,
    svd_rank,
)

EPS_CELL = 1e-10       # sign-vector zero declaration threshold
EPS_EQ = 1e-9          # value-agreement tolerance (continuity, curves)
EPS_ROUND = 1e-13      # continuity rounding allowance per unit of sum |monomial|
MAX_DEGREE = 6         # maximum total degree of a piece polynomial
DEFAULT_BOX_HALFWIDTH = 10.0
LP_BOX = 1e4           # |x|_inf bound that keeps the cell LP bounded
LP_TOL = 1e-9          # smallest simplex pivot; phase-1 infeasibility margin
LP_EPS = 1e-12         # reduced-cost and ratio-tie tolerance of the simplex
LP_MAX_PIVOTS = 5000
MAX_HYPERPLANES = 39   # 3^39 is the largest power of 3 an int64 cell key holds


class PiecewiseError(ValueError):
    """Malformed piecewise data: missing pieces, empty cells, bad signs."""


# ---------------------------------------------------------------------------
# Polynomials

@dataclass(frozen=True, eq=False)
class Polynomial:
    """Multivariate polynomial as (exponent multi-index, coefficient) terms.

    Terms are normalized: duplicate multi-indices merged, zero coefficients
    dropped, rows sorted. The zero polynomial has no terms.
    """

    num_vars: int
    exponents: np.ndarray  # (T, num_vars) nonnegative ints
    coeffs: np.ndarray     # (T,)

    def __post_init__(self):
        raw = np.asarray(self.exponents).reshape(-1, self.num_vars)
        exps = raw.astype(int)
        cfs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if exps.shape[0] != cfs.shape[0]:
            raise ValueError("exponent rows and coefficients disagree")
        if not np.array_equal(raw, exps):
            raise ValueError(f"exponents must be integers, got {raw[raw != exps][0]}")
        if exps.size and exps.min() < 0:
            raise ValueError("exponents must be nonnegative")
        if exps.size and int(exps.sum(axis=1).max()) > MAX_DEGREE:
            raise ValueError(f"degree exceeds the configured maximum {MAX_DEGREE}")
        merged: dict[tuple[int, ...], float] = {}
        for e, c in zip(map(tuple, exps), cfs):
            merged[e] = merged.get(e, 0.0) + float(c)
        items = sorted((e, c) for e, c in merged.items() if c != 0.0)
        exps = np.array([e for e, _ in items], dtype=int).reshape(-1, self.num_vars)
        cfs = np.array([c for _, c in items], dtype=float)
        exps.flags.writeable = False
        cfs.flags.writeable = False
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", cfs)

    @classmethod
    def from_terms(cls, num_vars: int, terms) -> "Polynomial":
        terms = list(terms)
        if not terms:
            return cls(num_vars, np.zeros((0, num_vars), dtype=int), np.zeros(0))
        return cls(num_vars,
                   np.array([t[0] for t in terms]),
                   np.array([t[1] for t in terms], dtype=float))

    @classmethod
    def constant(cls, num_vars: int, c: float) -> "Polynomial":
        return cls.from_terms(num_vars, [((0,) * num_vars, c)])

    @classmethod
    def coordinate(cls, num_vars: int, j: int) -> "Polynomial":
        e = [0] * num_vars
        e[j] = 1
        return cls.from_terms(num_vars, [(tuple(e), 1.0)])

    def terms(self) -> list[tuple[tuple[int, ...], float]]:
        return [(tuple(int(v) for v in e), float(c))
                for e, c in zip(self.exponents, self.coeffs)]

    def partial(self, j: int) -> "Polynomial":
        rows = []
        for e, c in zip(self.exponents, self.coeffs):
            if e[j] > 0:
                e2 = e.copy()
                e2[j] -= 1
                rows.append((tuple(e2), c * e[j]))
        return Polynomial.from_terms(self.num_vars, rows)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(j) for j in range(self.num_vars)]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_terms(self.num_vars, self.terms() + other.terms())

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, self.exponents, -self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        rows = []
        for e1, c1 in zip(self.exponents, self.coeffs):
            for e2, c2 in zip(other.exponents, other.coeffs):
                rows.append((tuple(e1 + e2), c1 * c2))
        return Polynomial.from_terms(self.num_vars, rows)

    def compose_univariate(self, coord_polys: list[np.ndarray]) -> np.ndarray:
        """Substitute univariate polynomials t -> gamma_j(t) for each variable.

        coord_polys[j] holds low-to-high coefficients of gamma_j. Returns the
        low-to-high coefficients of the composed univariate polynomial.
        """
        power_cache: dict[tuple[int, int], np.ndarray] = {}

        def upow(j: int, p: int) -> np.ndarray:
            if p == 0:
                return np.array([1.0])
            key = (j, p)
            if key not in power_cache:
                power_cache[key] = np.convolve(upow(j, p - 1), coord_polys[j])
            return power_cache[key]

        out = np.zeros(1)
        for e, c in zip(self.exponents, self.coeffs):
            term = np.array([float(c)])
            for j, p in enumerate(e):
                if p:
                    term = np.convolve(term, upow(j, int(p)))
            if term.size > out.size:
                out = np.pad(out, (0, term.size - out.size))
            out[: term.size] += term
        return out


class _StackedPolys:
    """Batch evaluator for a fixed tuple of polynomials.

    Stacks all terms into one exponent matrix so a single vectorized pass
    evaluates every output slot at every row of a point array; used for
    piece values and Jacobians, one piece or a tuple of pieces at a time.
    """

    def __init__(self, polys: list[Polynomial], shape: tuple[int, ...]):
        self.polys, self.shape, self.size = polys, shape, math.prod(shape)
        self.exponents = np.concatenate([p.exponents for p in polys], dtype=float)
        self.coeffs = np.concatenate([p.coeffs for p in polys])
        self.slots = np.repeat(np.arange(len(polys)), [p.coeffs.size for p in polys])

    def terms(self, X: np.ndarray) -> np.ndarray:
        """(N, T) monomial products at the rows of X, in term order."""
        return self.coeffs * (X[:, None, :] ** self.exponents).prod(axis=2)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """(N,) + shape values; each slot sums its terms in term order, as
        bincount does, so a row's value does not depend on the batch."""
        n = X.shape[0]
        idx = np.arange(n)[:, None] * self.size + self.slots
        out = np.bincount(idx.ravel(), weights=self.terms(X).ravel(),
                          minlength=n * self.size)
        return out.reshape((n,) + self.shape)

    def slot_terms(self, X: np.ndarray, width: int) -> np.ndarray:
        """(N,) + shape + (width,) array holding term t of each row in
        column t of its output slot, zeros elsewhere (for compensated sums)."""
        out = np.zeros((X.shape[0], self.size, width))
        out[:, self.slots, np.arange(self.slots.size)] = self.terms(X)
        return out.reshape((X.shape[0],) + self.shape + (width,))


# ---------------------------------------------------------------------------
# Hyperplanes and arrangements

@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Affine hyperplane {x : <a, x> = b} with the normal scaled to unit length.

    Orientation (the sign of a) is preserved as given: sign vectors are
    defined relative to it.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = as_vector(self.normal)
        nrm = float(np.linalg.norm(a))
        if nrm == 0.0:
            raise PiecewiseError("hyperplane normal must be nonzero")
        b = float(self.offset)
        # skip the division for already-unit normals so serialized
        # hyperplanes round-trip bit-exactly
        if abs(nrm - 1.0) > 1e-12:
            a = a / nrm
            b = b / nrm
        else:
            a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", b)

    def same_as(self, other: "Hyperplane") -> bool:
        """Geometric equality up to orientation: each coordinate within EPS_CELL,
        absolutely (no tolerance relative to its size)."""
        if np.allclose(self.normal, other.normal, rtol=0.0, atol=EPS_CELL) and \
                abs(self.offset - other.offset) <= EPS_CELL:
            return True
        return np.allclose(self.normal, -other.normal, rtol=0.0, atol=EPS_CELL) and \
            abs(self.offset + other.offset) <= EPS_CELL


def _pivot(tab: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    tab[r] /= tab[r, j]
    col = tab[:, j].copy()
    col[r] = 0.0
    tab -= np.outer(col, tab[r])
    basis[r] = j


def _bland(tab: np.ndarray, basis: np.ndarray, cost_row: int, ncols: int) -> None:
    """Pivot until no reduced cost in tab[cost_row, :ncols] is negative.
    Bland's rule (lowest entering index, ties leave by lowest basic index)
    cannot cycle (Bland 1977); the pivot cap guards against rounding."""
    R = basis.size
    for _ in range(LP_MAX_PIVOTS):
        enter = np.flatnonzero(tab[cost_row, :ncols] < -LP_EPS)
        if not enter.size:
            return
        j = enter[0]
        col = tab[:R, j]
        ok = col > LP_TOL
        if not ok.any():
            raise RuntimeError("cell LP is unbounded")
        ratio = np.full(R, np.inf)
        ratio[ok] = np.maximum(tab[:R, -1][ok], 0.0) / col[ok]
        ties = np.flatnonzero(ratio <= ratio.min() + LP_EPS)
        _pivot(tab, basis, ties[np.argmin(basis[ties])], j)
    raise RuntimeError(f"cell LP: no optimum after {LP_MAX_PIVOTS} pivots")


def _simplex_max(A: np.ndarray, h: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """max c.y subject to A y <= h, y >= 0, for a bounded LP, by a dense
    tableau simplex. Negative entries of h get a phase 1 with one
    artificial column. Returns the optimal y, or None when infeasible."""
    R, C = A.shape
    art = C + R                        # columns: y, slacks, artificial, rhs
    tab = np.zeros((R + 2, art + 2))
    tab[:R, :C] = A
    tab[:R, C:art] = np.eye(R)
    tab[:R, art] = np.where(h < 0, -1.0, 0.0)
    tab[:R, -1] = h
    tab[R, :C] = -c                    # phase-2 reduced costs
    tab[R + 1, art] = 1.0              # phase 1: max -artificial
    basis = np.arange(C, art)
    if h.min() < 0:
        _pivot(tab, basis, int(np.argmin(h)), art)
        _bland(tab, basis, R + 1, art + 1)
        if tab[R + 1, -1] < -LP_TOL:
            return None
        at = np.flatnonzero(basis == art)
        if at.size:                    # degenerate: drive it out at value 0
            out = np.flatnonzero(np.abs(tab[at[0], :art]) > LP_TOL)
            if out.size:
                _pivot(tab, basis, at[0], out[0])
    _bland(tab, basis, R, art)
    y = np.zeros(art + 1)
    y[basis] = tab[:R, -1]
    return y[:C]


@dataclass(frozen=True, eq=False)
class Arrangement:
    """Ordered list of hyperplanes; order is part of identity since sign
    vectors index into it."""

    ambient_dim: int
    hyperplanes: tuple[Hyperplane, ...]

    # derived arrays and caches (not part of identity)
    normals: np.ndarray = field(init=False, repr=False, compare=False)  # (k, n)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (k,)
    _cells: dict = field(init=False, repr=False, compare=False)  # sign -> Cell, or None if empty
    _key_weights: np.ndarray = field(init=False, repr=False, compare=False)  # (k,) int64
    _refined: dict = field(init=False, repr=False, compare=False)  # a2 -> refine(self, a2) if new

    def __post_init__(self):
        if not 1 <= self.ambient_dim <= MAX_DIM:
            raise PiecewiseError(f"ambient dimension {self.ambient_dim} outside 1..{MAX_DIM}")
        hps = tuple(self.hyperplanes)
        if len(hps) > MAX_HYPERPLANES:
            raise PiecewiseError(f"{len(hps)} hyperplanes, more than the "
                                 f"{MAX_HYPERPLANES} a packed cell key holds")
        for h in hps:
            if h.normal.size != self.ambient_dim:
                raise PiecewiseError("hyperplane dimension mismatch")
        object.__setattr__(self, "hyperplanes", hps)
        A = np.array([h.normal for h in hps], dtype=float).reshape(len(hps), self.ambient_dim)
        b = np.array([h.offset for h in hps], dtype=float)
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "_cells", {})
        object.__setattr__(self, "_refined", {})
        object.__setattr__(self, "_key_weights",
                           3 ** np.arange(len(hps) - 1, -1, -1, dtype=np.int64))

    @property
    def k(self) -> int:
        return len(self.hyperplanes)

    def residuals(self, x) -> np.ndarray:
        """<a_i, x> - b_i for every hyperplane, per row when x is (N, n)."""
        x = np.asarray(x, dtype=float)
        return np.matmul(self.normals, x[..., None])[..., 0] - self.offsets

    def sign_codes(self, X) -> np.ndarray:
        """Sign vectors of the rows of X as integers: 0 '-', 1 '0', 2 '+'."""
        r = self.residuals(X)
        return np.add(r > EPS_CELL, r >= -EPS_CELL, dtype=int)

    def sign_vector(self, x) -> str:
        """One point's sign vector as a string: sign_codes of one row."""
        return "".join("-0+"[c] for c in self.sign_codes(x))

    def _solve_cell_lp(self, sign: str):
        """Max-margin LP deciding nonemptiness: max m subject to
        s_i (a_i.x - b_i) >= m on the rows signed s_i = -1/+1, a_j.x = b_j on
        the zero rows, |x|_inf <= LP_BOX and m <= 1. Returns (margin, point, N),
        N the tangent basis below, or (-inf, None, N) when the LP is infeasible."""
        n = self.ambient_dim
        codes = np.array(["-0+".index(c) - 1 for c in sign], dtype=float)
        zero = codes == 0
        # x = x0 + N z: x0 is the min-norm least-squares point of the zero
        # rows, N an orthonormal basis of their null space
        x0, N = np.zeros(n), np.eye(n)
        if zero.any():
            u, sv, vt = np.linalg.svd(self.normals[zero])
            rank = svd_rank(sv)
            x0 = vt[:rank].T @ (u[:, :rank].T @ self.offsets[zero] / sv[:rank])
            N = vt[rank:].T
        s = codes[~zero]
        slack = s * self.residuals(x0)[~zero]
        # m = m0 + mu: z = 0, mu = 0 is a feasible start when x0 is in the
        # box; mu is split into mu+ - mu- since m* < m0 when it is not
        m0 = min(1.0, slack.min(initial=1.0))
        G = -s[:, None] * (self.normals[~zero] @ N)
        d = N.shape[1]
        mu = np.array([[1.0, -1.0]])
        A = np.vstack([np.hstack([G, -G, np.repeat(mu, s.size, axis=0)]),
                       np.hstack([N, -N, np.zeros((n, 2))]),
                       np.hstack([-N, N, np.zeros((n, 2))]),
                       np.hstack([np.zeros((1, 2 * d)), mu])])
        h = np.concatenate([slack - m0, LP_BOX - x0, LP_BOX + x0, [1.0 - m0]])
        y = _simplex_max(A, h, A[-1])   # the last row, mu <= 1 - m0, is max mu
        if y is None:
            return -np.inf, None, N
        x = x0 + N @ (y[:d] - y[d:2 * d])
        # the margin x attains, which equals the optimum up to rounding: a
        # nonempty decision then rests on a point that is in the cell
        return float(min(1.0, (s * self.residuals(x)[~zero]).min(initial=1.0))), x, N

    def cell_nonempty(self, sign: str) -> bool:
        """Whether cell `sign` is nonempty: its LP decides once and builds it."""
        if len(sign) != self.k:
            raise PiecewiseError(f"sign vector length {len(sign)} != {self.k}")
        if sign not in self._cells:
            margin, point, N = self._solve_cell_lp(sign)
            # zero rows that share no point (distinct parallel hyperplanes)
            # leave a least-squares witness off them; rejecting it keeps the
            # decisions equal to HiGHS's (tests/test_cell_lp.py)
            zero = [c == "0" for c in sign]
            nonempty = margin > 1e-9 and bool(np.all(
                np.abs(self.residuals(point)[zero]) <= EPS_CELL))
            self._cells[sign] = (Cell(sign, N.shape[1], Subspace(self.ambient_dim, N.T),
                                      point, margin) if nonempty else None)
        return self._cells[sign] is not None

    def cell(self, sign: str) -> "Cell":
        """The nonempty cell `sign`."""
        if not self.cell_nonempty(sign):
            raise PiecewiseError(f"cell {sign!r} is empty")
        return self._cells[sign]

    def all_nonempty_signs(self) -> list[str]:
        """Every nonempty cell's sign vector, in '-'<'0'<'+' lexicographic order."""
        return [s for s in map("".join, itertools.product("-0+", repeat=self.k))
                if self.cell_nonempty(s)]

    def full_dim_signs(self) -> tuple[str, ...]:
        return self.compatible_full_signs("0" * self.k)

    def compatible_full_signs(self, sign: str) -> tuple[str, ...]:
        """Nonempty full-dimensional sign vectors whose closure contains the
        cell `sign` (coordinatewise: equal where sign is nonzero), in
        '-'<'+' lexicographic order."""
        options = [("-", "+") if c == "0" else (c,) for c in sign]
        return tuple(s for s in map("".join, itertools.product(*options))
                     if self.cell_nonempty(s))


@dataclass(frozen=True, eq=False)
class Cell:
    """Relatively open polyhedron of an arrangement, with its tangent space."""

    sign: str
    dimension: int
    tangent: Subspace
    point: np.ndarray      # the max-margin LP witness
    margin: float          # its least strict-sign residual (capped at 1)


def refine(a1: Arrangement, a2: Arrangement) -> Arrangement:
    """Common refinement: concatenate hyperplane lists, dropping geometric
    duplicates (orientation-insensitive). Every cell of the result lies in
    exactly one cell of each input. When a2 adds no hyperplane and a1 has no
    duplicate, the result is a1 itself. Any other result is kept on a1 per
    a2 (by identity), so callers refining the same pair share its cached
    cell decisions. a1 is never kept on itself: that reference cycle would
    leave every function's arrangement to the cyclic garbage collector."""
    if a1.ambient_dim != a2.ambient_dim:
        raise PiecewiseError("arrangements live in different dimensions")
    out = a1._refined.get(a2)
    if out is None:
        kept: list[Hyperplane] = []
        for h in a1.hyperplanes + a2.hyperplanes:
            if not any(h.same_as(g) for g in kept):
                kept.append(h)
        if tuple(kept) == a1.hyperplanes:
            return a1
        out = a1._refined[a2] = Arrangement(a1.ambient_dim, tuple(kept))
    return out


def _principal_lattice(m: int, d: int) -> np.ndarray:
    """(L, m) multi-indices alpha >= 0 with |alpha| <= d, in lexicographic
    order. Times a step h they are the principal lattice of degree d on an
    m-simplex, unisolvent for polynomials of degree d (Chung & Yao 1977)."""
    alphas = [a for a in itertools.product(range(d + 1), repeat=m) if sum(a) <= d]
    return np.array(alphas, dtype=float).reshape(len(alphas), m)


def sample_cell_point(arr: Arrangement, sign: str, degree: int) -> np.ndarray:
    """The principal lattice of degree d = max(1, degree) on a simplex in the
    cell's affine hull, centred on its max-margin LP witness w:

        w + (mu/2) sum_k (alpha_k/d - 1/(m+1)) v_k,   |alpha| <= d,

    for v an orthonormal basis of the cell's tangent space, m its dimension
    and mu the witness's margin. The simplex's circumradius is below 1, so
    every point lies within mu/2 of w: it keeps the cell's strict signs with
    residuals of at least mu/2 > EPS_CELL, and the zero rows' residuals of
    w. A polynomial of degree at most d that vanishes on these points
    vanishes on the whole cell. Rows follow the lattice's multi-index order.
    """
    cell = arr.cell(sign)
    m, d = cell.dimension, max(1, degree)
    coords = _principal_lattice(m, d) / d - 1.0 / (m + 1)
    return cell.point + 0.5 * cell.margin * coords @ cell.tangent.basis


# ---------------------------------------------------------------------------
# Piecewise functions

def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by equal (N,) int64 keys: the first row of each group,
    with groups in ascending key order, and the group of every row (a
    single row is its own group)."""
    if len(keys) == 1:     # np.unique would dominate a one-row call
        return np.zeros(1, dtype=int), np.zeros(1, dtype=int)
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


@dataclass(frozen=True, eq=False)
class PiecewiseFunction:
    """Continuous piecewise-polynomial map over a hyperplane arrangement.

    `pieces` maps full-dimensional sign vectors (strings over '-','+') to
    tuples of `output_dim` polynomials. Every nonempty full-dimensional cell
    must have a piece; adjacent pieces must agree on shared facets (checked
    by validate_continuity, not at construction).
    """

    arrangement: Arrangement
    output_dim: int
    pieces: dict[str, tuple[Polynomial, ...]]
    lipschitz_hint: float | None = None
    box_halfwidth: float = DEFAULT_BOX_HALFWIDTH

    _evals: dict = field(init=False, repr=False, compare=False)  # (kind, sign or ids) -> evaluator
    _signs: list = field(init=False, repr=False, compare=False)    # piece index -> sign
    _index: dict = field(init=False, repr=False, compare=False)    # sign -> piece index
    _adjacent: dict = field(init=False, repr=False, compare=False)  # cell key -> indices

    def __post_init__(self):
        n = self.arrangement.ambient_dim
        norm_pieces = {}
        for sign, polys in self.pieces.items():
            if len(sign) != self.arrangement.k or any(c not in "+-" for c in sign):
                raise PiecewiseError(f"bad full-dimensional sign vector {sign!r}")
            polys = tuple(polys)
            if len(polys) != self.output_dim:
                raise PiecewiseError(
                    f"piece {sign!r} has {len(polys)} components, expected {self.output_dim}")
            for p in polys:
                if p.num_vars != n:
                    raise PiecewiseError(f"piece {sign!r} has wrong num_vars")
            norm_pieces[sign] = polys
        object.__setattr__(self, "pieces", norm_pieces)
        object.__setattr__(self, "_evals", {})
        object.__setattr__(self, "_signs", list(norm_pieces))
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(norm_pieces)})
        object.__setattr__(self, "_adjacent", {})

    @property
    def ambient_dim(self) -> int:
        return self.arrangement.ambient_dim

    @property
    def degree(self) -> int:
        """The largest total degree of F's pieces (0 without a term)."""
        return max((int(p.exponents.sum(axis=1).max(initial=0))
                    for polys in self.pieces.values() for p in polys), default=0)

    @property
    def box(self) -> np.ndarray:
        h = self.box_halfwidth
        n = self.ambient_dim
        return np.array([[-h] * n, [h] * n])

    def validate(self) -> None:
        """Structural check: every nonempty full-dimensional cell has a piece."""
        for sign in self.arrangement.full_dim_signs():
            if sign not in self.pieces:
                raise PiecewiseError(
                    f"missing piece for nonempty full-dimensional cell {sign!r}")

    # -- evaluators --------------------------------------------------------

    def _cached(self, key, build) -> _StackedPolys:
        ev = self._evals.get(key)
        if ev is None:
            ev = self._evals[key] = build()
        return ev

    def _value_eval(self, sign: str) -> _StackedPolys:
        return self._cached(("value", sign), lambda: _StackedPolys(
            list(self.pieces[sign]), (self.output_dim,)))

    def _jac_eval(self, sign: str) -> _StackedPolys:
        return self._cached(("jac", sign), lambda: _StackedPolys(
            [g for p in self.pieces[sign] for g in p.gradient()],
            (self.output_dim, self.ambient_dim)))

    def _stacked(self, evaluator, ids: tuple[int, ...]) -> _StackedPolys:
        """evaluator(sign) of the pieces ids on a new leading axis; each slot
        sums the same terms in the same order as its piece's, bit for bit."""
        def build():
            evs = [evaluator(self._signs[i]) for i in ids]
            return _StackedPolys([q for ev in evs for q in ev.polys], (len(evs),) + evs[0].shape)
        return self._cached((evaluator.__name__, ids), build)

    def adjacent_full_signs(self, x) -> list[str]:
        """Nonempty full-dimensional cells (with pieces) whose closure contains x."""
        sigma = self.arrangement.sign_vector(np.asarray(x, dtype=float))
        out = [s for s in self.arrangement.compatible_full_signs(sigma)
               if s in self.pieces]
        if not out:
            raise PiecewiseError(
                f"no adjacent full-dimensional piece at sign vector {sigma!r}")
        return out

    # -- array kernels: every row of X (N, n) at once ----------------------
    #
    # Products go through stacked np.matmul (the same per-matrix kernel as a
    # single product) and sums through bincount or math.fsum, so each row is
    # bit-identical to evaluating it alone; the one-point methods below are
    # one-row views of these kernels.

    def _piece_ids(self, codes: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The rows of (N, k) sign codes (0 '-', 1 '0', 2 '+') grouped by
        cell: each distinct cell's tuple of adjacent full-dimensional piece
        indices, in ascending key order, and the group of every row. Rows are
        grouped by int64 keys sum c_i 3^(k-1-i); compatible_full_signs fills
        a key's entry of the table `_adjacent` on first sight, and a key
        without a piece raises on every call, since it is never stored."""
        keys = codes @ self.arrangement._key_weights
        first, inv = _groups(keys)
        tuples = []
        for key, i in zip(keys[first].tolist(), first):
            ids = self._adjacent.get(key)
            if ids is None:
                sign = "".join("-0+"[c] for c in codes[i])
                ids = tuple(self._index[s] for s in self.arrangement.compatible_full_signs(sign)
                            if s in self._index)
                if not ids:
                    raise PiecewiseError(
                        f"no adjacent full-dimensional piece at sign vector {sign!r}: "
                        "each compatible full-dimensional cell is empty or has no piece")
                self._adjacent[key] = ids
            tuples.append(ids)
        return tuples, inv

    def _adjacent_ids(self, X: np.ndarray):
        """_piece_ids of the cell of each row of X."""
        return self._piece_ids(self.arrangement.sign_codes(X))

    def _directional_ids(self, X: np.ndarray, U: np.ndarray):
        """The piece active on (x, x + eps*u] per row (u != 0), grouped as by
        _piece_ids: each group's tuple holds that one piece.

        Residual zero signs after consulting <a_i, u> are tie-broken to '+';
        continuity across the facet makes the tangential derivative
        independent of that choice. The resulting '-'/'+' codes 0/2 name a
        full-dimensional cell, looked up like a point row's cell.
        """
        arr = self.arrangement
        r, du = arr.residuals(X), np.matmul(arr.normals, U[..., None])[..., 0]
        moving = np.abs(du) > EPS_CELL * row_norms(U)[:, None]
        plus = np.where(np.abs(r) > EPS_CELL, r > 0, ~moving | (du > 0))
        return self._piece_ids(2 * plus)

    def _at_pieces(self, evaluator, X: np.ndarray, tuples, inv) -> np.ndarray:
        """evaluator(ids)(rows) for each group of rows of _piece_ids, as one
        (N, V) + shape array, V the longest tuple (a shorter one repeats its
        piece 0); or, when that makes fewer calls, per distinct piece on the
        (row, vertex) pairs that use it. A lone group takes X as it is."""
        n, width = len(X), max(map(len, tuples), default=1)
        pieces = sorted(set().union(*tuples))
        if len(pieces) < len(tuples):
            table = np.array([t + t[:1] * (width - len(t)) for t in tuples])[inv]
            X, inv = np.repeat(X, width, axis=0), np.searchsorted(pieces, table.ravel())
            tuples = [(p,) for p in pieces]
        for g, ids in enumerate(tuples or [(0,)]):     # no rows: any piece gives the shape
            at = slice(None) if len(tuples) < 2 else np.flatnonzero(inv == g)
            vals = evaluator(ids)(X[at])
            if len(tuples) < 2:                        # every row, in order: no scatter
                return vals
            if g == 0:
                out = np.empty((len(X), max(map(len, tuples))) + vals.shape[2:])
            out[at, :len(ids)], out[at, len(ids):] = vals, vals[:, :1]
        return out.reshape((n, width) + out.shape[2:])

    def _at_first_piece(self, evaluator, X) -> np.ndarray:
        """evaluator(ids)(x) with the first adjacent piece of each row."""
        X = as_rows(X, self.ambient_dim)
        tuples, inv = self._adjacent_ids(X)
        return self._at_pieces(evaluator, X, [t[:1] for t in tuples], inv)[:, 0]

    def values(self, X) -> np.ndarray:
        """(N, m) values at the rows of X."""
        return self._at_first_piece(partial(self._stacked, self._value_eval), X)

    def value_differences(self, Y, X) -> np.ndarray:
        """(N, m) rows F(y) - F(x), each with one exactly-rounded summation
        over the monomials of both active pieces. X holds N rows, or one row
        shared by every y, whose terms are then computed once.

        Naive differencing loses ~eps*|F| absolute accuracy to cancellation,
        which dominates semismooth residuals at small radii; summing all
        monomial products in one fsum removes it entirely (piecewise-linear
        residuals become exact zeros when the products themselves are exact).
        """
        width = max(self._value_eval(s).coeffs.size for s in self.pieces)
        terms = partial(self._at_first_piece, lambda ids: partial(
            self._stacked(self._value_eval, ids).slot_terms, width=width))
        ty, tx = terms(Y), terms(X)
        if len(tx) not in (1, len(ty)):
            raise ValueError(f"value_differences: X of shape {np.shape(X)} does not "
                             f"broadcast against Y of shape {np.shape(Y)}")
        parts = np.concatenate([ty, np.broadcast_to(-tx, ty.shape)], axis=2)
        sums = [math.fsum(p) for p in parts.reshape(-1, parts.shape[2]).tolist()]
        return np.array(sums).reshape(parts.shape[:2])

    def directional_derivatives(self, X, U) -> np.ndarray:
        """(N, m) one-sided directional derivatives; zero where u = 0."""
        X, U = as_rows(X, self.ambient_dim), as_rows(U, self.ambient_dim)
        out = np.zeros((X.shape[0], self.output_dim))
        move = row_norms(U) != 0.0
        if move.any():
            X, U = X[move], U[move]
            J = self.selected_jacobians(X, U, "directional")[:, 0]
            out[move] = np.matmul(J, U[..., None])[..., 0]
        return out

    def selected_jacobians(self, X: np.ndarray, U: np.ndarray, select: str) -> np.ndarray:
        """(N, V, m, n) Jacobians of the pieces `select` picks per row:
        "directional", the piece active on (x, x + eps*u] (u != 0); "adjacent",
        every piece adjacent to x, padded as in clarke_jacobians; "first", the
        first adjacent piece in sign order."""
        tuples, inv = (self._directional_ids(X, U) if select == "directional"
                       else self._adjacent_ids(X))
        if select == "first":
            tuples = [t[:1] for t in tuples]
        return self._at_pieces(partial(self._stacked, self._jac_eval), X, tuples, inv)

    def clarke_jacobians(self, X) -> np.ndarray:
        """The vertices of the Clarke Jacobian per row: the adjacent piece
        Jacobians, (N, V, m, n), a row with fewer than V repeating vertex 0."""
        return self.selected_jacobians(as_rows(X, self.ambient_dim), None, "adjacent")

    def term_sums(self, X) -> np.ndarray:
        """(N,) sum of |monomial| values over the first adjacent piece at
        each row of X, as validate_continuity sums them: F(x)'s rounding scale."""
        def sums(ids):
            ev = self._stacked(self._value_eval, ids)
            return lambda rows: np.abs(ev.terms(rows)).sum(axis=1)[:, None]
        return self._at_first_piece(sums, X)

    def component_ranges(self, X, U) -> tuple[np.ndarray, np.ndarray]:
        """(N, m) arrays lo, hi: [min, max] of <g, u> over the Clarke
        subdifferential of each scalar component F_i at x, the extremes over
        the vertex axis of the Clarke image J(x)u. Each vertex is the same
        (m, n) times (n, 1) product the clarke oracle returns, and padding
        repeats vertex 0, so no mask is needed."""
        U = as_rows(U, self.ambient_dim)
        img = np.matmul(self.clarke_jacobians(X), U[:, None, :, None])[..., 0]
        return img.min(axis=1), img.max(axis=1)

    # -- one-point views ----------------------------------------------------

    def _row(self, v) -> np.ndarray:
        return as_vector(v, self.ambient_dim)[None]

    def value(self, x) -> np.ndarray:
        """Evaluate the map; well-defined by continuity at boundary points."""
        return self.values(self._row(x))[0]

    def value_difference_exact(self, y, x) -> np.ndarray:
        """F(y) - F(x), compensated as in value_differences."""
        return self.value_differences(self._row(y), self._row(x))[0]

    def piece_value(self, sign: str, x) -> np.ndarray:
        return self._value_eval(sign)(np.asarray(x, dtype=float)[None])[0]

    def directional_derivative(self, x, u) -> np.ndarray:
        """One-sided directional derivative; exact for piecewise polynomials."""
        return self.directional_derivatives(self._row(x), self._row(u))[0]

    def clarke_jacobian(self, x) -> MatrixPolytope:
        """Vertex list of adjacent piece Jacobians at x (hull = Clarke Jacobian)."""
        return MatrixPolytope(self.clarke_jacobians(self._row(x))[0])

    def component_clarke(self, x, i: int) -> Polytope:
        """Clarke subdifferential of the scalar component F_i at x (row vectors)."""
        if not 1 <= i <= self.output_dim:
            raise PiecewiseError(f"component index {i} out of range")
        return Polytope(self.clarke_jacobians(self._row(x))[0][:, i - 1])


@dataclass(frozen=True, eq=False)
class ContinuityViolation:
    sign_a: str
    sign_b: str
    point: np.ndarray
    gap: float


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    ok: bool
    violations: tuple[ContinuityViolation, ...]
    pairs_checked: int


def validate_continuity(F: PiecewiseFunction, seed: int = 0) -> ContinuityReport:
    """Decide whether adjacent full-dimensional pieces agree on their shared
    facets. Report-only; lists violating pairs with witnesses, in the sign
    order of their facets. A facet is a nonempty cell with exactly one zero
    sign; its pieces are those of that sign with the zero read '-' and '+'.

    The pieces' difference restricted to a facet's hyperplane {a.x = b} is a
    polynomial of degree <= MAX_DEGREE in the coordinates of an orthonormal
    basis v of a's complement, so it is fixed by its values on a principal
    lattice of that degree, which is unisolvent (Chung & Yao 1977). The
    lattice here is c + h*sum_k alpha_k v_k, |alpha| <= MAX_DEGREE, with
    corner c = b*a - R*sum_k v_k and step h = R*(m + sqrt(m))/MAX_DEGREE for
    m = n - 1 and R the box's circumradius: its simplex holds every point of
    the hyperplane within R of b*a, hence the hyperplane's part of the box.
    A lattice point fails when the gap between the two values exceeds EPS_EQ
    plus EPS_ROUND times the sum of |monomial| values of both pieces there,
    which bounds the rounding. Because the difference interpolates its
    lattice values, a pass bounds the gap anywhere on the simplex by the
    lattice's Lebesgue constant (about 4.5 for n = 2 and 8.7 for n = 3) times
    the tolerance. A facet outside the box is checked on the same simplex
    around b*a. A violation's witness is the point with the largest
    gap-to-tolerance ratio; it lies on the facet's hyperplane, not
    necessarily on the facet. No sampling is involved, so `seed` has no
    effect. A missing piece raises the PiecewiseError of F.validate().
    """
    F.validate()
    arr, n = F.arrangement, F.arrangement.ambient_dim
    m = n - 1
    radius = F.box_halfwidth * np.sqrt(n)
    step = radius * (m + np.sqrt(m)) / MAX_DEGREE
    coords = step * _principal_lattice(m, MAX_DEGREE) - radius
    violations: list[ContinuityViolation] = []
    facets = [s for s in arr.all_nonempty_signs() if s.count("0") == 1]
    for facet in facets:
        i = facet.index("0")
        sign, other = facet.replace("0", "-"), facet.replace("0", "+")
        pts = arr.offsets[i] * arr.normals[i] + coords @ arr.cell(facet).tangent.basis
        ev_a, ev_b = F._value_eval(sign), F._value_eval(other)
        gaps = row_norms(ev_a(pts) - ev_b(pts))
        tols = EPS_EQ + EPS_ROUND * (np.abs(ev_a.terms(pts)).sum(axis=1)
                                     + np.abs(ev_b.terms(pts)).sum(axis=1))
        worst = int(np.argmax(gaps / tols))
        if gaps[worst] > tols[worst]:
            violations.append(ContinuityViolation(sign, other, pts[worst],
                                                  float(gaps[worst])))
    return ContinuityReport(ok=not violations, violations=tuple(violations),
                            pairs_checked=len(facets))


# ---------------------------------------------------------------------------
# Curves

@dataclass(frozen=True, eq=False)
class Curve:
    """Piecewise-polynomial curve [0,1] -> R^n.

    `pieces[j]` is an (n, deg_j+1) array of low-to-high coefficients on the
    interval [breakpoints[j], breakpoints[j+1]]. Pieces computed from larger
    terms than their own (compose_exact) pass `source_terms(j)`, the sum of
    |term| values of the pieces that meet at breakpoints[j+1]: a gap there
    that their own terms do not allow is allowed up to that sum's rounding.
    """

    breakpoints: np.ndarray
    pieces: tuple[np.ndarray, ...]
    source_terms: Callable[[int], float] | None = field(default=None, repr=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        bp = bp.copy()
        pieces = tuple(np.atleast_2d(np.asarray(p, dtype=float)).copy()
                       for p in self.pieces)
        if len(pieces) != bp.size - 1:
            raise ValueError("need one piece per breakpoint interval")
        dims = {p.shape[0] for p in pieces}
        if len(dims) != 1:
            raise ValueError("pieces disagree on curve dimension")
        for j in range(len(pieces) - 1):  # continuity across breakpoints, up
            t = bp[j + 1]                  # to EPS_ROUND per unit of sum |c_k t^k|
            gap = np.linalg.norm(_upolyval(pieces[j], t) - _upolyval(pieces[j + 1], t))
            terms = sum(_upolyval(np.abs(p), t).sum() for p in pieces[j:j + 2])
            if float(gap) > EPS_EQ + EPS_ROUND * terms and self.source_terms:
                terms = self.source_terms(j)
            if float(gap) > EPS_EQ + EPS_ROUND * terms:
                raise ValueError(f"curve discontinuous at t={t}")
        bp.flags.writeable = False
        for p in pieces:
            p.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)

    @property
    def dim(self) -> int:
        return self.pieces[0].shape[0]

    @classmethod
    def from_coeffs(cls, coeffs) -> "Curve":
        """Single-piece curve from per-coordinate low-to-high coefficient
        rows (ragged rows are zero-padded)."""
        rows = [np.atleast_1d(np.asarray(r, dtype=float)) for r in coeffs]
        width = max(r.size for r in rows)
        mat = np.zeros((len(rows), width))
        for i, r in enumerate(rows):
            mat[i, : r.size] = r
        return cls(np.array([0.0, 1.0]), (mat,))

    def interval_index(self, t):
        """Piece index (per time, for an array) with the left-derivative
        convention: t in (t_j, t_{j+1}] maps to j, and t=0 maps to 0
        (right-sided, matching one-sided velocity)."""
        j = np.searchsorted(self.breakpoints, t, side="left") - 1
        return np.minimum(np.maximum(j, 0), len(self.pieces) - 1)

    def _at(self, t, coeffs) -> np.ndarray:
        """The polynomial rows coeffs(piece) of the active piece at a time,
        or one row per time of an array."""
        tt = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), 1.0)
        flat = tt.reshape(-1)
        idx = self.interval_index(flat)
        out = np.empty((flat.size, self.dim))
        for j in set(idx.tolist()):
            out[idx == j] = _upolyval(coeffs(self.pieces[j]), flat[idx == j])
        return out if tt.ndim else out[0]

    def leaves_box(self, halfwidth: float) -> bool:
        """Whether a coordinate exceeds halfwidth in absolute value, decided
        with exact signs: h = +-c_j - halfwidth peaks on each piece at one of
        its `_monotone_points`, or between two adjacent doubles."""
        normals = np.vstack([np.eye(self.dim), -np.eye(self.dim)])
        return any(_sign_at(H, t) > 0
                   for j, piece in enumerate(self.pieces)
                   for H in (_int_coeffs(a, halfwidth, piece) for a in normals)
                   for t in _monotone_points(H, *self.breakpoints[j:j + 2].tolist()))

    def value(self, t) -> np.ndarray:
        return self._at(t, np.asarray)

    def velocity(self, t) -> np.ndarray:
        """Derivative of the active piece: right-sided at t=0, left-sided at
        interior breakpoints and t=1."""
        return self._at(t, _upolyder)

    def velocity_terms(self, t) -> np.ndarray:
        """The sum of |k c_k t^(k-1)| over velocity(t)'s terms: its rounding scale."""
        return self._at(t, lambda piece: np.abs(_upolyder(piece))).sum(axis=-1)


def _upolyval(coeffs: np.ndarray, t) -> np.ndarray:
    """Evaluate rows of low-to-high univariate coefficients at t (Horner);
    an array of times gives one row per time."""
    t = np.asarray(t, dtype=float)[..., None]
    out = np.zeros(coeffs.shape[0])
    for c in coeffs.T[::-1]:
        out = out * t + c
    return out


def _upolyder(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.shape[1] <= 1:
        return np.zeros((coeffs.shape[0], 1))
    return coeffs[:, 1:] * np.arange(1, coeffs.shape[1])


def _int_coeffs(normal, offset, piece) -> list[int]:
    """Integer coefficients, low to high, of a positive multiple of
    <normal, piece(t)> - offset, computed exactly: every double is p / 2**s,
    so all terms go over the largest power-of-two denominator."""
    a = [float(x).as_integer_ratio() for x in normal]
    c = [[float(x).as_integer_ratio() for x in row] for row in piece]
    pb, qb = float(offset).as_integer_ratio()
    den = max(max(q for _, q in a) * max(q for row in c for _, q in row), qb)
    out = [sum(pa * pc * (den // (qa * qc)) for (pa, qa), (pc, qc) in zip(a, col))
           for col in zip(*c)]
    out[0] -= pb * (den // qb)
    return out


def _sign_at(H: list[int], t: float) -> int:
    """Exact sign of the integer polynomial H (low to high) at the double t."""
    p, q = float(t).as_integer_ratio()
    v, qk = 0, 1
    for c in reversed(H):  # Horner on q**deg * H(p / q)
        v, qk = v * p + c * qk, qk * q
    return (v > 0) - (v < 0)


def _monotone_points(H: list[int], lo: float, hi: float) -> list[float]:
    """lo, hi and both ends of every sign-change bracket of H' between them,
    in order: H is monotone between consecutive points."""
    dH = [k * c for k, c in enumerate(H)][1:]
    return [lo, *sorted({t for ab in _sign_changes(dH, lo, hi) for t in ab} - {lo, hi}), hi]


def _sign_changes(H: list[int], lo: float, hi: float) -> list[tuple[float, float]]:
    """Brackets (a, b) of the sign changes of H strictly inside (lo, hi), in
    order: a root at a double a == b, or adjacent doubles a < b at which H
    has opposite exact signs. Even-order touch points give no bracket."""
    if len(H) < 2:
        return []
    signed = [(t, s) for t in _monotone_points(H, lo, hi) if (s := _sign_at(H, t))]
    out = []
    for (a, sa), (b, sb) in zip(signed, signed[1:]):
        if sa != sb:  # one root between, found by exact-sign bisection
            while a < (m := 0.5 * (a + b)) < b:
                sm = _sign_at(H, m)
                a, b = (m, m) if sm == 0 else (a, m) if sm == sb else (m, b)
            out.append((a, b))
    return out


def compose_exact(F: PiecewiseFunction, curve: Curve) -> Curve:
    """Exact composition F(curve(t)) as a piecewise-polynomial curve in R^m.

    [0,1] is subdivided at the curve's own breakpoints and at every crossing
    of h_i(t) = <a_i, curve(t)> - b_i, isolated by exact-sign bisection, so
    the curve stays in one cell on each subinterval unless two crossings are
    closer together than the 1e-12 merge of cut times. There, the curve is
    substituted into the first piece that F._piece_ids finds for the exact
    signs of the h_i at the midpoint; continuity makes the result
    independent of the choice, also on a subinterval on which the curve
    travels inside some hyperplane. The joints of the result are held to
    the rounding of F's monomials there, sum |c_alpha| |x(t)|^alpha over
    the pieces on both sides, as validate_continuity holds facets.
    """
    if curve.dim != F.ambient_dim:
        raise PiecewiseError("curve dimension does not match the map")
    arr = F.arrangement
    times = set(float(t) for t in curve.breakpoints)
    exact: list[list] = []
    for j, piece in enumerate(curve.pieces):
        h = arr.normals @ piece
        h[:, 0] -= arr.offsets
        inside = np.max(np.abs(h), axis=1) <= 1e-12 * max(1.0, float(np.max(np.abs(piece))))
        # each h_i exactly, or None where the curve lies inside hyperplane i
        polys = [_int_coeffs(a, b, piece) for a, b in zip(arr.normals, arr.offsets)]
        polys = [H if any(H) and not flat else None for H, flat in zip(polys, inside)]
        for H in filter(None, polys):
            times.update(a for a, _ in _sign_changes(H, *curve.breakpoints[j:j + 2].tolist()))
        exact.append(polys)

    cuts = sorted(times)
    merged = [cuts[0]]
    for t in cuts[1:]:
        if t - merged[-1] > 1e-12:
            merged.append(t)
    merged[0], merged[-1] = 0.0, 1.0

    out_pieces: list[np.ndarray] = []
    used: list[str] = []
    for j in range(len(merged) - 1):
        t_lo, t_hi = merged[j], merged[j + 1]
        t_mid = 0.5 * (t_lo + t_hi)
        src = curve.interval_index(t_mid)
        codes = []
        for H in exact[src]:
            # h_i's exact sign at the midpoint, or after it at a touch point
            s, t = 0, t_mid
            while H is not None and s == 0 and t < t_hi:
                s, t = _sign_at(H, t), math.nextafter(t, t_hi)
            codes.append(s + 1)
        (ids,), _ = F._piece_ids(np.array([codes], dtype=int))
        used.append(F._signs[ids[0]])
        rows = [p.compose_univariate(list(curve.pieces[src])) for p in F.pieces[used[-1]]]
        out_pieces.append(Curve.from_coeffs(rows).pieces[0])

    def source_terms(j: int) -> float:
        x = curve.value(merged[j + 1])[None]
        return sum(float(np.abs(F._value_eval(s).terms(x)).sum()) for s in used[j:j + 2])
    return Curve(np.array(merged), tuple(out_pieces), source_terms)
