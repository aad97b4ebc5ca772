"""Small-dimension convex geometry on vertex-represented sets.

Subspaces are orthonormal bases, polytopes are plain vertex lists (redundant
vertices allowed, no hull minimization), and point-to-polytope distance is a
hand-rolled Wolfe min-norm-point iteration so the module stays free of
optimization dependencies. Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Module-level tolerances.
EPS_ORTH = 1e-12    # orthonormality slack for subspace bases
EPS_QP = 1e-10      # distance / containment tolerance
MAX_DIM = 8         # ambient dimensions supported
MNP_MAX_ITER = 10000


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or shapes disagree."""


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {arr.shape}")
    if arr.size < 1:
        raise DimensionMismatchError("vectors must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.size}")
    return arr


def as_rows(X, dim: int) -> np.ndarray:
    """Coerce to a finite (N, dim) float array: as_vector for a batch."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(f"expected rows of dimension {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def row_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis. Bit-identical to np.linalg.norm of
    each row: both reduce through the same dot kernel (an axis sum would not)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0, 0]


def diameters(vertices: np.ndarray) -> np.ndarray:
    """Max pairwise vertex distance of each (V, m) vertex list in a stack."""
    diff = vertices[..., :, None, :] - vertices[..., None, :, :]
    return np.sqrt(np.max(np.sum(diff * diff, axis=-1), axis=(-2, -1)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of R^n given by an orthonormal basis (rows of `basis`).

    An empty basis is the zero subspace. Used for tangent and normal spaces
    of arrangement cells.
    """

    ambient_dim: int
    basis: np.ndarray  # shape (k, ambient_dim), orthonormal rows, k possibly 0

    def __post_init__(self):
        if self.ambient_dim < 1 or self.ambient_dim > MAX_DIM:
            raise DimensionMismatchError(
                f"ambient_dim must be in 1..{MAX_DIM}, got {self.ambient_dim}")
        b = np.asarray(self.basis, dtype=float).reshape(-1, self.ambient_dim)
        if b.shape[0] > self.ambient_dim:
            raise DimensionMismatchError("basis has more vectors than ambient_dim")
        gram = b @ b.T
        if b.shape[0] and np.max(np.abs(gram - np.eye(b.shape[0]))) > EPS_ORTH:
            raise ValueError("basis rows are not orthonormal")
        object.__setattr__(self, "basis", _freeze(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int) -> "Subspace":
        """Orthonormalize a (possibly redundant) spanning set via SVD."""
        arr = np.atleast_2d(np.asarray(vectors, dtype=float))
        if arr.size == 0:
            return cls.zero(ambient_dim)
        if arr.shape[1] != ambient_dim:
            raise DimensionMismatchError("spanning vectors have wrong dimension")
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
        rank = int(np.sum(s > EPS_ORTH * max(1.0, s[0])))
        return cls(ambient_dim, vt[:rank])

    @classmethod
    def null_space_of(cls, normals, ambient_dim: int) -> "Subspace":
        """Orthonormal basis of {x : <a,x> = 0 for all rows a of normals}."""
        arr = np.atleast_2d(np.asarray(normals, dtype=float))
        if arr.size == 0:
            return cls.full(ambient_dim)
        if arr.shape[1] != ambient_dim:
            raise DimensionMismatchError("normals have wrong dimension")
        u, s, vt = np.linalg.svd(arr, full_matrices=True)
        rank = int(np.sum(s > EPS_ORTH * max(1.0, s[0])))
        return cls(ambient_dim, vt[rank:])


def project(v, V: Subspace) -> np.ndarray:
    """Orthogonal projection of v onto span(V.basis). Idempotent."""
    x = as_vector(v, V.ambient_dim)
    if V.dim == 0:
        return np.zeros(V.ambient_dim)
    return V.basis.T @ (V.basis @ x)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a nonempty finite vertex list in R^n.

    Redundant (non-extreme) vertices are permitted; every operation below
    is exact on the vertex list.
    """

    vertices: np.ndarray  # shape (k, n), k >= 1

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatchError(f"bad vertex array shape {v.shape}")
        if v.shape[1] > MAX_DIM:
            raise DimensionMismatchError(f"ambient dimension {v.shape[1]} exceeds {MAX_DIM}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", _freeze(v))

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class MatrixPolytope:
    """Convex hull of finitely many m-by-n matrices (e.g. a generalized Jacobian)."""

    vertices: np.ndarray  # shape (k, m, n)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 2:
            v = v.reshape((1,) + v.shape)
        if v.ndim != 3 or v.shape[0] < 1:
            raise DimensionMismatchError(f"bad matrix vertex shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix vertices must be finite")
        object.__setattr__(self, "vertices", _freeze(v))

    @property
    def cols(self) -> int:
        return self.vertices.shape[2]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def lex_min_vertex(self) -> np.ndarray:
        """Lexicographically minimal vertex by row-major entry comparison."""
        flat = self.vertices.reshape(self.n_vertices, -1)
        idx = min(range(self.n_vertices), key=lambda i: tuple(flat[i]))
        return self.vertices[idx]


def _affine_min_norm(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm point of the affine hull of `points`, with affine coefficients."""
    k = points.shape[0]
    gram = points @ points.T
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = gram
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    mu = sol[:k]
    # lstsq may return affine coefficients off by numerical dust; renormalize
    tot = mu.sum()
    if abs(tot) > 1e-14:
        mu = mu / tot
    return points.T @ mu, mu


def min_norm_point(points) -> np.ndarray:
    """Point of minimal Euclidean norm in conv(points), Wolfe's algorithm.

    Terminates when the support-function gap certifies optimality within
    EPS_QP (scaled), or at MNP_MAX_ITER with the best iterate found.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    norms2 = np.sum(pts * pts, axis=1)
    start = int(np.argmin(norms2))
    active = [start]
    lam = np.array([1.0])
    x = pts[start].copy()
    scale = max(1.0, float(np.sqrt(np.max(norms2))))
    for _ in range(MNP_MAX_ITER):
        dots = pts @ x
        j = int(np.argmin(dots))
        gap = float(x @ x - dots[j])
        if gap <= EPS_QP * scale:
            break
        if j in active:
            break  # no progress possible: numerical optimum
        active.append(j)
        lam = np.append(lam, 0.0)
        # Minor cycles: pull x to the min-norm point of the active affine hull,
        # dropping vertices whose coefficient would turn negative.
        while True:
            sub = pts[active]
            y, mu = _affine_min_norm(sub)
            if np.all(mu > -1e-14):
                x = y
                lam = np.clip(mu, 0.0, None)
                break
            neg = mu < lam
            with np.errstate(divide="ignore", invalid="ignore"):
                theta_candidates = lam[neg] / (lam[neg] - mu[neg])
            theta = float(np.min(theta_candidates))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            x = sub.T @ lam
            keep = lam > 1e-14
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
    return x


def dist_point_polytope(v, P: Polytope) -> float:
    """Euclidean distance from a point to conv(P), within EPS_QP."""
    x = as_vector(v, None)
    if x.size != P.ambient_dim:
        raise DimensionMismatchError(
            f"point dim {x.size} != polytope dim {P.ambient_dim}")
    best = min_norm_point(P.vertices - x)
    return float(np.linalg.norm(best))


def hausdorff(P: Polytope, Q: Polytope) -> float:
    """Hausdorff distance between conv(P) and conv(Q).

    The sup over a polytope of the convex function dist(., conv Q) is attained
    at a vertex, so both one-sided deviations reduce to vertex sweeps.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatchError("polytopes live in different dimensions")
    d_pq = max(dist_point_polytope(p, Q) for p in P.vertices)
    d_qp = max(dist_point_polytope(q, P) for q in Q.vertices)
    return max(d_pq, d_qp)


def subset_mod_subspace(A: Polytope, B: Polytope, V: Subspace) -> bool:
    """Whether conv(A) is contained in conv(B) + V.

    Containment modulo a subspace reduces to containment of the projections
    onto the orthogonal complement of V, which is a vertex-wise test.
    """
    if A.ambient_dim != B.ambient_dim or A.ambient_dim != V.ambient_dim:
        raise DimensionMismatchError("mismatched ambient dimensions")
    def drop(p):  # projection onto V-perp
        return p - project(p, V)
    b_proj = Polytope(np.array([drop(q) for q in B.vertices]))
    for a in A.vertices:
        if dist_point_polytope(drop(a), b_proj) > EPS_QP:
            return False
    return True


def linear_image(J: MatrixPolytope, u) -> Polytope:
    """Image polytope {A u : A vertex of J}; equals conv(J) u by linearity."""
    x = as_vector(u, None)
    if x.size != J.cols:
        raise DimensionMismatchError(f"direction dim {x.size} != cols {J.cols}")
    return Polytope(J.vertices @ x)


def linear_range_over_polytope(P: Polytope, u) -> tuple[float, float]:
    """[min, max] of <p, u> over conv(P); attained at vertices."""
    x = as_vector(u, P.ambient_dim)
    vals = P.vertices @ x
    return float(np.min(vals)), float(np.max(vals))
