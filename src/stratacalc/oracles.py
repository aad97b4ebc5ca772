"""Generalized directional derivatives D(x, u) and their validity checks.

An oracle maps (point, direction) to a vertex-represented polytope in the
output space. The three positive constructions are the exact directional
derivative, the image of the Clarke Jacobian, and a deterministic
branch-selection scheme mimicking fixed-convention automatic
differentiation. Transforms build controls (scaling, reflection, zeroing on
lower-dimensional strata) on top of any base oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Polytope, as_rows, hausdorffs, row_norms
# re-exports: the benchmark tracer wraps them here
from .geometry import hausdorff, linear_image  # noqa: F401
from .piecewise import PiecewiseFunction
from .seeding import substream

EPS_HOM = 1e-8
HOM_T_FACTORS = (0.5, 2.0, 10.0)
DIRECTIONS_PER_PROBE = 8
LIPSCHITZ_RADIUS = 0.1
LIPSCHITZ_CENTERS = 200
LIPSCHITZ_PAIRS = 2
LIPSCHITZ_BLOWUP = 1e6


@dataclass(frozen=True, eq=False)
class GeneralizedDerivative:
    """Set-valued first-order model (x, u) -> polytope in R^m, backed by an
    array `kernel(X, U)` that returns an (N, V, m) vertex stack.

    `batch(X, U)` evaluates rows of points and directions at once; a row
    with fewer than V vertices repeats its own vertex 0, so max, min and
    diameter reductions need no mask. The zero direction is short-circuited
    to {0}: positive homogeneity at u=0 is asserted per row rather than
    trusted to the kernel; the assumption checker calls the unasserted
    `kernel` directly.
    """

    name: str
    provenance: str
    input_dim: int
    output_dim: int
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def batch(self, X, U) -> np.ndarray:
        X, U = as_rows(X, self.input_dim), as_rows(U, self.input_dim)
        return _on_rows(row_norms(U) != 0.0, self.kernel, X, U, self.output_dim)

    def __call__(self, x, u) -> Polytope:
        return Polytope(self.batch(np.asarray(x, dtype=float)[None],
                                   np.asarray(u, dtype=float)[None])[0])


def _on_rows(keep: np.ndarray, kernel, X, U, m: int) -> np.ndarray:
    """kernel(X, U) on the rows where keep holds, {0} on the others."""
    out = np.zeros((len(X), 1, m))
    if keep.any():
        sub = kernel(X[keep], U[keep])
        out = np.zeros((len(X),) + sub.shape[1:])
        out[keep] = sub
    return out


def oracle_exact_directional(F: PiecewiseFunction) -> GeneralizedDerivative:
    """D(x,u) = {F'(x,u)}, the one-sided directional derivative itself."""
    return GeneralizedDerivative(
        "exact", "exact directional derivative", F.ambient_dim, F.output_dim,
        kernel=lambda X, U: F.directional_derivatives(X, U)[:, None, :])


def oracle_clarke_linear(F: PiecewiseFunction) -> GeneralizedDerivative:
    """D(x,u) = (Clarke Jacobian of F at x) applied to u."""
    return GeneralizedDerivative(
        "clarke", "Clarke Jacobian image", F.ambient_dim, F.output_dim,
        kernel=lambda X, U: np.matmul(F.clarke_jacobians(X)[0], U[:, None, :, None])[..., 0])


def oracle_branch_selection(F: PiecewiseFunction) -> GeneralizedDerivative:
    """Fixed-branch convention: the Jacobian of the lexicographically
    smallest adjacent full-dimensional cell ('-' < '+'), applied to u.

    Deterministic by construction, like an autodiff scheme that always
    resolves ties the same way (e.g. a zero-slope convention at kinks).
    """
    return GeneralizedDerivative(
        "branch", "lexicographic branch selection", F.ambient_dim, F.output_dim,
        kernel=lambda X, U: np.matmul(F.clarke_jacobians(X)[0][:, :1],
                                      U[:, None, :, None])[..., 0])


def scale_oracle(base: GeneralizedDerivative, c: float) -> GeneralizedDerivative:
    return GeneralizedDerivative(f"scale:{c:g}:{base.name}" if base.name != "exact"
                                 else f"scale:{c:g}",
                                 f"scaled ({c:g}x) {base.provenance}",
                                 base.input_dim, base.output_dim,
                                 kernel=lambda X, U: c * base.batch(X, U))


def reflect_oracle(base: GeneralizedDerivative) -> GeneralizedDerivative:
    """D^(x,u) := -D(x,-u)."""
    return GeneralizedDerivative(f"reflect:{base.name}",
                                 f"reflection of {base.provenance}",
                                 base.input_dim, base.output_dim,
                                 kernel=lambda X, U: -base.batch(X, -U))


def zero_at_strata_oracle(base: GeneralizedDerivative,
                          F: PiecewiseFunction) -> GeneralizedDerivative:
    """Base oracle off the lower-dimensional cells, {0} on them."""
    def kernel(X, U):
        off_strata = np.all(F.arrangement.sign_codes(X) != 1, axis=1)
        return _on_rows(off_strata, base.batch, X, U, base.output_dim)
    return GeneralizedDerivative(f"zero-strata:{base.name}",
                                 f"{base.provenance}, zeroed on strata",
                                 base.input_dim, base.output_dim, kernel=kernel)


def parse_oracle(spec: str, F: PiecewiseFunction) -> GeneralizedDerivative:
    """Resolve a CLI oracle identifier.

    Grammar: exact | clarke | branch | scale:<c> | reflect:<base> |
    zero-strata:<base>. scale applies to the exact directional derivative.
    """
    spec = spec.strip()
    if spec == "exact":
        return oracle_exact_directional(F)
    if spec == "clarke":
        return oracle_clarke_linear(F)
    if spec == "branch":
        return oracle_branch_selection(F)
    if spec.startswith("scale:"):
        try:
            c = float(spec.split(":", 1)[1])
        except ValueError:
            c = np.nan
        if not np.isfinite(c):
            raise ValueError(f"bad scale factor in oracle id {spec!r}")
        return scale_oracle(oracle_exact_directional(F), c)
    if spec.startswith("reflect:"):
        return reflect_oracle(parse_oracle(spec.split(":", 1)[1], F))
    if spec.startswith("zero-strata:"):
        return zero_at_strata_oracle(parse_oracle(spec.split(":", 1)[1], F), F)
    raise ValueError(f"unknown oracle id {spec!r}")


# ---------------------------------------------------------------------------
# Assumption checks

@dataclass(frozen=True, eq=False)
class AssumptionReport:
    full_domain: str                 # "pass", or "fail (...)" naming a probe
    homogeneity: str
    homogeneity_worst: float
    homogeneity_witness: tuple | None
    lipschitz: str
    lipschitz_constants: tuple[float, ...]  # reported L per probe point
    witnesses: tuple = ()

    @property
    def ok(self) -> bool:
        return (self.full_domain, self.homogeneity, self.lipschitz) == ("pass",) * 3


def _defined_hausdorffs(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, bool]:
    """`hausdorffs` of the rows where both vertex stacks are finite (0 on the
    others), and whether every row was."""
    finite = np.isfinite(P).all(axis=(1, 2)) & np.isfinite(Q).all(axis=(1, 2))
    out = np.zeros(len(P))
    out[finite] = hausdorffs(P[finite], Q[finite])
    return out, bool(finite.all())


def check_assumption(D: GeneralizedDerivative, F: PiecewiseFunction,
                     probe_points, seed: int = 0) -> AssumptionReport:
    """Sampled verification of full domain, positive homogeneity, and local
    uniform Lipschitz continuity in the direction argument.

    Homogeneity compares D(x, t u) with t D(x, u) in Hausdorff distance for
    t in HOM_T_FACTORS and checks D(x, 0) = {0} on the unasserted map. The
    Lipschitz constant is estimated and reported per probe; the verdict only
    fails on blow-up past LIPSCHITZ_BLOWUP. Each probe's draws come first, then
    one `D.batch` call per check. Full domain fails, naming the first such
    probe, when a row evaluated for a probe has a non-finite vertex; such rows
    are left out of the Hausdorff distances, so the report is still written.
    Without probe points nothing is evaluated, and all three lines read
    inconclusive.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    n, m = D.input_dim, D.output_dim
    hom_worst, hom_witness = 0.0, None
    undefined = set()    # probes with a non-finite vertex on some row
    witnesses = []

    for pi, x in enumerate(probes):
        dirs = substream(seed, "assumption", pi).normal(size=(DIRECTIONS_PER_PROBE, n))
        gap0, defined = _defined_hausdorffs(D.kernel(x[None], np.zeros((1, n))),
                                            np.zeros((1, 1, m)))
        if gap0[0] > EPS_HOM:
            hom_worst = max(hom_worst, float(gap0[0]))
            hom_witness = (tuple(x), (0.0,) * n, 0.0)
        U = np.concatenate([dirs] + [t * dirs for t in HOM_T_FACTORS])
        base, *scaled = np.split(D.batch(np.tile(x, (len(U), 1)), U), 1 + len(HOM_T_FACTORS))
        gaps = []
        for t, rows in zip(HOM_T_FACTORS, scaled):
            gap, ok = _defined_hausdorffs(rows, t * base)
            gaps.append(gap)
            defined &= ok
        if not defined:
            undefined.add(pi)
        for i, u in enumerate(dirs):  # u outer, t inner: ties keep the first witness
            for t, gap in zip(HOM_T_FACTORS, gaps):
                tol = EPS_HOM * max(1.0, t * float(np.linalg.norm(u)))
                if gap[i] > tol and gap[i] > hom_worst:
                    hom_worst = float(gap[i])
                    hom_witness = (tuple(x), tuple(u), t)

    homogeneity = "pass" if hom_witness is None else "fail"
    if hom_witness is not None:
        witnesses.append(hom_witness)

    lipschitz_constants = []
    lipschitz = "pass"
    for pi, p in enumerate(probes):
        rng = substream(seed, "lipschitz", pi)
        X, U = [], []
        for _ in range(LIPSCHITZ_CENTERS):
            X += [p + LIPSCHITZ_RADIUS * rng.uniform(-1, 1, size=n)] * LIPSCHITZ_PAIRS
            U.append(rng.normal(size=(LIPSCHITZ_PAIRS, 2, n)))  # u1, u2 per pair
        U1, U2 = np.reshape(U, (-1, 2, n)).transpose(1, 0, 2)
        keep = row_norms(U1 - U2) >= 1e-12
        X, U1, U2 = np.reshape(X, (-1, n))[keep], U1[keep], U2[keep]
        out = D.batch(np.concatenate([X, X]), np.concatenate([U1, U2]))
        dist, defined = _defined_hausdorffs(out[:len(X)], out[len(X):])
        if not defined:
            undefined.add(pi)
        L = float(np.max(dist / row_norms(U1 - U2), initial=0.0))
        lipschitz_constants.append(L)
        if L > LIPSCHITZ_BLOWUP:
            lipschitz = "fail"
            witnesses.append((tuple(p), None, L))

    full_domain = "pass"
    if not probes:
        full_domain = homogeneity = lipschitz = "inconclusive"
    if undefined:
        pi = min(undefined)
        full_domain = (f"fail (probe {pi} at {tuple(map(float, probes[pi]))} "
                       "gives a non-finite vertex)")
    return AssumptionReport(full_domain=full_domain,
                            homogeneity=homogeneity,
                            homogeneity_worst=hom_worst,
                            homogeneity_witness=hom_witness,
                            lipschitz=lipschitz,
                            lipschitz_constants=tuple(lipschitz_constants),
                            witnesses=tuple(witnesses))
