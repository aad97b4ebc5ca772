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

from .geometry import Polytope, hausdorff, linear_image
from .piecewise import PiecewiseFunction
from .seeding import substream

EPS_HOM = 1e-8
HOM_T_FACTORS = (0.5, 2.0, 10.0)
LIPSCHITZ_RADIUS = 0.1
LIPSCHITZ_CENTERS = 200
LIPSCHITZ_PAIRS = 2
LIPSCHITZ_BLOWUP = 1e6


@dataclass(frozen=True, eq=False)
class GeneralizedDerivative:
    """Set-valued first-order model (x, u) -> polytope in R^m.

    The zero direction is short-circuited to {0}: positive homogeneity at
    u=0 is asserted per call rather than trusted to the backing map. The
    unasserted map stays reachable through `raw` for the assumption checker.
    """

    name: str
    provenance: str
    input_dim: int
    output_dim: int
    fn: Callable[[np.ndarray, np.ndarray], Polytope]

    def __call__(self, x, u) -> Polytope:
        u = np.asarray(u, dtype=float)
        if float(np.linalg.norm(u)) == 0.0:
            return Polytope(np.zeros((1, self.output_dim)))
        return self.fn(np.asarray(x, dtype=float), u)

    def raw(self, x, u) -> Polytope:
        return self.fn(np.asarray(x, dtype=float), np.asarray(u, dtype=float))


def oracle_exact_directional(F: PiecewiseFunction) -> GeneralizedDerivative:
    """D(x,u) = {F'(x,u)}, the one-sided directional derivative itself."""
    def fn(x, u):
        return Polytope.singleton(F.directional_derivative(x, u))
    return GeneralizedDerivative("exact", "exact directional derivative",
                                 F.ambient_dim, F.output_dim, fn)


def oracle_clarke_linear(F: PiecewiseFunction) -> GeneralizedDerivative:
    """D(x,u) = (Clarke Jacobian of F at x) applied to u."""
    def fn(x, u):
        return linear_image(F.clarke_jacobian(x), u)
    return GeneralizedDerivative("clarke", "Clarke Jacobian image",
                                 F.ambient_dim, F.output_dim, fn)


def oracle_branch_selection(F: PiecewiseFunction) -> GeneralizedDerivative:
    """Fixed-branch convention: the Jacobian of the lexicographically
    smallest adjacent full-dimensional cell ('-' < '+'), applied to u.

    Deterministic by construction, like an autodiff scheme that always
    resolves ties the same way (e.g. a zero-slope convention at kinks).
    """
    def fn(x, u):
        sign = F.adjacent_full_signs(x)[0]
        return Polytope.singleton(F.piece_jacobian(sign, x) @ u)
    return GeneralizedDerivative("branch", "lexicographic branch selection",
                                 F.ambient_dim, F.output_dim, fn)


def scale_oracle(base: GeneralizedDerivative, c: float) -> GeneralizedDerivative:
    def fn(x, u):
        return base(x, u).scale(c)
    return GeneralizedDerivative(f"scale:{c:g}:{base.name}" if base.name != "exact"
                                 else f"scale:{c:g}",
                                 f"scaled ({c:g}x) {base.provenance}",
                                 base.input_dim, base.output_dim, fn)


def reflect_oracle(base: GeneralizedDerivative) -> GeneralizedDerivative:
    """D^(x,u) := -D(x,-u)."""
    def fn(x, u):
        return -base(x, -u)
    return GeneralizedDerivative(f"reflect:{base.name}",
                                 f"reflection of {base.provenance}",
                                 base.input_dim, base.output_dim, fn)


def zero_at_strata_oracle(base: GeneralizedDerivative,
                          F: PiecewiseFunction) -> GeneralizedDerivative:
    """Base oracle off the lower-dimensional cells, {0} on them."""
    def fn(x, u):
        if "0" in F.arrangement.sign_vector(x):
            return Polytope(np.zeros((1, base.output_dim)))
        return base(x, u)
    return GeneralizedDerivative(f"zero-strata:{base.name}",
                                 f"{base.provenance}, zeroed on strata",
                                 base.input_dim, base.output_dim, fn)


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
            raise ValueError(f"bad scale factor in oracle id {spec!r}") from None
        return scale_oracle(oracle_exact_directional(F), c)
    if spec.startswith("reflect:"):
        return reflect_oracle(parse_oracle(spec.split(":", 1)[1], F))
    if spec.startswith("zero-strata:"):
        return zero_at_strata_oracle(parse_oracle(spec.split(":", 1)[1], F), F)
    raise ValueError(f"unknown oracle id {spec!r}")


# ---------------------------------------------------------------------------
# Assumption checks

@dataclass(frozen=True)
class AssumptionConfig:
    directions_per_probe: int = 8
    lipschitz_centers: int = LIPSCHITZ_CENTERS


@dataclass(frozen=True, eq=False)
class AssumptionReport:
    full_domain: str                 # pass/fail
    homogeneity: str
    homogeneity_worst: float
    homogeneity_witness: tuple | None
    lipschitz: str
    lipschitz_constants: tuple[float, ...]  # reported L per probe point
    witnesses: tuple = ()

    @property
    def ok(self) -> bool:
        return (self.full_domain, self.homogeneity, self.lipschitz) == ("pass",) * 3


def check_assumption(D: GeneralizedDerivative, F: PiecewiseFunction,
                     probe_points, cfg: AssumptionConfig = AssumptionConfig(),
                     seed: int = 0) -> AssumptionReport:
    """Sampled verification of full domain, positive homogeneity, and local
    uniform Lipschitz continuity in the direction argument.

    Homogeneity compares D(x, t u) with t D(x, u) in Hausdorff distance for
    t in HOM_T_FACTORS and checks D(x, 0) = {0} on the unasserted map. The
    Lipschitz constant is estimated and reported per probe; the verdict only
    fails on blow-up past LIPSCHITZ_BLOWUP.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    n = D.input_dim
    full_domain = "pass"
    hom_worst, hom_witness = 0.0, None
    witnesses = []

    for pi, x in enumerate(probes):
        rng = substream(seed, "assumption", pi)
        dirs = rng.normal(size=(cfg.directions_per_probe, n))
        zero = D.raw(x, np.zeros(n))
        gap0 = hausdorff(zero, Polytope(np.zeros((1, D.output_dim))))
        if gap0 > EPS_HOM:
            hom_worst = max(hom_worst, gap0)
            hom_witness = (tuple(x), (0.0,) * n, 0.0)
        for u in dirs:
            out = D(x, u)
            if out.n_vertices == 0:  # unreachable for Polytope, kept for contract
                full_domain = "fail"
                witnesses.append((tuple(x), tuple(u), "empty image"))
            for t in HOM_T_FACTORS:
                gap = hausdorff(D(x, t * u), out.scale(t))
                tol = EPS_HOM * max(1.0, t * float(np.linalg.norm(u)))
                if gap > tol and gap > hom_worst:
                    hom_worst = gap
                    hom_witness = (tuple(x), tuple(u), t)

    homogeneity = "pass" if hom_witness is None else "fail"
    if hom_witness is not None:
        witnesses.append(hom_witness)

    lipschitz_constants = []
    lipschitz = "pass"
    for pi, p in enumerate(probes):
        rng = substream(seed, "lipschitz", pi)
        L = 0.0
        for _ in range(cfg.lipschitz_centers):
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

    return AssumptionReport(full_domain=full_domain,
                            homogeneity=homogeneity,
                            homogeneity_worst=hom_worst,
                            homogeneity_witness=hom_witness,
                            lipschitz=lipschitz,
                            lipschitz_constants=tuple(lipschitz_constants),
                            witnesses=tuple(witnesses))
