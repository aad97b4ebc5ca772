"""Generalized directional derivatives D(x, u) and their validity checks.

An oracle maps (point, direction) to a vertex-represented polytope in the
output space. The three positive constructions are the exact directional
derivative, the image of the Clarke Jacobian, and a deterministic
branch-selection scheme mimicking fixed-convention automatic
differentiation. Transforms build controls (scaling, reflection, zeroing on
lower-dimensional strata) on a base oracle's vertex form, from which the
assumption lines are decided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .geometry import Polytope, as_rows, row_norms
# re-exports: the benchmark tracer wraps them here
from .geometry import hausdorff, linear_image  # noqa: F401
from .piecewise import PiecewiseFunction


@dataclass(frozen=True)
class VertexForm:
    """Cellwise vertex form of a built-in oracle: every vertex of D(x, u) is
    c * J_p(x) u for a piece p of F that `select` picks at (x, u):

    - "directional": the piece active on (x, x + eps u], so D(x, u) = {c F'(x, u)};
    - "adjacent": every piece adjacent to x, the image of c times the Clarke
      Jacobian;
    - "first": the first adjacent piece in sign order ('-' < '+').

    `reflect` picks the pieces at -u and applies them to u, which is
    -D(x, -u) since J_p is linear. `zero_on_strata` gives {0} at points on a
    hyperplane. The selection depends on u only through the signs of <a_i, u>,
    so D is positively homogeneous in u, and Lipschitz in u with the constant
    |c| max ||J_p||_2 over the pieces adjacent to x.
    """

    select: str
    c: float = 1.0
    reflect: bool = False
    zero_on_strata: bool = False


@dataclass(frozen=True, eq=False)
class GeneralizedDerivative:
    """Set-valued first-order model (x, u) -> polytope in R^m, backed by an
    array `kernel(X, U)` that returns an (N, V, m) vertex stack.

    `batch(X, U)` evaluates rows of points and directions at once; a row
    with fewer than V vertices repeats its own vertex 0, so max, min and
    diameter reductions need no mask. The zero direction is short-circuited
    to {0}: positive homogeneity at u=0 is asserted per row rather than
    trusted to the kernel. A built-in oracle's kernel is `form_vertices` of
    its `form`; a handcrafted kernel has no form.
    """

    name: str
    input_dim: int
    output_dim: int
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    form: VertexForm | None = None

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


def form_vertices(F: PiecewiseFunction, form: VertexForm, X, U) -> np.ndarray:
    """(N, V, m) vertex stack of the oracle with this form at rows u != 0."""
    if form.zero_on_strata:
        off_strata = np.all(F.arrangement.sign_codes(X) != 1, axis=1)
        return _on_rows(off_strata, partial(_piece_vertices, F, form), X, U, F.output_dim)
    return _piece_vertices(F, form, X, U)


def _piece_vertices(F: PiecewiseFunction, form: VertexForm, X, U) -> np.ndarray:
    J = F.selected_jacobians(X, -U if form.reflect else U, form.select)
    return form.c * np.matmul(J, U[:, None, :, None])[..., 0]


_BASES = {"exact": "directional", "clarke": "adjacent", "branch": "first"}


def _parse_form(spec: str) -> tuple[str, VertexForm]:
    """(name, form) of an oracle identifier."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if spec in _BASES:
        return spec, VertexForm(_BASES[spec])
    if head == "scale":
        try:
            c = float(rest)
        except ValueError:
            c = np.nan
        if not np.isfinite(c):
            raise ValueError(f"bad scale factor in oracle id {spec!r}")
        return f"scale:{c:g}", VertexForm("directional", c=c)
    if head == "reflect":
        name, form = _parse_form(rest)
        return f"reflect:{name}", replace(form, reflect=not form.reflect)
    if head == "zero-strata":
        name, form = _parse_form(rest)
        return f"zero-strata:{name}", replace(form, zero_on_strata=True)
    raise ValueError(f"unknown oracle id {spec!r}")


def parse_oracle(spec: str, F: PiecewiseFunction) -> GeneralizedDerivative:
    """Resolve an oracle identifier to a built-in oracle with a vertex form.

    Grammar: exact | clarke | branch | scale:<c> | reflect:<base> |
    zero-strata:<base>. scale applies to the exact directional derivative;
    reflect gives D^(x,u) := -D(x,-u); zero-strata gives the base oracle off
    the lower-dimensional cells and {0} on them.
    """
    name, form = _parse_form(spec)
    return GeneralizedDerivative(name, F.ambient_dim, F.output_dim,
                                 kernel=partial(form_vertices, F, form), form=form)


def oracle_exact_directional(F: PiecewiseFunction) -> GeneralizedDerivative:
    """D(x,u) = {F'(x,u)}, the one-sided directional derivative itself."""
    return parse_oracle("exact", F)


def oracle_clarke_linear(F: PiecewiseFunction) -> GeneralizedDerivative:
    """D(x,u) = (Clarke Jacobian of F at x) applied to u."""
    return parse_oracle("clarke", F)


def oracle_branch_selection(F: PiecewiseFunction) -> GeneralizedDerivative:
    """Fixed-branch convention: the Jacobian of the lexicographically
    smallest adjacent full-dimensional cell ('-' < '+'), applied to u.

    Deterministic by construction, like an autodiff scheme that always
    resolves ties the same way (e.g. a zero-slope convention at kinks).
    """
    return parse_oracle("branch", F)


# ---------------------------------------------------------------------------
# Assumption checks

@dataclass(frozen=True, eq=False)
class AssumptionReport:
    full_domain: str                 # "pass", or "fail (...)" naming a probe
    homogeneity: str
    lipschitz: str
    lipschitz_constants: tuple[float, ...]  # |c| max ||J_p(x)||_2 per probe
    notes: tuple[str, ...] = ()


def check_assumption(D: GeneralizedDerivative, F: PiecewiseFunction,
                     probe_points) -> AssumptionReport:
    """Full domain, positive homogeneity, and local uniform Lipschitz
    continuity in the direction argument, decided from D's vertex form.

    Homogeneity holds identically for every form. The Lipschitz constant at
    a probe x is |c| max ||J_p(x)||_2 over the pieces p adjacent to x: every
    vertex of D(y, .) for y near x is c J_p(y) u with p adjacent to x, so this
    is the local modulus of u -> D(., u) at x. The line passes iff every
    constant is finite. Full domain fails, naming the first such probe, when
    an adjacent piece Jacobian has a non-finite entry. Without probe points,
    or for a handcrafted kernel without a form, all three lines read
    inconclusive.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    undecided = ("inconclusive", "inconclusive", "inconclusive", ())
    if D.form is None:
        return AssumptionReport(*undecided, notes=(
            f"oracle {D.name!r} has no vertex form: a handcrafted kernel is not decided",))
    if not probes:
        return AssumptionReport(*undecided)
    with np.errstate(over="ignore", invalid="ignore"):
        J = F.clarke_jacobians(np.array(probes))
    finite = np.isfinite(J).all(axis=(1, 2, 3))
    norms = np.full(J.shape[:2], np.inf)
    norms[finite] = np.linalg.norm(J[finite], ord=2, axis=(2, 3))
    constants = tuple(abs(D.form.c) * float(L) for L in norms.max(axis=1))
    full_domain = "pass"
    if not finite.all():
        pi = int(np.flatnonzero(~finite)[0])
        full_domain = (f"fail (probe {pi} at {tuple(map(float, probes[pi]))} "
                       "has a non-finite piece Jacobian)")
    lipschitz = "pass" if np.isfinite(constants).all() else "fail"
    return AssumptionReport(full_domain, "pass", lipschitz, constants)
