"""Brute-force reference for subset_mod_subspace (acceptance criterion 5)."""

import numpy as np
from scipy.optimize import linprog

LP_MEMBER_TOL = 1e-9   # L1 slack below which member_sum_hull_lp reports membership


def member_sum_hull_lp(point, b_vertices, v_basis) -> bool:
    """Brute-force membership of point in conv(B) + span(V): an L1-slack LP
    (HiGHS) whose optimum is zero exactly for members. Raises RuntimeError
    when HiGHS does not solve the LP."""
    point = np.asarray(point, float)
    bv = np.atleast_2d(np.asarray(b_vertices, float))
    n = point.size
    kb, kv = bv.shape[0], v_basis.shape[0]
    # variables: lam (>=0), mu (free), e+ (>=0), e- (>=0)
    blocks = [bv.T]
    if kv:
        blocks.append(v_basis.T)
    blocks += [np.eye(n), -np.eye(n)]
    A_eq = np.vstack([np.hstack(blocks),
                      np.concatenate([np.ones(kb), np.zeros(kv + 2 * n)])])
    b_eq = np.append(point, 1.0)
    c = np.concatenate([np.zeros(kb + kv), np.ones(2 * n)])
    bounds = [(0, None)] * kb + [(None, None)] * kv + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"membership LP not solved: {res.message}")
    return bool(res.fun <= LP_MEMBER_TOL)
