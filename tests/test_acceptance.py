"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here exactly as stated.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from stratacalc.cli import main as cli_main
from stratacalc.conditions import (
    MatrixEntry,
    check_conservative,
    check_semismooth_I,
    check_semismooth_II,
    equivalence_matrix,
)
from stratacalc.corpus import default_corpus
from stratacalc.geometry import Polytope, Subspace, subset_mod_subspace
from stratacalc.oracles import (
    oracle_clarke_linear,
    parse_oracle,
)
from stratacalc.piecewise import Curve
from stratacalc.seeding import substream
from stratacalc.solvers import newton_rate_estimate, semismooth_newton

from derivative_checks import forward_difference_slope_ok, univariate_gap
from membership_lp import member_sum_hull_lp

SEED = 7
DATA = Path(__file__).parent / "data"

# piecewise-linear corpus entries: the semismooth residual must vanish exactly
PIECEWISE_LINEAR = {"abs1d", "id1d", "max2d", "l1norm2d", "absplus"}


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def matrix_result(corpus):
    entries = []
    for fid, oid in corpus.matrix_rows:
        cf = corpus.function(fid)
        entries.append(MatrixEntry(f"{fid}:{oid}", cf.func,
                                   parse_oracle(oid, cf.func),
                                   cf.base_points, cf.curves, cf.partition))
    t0 = time.perf_counter()
    rep = equivalence_matrix(entries, seed=SEED)
    elapsed = time.perf_counter() - t0
    return rep, elapsed


def test_criterion_1_equivalence_matrix(corpus, matrix_result):
    rep, elapsed = matrix_result
    negatives = [oid for _, oid in corpus.matrix_rows
                 if oid.startswith(("scale:", "zero-strata:"))]
    ok = (len(rep.rows) >= 10 and len(negatives) >= 3
          and all(r.consistent for r in rep.rows if not r.has_inconclusive)
          and elapsed < 60.0)
    _report("1 equivalence reproduction", ok,
            f"{len(rep.rows)} rows ({len(negatives)} negative controls), "
            f"all consistent, {elapsed:.1f}s")


def test_criterion_2_clarke_semismoothness(corpus):
    worst_overall = 0.0
    worst_pl = 0.0
    ok = True
    for fid, cf in sorted(corpus.functions.items()):
        D = oracle_clarke_linear(cf.func)
        for i, x in enumerate(cf.base_points):
            rep = check_semismooth_I(cf.func, D, x,
                                     substream(SEED, fid, "acc2", i))
            if rep.verdict != "pass":
                ok = False
            last = dict(rep.residual_table)["1e-07"]
            worst_overall = max(worst_overall, last)
            if fid in PIECEWISE_LINEAR:
                worst_pl = max(worst_pl, last)
    ok = ok and worst_overall <= 1e-6 and worst_pl <= 1e-12
    _report("2 clarke semismoothness", ok,
            f"max residual at r=1e-7: {worst_overall:.2e} (<=1e-6); "
            f"piecewise-linear: {worst_pl:.2e} (<=1e-12)")


def test_criterion_3_implication_direction(matrix_result):
    rep, _ = matrix_result
    violating = [r.entry_id for r in rep.rows
                 if r.verdicts["3"] == "pass"
                 and "fail" in (r.verdicts["1"], r.verdicts["2"])]
    _report("3 condition 3 implies 1 and 2", not violating,
            f"violating rows: {violating or 'none'}")


def test_criterion_4_reflection_duality(corpus):
    rows = [("abs1d", "clarke"), ("max2d", "exact"), ("l1norm2d", "clarke")]
    worst = 0.0
    ok = True
    for fid, oid in rows:
        cf = corpus.function(fid)
        D = parse_oracle(oid, cf.func)
        for i, x in enumerate(cf.base_points):
            r1 = check_semismooth_I(cf.func, D, x,
                                    substream(SEED, fid, "acc4", i))
            r2 = check_semismooth_II(cf.func, parse_oracle("reflect:" + oid, cf.func), x,
                                     substream(SEED, fid, "acc4", i))
            a = np.array(r1.sample_residuals, dtype=float)
            b = np.array(r2.sample_residuals, dtype=float)
            if a.shape != b.shape:
                ok = False
                continue
            mask = ~(np.isnan(a) | np.isnan(b))
            gap = float(np.max(np.abs(a[mask] - b[mask]))) if mask.any() else 0.0
            worst = max(worst, gap)
    ok = ok and worst <= 1e-9
    _report("4 reflection duality", ok,
            f"max sample-for-sample residual gap {worst:.2e} (<=1e-9) on 3 rows")


def test_criterion_5_subset_mod_subspace_oracle():
    rng = np.random.default_rng(SEED)
    disagreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        A = Polytope(rng.normal(size=(int(rng.integers(1, 4)), n)))
        B = Polytope(rng.normal(size=(int(rng.integers(1, 4)), n)))
        kv = int(rng.integers(0, n))
        V = (Subspace.from_spanning(rng.normal(size=(kv, n)), n)
             if kv else Subspace.zero(n))
        got = subset_mod_subspace(A, B, V)
        samples = list(A.vertices)
        w = rng.dirichlet(np.ones(A.n_vertices), size=100)
        samples.extend(list(w @ A.vertices))
        want = all(member_sum_hull_lp(s, B.vertices, V.basis)
                   for s in samples)
        disagreements += int(got != want)
    _report("5 subset-mod-subspace vs brute force", disagreements == 0,
            f"{disagreements} disagreements on 100 instances in dims 2-4")


def test_criterion_6_chain_rule_exactness(corpus):
    cf = corpus.function("abs1d")
    D = oracle_clarke_linear(cf.func)
    rng = substream(SEED, "acc6-curves")
    curves = [Curve.from_coeffs(rng.uniform(-2, 2, size=(1, 4)))
              for _ in range(20)]
    rep = check_conservative(cf.func, D, curves)
    # the verdict rule is exactly the criterion: the chain rule holds at
    # every Chebyshev node of every composed subinterval, which decides it
    # on the whole subinterval, hence at almost every time
    _report("6 chain-rule exactness", rep.verdict == "pass",
            f"verdict {rep.verdict} over 20 random curves "
            f"({len(rep.witnesses)} genuine failures)")


def test_criterion_7_newton_rates(corpus):
    absplus = corpus.function("absplus").func
    t1 = semismooth_newton(absplus, "clarke", [2.0])
    ok1 = (t1.converged and len(t1.iterates) - 1 <= 2
           and t1.residual_norms[-1] <= 1e-12)

    relukink = corpus.function("relukink").func
    t2 = semismooth_newton(relukink, "clarke", [2.0])
    r2 = newton_rate_estimate(t2, root=[1.0])
    ok2 = t2.converged and len(t2.iterates) - 1 <= 6 and min(r2) < 1e-3

    id1d = corpus.function("id1d").func
    t3 = semismooth_newton(id1d, parse_oracle("scale:2", id1d), [1.0])
    r3 = newton_rate_estimate(t3, root=[0.0])
    ok3 = bool(r3) and all(abs(r - 0.5) <= 1e-6 for r in r3)

    _report("7 newton rates", ok1 and ok2 and ok3,
            f"absplus {len(t1.iterates) - 1} it residual {t1.residual_norms[-1]!r}; "
            f"relukink min ratio {min(r2):.1e} in {len(t2.iterates) - 1} it; "
            f"scale:2 ratios all 0.5 ({len(r3)} ratios)")


def test_criterion_8_univariate_semismoothness(corpus):
    worst = univariate_gap([cf.func for _, cf in sorted(corpus.functions.items())],
                           substream(SEED, "acc8"), 20)
    _report("8 univariate semismoothness", worst <= 1e-8,
            f"max |velocity(0) - derivative limit| = {worst:.2e} (<=1e-8), "
            f"20 curves x {len(corpus.functions)} functions")


def test_criterion_9_determinism(tmp_path):
    paths = [tmp_path / "m1.txt", tmp_path / "m2.txt"]
    for p in paths:
        code = cli_main(["matrix", "--seed", str(SEED), "--output", str(p)])
        assert code == 0
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    golden = (DATA / "matrix_seed7.txt").read_bytes()
    _report("9 determinism", b1 == b2 and b1 == golden,
            f"two cmd_matrix runs, {len(b1)} bytes, byte-identical={b1 == b2}, "
            f"matches tests/data/matrix_seed7.txt={b1 == golden}")


def test_criterion_10_finite_difference_cross_check(corpus):
    rng = substream(SEED, "acc10")
    bad = 0
    total = 0
    for fid, cf in sorted(corpus.functions.items()):
        F = cf.func
        for _ in range(100):
            x = rng.uniform(-5, 5, size=F.ambient_dim)
            u = rng.normal(size=F.ambient_dim)
            ok, slope = forward_difference_slope_ok(F, x, u,
                                                    ts=(1e-3, 1e-4, 1e-5),
                                                    min_slope=0.9)
            total += 1
            bad += int(not ok)
    _report("10 finite-difference cross-check", bad == 0,
            f"{bad}/{total} samples with slope < 0.9 "
            f"(100 random (x,u) per corpus function)")
