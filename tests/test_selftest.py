import numpy as np
import pytest

from stratacalc.corpus import default_corpus
from stratacalc.selftest import (
    SelftestContext,
    available_groups,
    base_anchored_residual,
    run_selftest,
)


@pytest.fixture(scope="module")
def results():
    return run_selftest(SelftestContext())


def test_all_groups_present():
    assert set(available_groups()) == {"piecewise", "oracles", "conditions",
                                       "solvers", "corpus"}


def test_fast_suite_all_pass(results):
    failed = [f"{r.group}/{r.name}: {r.detail}" for r in results
              if not r.passed]
    assert not failed, failed


def test_every_group_has_checks(results):
    groups = {r.group for r in results}
    assert groups == set(available_groups())


def test_selftest_draws_no_random_numbers(monkeypatch):
    # the corpus draws its curves when the context is built; every check is
    # then decided on fixed rows and draws nothing
    ctx = SelftestContext()

    def no_draws(*args, **kwargs):
        raise AssertionError("selftest drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    results = run_selftest(ctx)
    assert len(results) == 13
    failed = [f"{r.group}/{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed


def test_expansion_residual_vanishes_at_the_l1norm2d_origin():
    # the base point where the radius sweep of seed 2 failed: its row at
    # r = 1e-7 lay 9.8e-11 from the axis y = 0 and took F(y) from the far piece
    F = default_corpus().function("l1norm2d").func
    assert base_anchored_residual(F, [0.0, 0.0]) == 0.0


def test_group_filter():
    results = run_selftest(SelftestContext(), group_filter="oracles")
    assert results and all(r.group == "oracles" for r in results)


def test_corrupted_tolerance_detected(monkeypatch):
    monkeypatch.setattr("stratacalc.selftest.EPS_EQ", 1e3)
    results = run_selftest(SelftestContext(), group_filter="conditions")
    names = {r.name: r.passed for r in results}
    assert names["first-order expansion anchored at the base point"] is False


def test_crashing_check_reports_failure():
    import stratacalc.selftest as st

    def boom(ctx):
        raise RuntimeError("kaput")

    st._REGISTRY.append(("corpus", "synthetic crash", boom))
    try:
        results = run_selftest(SelftestContext(), group_filter="corpus")
        crash = [r for r in results if r.name == "synthetic crash"][0]
        assert not crash.passed and "kaput" in crash.detail
    finally:
        st._REGISTRY.pop()
