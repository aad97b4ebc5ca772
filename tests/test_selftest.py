import pytest

from stratacalc.selftest import SelftestContext, available_groups, run_selftest


@pytest.fixture(scope="module")
def results():
    return run_selftest(SelftestContext())


def test_all_groups_present():
    assert set(available_groups()) == {"geometry", "piecewise", "oracles",
                                       "conditions", "solvers", "corpus"}


def test_fast_suite_all_pass(results):
    failed = [f"{r.group}/{r.name}: {r.detail}" for r in results
              if not r.passed]
    assert not failed, failed


def test_every_group_has_checks(results):
    groups = {r.group for r in results}
    assert groups == set(available_groups())


def test_group_filter():
    results = run_selftest(SelftestContext(), group_filter="oracles")
    assert results and all(r.group == "oracles" for r in results)


def test_corrupted_tolerance_detected(monkeypatch):
    monkeypatch.setattr("stratacalc.selftest.EPS_EQ", 1e3)
    results = run_selftest(SelftestContext(), group_filter="geometry")
    names = {r.name: r.passed for r in results}
    assert names["hausdorff is a metric that separates sets"] is False


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
