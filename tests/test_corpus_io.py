import json

import numpy as np
import pytest

from stratacalc.corpus import (
    Corpus,
    CorpusFunction,
    corpus_from_json,
    corpus_to_json,
    default_corpus,
    load_corpus,
    save_corpus,
)
from stratacalc.piecewise import (
    Arrangement,
    Curve,
    Hyperplane,
    PiecewiseError,
    PiecewiseFunction,
    Polynomial,
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


def test_default_corpus_contents(corpus):
    assert set(corpus.functions) == {"abs1d", "id1d", "max2d", "relukink",
                                     "absplus", "l1norm2d", "maxreg2d", "pwq2d"}
    assert len(corpus.matrix_rows) >= 10
    negatives = [oid for _, oid in corpus.matrix_rows
                 if oid.startswith(("scale:", "zero-strata:"))]
    assert len(negatives) >= 3


def test_default_corpus_validates(corpus):
    corpus.validate()


def test_default_corpus_solves_no_cell_lp(monkeypatch):
    # the built-in corpus is constant data, validated once above
    calls = []
    solve = Arrangement._solve_cell_lp
    monkeypatch.setattr(Arrangement, "_solve_cell_lp",
                        lambda arr, sign: calls.append(sign) or solve(arr, sign))
    default_corpus()
    assert calls == []


def test_default_corpus_base_points_include_kinks(corpus):
    # every function with strata designates at least one base point on them
    for fid, cf in corpus.functions.items():
        arr = cf.func.arrangement
        if arr.k == 0:
            continue
        assert any("0" in arr.sign_vector(x) for x in cf.base_points), fid


def test_default_corpus_has_stratum_tangent_curves(corpus):
    # curve corpus must include curves traveling inside positive-dim strata:
    # some hyperplane stays active along the whole curve
    for fid in ("max2d", "l1norm2d", "pwq2d"):
        cf = corpus.functions[fid]
        arr = cf.func.arrangement
        found = False
        for curve in cf.curves:
            svs = [arr.sign_vector(curve.value(t)) for t in (0.25, 0.5, 0.75)]
            if any(all(sv[i] == "0" for sv in svs) for i in range(arr.k)):
                found = True
        assert found, fid


def test_roundtrip_text_identical(corpus):
    t1 = corpus_to_json(corpus)
    t2 = corpus_to_json(corpus_from_json(t1))
    assert t1 == t2


def test_roundtrip_format_guard():
    with pytest.raises(PiecewiseError, match="format"):
        corpus_from_json(json.dumps({"format": "other/9"}))
    with pytest.raises(PiecewiseError, match="JSON"):
        corpus_from_json("{not json")


def test_load_save_files(tmp_path, corpus):
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert corpus_to_json(loaded) == corpus_to_json(corpus)


def test_validation_missing_piece_names_sign_vector():
    arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
    F = PiecewiseFunction(arr, 1, {"+": (Polynomial.coordinate(1, 0),)})
    broken = Corpus(functions={"bad": CorpusFunction(
        "bad", F, (np.array([0.0]),), (Curve.from_coeffs([[0.0, 1.0]]),),
        Arrangement(1, ()))})
    with pytest.raises(PiecewiseError, match="'-'"):
        broken.validate()


def test_validation_curve_outside_box():
    arr = Arrangement(1, ())
    F = PiecewiseFunction(arr, 1, {"": (Polynomial.coordinate(1, 0),)},
                          box_halfwidth=1.0)
    out = Corpus(functions={"f": CorpusFunction(
        "f", F, (np.array([0.0]),), (Curve.from_coeffs([[0.0, 5.0]]),),
        Arrangement(1, ()))})
    with pytest.raises(PiecewiseError, match="bounding box"):
        out.validate()


def test_matrix_row_unknown_function():
    arr = Arrangement(1, ())
    F = PiecewiseFunction(arr, 1, {"": (Polynomial.coordinate(1, 0),)})
    c = Corpus(functions={"f": CorpusFunction(
        "f", F, (np.array([0.0]),), (Curve.from_coeffs([[0.0, 1.0]]),),
        Arrangement(1, ()))}, matrix_rows=(("ghost", "clarke"),))
    with pytest.raises(PiecewiseError, match="ghost"):
        c.validate()


def test_pwq2d_infeasible_cell(corpus):
    arr = corpus.functions["pwq2d"].func.arrangement
    assert not arr.cell_nonempty("-+")
    assert set(arr.full_dim_signs()) == {"--", "+-", "++"}


def test_pwq2d_continuity_and_kinks(corpus):
    from stratacalc.piecewise import validate_continuity
    F = corpus.functions["pwq2d"].func
    assert validate_continuity(F, seed=1).ok
    # genuine kinks across both facets
    J = F.clarke_jacobian([-1.0, 0.3])
    assert J.n_vertices == 2
    assert not np.allclose(J.vertices[0], J.vertices[1])
