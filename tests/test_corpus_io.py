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
    list(default_corpus().functions.values())   # builds every function
    assert calls == []


def test_default_corpus_is_the_same_in_any_access_order():
    # every random curve is drawn before any function is built
    in_order = corpus_to_json(default_corpus())
    reverse = default_corpus()
    for fid in reversed(list(reverse.functions)):
        reverse.functions[fid]
    assert corpus_to_json(reverse) == in_order
    single = default_corpus()
    assert corpus_to_json(Corpus({"pwq2d": single.function("pwq2d")})) == corpus_to_json(
        Corpus({"pwq2d": default_corpus().function("pwq2d")}))


@pytest.fixture
def constructed(monkeypatch):
    """Counts of the objects a corpus function is made of, by type name."""
    counts = {}
    for cls in (PiecewiseFunction, Arrangement, Polynomial, Curve):
        def counted(self, _post=cls.__post_init__, _name=cls.__name__):
            counts[_name] = counts.get(_name, 0) + 1
            _post(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_default_corpus_builds_nothing_before_the_first_access(constructed):
    corpus = default_corpus()
    assert list(corpus.functions) == ["abs1d", "id1d", "max2d", "relukink",
                                      "absplus", "l1norm2d", "maxreg2d", "pwq2d"]
    assert len(corpus.functions) == 8
    assert constructed == {}
    cf = corpus.function("abs1d")
    assert constructed["PiecewiseFunction"] == 1
    assert corpus.function("abs1d") is cf           # built once
    assert constructed["PiecewiseFunction"] == 1
    assert "pwq2d" in corpus.functions and "nope" not in corpus.functions
    with pytest.raises(TypeError):
        corpus.functions["abs1d"] = cf              # read-only


def test_two_default_corpora_share_no_function_or_arrangement():
    a, b = default_corpus(), default_corpus()
    parts = [{id(p) for cf in c.functions.values()
              for p in (cf.func, cf.func.arrangement, cf.partition)} for c in (a, b)]
    assert len(parts[0]) == len(parts[1]) == 3 * 8 and not parts[0] & parts[1]


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


def test_curve_boundary_key_of_older_files_is_ignored(corpus):
    doc = json.loads(corpus_to_json(corpus))
    assert all("boundary" not in c for fd in doc["functions"] for c in fd["curves"])
    for fd in doc["functions"]:
        for c in fd["curves"]:
            c["boundary"] = [True] * len(c["pieces"])
    assert corpus_to_json(corpus_from_json(json.dumps(doc))) == corpus_to_json(corpus)


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


def test_validation_base_point_outside_box():
    cf = default_corpus().function("abs1d")
    for x, ok in (([50.0], False), ([10.0], True), ([-10.0], True)):
        c = Corpus(functions={"abs1d": CorpusFunction(
            "abs1d", cf.func, (np.array(x),), cf.curves, cf.partition)})
        if ok:
            c.validate()      # the box boundary belongs to the box
        else:
            with pytest.raises(PiecewiseError, match=r"'abs1d'.*base point.*50"):
                c.validate()


def test_base_point_outside_box_exits_one(tmp_path, capsys):
    # regression: every sweep sample around it was dropped, exit 3
    from stratacalc.cli import main
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_set(base_points=[[50.0]])()))
    assert main(["check", "--corpus", str(path), "--function", "abs1d",
                 "--oracle", "clarke", "--conditions", "1"]) == 1
    assert "base point" in capsys.readouterr().err


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
    assert validate_continuity(F).ok
    # genuine kinks across both facets
    J = F.clarke_jacobian([-1.0, 0.3])
    assert J.n_vertices == 2
    assert not np.allclose(J.vertices[0], J.vertices[1])


# ---------------------------------------------------------------------------
# malformed corpus files: a PiecewiseError naming the function and the field

def _abs1d_doc():
    doc = json.loads(corpus_to_json(default_corpus()))
    doc["functions"] = [fd for fd in doc["functions"] if fd["id"] == "abs1d"]
    doc["matrix_rows"] = [["abs1d", "clarke"]]
    return doc


def _edit(fn):
    """A document maker: the abs1d document after fn(doc, its function)."""
    def make():
        doc = _abs1d_doc()
        fn(doc, doc["functions"][0])
        return doc
    return make


def _set(**fields):
    return _edit(lambda doc, fd: fd.update(fields))


MALFORMED = {
    "top-level list": (lambda: [], r"JSON object"),
    "functions not a list": (_edit(lambda doc, fd: doc.update(functions={})),
                             r"'functions'"),
    "function not an object": (_edit(lambda doc, fd: doc.update(functions=[3])),
                               r"function 0"),
    "missing ambient_dim": (_edit(lambda doc, fd: fd.pop("ambient_dim")),
                            r"'abs1d'.*'ambient_dim'"),
    "offset not a number": (_set(hyperplanes=[{"normal": [1.0], "offset": "abc"}]),
                            r"'abs1d'.*'hyperplanes'"),
    "infinite offset": (_set(hyperplanes=[{"normal": [1.0], "offset": 1e999}]),
                        r"'abs1d'.*'hyperplanes'"),
    "nan curve coefficient": (_set(curves=[{"breakpoints": [0.0, 1.0],
                                            "pieces": [[[float("nan"), 1.0]]]}]),
                              r"'abs1d'.*'curves'"),
    "nan piece coefficient": (_set(pieces={"-": [[[[1], float("nan")]]],
                                           "+": [[[[1], 1.0]]]}),
                              r"'abs1d'.*'pieces'"),
    "negative exponent": (_set(pieces={"-": [[[[-1], -1.0]]], "+": [[[[1], 1.0]]]}),
                          r"'abs1d'.*'pieces'"),
    "fractional exponent": (_set(pieces={"-": [[[[1], -1.0]]], "+": [[[[1.5], 1.0]]]}),
                            r"'abs1d'.*'pieces'.*1\.5"),
    "huge exponent": (_set(pieces={"-": [[[[1], -1.0]]], "+": [[[[10**400], 1.0]]]}),
                      r"'abs1d'.*'pieces'"),
    "breakpoints short of 1": (_set(curves=[{"breakpoints": [0.0, 0.5],
                                             "pieces": [[[0.0, 1.0]]]}]),
                               r"'abs1d'.*'curves'"),
    "2-D base point of a 1-D function": (_set(base_points=[[0.0, 1.0]]),
                                         r"'abs1d'.*'base_points'"),
    "infinite base point": (_set(base_points=[[1e999]]),
                            r"'abs1d'.*'base_points'"),
    "nan minimizer": (_set(minimizer=[float("nan")]), r"'abs1d'.*'minimizer'"),
    "2-D minimizer of a 1-D function": (_set(minimizer=[0.0, 0.0]),
                                        r"'abs1d'.*'minimizer'"),
    "duplicate function id": (_edit(lambda doc, fd: doc["functions"].append(fd)),
                              r"duplicate id 'abs1d'"),
    "matrix row not a pair": (_edit(lambda doc, fd: doc.update(matrix_rows=[["abs1d"]])),
                              r"'matrix_rows'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_corpus_raises_piecewise_error_naming_field(case):
    make, named = MALFORMED[case]
    with pytest.raises(PiecewiseError, match=named):
        corpus_from_json(json.dumps(make()))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_corpus_file_exits_one(tmp_path, capsys, case):
    # regression: each of these ended in a traceback (or, for 1e999, exit 0)
    from stratacalc.cli import main
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[case][0]()))
    assert main(["matrix", "--corpus", str(path)]) == 1
    assert "error: cannot load corpus" in capsys.readouterr().err
