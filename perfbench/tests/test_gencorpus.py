"""The generated corpus round-trips, is continuous, and carries the base
points and curves the matrix-generated workload relies on."""

import numpy as np
import pytest

from stratacalc import load_corpus, save_corpus, validate_continuity
from stratacalc.corpus import FORMAT_TAG, corpus_to_json

from gencorpus import generate_corpus
from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES

ON = 1e-9


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES)


def _residuals(cf, x):
    arr = cf.func.arrangement
    return np.abs(arr.normals @ x - arr.offsets)


def test_file_round_trips(corpus, tmp_path):
    path = tmp_path / "gen.json"
    save_corpus(corpus, path)
    text = path.read_text()
    assert f'"format": "{FORMAT_TAG}"' in text
    assert corpus_to_json(load_corpus(path)) == text


def test_same_seed_same_corpus():
    a = generate_corpus(3, GENERATED_SHAPES)
    b = generate_corpus(3, GENERATED_SHAPES)
    assert corpus_to_json(a) == corpus_to_json(b)


def test_functions_are_continuous(corpus):
    for cf in corpus.functions.values():
        report = validate_continuity(cf.func, seed=0)
        assert report.ok and report.pairs_checked > 0, cf.fid


def test_shapes_and_rows(corpus):
    shapes = [(cf.func.ambient_dim, cf.func.arrangement.k)
              for cf in corpus.functions.values()]
    assert shapes == list(GENERATED_SHAPES)
    assert [oid for _, oid in corpus.matrix_rows] == ["clarke", "scale:2"] * len(shapes)


def test_base_points_hit_a_hyperplane_and_a_vertex(corpus):
    for cf in corpus.functions.values():
        n = cf.func.ambient_dim
        normals = cf.func.arrangement.normals
        hits = [np.flatnonzero(_residuals(cf, x) <= ON) for x in cf.base_points]
        assert any(len(h) >= 1 for h in hits), cf.fid
        vertex = [h for h in hits if len(h) >= n
                  and np.linalg.matrix_rank(normals[h]) == n]
        assert vertex, f"{cf.fid}: no vertex base point"
        for x in cf.base_points:
            assert np.all(np.abs(x) < cf.func.box_halfwidth)


def test_a_curve_runs_inside_a_hyperplane(corpus):
    ts = np.linspace(0.0, 1.0, 17)
    for cf in corpus.functions.values():
        inside = [c for c in cf.curves
                  if np.any(np.all([_residuals(cf, c.value(t)) <= ON for t in ts], axis=0))]
        assert inside, cf.fid
        cubic = [c for c in cf.curves if c.pieces[0].shape[1] == 4]
        assert cubic, f"{cf.fid}: no cubic curve"
