"""Seeded generator of continuous piecewise-linear corpora.

Each generated function is F(x) = sum_i c_i |a_i . x - b_i| over the
arrangement of its k hyperplanes a_i . x = b_i. Every term vanishes on its
own hyperplane, so the pieces agree on shared facets by construction. The
first n hyperplanes pass through one common vertex inside the box, which
gives each function a vertex base point and a line inside a hyperplane that
crosses the others there.

The corpus is built with the public API only and written with
``stratacalc.save_corpus`` in the ``stratacalc-corpus/1`` format.
"""

from __future__ import annotations

import numpy as np

from stratacalc import (
    Arrangement,
    Corpus,
    Curve,
    Hyperplane,
    PiecewiseFunction,
    Polynomial,
)
from stratacalc.corpus import CorpusFunction

VERTEX_RANGE = 3.0      # the common vertex lies in [-3, 3]^n, well inside the box
OFFSET_RANGE = 4.0      # offsets of the remaining hyperplanes
LINE_HALF_LENGTH = 2.0  # the in-hyperplane line runs vertex +/- 2 * w
ROWS = ("clarke", "scale:2")


def _piece(n: int, normals: np.ndarray, offsets: np.ndarray,
           weights: np.ndarray, sign: str) -> Polynomial:
    s = np.array([1.0 if c == "+" else -1.0 for c in sign])
    lin = (weights * s) @ normals
    const = -float((weights * s) @ offsets)
    terms = [(tuple(int(i == j) for i in range(n)), float(lin[j])) for j in range(n)]
    terms.append(((0,) * n, const))
    return Polynomial.from_terms(n, terms)


def generate_function(fid: str, n: int, k: int,
                      rng: np.random.Generator) -> CorpusFunction:
    """One sum-of-absolute-values function with k >= n hyperplanes in R^n."""
    if k < n:
        raise ValueError("need k >= n hyperplanes for a vertex base point")
    normals = rng.normal(size=(k, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    vertex = rng.uniform(-VERTEX_RANGE, VERTEX_RANGE, size=n)
    offsets = rng.uniform(-OFFSET_RANGE, OFFSET_RANGE, size=k)
    offsets[:n] = normals[:n] @ vertex
    weights = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)

    arr = Arrangement(n, tuple(Hyperplane(normals[i], float(offsets[i]))
                               for i in range(k)))
    pieces = {}
    for bits in range(2 ** k):
        sign = "".join("+" if bits >> (k - 1 - i) & 1 else "-" for i in range(k))
        pieces[sign] = (_piece(n, normals, offsets, weights, sign),)
    func = PiecewiseFunction(arr, 1, pieces,
                             lipschitz_hint=float(np.sum(np.abs(weights))))

    generic = rng.uniform(-VERTEX_RANGE, VERTEX_RANGE, size=n)
    a, b = normals[-1], offsets[-1]
    on_plane = generic - (a @ generic - b) * a      # on the last hyperplane
    w = rng.normal(size=n)
    w -= (w @ normals[0]) * normals[0]              # tangent to hyperplane 0
    w /= np.linalg.norm(w)
    line = Curve.from_coeffs([[vertex[j] - LINE_HALF_LENGTH * w[j],
                               2.0 * LINE_HALF_LENGTH * w[j]] for j in range(n)])
    cubic = Curve.from_coeffs(rng.uniform(-2.0, 2.0, size=(n, 4)))
    return CorpusFunction(
        fid=fid, func=func,
        base_points=(generic, on_plane, vertex),
        curves=(cubic, line),
        partition=Arrangement(n, ()),
        comment=f"generated sum of {k} absolute values in R^{n}")


def generate_corpus(seed: int, shapes) -> Corpus:
    """Corpus with one function per (n, k) in `shapes`, each bound to an
    honest `clarke` row and a `scale:2` negative control."""
    rng = np.random.default_rng(seed)
    functions = {}
    for j, (n, k) in enumerate(shapes):
        fid = f"gen{j}_n{n}k{k}"
        functions[fid] = generate_function(fid, n, k, rng)
    rows = tuple((fid, oid) for fid in functions for oid in ROWS)
    corpus = Corpus(functions=functions, matrix_rows=rows)
    corpus.validate()
    return corpus
