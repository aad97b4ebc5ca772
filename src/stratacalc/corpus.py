"""Corpus of piecewise-polynomial test problems and its file format.

The declarative corpus format (versioned ``stratacalc-corpus/1``) stores
arrangements as (normal, offset) pairs, pieces keyed by sign-vector strings,
polynomials as (exponent tuple, coefficient) term lists, and curves as
breakpointed coefficient lists. Serialization is JSON, which round-trips
float coefficients bit-exactly. Loading rejects a malformed file with a
PiecewiseError that names the function and the field.

The shipped default corpus covers kinks at points, lines, and their
intersections: abs1d, id1d, max2d, relukink, absplus, l1norm2d, maxreg2d,
and a three-piece piecewise-quadratic 2-D map over parallel hyperplanes
(which also exercises infeasible sign vectors). Matrix rows bind these to
positive oracles and to scale/zero-strata negative controls.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .geometry import MAX_DIM, as_vector
from .piecewise import (
    Arrangement,
    Curve,
    Hyperplane,
    PiecewiseError,
    PiecewiseFunction,
    Polynomial,
)
from .seeding import substream

FORMAT_TAG = "stratacalc-corpus/1"
_CORPUS_SEED = 20240  # fixed: the shipped corpus is part of the artifact


@dataclass(frozen=True, eq=False)
class CorpusFunction:
    fid: str
    func: PiecewiseFunction
    base_points: tuple[np.ndarray, ...]
    curves: tuple[Curve, ...]
    partition: Arrangement
    minimizer: np.ndarray | None = None
    comment: str = ""


@dataclass(frozen=True, eq=False)
class Corpus:
    functions: Mapping[str, CorpusFunction]
    matrix_rows: tuple[tuple[str, str], ...] = ()

    def function(self, fid: str) -> CorpusFunction:
        if fid not in self.functions:
            raise KeyError(f"unknown function id {fid!r}")
        return self.functions[fid]

    def validate(self) -> None:
        """Structural validation: pieces cover all nonempty full cells,
        matrix rows reference known functions, base points and curves live
        in the boxes (curves with exact signs, by `Curve.leaves_box`)."""
        for fid, cf in self.functions.items():
            try:
                cf.func.validate()
            except PiecewiseError as exc:
                raise PiecewiseError(f"function {fid!r}: {exc}") from None
            for x in cf.base_points:
                if np.max(np.abs(x)) > cf.func.box_halfwidth:
                    raise PiecewiseError(f"function {fid!r}: base point {x.tolist()} "
                                         "lies outside the bounding box")
            for curve in cf.curves:
                if curve.dim != cf.func.ambient_dim:
                    raise PiecewiseError(f"function {fid!r}: curve dimension mismatch")
                if curve.leaves_box(cf.func.box_halfwidth):
                    raise PiecewiseError(f"function {fid!r}: curve leaves the bounding box")
        for fid, _oracle in self.matrix_rows:
            if fid not in self.functions:
                raise PiecewiseError(f"matrix row references unknown function {fid!r}")


# ---------------------------------------------------------------------------
# serialization

def _poly_to_json(p: Polynomial):
    return [[list(e), c] for e, c in p.terms()]


def _finite(values):
    """float array of values; ValueError if any entry is nan or inf."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("numbers must be finite")
    return arr


def _poly_from_json(num_vars: int, data) -> Polynomial:
    return Polynomial.from_terms(num_vars,
                                 [(tuple(e), float(_finite(c))) for e, c in data])


def _hyperplanes_to_json(arr: Arrangement):
    return [{"normal": list(map(float, h.normal)), "offset": float(h.offset)}
            for h in arr.hyperplanes]


def _arrangement_from_json(n: int, data) -> Arrangement:
    return Arrangement(n, tuple(Hyperplane(d["normal"], float(_finite(d["offset"])))
                                for d in data))


def _curve_to_json(c: Curve):
    return {"breakpoints": [float(t) for t in c.breakpoints],
            "pieces": [[list(map(float, row)) for row in piece] for piece in c.pieces]}


def _curve_from_json(data) -> Curve:
    return Curve(_finite(data["breakpoints"]),
                 tuple(_finite(piece) for piece in data["pieces"]))


def corpus_to_json(corpus: Corpus) -> str:
    doc = {"format": FORMAT_TAG, "functions": [], "matrix_rows": []}
    for fid in corpus.functions:
        cf = corpus.functions[fid]
        F = cf.func
        doc["functions"].append({
            "id": fid,
            "ambient_dim": F.ambient_dim,
            "output_dim": F.output_dim,
            "hyperplanes": _hyperplanes_to_json(F.arrangement),
            "pieces": {sign: [_poly_to_json(p) for p in polys]
                       for sign, polys in sorted(F.pieces.items())},
            "lipschitz_hint": F.lipschitz_hint,
            "box_halfwidth": F.box_halfwidth,
            "base_points": [[float(v) for v in x] for x in cf.base_points],
            "curves": [_curve_to_json(c) for c in cf.curves],
            "partition": _hyperplanes_to_json(cf.partition),
            "minimizer": (None if cf.minimizer is None
                          else [float(v) for v in cf.minimizer]),
            "comment": cf.comment,
        })
    doc["matrix_rows"] = [[fid, oid] for fid, oid in corpus.matrix_rows]
    return json.dumps(doc, indent=1)


_REQUIRED = object()


def _field(fd: dict, fid: str, name: str, parse, default=_REQUIRED):
    """parse(fd[name]); a missing or malformed field raises a PiecewiseError
    that names the function and the field."""
    if name not in fd:
        if default is _REQUIRED:
            raise PiecewiseError(f"function {fid!r}: missing field {name!r}")
        return default
    try:
        return parse(fd[name])
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError) as exc:
        raise PiecewiseError(f"function {fid!r}: bad field {name!r}: {exc}") from None


def _dim(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_DIM:
        raise ValueError(f"expected an integer in 1..{MAX_DIM}, got {value!r}")
    return value


def _positive(value) -> float:
    if not float(_finite(value)) > 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return float(value)


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _function_from_json(fid: str, fd: dict) -> CorpusFunction:
    n = _field(fd, fid, "ambient_dim", _dim)
    m = _field(fd, fid, "output_dim", _dim)
    point = partial(as_vector, dim=n)
    arr = _field(fd, fid, "hyperplanes", lambda d: _arrangement_from_json(n, d))
    hint = _field(fd, fid, "lipschitz_hint", _optional(_positive), None)
    box = _field(fd, fid, "box_halfwidth", _positive, 10.0)
    func = _field(fd, fid, "pieces", lambda d: PiecewiseFunction(
        arr, m, {sign: tuple(_poly_from_json(n, pj) for pj in polys)
                 for sign, polys in d.items()},
        lipschitz_hint=hint, box_halfwidth=box))
    return CorpusFunction(
        fid=fid,
        func=func,
        base_points=_field(fd, fid, "base_points", lambda d: tuple(map(point, d))),
        curves=_field(fd, fid, "curves", lambda d: tuple(map(_curve_from_json, d))),
        partition=_field(fd, fid, "partition", lambda d: _arrangement_from_json(n, d),
                         Arrangement(n, ())),
        minimizer=_field(fd, fid, "minimizer", _optional(point), None),
        comment=_field(fd, fid, "comment", str, ""),
    )


def corpus_from_json(text: str) -> Corpus:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PiecewiseError(f"corpus is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PiecewiseError(f"corpus must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_TAG:
        raise PiecewiseError(
            f"unsupported corpus format {doc.get('format')!r}, expected {FORMAT_TAG!r}")
    fds = doc.get("functions", [])
    if not isinstance(fds, list):
        raise PiecewiseError("corpus field 'functions' must be a list")
    functions: dict[str, CorpusFunction] = {}
    for i, fd in enumerate(fds):
        if not isinstance(fd, dict) or not isinstance(fd.get("id"), str):
            raise PiecewiseError(f"function {i}: expected an object with a string 'id'")
        if fd["id"] in functions:
            raise PiecewiseError(f"function {i}: duplicate id {fd['id']!r}")
        functions[fd["id"]] = _function_from_json(fd["id"], fd)
    rows = doc.get("matrix_rows", [])
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == 2
                    and all(isinstance(v, str) for v in r) for r in rows)):
        raise PiecewiseError(
            "corpus field 'matrix_rows' must be a list of [function id, oracle id] pairs")
    return Corpus(functions=functions, matrix_rows=tuple(map(tuple, rows)))


def load_corpus(path) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        corpus = corpus_from_json(fh.read())
    corpus.validate()
    return corpus


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_json(corpus))


# ---------------------------------------------------------------------------
# default corpus

def _p(num_vars, terms):
    return Polynomial.from_terms(num_vars, terms)


class _LazyFunctions(Mapping):
    """Read-only id -> CorpusFunction mapping over memoized builders."""

    def __init__(self, builders: dict):
        self._builders = builders

    def __getitem__(self, fid: str) -> CorpusFunction:
        return self._builders[fid]()

    def __iter__(self):
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)


def default_corpus() -> Corpus:
    """The shipped corpus; each function is built on its first access."""

    def add(fid, func, base_points, curves, partition=None, minimizer=None,
            comment=""):
        return CorpusFunction(
            fid=fid, func=func,
            base_points=tuple(np.array(x, dtype=float) for x in base_points),
            curves=tuple(curves),
            partition=partition or Arrangement(func.ambient_dim, ()),
            minimizer=None if minimizer is None else np.array(minimizer, dtype=float),
            comment=comment)

    def abs1d(fid, rand):   # |x|
        arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
        func = PiecewiseFunction(arr, 1, {
            "-": (_p(1, [((1,), -1.0)]),),
            "+": (_p(1, [((1,), 1.0)]),),
        }, lipschitz_hint=1.0)
        return add(fid, func,
                   [[0.0], [0.7], [-1.3]],
                   [Curve.from_coeffs([[-1.0, 2.0]]),          # transversal crossing
                    Curve.from_coeffs([[0.0]]),                # constant curve at the kink
                    *map(Curve.from_coeffs, rand)],
                   minimizer=[0.0],
                   comment="absolute value: kink at a point")

    def id1d(fid, rand):   # identity
        func = PiecewiseFunction(Arrangement(1, ()), 1,
                                 {"": (_p(1, [((1,), 1.0)]),)}, lipschitz_hint=1.0)
        return add(fid, func,
                   [[0.0], [2.0]],
                   [Curve.from_coeffs([[0.0, 1.0]]), *map(Curve.from_coeffs, rand)],
                   comment="smooth linear control")

    def max2d(fid, rand):   # max(x, y)
        arr = Arrangement(2, (Hyperplane([1.0, -1.0], 0.0),))
        func = PiecewiseFunction(arr, 1, {
            "+": (_p(2, [((1, 0), 1.0)]),),
            "-": (_p(2, [((0, 1), 1.0)]),),
        }, lipschitz_hint=1.0)
        return add(fid, func,
                   [[0.0, 0.0], [1.5, 1.5], [1.0, -1.0]],
                   [Curve.from_coeffs([[-1.0, 2.0], [-1.0, 2.0]]),   # inside the diagonal
                    Curve.from_coeffs([[-1.0, 2.0], [1.0, -2.0]]),   # crosses it at t=1/2
                    *map(Curve.from_coeffs, rand)],
                   partition=Arrangement(2, (Hyperplane([1.0, 1.0], 0.5),)),
                   comment="max of coordinates: kink along a line")

    def relukink(fid, rand):   # x|x| + x - 2 (piecewise-quadratic equation, root at x=1)
        arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
        func = PiecewiseFunction(arr, 1, {
            "-": (_p(1, [((2,), -1.0), ((1,), 1.0), ((0,), -2.0)]),),
            "+": (_p(1, [((2,), 1.0), ((1,), 1.0), ((0,), -2.0)]),),
        }, lipschitz_hint=21.0)
        return add(fid, func,
                   [[0.0], [1.0], [-0.8]],
                   [Curve.from_coeffs([[-1.0, 2.0]]), *map(Curve.from_coeffs, rand)],
                   comment="piecewise-quadratic equation form")

    def absplus(fid, rand):   # x + |x| - 1 (flat left piece; Newton demo)
        arr = Arrangement(1, (Hyperplane([1.0], 0.0),))
        func = PiecewiseFunction(arr, 1, {
            "-": (_p(1, [((0,), -1.0)]),),
            "+": (_p(1, [((1,), 2.0), ((0,), -1.0)]),),
        }, lipschitz_hint=2.0)
        return add(fid, func,
                   [[0.0], [0.5]],
                   [Curve.from_coeffs([[-1.0, 2.0]]), *map(Curve.from_coeffs, rand)],
                   comment="x + |x| - 1: converges in one Newton step from the right, "
                           "stalls on the flat left piece")

    def l1norm2d(fid, rand):   # |x| + |y|
        arr = Arrangement(2, (Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)))
        func = PiecewiseFunction(arr, 1, {
            "++": (_p(2, [((1, 0), 1.0), ((0, 1), 1.0)]),),
            "+-": (_p(2, [((1, 0), 1.0), ((0, 1), -1.0)]),),
            "-+": (_p(2, [((1, 0), -1.0), ((0, 1), 1.0)]),),
            "--": (_p(2, [((1, 0), -1.0), ((0, 1), -1.0)]),),
        }, lipschitz_hint=2.0)
        return add(fid, func,
                   [[0.0, 0.0], [1.0, 0.0], [0.0, -2.0], [1.0, 2.0]],
                   [Curve.from_coeffs([[0.0], [-1.0, 2.0]]),   # travels inside x=0
                    Curve.from_coeffs([[-1.0, 2.0], [0.0]]),   # travels inside y=0
                    *map(Curve.from_coeffs, rand)],
                   minimizer=[0.0, 0.0],
                   comment="l1 norm: kinks along both axes meeting at a point")

    def maxreg2d(fid, rand):   # max(x,y) + 0.5||.||^2 (strongly convex, minimizer (-1/2,-1/2))
        arr = Arrangement(2, (Hyperplane([1.0, -1.0], 0.0),))
        quad = [((2, 0), 0.5), ((0, 2), 0.5)]
        func = PiecewiseFunction(arr, 1, {
            "+": (_p(2, [((1, 0), 1.0)] + quad),),
            "-": (_p(2, [((0, 1), 1.0)] + quad),),
        }, lipschitz_hint=16.0)
        return add(fid, func,
                   [[0.0, 0.0], [-0.5, -0.5], [1.0, -1.0]],
                   [Curve.from_coeffs([[-1.0, 2.0], [-1.0, 2.0]]), *map(Curve.from_coeffs, rand)],
                   minimizer=[-0.5, -0.5],
                   comment="regularized max: subgradient-descent target")

    def pwq2d(fid, rand):   # three-piece piecewise-quadratic 2-D map over parallel hyperplanes
        arr = Arrangement(2, (Hyperplane([1.0, 0.0], -1.0), Hyperplane([1.0, 0.0], 1.0)))
        func = PiecewiseFunction(arr, 2, {
            "--": (_p(2, [((2, 0), 2.0), ((1, 0), 4.0), ((0, 0), 3.0)]),
                   _p(2, [((0, 2), 1.0), ((1, 0), 2.0), ((0, 0), 1.0)])),
            "+-": (_p(2, [((2, 0), 1.0)]),
                   _p(2, [((0, 2), 1.0), ((1, 0), 1.0)])),
            "++": (_p(2, [((2, 0), 2.0), ((0, 0), -1.0)]),
                   _p(2, [((0, 2), 1.0), ((1, 0), 2.0), ((0, 0), -1.0)])),
        }, lipschitz_hint=64.0)
        return add(fid, func,
                   [[-1.0, 0.5], [1.0, -2.0], [0.0, 0.0]],
                   [Curve.from_coeffs([[-1.0], [-1.0, 2.0]]),   # inside the facet x=-1
                    Curve.from_coeffs([[1.0], [-1.0, 2.0]]),    # inside the facet x=+1
                    *map(Curve.from_coeffs, rand)],
                   comment="three bands out of four sign vectors: sign '-+' is infeasible")

    rows = (
        ("abs1d", "exact"),
        ("abs1d", "clarke"),
        ("abs1d", "branch"),
        ("id1d", "exact"),
        ("max2d", "clarke"),
        ("max2d", "branch"),
        ("l1norm2d", "clarke"),
        ("relukink", "clarke"),
        ("maxreg2d", "clarke"),
        ("pwq2d", "clarke"),
        # negative controls
        ("id1d", "scale:2"),
        ("abs1d", "scale:2"),
        ("max2d", "zero-strata:clarke"),
        ("l1norm2d", "zero-strata:exact"),
    )
    # every random curve is drawn here, in corpus order, whichever function is built first
    rng, builders = substream(_CORPUS_SEED, "curves"), {}
    for build, count, dim in ((abs1d, 3, 1), (id1d, 1, 1), (max2d, 2, 2), (relukink, 1, 1),
                              (absplus, 1, 1), (l1norm2d, 2, 2), (maxreg2d, 2, 2), (pwq2d, 2, 2)):
        rand = rng.uniform(-2.0, 2.0, size=(count, dim, 4))     # count (dim, 4) draws in turn
        builders[build.__name__] = cache(partial(build, build.__name__, rand))
    # constant data: tests/test_corpus_io.py validates it once
    return Corpus(functions=_LazyFunctions(builders), matrix_rows=rows)
