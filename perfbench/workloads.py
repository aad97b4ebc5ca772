"""The benchmark's workloads and the known-answer check for every op.

An op is one CLI command as a user would type it, run in-process through
`stratacalc.cli.main`, so each op builds or loads its own corpus exactly as
a new CLI process would. Checks read only the op's report text and exit code,
and compare them against answers known independently of the verifiers:

* a row bound to an honest oracle (exact, clarke, branch) must pass all five
  conditions; a `scale:c` (c != 1) or `zero-strata:*` control must fail all
  five;
* a Newton solution must have the residual it reports when F is evaluated
  again, and a subgradient run must stay within the classical
  (R^2 + G^2 sum a_k^2) / (2 sum a_k) gap of the known minimum.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stratacalc import Corpus, default_corpus, load_corpus, save_corpus

from gencorpus import generate_corpus

HONEST = ("exact", "clarke", "branch")
CONDITIONS = "12345"

# matrix-generated corpus. Fixed, so that its seed-to-seed spread comes from
# the verifiers' sampling only, not from changing the problem.
#   corpus seed 0: the first seed, taken without looking at its verdicts.
#   (2, 3) and (3, 3): one function each in R^2 and R^3 with three
#   hyperplanes, one more than any shipped function; a matrix op takes
#   about 10-13 s on 2 CPUs, so two ops fit the run. n = 2 with k = 4 takes
#   13 s for one function alone, and the sizes in the ROADMAP's sizing notes
#   (k = 5, or two n = 3 functions) take 50-220 s per op.
GENERATED_CORPUS_SEED = 0
GENERATED_SHAPES = ((2, 3), (3, 3))

# Recorded defect (EPS_CELL false fail): a sweep point y within this absolute
# distance of a hyperplane it does not lie on is treated as on it, so the
# Clarke image at y gains a vertex and an honest oracle fails condition 1
# or 2. Wrong verdicts whose witness shows exactly this are counted in
# verdicts_wrong and known_defect, but do not fail the op.
SNAP_EPS = 1e-10

NEWTON_FUNCTIONS = ("abs1d", "id1d", "relukink", "absplus", "pwq2d")  # m = n
SUBGRAD_FUNCTIONS = ("abs1d", "l1norm2d", "maxreg2d")  # scalar, known minimizer
# Enough start points that the mix of outcomes (quick convergence, flat-piece
# stalls, 100 linearly converging iterations) changes little with the seed.
STARTS_PER_FUNCTION = 16
START_RANGE = 3.0
NEWTON_TOL = 1e-12            # NewtonConfig.tol
NEWTON_MAX_ITER = 100         # NewtonConfig.max_iter
SUBGRAD_ITERS = 200           # CLI default, step 1/k


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str                       # matrix | check | newton | subgrad
    function: str = ""
    x0: tuple[float, ...] = ()


@dataclass
class OpCheck:
    """What one op delivered and whether it matched the known answer."""

    verdicts: int = 0
    wrong: int = 0
    known_defect: int = 0
    inconclusive: int = 0
    cells_skipped: int = 0
    newton_iters: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Workload:
    """`cycle_seconds` is the nominal time of one pass over `ops` on 2 CPUs.
    It turns --seconds into a fixed cycle count, so that every run of a
    workload has the same number of samples whatever the machine's speed."""

    name: str
    why: str
    corpus: Corpus
    ops: tuple[Op, ...]
    cycle_seconds: float
    corpus_file: str | None = None

    def setup_rows(self) -> list[tuple[str, str]]:
        """(function, oracle) bindings a user's command constructs."""
        kinds = {op.kind for op in self.ops}
        if "matrix" in kinds:
            return list(self.corpus.matrix_rows)
        if "check" in kinds:
            return [(op.function, "clarke") for op in self.ops]
        return []


def expected_verdict(oracle_id: str) -> str:
    if oracle_id in HONEST:
        return "pass"
    if oracle_id.startswith("scale:") and float(oracle_id.split(":", 1)[1]) != 1.0:
        return "fail"
    if oracle_id.startswith("zero-strata:"):
        return "fail"
    raise ValueError(f"no known answer for oracle {oracle_id!r}")


# ---------------------------------------------------------------------------
# workloads

def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "matrix-shipped":
        return Workload(name, "per-sample loops of conditions 1-5 on the shipped corpus",
                        default_corpus(), (Op(("matrix", "--seed", str(seed)), "matrix"),),
                        14.0)
    if name == "check-shipped":
        corpus = default_corpus()
        ops = tuple(Op(("check", "--function", fid, "--oracle", "clarke",
                        "--seed", str(seed)), "check", fid)
                    for fid in corpus.functions)
        return Workload(name, "per-function check flow with continuity and "
                              "assumption checks", corpus, ops, 8.5)
    if name == "matrix-generated":
        corpus = generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"generated-{GENERATED_CORPUS_SEED}.json"
        save_corpus(corpus, path)
        corpus = load_corpus(path)
        return Workload(name, "cell enumeration and cell sampling on a generated "
                              "corpus with three hyperplanes per function",
                        corpus, (Op(("matrix", "--seed", str(seed), "--corpus",
                                     str(path)), "matrix"),), 10.5, str(path))
    if name == "solve-shipped":
        corpus = default_corpus()
        rng = np.random.default_rng(seed)
        ops = []
        for kind, fids in (("newton", NEWTON_FUNCTIONS), ("subgrad", SUBGRAD_FUNCTIONS)):
            for fid in fids:
                n = corpus.function(fid).func.ambient_dim
                for _ in range(STARTS_PER_FUNCTION):
                    x0 = tuple(float(v) for v in rng.uniform(-START_RANGE, START_RANGE, n))
                    ops.append(Op(("solve", kind, "--function", fid,
                                   "--x0=" + ",".join(repr(v) for v in x0),
                                   "--seed", str(seed)), kind, fid, x0))
        return Workload(name, "one point at a time through the solvers",
                        corpus, tuple(ops), 7.2)
    raise KeyError(f"unknown workload {name!r}")


NAMES = ("matrix-shipped", "check-shipped", "matrix-generated", "solve-shipped")


# ---------------------------------------------------------------------------
# report parsing

_ENTRY = re.compile(r"^entry (.+): 1=(\S+) 2=(\S+) 3=(\S+) 4=(\S+) 5=(\S+) \[")
_COND = re.compile(r"^\s*condition ([1-5]) \([^)]*\): (\S+)$")
_POINT = re.compile(r"point=\(([^)]*)\)")
_FIELD = re.compile(r"^(\w+): (.*)$")


def _vec(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.strip("()").split(",") if v.strip()])


def _first_witnesses(lines) -> dict[tuple[str, str], np.ndarray]:
    """First witness point of each (entry, condition) block of a report."""
    out, entry, cond = {}, "", ""
    for line in lines:
        if line.startswith("--- entry "):
            entry, cond = line[len("--- entry "):], ""
            continue
        m = _COND.match(line)
        if m:
            cond = m.group(1)
            continue
        m = _POINT.search(line)
        if m and cond and (entry, cond) not in out:
            out[(entry, cond)] = _vec(m.group(1))
    return out


def _snapped(corpus: Corpus, fid: str, point: np.ndarray | None) -> bool:
    """Whether the point lies within SNAP_EPS of a hyperplane but not on it."""
    if point is None:
        return False
    arr = corpus.function(fid).func.arrangement
    if arr.k == 0:
        return False
    r = np.abs(arr.normals @ point - arr.offsets)
    return bool(np.any((r > 0.0) & (r <= SNAP_EPS)))


def _grade(res: OpCheck, corpus: Corpus, fid: str, oracle_id: str, entry: str,
           verdicts: dict[str, str], witnesses) -> None:
    want = expected_verdict(oracle_id)
    for c in CONDITIONS:
        got = verdicts[c]
        res.verdicts += 1
        if got == "inconclusive":
            res.inconclusive += 1
        elif got != want:
            res.wrong += 1
            if (want == "pass" and c in "12"
                    and _snapped(corpus, fid, witnesses.get((entry, c)))):
                res.known_defect += 1
            else:
                res.problems.append(f"{entry} condition {c}: {got}, expected {want}")


def check_matrix(corpus: Corpus, text: str, rc: int) -> OpCheck:
    res = OpCheck()
    lines = text.splitlines()
    rows = [(m.group(1), dict(zip(CONDITIONS, m.groups()[1:])))
            for m in map(_ENTRY.match, lines) if m]
    want_ids = [f"{fid}:{oid}" for fid, oid in corpus.matrix_rows]
    if [r[0] for r in rows] != want_ids:
        res.problems.append("matrix rows differ from the corpus rows")
        return res
    witnesses = _first_witnesses(lines)
    consistent = True
    for (fid, oid), (entry, verdicts) in zip(corpus.matrix_rows, rows):
        _grade(res, corpus, fid, oid, entry, verdicts, witnesses)
        consistent &= len({v for v in verdicts.values() if v != "inconclusive"}) <= 1
    if rc != (0 if consistent else 2):
        res.problems.append(f"exit code {rc} for all_consistent={consistent}")
    res.cells_skipped = text.count("sampling failed, skipped")
    return res


def check_check(corpus: Corpus, op: Op, text: str, rc: int) -> OpCheck:
    res = OpCheck()
    lines = text.splitlines()
    verdicts = {m.group(1): m.group(2) for m in map(_COND.match, lines) if m}
    fields = dict(m.groups() for m in map(_FIELD.match, lines) if m)
    if sorted(verdicts) != list(CONDITIONS):
        res.problems.append(f"{op.function}: report lacks condition verdicts")
        return res
    entry = f"{op.function}:clarke"
    witnesses = {(entry, c): p for (_, c), p in _first_witnesses(lines).items()}
    _grade(res, corpus, op.function, "clarke", entry, verdicts, witnesses)
    for line in ("continuity", "assumption full_domain", "assumption homogeneity",
                 "assumption lipschitz"):
        if not any(l.startswith(line + ": pass") for l in lines):
            res.problems.append(f"{op.function}: {line} did not pass")
    overall = fields.get("overall")
    if rc != {"pass": 0, "fail": 2, "inconclusive": 3}.get(overall):
        res.problems.append(f"{op.function}: exit code {rc} for overall {overall}")
    res.cells_skipped = text.count("sampling failed, skipped")
    return res


def check_newton(corpus: Corpus, op: Op, text: str, rc: int) -> OpCheck:
    res = OpCheck(verdicts=1)
    fields = dict(m.groups() for m in map(_FIELD.match, text.splitlines()) if m)
    F = corpus.function(op.function).func
    x = _vec(fields["solution"])
    status = fields["status"]
    reported = float(fields["final_residual"])
    res.newton_iters = int(fields["iterations"])
    residual = float(np.linalg.norm(F.value(x)))
    where = f"newton {op.function} from {op.x0}"
    if not math.isclose(residual, reported, rel_tol=1e-9, abs_tol=1e-15):
        res.problems.append(f"{where}: residual {residual!r}, reported {reported!r}")
    if status == "converged":
        ok = rc == 0 and residual <= NEWTON_TOL
    elif status == "singular_stall":
        # an outcome, not a failure, when every Clarke Jacobian at the stall
        # point is singular (a flat piece)
        dets = [abs(np.linalg.det(J)) for J in F.clarke_jacobian(x).vertices]
        ok = rc == 4 and max(dets) < NEWTON_TOL
    elif status == "max_iter":
        # linear convergence to a root with a singular Jacobian (pwq2d at 0)
        start = float(np.linalg.norm(F.value(np.array(op.x0))))
        ok = rc == 0 and res.newton_iters == NEWTON_MAX_ITER and residual < start
    else:
        ok = False
    if not ok:
        res.problems.append(f"{where}: status {status}, exit {rc}, residual {residual!r}")
    return res


def check_subgrad(corpus: Corpus, op: Op, text: str, rc: int) -> OpCheck:
    res = OpCheck(verdicts=1)
    fields = dict(m.groups() for m in map(_FIELD.match, text.splitlines()) if m)
    cf = corpus.function(op.function)
    f = cf.func
    where = f"subgrad {op.function} from {op.x0}"
    final_value = float(f.value(_vec(fields["final_point"]))[0])
    if not math.isclose(final_value, float(fields["final_value"]),
                        rel_tol=1e-12, abs_tol=1e-15):
        res.problems.append(f"{where}: final value does not re-evaluate")
    fstar = float(f.value(cf.minimizer)[0])
    steps = 1.0 / np.arange(1, SUBGRAD_ITERS + 1)
    R = float(np.linalg.norm(np.array(op.x0) - cf.minimizer))
    G = float(f.lipschitz_hint)
    bound = (R * R + G * G * float(np.sum(steps ** 2))) / (2.0 * float(np.sum(steps)))
    gap = float(fields["best_value"]) - fstar
    # F.value treats a point within SNAP_EPS of a hyperplane (unit or longer
    # normals here) as on it and may evaluate the far piece: off by at most
    # 2 * G * SNAP_EPS. A best value that far below f* is the recorded
    # EPS_CELL defect, counted and not failed.
    snap_slack = 2.0 * G * SNAP_EPS
    if rc != 0 or not -snap_slack <= gap <= bound:
        res.problems.append(f"{where}: best - f* = {gap!r} outside "
                            f"[{-snap_slack!r}, {bound!r}]")
    elif gap < 0.0:
        res.known_defect += 1
    return res


def check_op(corpus: Corpus, op: Op, text: str, rc: int) -> OpCheck:
    try:
        if op.kind == "matrix":
            return check_matrix(corpus, text, rc)
        if op.kind == "check":
            return check_check(corpus, op, text, rc)
        if op.kind == "newton":
            return check_newton(corpus, op, text, rc)
        return check_subgrad(corpus, op, text, rc)
    except (KeyError, ValueError) as exc:
        return OpCheck(problems=[f"{' '.join(op.argv)}: unreadable report ({exc!r})"])
