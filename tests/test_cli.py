import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratacalc import piecewise
from stratacalc.cli import main
from stratacalc.corpus import corpus_to_json, default_corpus
from stratacalc.piecewise import Arrangement, Hyperplane, PiecewiseError, PiecewiseFunction


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# check

def test_check_positive_binding_exits_zero(tmp_path):
    out = tmp_path / "r.txt"
    code = run(["check", "--function", "abs1d", "--oracle", "clarke",
                "--conditions", "1,2,3,4,5", "--seed", "7",
                "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("stratacalc-report/1\n")
    assert "overall: pass" in text


DATA = Path(__file__).parent / "data"
CHECK_GOLDEN = DATA / "check_seed7"


@pytest.mark.parametrize("fid", sorted(default_corpus().functions))
def test_check_clarke_seed7_matches_golden(tmp_path, fid):
    # pins the assumption lines along with the rest of each check report
    out = tmp_path / "r.txt"
    run(["check", "--function", fid, "--oracle", "clarke", "--seed", "7",
         "--output", str(out)])
    assert out.read_bytes() == (CHECK_GOLDEN / f"{fid}.txt").read_bytes()


def test_check_negative_control_exits_two(tmp_path):
    out = tmp_path / "r.txt"
    code = run(["check", "--function", "id1d", "--oracle", "scale:2",
                "--conditions", "1", "--seed", "7", "--output", str(out)])
    assert code == 2
    assert "overall: fail" in out.read_text()



def test_check_scaled_oracle_reads_its_lipschitz_constant(tmp_path):
    # regression: 1e7 * F'(x, .) is Lipschitz with constant 1e7, and the line
    # read fail against an absolute blow-up threshold of 1e6. Conditions 1-5
    # still fail the scaled oracle, so the overall verdict is fail.
    out = tmp_path / "r.txt"
    assert run(["check", "--function", "abs1d", "--oracle", "scale:1e7", "--seed", "7",
                "--output", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert ("assumption lipschitz: pass (L per probe: 10000000.0, 10000000.0, 10000000.0)"
            in lines)
    assert "overall: fail" in lines

def test_check_negative_seed_runs(tmp_path):
    # regression: continuity validation raised ValueError on a negative
    # seed. The verdict is not asserted: at this seed max2d's sweeps meet
    # the known EPS_CELL false fail, as matrix seed 2 does.
    out = tmp_path / "r.txt"
    code = run(["check", "--function", "max2d", "--oracle", "clarke",
                "--seed", "-1", "--output", str(out)])
    assert code != 1
    text = out.read_text()
    assert "continuity: pass (1 facet pairs)" in text and "overall: " in text


def test_check_unknown_ids_exit_one(capsys):
    assert run(["check", "--function", "ghost", "--oracle", "clarke"]) == 1
    assert run(["check", "--function", "abs1d", "--oracle", "wat"]) == 1
    assert run(["check", "--function", "abs1d", "--oracle", "clarke",
                "--conditions", "9"]) == 1


def test_check_malformed_corpus_names_sign_vector(tmp_path, capsys):
    # strip one piece from abs1d: validation must name the uncovered cell
    corpus = default_corpus()
    text = corpus_to_json(corpus)
    import json
    doc = json.loads(text)
    for fd in doc["functions"]:
        if fd["id"] == "abs1d":
            del fd["pieces"]["-"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run(["check", "--corpus", str(bad), "--function", "abs1d",
                "--oracle", "clarke"])
    assert code == 1
    err = capsys.readouterr().err
    assert "'-'" in err


def test_check_curve_bulging_out_of_the_box_exits_one(tmp_path, capsys):
    # regression: 10.05 - 400 (t - 1/64)^2 on [0, 1/32], then constant,
    # reaches 10.05 at t = 1/64 but is at most 10 at every t = j/32
    import json
    doc = json.loads(corpus_to_json(default_corpus()))
    fd = next(fd for fd in doc["functions"] if fd["id"] == "abs1d")
    fd["curves"].append({"breakpoints": [0.0, 1 / 32, 1.0],
                         "pieces": [[[9.95234375, 12.5, -400.0]], [[9.95234375]]]})
    path = tmp_path / "bulge.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--corpus", str(path), "--function", "abs1d",
                "--oracle", "clarke", "--conditions", "3"]) == 1
    assert "'abs1d': curve leaves the bounding box" in capsys.readouterr().err
    # 10 - 400 (t - 1/64)^2 touches the box at t = 1/64 without leaving it
    fd["curves"][-1]["pieces"] = [[[9.90234375, 12.5, -400.0]], [[9.90234375]]]
    path.write_text(json.dumps(doc))
    assert run(["check", "--corpus", str(path), "--function", "abs1d",
                "--oracle", "clarke", "--conditions", "3",
                "--output", str(tmp_path / "r.txt")]) == 0


def test_check_without_base_points_or_curves_is_inconclusive(tmp_path):
    # regression: with no evidence the sweeps and the curve check read pass,
    # so a wrong oracle passed conditions 1-3 with exit 0
    import json
    doc = json.loads(corpus_to_json(default_corpus()))
    for fd in doc["functions"]:
        if fd["id"] == "abs1d":
            fd.update(base_points=[], curves=[])
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.txt"
    code = run(["check", "--corpus", str(path), "--function", "abs1d",
                "--oracle", "scale:2", "--conditions", "1,2,3",
                "--output", str(out)])
    assert code == 3
    text = out.read_text()
    for cid in ("1 (semismooth I)", "2 (semismooth II)", "3 (conservative)"):
        assert f"condition {cid}: inconclusive" in text
    assert text.count("note: no base points") == 2
    assert "note: no curves" in text


def test_check_without_base_points_reads_assumptions_inconclusive(tmp_path):
    # regression: the assumption lines read pass with no probe point, so a
    # check whose requested conditions passed exited 0 on no evidence
    import json
    doc = json.loads(corpus_to_json(default_corpus()))
    for fd in doc["functions"]:
        if fd["id"] == "abs1d":
            fd.update(base_points=[])
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.txt"
    code = run(["check", "--corpus", str(path), "--function", "abs1d",
                "--oracle", "clarke", "--conditions", "3", "--output", str(out)])
    assert code == 3
    text = out.read_text()
    for line in ("full_domain", "homogeneity", "lipschitz"):
        assert f"assumption {line}: inconclusive" in text
    assert "condition 3 (conservative): pass" in text
    assert "overall: inconclusive" in text


def test_dimensions_above_max_dim_exit_one_naming_the_field(tmp_path, capsys):
    # regression: both ended in a DimensionMismatchError traceback
    import json

    def corpus(n, m):
        e0 = [1] + [0] * (n - 1)
        return {"format": "stratacalc-corpus/1", "matrix_rows": [["wide", "clarke"]],
                "functions": [{
                    "id": "wide", "ambient_dim": n, "output_dim": m,
                    "hyperplanes": [{"normal": [1.0] + [0.0] * (n - 1), "offset": 0.0}],
                    "pieces": {s: [[[e0, c * (k + 1)]] for k in range(m)]
                               for s, c in (("-", -1.0), ("+", 1.0))},
                    "base_points": [[0.0] * n], "curves": [], "partition": []}]}

    for n, m, field, commands in ((9, 1, "ambient_dim", ("check", "matrix")),
                                  (1, 9, "output_dim", ("check",))):
        path = tmp_path / f"wide{n}{m}.json"
        path.write_text(json.dumps(corpus(n, m)))
        for cmd in commands:
            argv = [cmd, "--corpus", str(path)]
            if cmd == "check":
                argv += ["--function", "wide", "--oracle", "clarke"]
            assert run(argv) == 1
            assert f"'wide': bad field '{field}'" in capsys.readouterr().err


def test_check_and_matrix_of_a_large_valued_map_exit_zero(tmp_path):
    # regression: compose_exact's output failed Curve's absolute 1e-9
    # breakpoint test at the crossing of x = 9, where the pieces 1000 x^6
    # and 1000 x^6 + x - 9 reach 5.3e8, and both commands ended in a traceback
    doc = {"format": "stratacalc-corpus/1", "matrix_rows": [["big", "clarke"]],
           "functions": [{
               "id": "big", "ambient_dim": 1, "output_dim": 1,
               "hyperplanes": [{"normal": [1.0], "offset": 9.0}],
               "pieces": {"-": [[[[6], 1000.0]]],
                          "+": [[[[6], 1000.0], [[1], 1.0], [[0], -9.0]]]},
               "base_points": [[9.0]],
               "curves": [{"breakpoints": [0.0, 1.0], "pieces": [[[8.0, 1.7, 0.013]]]}],
               "partition": []}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--corpus", str(path), "--function", "big", "--oracle", "clarke",
                "--output", str(tmp_path / "c.txt")]) == 0
    assert run(["matrix", "--corpus", str(path), "--output", str(tmp_path / "m.txt")]) == 0


def test_check_of_a_cancelling_map_passes_condition_3_and_scale_fails_it(tmp_path):
    # regression: 1000 (x - 9)^6 in monomials, and the same plus x - 9:
    # compose_exact raised "curve discontinuous" and check ended in a traceback
    six = [[[k], 1000.0 * math.comb(6, k) * (-9.0) ** (6 - k)] for k in range(7)]
    doc = {"format": "stratacalc-corpus/1", "matrix_rows": [["flat", "clarke"]],
           "functions": [{
               "id": "flat", "ambient_dim": 1, "output_dim": 1,
               "hyperplanes": [{"normal": [1.0], "offset": 9.0}],
               "pieces": {"-": [six], "+": [six + [[[1], 1.0], [[0], -9.0]]]},
               "base_points": [[9.0]],
               "curves": [{"breakpoints": [0.0, 1.0], "pieces": [[[8.0, 1.7, 0.013]]]}],
               "partition": []}]}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    for oracle, verdict in (("clarke", "pass"), ("scale:2", "fail")):
        out = tmp_path / f"{oracle}.txt"
        run(["check", "--corpus", str(path), "--function", "flat", "--oracle", oracle,
             "--conditions", "3", "--output", str(out)])
        assert f"condition 3 (conservative): {verdict}" in out.read_text()
    # the matrix report is written (conditions 1-2 are not decided here)
    run(["matrix", "--corpus", str(path), "--output", str(tmp_path / "m.txt")])
    assert " 3=pass " in (tmp_path / "m.txt").read_text()


def test_check_bad_flags_exit_one():
    assert run(["check", "--function", "abs1d"]) == 1  # missing --oracle


def test_check_condition_subset(tmp_path):
    out = tmp_path / "r.txt"
    code = run(["check", "--function", "max2d", "--oracle", "branch",
                "--conditions", "4,5", "--seed", "3", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "condition 4" in text and "condition 5" in text
    assert "condition 1" not in text


def test_matrix_with_corpus_file(tmp_path):
    # trim the corpus to two rows and drive the matrix from the file
    import json
    from stratacalc.corpus import corpus_to_json
    doc = json.loads(corpus_to_json(default_corpus()))
    doc["matrix_rows"] = [["abs1d", "clarke"], ["id1d", "scale:2"]]
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "m.txt"
    code = run(["matrix", "--corpus", str(path), "--seed", "5",
                "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "rows: 2" in text
    assert "id1d:scale:2,fail,fail,fail,fail,fail,true" in text


def test_shipped_matrix_solves_each_refinement_once(tmp_path, monkeypatch):
    # rows sharing a function and partition share one refined arrangement,
    # so each of its cell LPs is solved once per matrix
    solve = Arrangement._solve_cell_lp
    calls = []

    def counted(self, sign):
        calls.append(sign)
        return solve(self, sign)

    monkeypatch.setattr(Arrangement, "_solve_cell_lp", counted)
    assert run(["matrix", "--seed", "7", "--output", str(tmp_path / "m.txt")]) == 0
    assert len(calls) == 40


def test_matrix_seed7_on_the_generated_corpus_matches_golden(tmp_path, monkeypatch):
    # the benchmark's generated corpus (cell LPs, sampling in R^3, k = 3);
    # exit 2 is the known EPS_CELL false fail of gen0_n2k3:clarke at seed 7
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from gencorpus import generate_corpus
    from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
    from stratacalc import save_corpus
    path, out = tmp_path / "generated.json", tmp_path / "m.txt"
    save_corpus(generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES), path)
    assert run(["matrix", "--seed", "7", "--corpus", str(path), "--output", str(out)]) == 2
    assert out.read_bytes() == (DATA / "matrix_generated_seed7.txt").read_bytes()


def _count_evaluations(monkeypatch):
    """Counts of polynomial evaluator calls, by method name."""
    counts = {"__call__": 0, "slot_terms": 0}
    for name in counts:
        method = getattr(piecewise._StackedPolys, name)

        def counted(self, *args, _m=method, _name=name, **kw):
            counts[_name] += 1
            return _m(self, *args, **kw)
        monkeypatch.setattr(piecewise._StackedPolys, name, counted)
    return counts


def test_one_row_kernel_calls_evaluate_once(monkeypatch):
    # a row at the vertex of l1norm2d touches four pieces; every kernel
    # still evaluates one stack of polynomials for it
    counts = _count_evaluations(monkeypatch)
    F = default_corpus().function("l1norm2d").func
    x, u = np.zeros((1, 2)), np.ones((1, 2))
    assert F.clarke_jacobians(x).shape[1] == 4
    for kernel in (lambda: F.values(x), lambda: F.clarke_jacobians(x),
                   lambda: F.directional_derivatives(x, u), lambda: F.component_ranges(x, u),
                   lambda: F.selected_jacobians(x, u, "first")):
        before = counts["__call__"]
        kernel()
        assert counts["__call__"] == before + 1
    F.value_differences(x, x)
    assert counts["slot_terms"] == 2


@pytest.mark.parametrize("argv, budget", [
    (["solve", "subgrad", "--function", "l1norm2d", "--x0=1.3,-2.2"], 203),
    (["solve", "newton", "--function", "pwq2d", "--x0=0.7,0.4"], 201),
])
def test_solver_steps_evaluate_once_per_kernel_call(tmp_path, monkeypatch, argv, budget):
    counts = _count_evaluations(monkeypatch)
    assert run([*argv, "--output", str(tmp_path / "s.txt")]) == 0
    assert counts["__call__"] <= budget and counts["slot_terms"] == 0


@pytest.mark.parametrize("corpus, budget", [("shipped", (237, 109)), ("generated", (143, 47))])
def test_matrix_seed7_evaluation_budget(tmp_path, monkeypatch, corpus, budget):
    # grouping by piece tuple must not add evaluator calls on large batches:
    # at most one per distinct piece, as when each piece was evaluated alone
    argv = ["matrix", "--seed", "7", "--output", str(tmp_path / "m.txt")]
    if corpus == "generated":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from gencorpus import generate_corpus
        from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
        from stratacalc import save_corpus
        save_corpus(generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES), tmp_path / "g.json")
        argv += ["--corpus", str(tmp_path / "g.json")]
    counts = _count_evaluations(monkeypatch)
    run(argv)
    assert counts["__call__"] <= budget[0] and counts["slot_terms"] <= budget[1]


def _strata_blocks(text: str) -> list[str]:
    """The entry headers and condition 4-5 blocks of a matrix report."""
    kept, keep = [], False
    for line in text.splitlines():
        if not line.startswith(" "):
            keep = False
            if line.startswith("--- entry "):
                kept.append(line)
        elif line.lstrip().startswith("condition "):
            keep = line.lstrip().startswith(("condition 4 ", "condition 5 "))
        if keep:
            kept.append(line)
    return kept


@pytest.mark.parametrize("corpus", ["shipped", "generated"])
def test_matrix_conditions_4_5_do_not_read_the_seed(tmp_path, monkeypatch, corpus):
    # the per-cell lattices draw nothing, so --seed moves no line of 4-5
    args = []
    if corpus == "generated":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from gencorpus import generate_corpus
        from workloads import GENERATED_CORPUS_SEED, GENERATED_SHAPES
        from stratacalc import save_corpus
        path = tmp_path / "generated.json"
        save_corpus(generate_corpus(GENERATED_CORPUS_SEED, GENERATED_SHAPES), path)
        args = ["--corpus", str(path)]
    blocks = []
    for seed in ("7", "8"):
        out = tmp_path / f"m{seed}.txt"
        run(["matrix", "--seed", seed, "--output", str(out)] + args)
        blocks.append(_strata_blocks(out.read_text()))
    assert len(blocks[0]) > 10 * len([l for l in blocks[0] if l.startswith("---")])
    assert blocks[0] == blocks[1]


# ---------------------------------------------------------------------------
# solve

def _condition_3_blocks(text):
    """The condition 3 block of each entry of a matrix report."""
    blocks, entry, block = {}, None, None
    for line in text.splitlines():
        if line.startswith("--- entry "):
            entry, block = line, None
        elif line.startswith("  condition "):
            block = blocks.setdefault(entry, []) if line.startswith("  condition 3 ") else None
        if block is not None:
            block.append(line)
    return blocks


def test_matrix_condition_3_does_not_depend_on_the_seed(tmp_path):
    # condition 3 is decided on fixed nodes of each composed subinterval
    blocks = []
    for seed in ("1", "2"):
        out = tmp_path / f"m{seed}.txt"
        run(["matrix", "--seed", seed, "--output", str(out)])
        blocks.append(_condition_3_blocks(out.read_text()))
    assert len(blocks[0]) == len(default_corpus().matrix_rows)
    assert blocks[0] == blocks[1]


def test_solve_newton_absplus(tmp_path):
    out = tmp_path / "t.txt"
    dump = tmp_path / "t.csv"
    code = run(["solve", "newton", "--function", "absplus", "--x0", "2",
                "--seed", "1", "--output", str(out), "--dump", str(dump)])
    assert code == 0
    text = out.read_text()
    assert "status: converged" in text
    assert "iterations: 1" in text
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "k,x,residual"
    assert len(lines) == 3  # header + 2 iterates


def test_solve_newton_stall_exit_four(tmp_path):
    out = tmp_path / "t.txt"
    code = run(["solve", "newton", "--function", "absplus", "--x0", "-1",
                "--seed", "1", "--output", str(out)])
    assert code == 4
    assert "singular_stall" in out.read_text()
    assert "damping" in out.read_text()


def test_solve_subgrad_abs(tmp_path):
    out = tmp_path / "t.txt"
    code = run(["solve", "subgrad", "--function", "abs1d", "--x0", "1",
                "--rule", "one_over_k", "--iters", "200",
                "--output", str(out)])
    assert code == 0
    final = out.read_text().splitlines()
    val = [l for l in final if l.startswith("final_point:")][0]
    x = float(val.split("(")[1].rstrip(")"))
    assert abs(x) <= 0.1


SOLVE_GOLDEN = {   # report name: (solve arguments, exit code)
    "newton_relukink": (["newton", "--function", "relukink", "--x0=0.3"], 0),
    "newton_relukink_branch": (["newton", "--function", "relukink", "--x0=-0.8",
                                "--jacobian", "branch"], 0),
    "newton_pwq2d": (["newton", "--function", "pwq2d", "--x0=1.3,-0.7"], 0),
    "newton_absplus_stall": (["newton", "--function", "absplus", "--x0=-1"], 4),
    # best value -1.2e-11: an iterate snapped within EPS_CELL of the kink
    "subgrad_abs1d_snap": (["subgrad", "--function", "abs1d",
                            "--x0=-0.6574918168863819"], 0),
    "subgrad_maxreg2d_branch": (["subgrad", "--function", "maxreg2d", "--x0=1.5,-2",
                                 "--oracle", "branch", "--rule", "c_over_sqrt_k",
                                 "--c", "0.5"], 0),
    "subgrad_l1norm2d_constant": (["subgrad", "--function", "l1norm2d", "--x0=0.7,0.2",
                                   "--rule", "constant", "--c", "0.1", "--iters", "50"], 0),
    # starts on a hyperplane, where the Clarke stack has two vertices
    "subgrad_max2d_hyperplane": (["subgrad", "--function", "max2d", "--x0", "1,1"], 0),
    "subgrad_l1norm2d_hyperplane": (["subgrad", "--function", "l1norm2d", "--x0", "1,0"], 0),
}


@pytest.mark.parametrize("name", SOLVE_GOLDEN)
def test_solve_reports_match_golden(tmp_path, name):
    argv, code = SOLVE_GOLDEN[name]
    out = tmp_path / "t.txt"
    assert run(["solve", *argv, "--output", str(out)]) == code
    assert out.read_bytes() == (DATA / "solve" / f"{name}.txt").read_bytes()


def test_solve_op_builds_only_the_function_it_names(tmp_path, monkeypatch):
    # the shipped corpus is lazy: all 8 functions were built per solve op
    built = []
    post = PiecewiseFunction.__post_init__
    monkeypatch.setattr(PiecewiseFunction, "__post_init__",
                        lambda self: built.append(self) or post(self))
    assert run(["solve", "newton", "--function", "abs1d", "--x0=0.5",
                "--output", str(tmp_path / "t.txt")]) == 0
    assert len(built) == 1


def test_solve_bad_point_exit_one():
    assert run(["solve", "newton", "--function", "absplus", "--x0", "1,2"]) == 1
    assert run(["solve", "newton", "--function", "absplus", "--x0", "abc"]) == 1


def test_solve_nonsquare_exit_one():
    assert run(["solve", "newton", "--function", "maxreg2d", "--x0", "1,1"]) == 1


@pytest.mark.parametrize("argv, named", [
    (["solve", "subgrad", "--function", "abs1d", "--x0", "nan"], "'nan'"),
    (["solve", "newton", "--function", "pwq2d", "--x0", "1,inf"], "'inf'"),
    (["solve", "subgrad", "--function", "abs1d", "--x0", "1",
      "--rule", "constant", "--c", "nan"], "--c: not a finite number: 'nan'"),
    (["check", "--function", "abs1d", "--oracle", "scale:nan"], "'scale:nan'"),
    (["check", "--function", "abs1d", "--oracle", "scale:inf"], "'scale:inf'"),
    (["solve", "newton", "--function", "abs1d", "--x0", "1",
      "--jacobian", "scale:nan"], "'scale:nan'"),
    (["solve", "subgrad", "--function", "abs1d", "--x0", "1", "--oracle", "wat"], "'wat'"),
    (["solve", "subgrad", "--function", "abs1d", "--x0", "0",
      "--oracle", "reflect:clarke"], "set-valued"),
    (["solve", "subgrad", "--function", "abs1d", "--x0", "1", "--iters", "-3"],
     "--iters: not a positive integer: '-3'"),
    (["solve", "subgrad", "--function", "abs1d", "--x0", "1", "--iters", "0"],
     "--iters: not a positive integer: '0'"),
    (["check", "--function", "abs1d", "--oracle", "clarke", "--conditions", " , "],
     "--conditions"),
    (["solve", "subgrad", "--function", "abs1d", "--x0=1.0", "--rule", "c_over_sqrt_k",
      "--c", "-2", "--iters", "5"], "--c: not a positive number: '-2'"),
    (["solve", "subgrad", "--function", "abs1d", "--x0=1.0", "--rule", "constant",
      "--c", "0"], "--c: not a positive number: '0'"),
], ids=["x0-nan", "x0-inf", "c-nan", "oracle-scale-nan", "oracle-scale-inf",
        "jacobian-scale-nan", "subgrad-unknown-oracle", "subgrad-set-valued-oracle",
        "iters-negative", "iters-zero", "conditions-empty", "c-negative", "c-zero"])
def test_bad_cli_values_exit_one_naming_them(capsys, argv, named):
    # regression: each printed a traceback, an error not naming the value,
    # or (iters, conditions, c) ran and reported success: a negative c
    # climbed to f = 7.46 on abs1d, and c = 0 never moved
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and named in err


@pytest.mark.parametrize("argv, named", [
    (["solve", "subgrad", "--function", "maxreg2d", "--x0=1,1", "--rule", "constant",
      "--c", "1e200"], "subgradient descent diverged at iteration k=2: the step from "
                       "the last finite iterate [-1e+200, -2e+200] is not finite"),
    # F(1e200) = 1e400 overflows at a finite iterate, so the first step would
    # too; regression: numpy overflow warnings before the error
    (["solve", "newton", "--function", "relukink", "--x0=1e200"],
     "semismooth Newton diverged at iteration k=0: the step from the "
     "last finite iterate [1e+200] is not finite"),
], ids=["subgrad", "newton"])
@pytest.mark.filterwarnings("error")
def test_diverging_solver_exits_one_naming_the_iteration(capsys, argv, named):
    # regression: numpy overflow warnings, then "vector entries must be
    # finite" from the next kernel call, naming neither solver nor iteration
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {named}\n"



@pytest.mark.filterwarnings("error")
def test_subgrad_whose_start_value_overflows_reports_inf_without_warning(tmp_path):
    # regression: F(1e200, 1e200) overflowed in the unguarded batch of trace
    # values with a numpy RuntimeWarning; no step reads F, so the run stands
    out = tmp_path / "t.txt"
    assert run(["solve", "subgrad", "--function", "maxreg2d", "--x0=1e200,1e200",
                "--iters", "3", "--output", str(out)]) == 0
    assert "  k=0 x=(1e+200, 1e+200) f=inf\n" in out.read_text()

@pytest.mark.parametrize("x0, residual", [("1e100", "1e+200"), ("1e154", "1e+308")])
@pytest.mark.filterwarnings("error")
def test_newton_residual_of_a_huge_finite_value_is_finite(tmp_path, x0, residual):
    # regression: ||F||^2 overflowed in np.linalg.norm, with a warning, and
    # every residual of the run read inf
    out = tmp_path / "t.txt"
    assert run(["solve", "newton", "--function", "relukink", f"--x0={x0}",
                "--output", str(out)]) == 0
    text = out.read_text()
    assert f"  k=0 x=({x0[0]}e+{x0[2:]}) residual={residual}\n" in text
    assert "inf" not in text


def test_more_hyperplanes_than_a_packed_cell_key_holds_are_refused(tmp_path, capsys):
    # 3^40 overflows the int64 cell keys; refused at construction, before
    # validation would enumerate 2^40 sign vectors
    hps = tuple(Hyperplane([1.0], float(i)) for i in range(40))
    with pytest.raises(PiecewiseError, match="^40 hyperplanes, more than the 39 "):
        Arrangement(1, hps)
    assert Arrangement(1, hps[:39]).k == 39
    doc = json.loads(corpus_to_json(default_corpus()))
    fd = next(fd for fd in doc["functions"] if fd["id"] == "abs1d")
    fd["hyperplanes"] = [{"normal": [1.0], "offset": float(i)} for i in range(40)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--corpus", str(path), "--function", "abs1d",
                "--oracle", "clarke"]) == 1
    err = capsys.readouterr().err
    assert "function 'abs1d': bad field 'hyperplanes': 40 hyperplanes" in err


@pytest.mark.parametrize("flag, argv", [
    ("--output", ["check", "--function", "abs1d", "--oracle", "clarke",
                  "--conditions", "1"]),
    ("--csv", ["matrix", "--seed", "-1"]),
    ("--dump", ["solve", "newton", "--function", "absplus", "--x0", "2"]),
])
def test_unwritable_path_exits_one_naming_it(tmp_path, capsys, flag, argv):
    # regression: the OSError escaped main as a traceback
    path = tmp_path / "missing" / "x.txt"
    assert run(argv + [flag, str(path)]) == 1
    assert f"error: cannot write {path}: " in capsys.readouterr().err


def test_solve_op_leaves_no_cyclic_garbage():
    # the parser is built once per process, so an op leaves nothing for the
    # cyclic collector to free inside a later op
    argv = ["solve", "newton", "--function", "relukink", "--x0", "0.37",
            "--output", os.devnull]
    assert run(argv) == 0       # warm-up
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_commands_import_no_scipy():
    # scipy.optimize alone was ~0.6 s of every CLI start; only the tests may
    # import scipy
    code = (
        "import contextlib, io, sys\n"
        "from stratacalc.cli import main\n"
        "for argv in (['check', '--function', 'max2d', '--oracle', 'clarke'],\n"
        "             ['matrix', '--seed', '7'],\n"
        "             ['solve', 'newton', '--function', 'pwq2d', '--x0', '0.3,0.2'],\n"
        "             ['selftest', '--filter', 'corpus']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# selftest

def test_selftest_fast_passes(tmp_path):
    out = tmp_path / "s.txt"
    code = run(["selftest", "--output", str(out)])
    assert code == 0
    assert "checks passed" in out.read_text()


def test_selftest_filter_oracles(tmp_path):
    out = tmp_path / "s.txt"
    code = run(["selftest", "--filter", "oracles", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "oracles/" in text
    assert "piecewise/" not in text


def test_selftest_unknown_filter():
    assert run(["selftest", "--filter", "bogus"]) == 1


def test_selftest_has_no_corpus_flag(tmp_path):
    # selftest always checks the built-in corpus; the flag was silently ignored
    assert run(["selftest", "--filter", "corpus",
                "--corpus", str(tmp_path / "missing.json")]) == 1


def test_selftest_has_no_seed_flag():
    # every check is decided on fixed rows: there is nothing to seed
    assert run(["selftest", "--seed", "2"]) == 1


def test_selftest_has_no_fast_flag():
    # selftest runs the one verifier configuration that check and matrix use
    assert run(["selftest", "--fast", "--filter", "corpus"]) == 1


def test_selftest_corrupted_tolerance_exits_two(tmp_path, monkeypatch):
    monkeypatch.setattr("stratacalc.selftest.EPS_EQ", 1e3)
    out = tmp_path / "s.txt"
    code = run(["selftest", "--filter", "conditions", "--output", str(out)])
    assert code == 2
    assert "FAIL" in out.read_text()
