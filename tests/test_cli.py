from pathlib import Path

import numpy as np
import pytest

from stratacalc.cli import main
from stratacalc.corpus import corpus_to_json, default_corpus


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


CHECK_GOLDEN = Path(__file__).parent / "data" / "check_seed7"


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


# ---------------------------------------------------------------------------
# solve

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


def test_solve_bad_point_exit_one():
    assert run(["solve", "newton", "--function", "absplus", "--x0", "1,2"]) == 1
    assert run(["solve", "newton", "--function", "absplus", "--x0", "abc"]) == 1


def test_solve_nonsquare_exit_one():
    assert run(["solve", "newton", "--function", "maxreg2d", "--x0", "1,1"]) == 1


# ---------------------------------------------------------------------------
# selftest

def test_selftest_fast_passes(tmp_path):
    out = tmp_path / "s.txt"
    code = run(["selftest", "--fast", "--output", str(out)])
    assert code == 0
    assert "checks passed" in out.read_text()


def test_selftest_filter_geometry(tmp_path):
    out = tmp_path / "s.txt"
    code = run(["selftest", "--fast", "--filter", "geometry",
                "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "geometry/" in text
    assert "piecewise/" not in text


def test_selftest_unknown_filter():
    assert run(["selftest", "--filter", "bogus"]) == 1


def test_selftest_corrupted_tolerance_exits_two(tmp_path):
    out = tmp_path / "s.txt"
    code = run(["selftest", "--fast", "--filter", "geometry",
                "--inject-eps-eq", "1e3", "--output", str(out)])
    assert code == 2
    assert "FAIL" in out.read_text()
