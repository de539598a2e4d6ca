"""End-to-end tests of the command-line interface, run in-process."""

import json
import operator
import os
import subprocess
import sys

import pytest

import ppclab
from ppclab import hpreal
from ppclab.cli import main
from ppclab.paircorr import read_points


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "usage"
    return doc


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def test_orbit_monomial_example(capsys):
    code, out, err = run(capsys, "orbit", "--family", "monomial:k=2",
                         "--alpha", "1.5", "--N", "3", "--delta", "1e-9")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# ppc-points v1 N=3"
    assert lines[1].startswith("# config ")
    assert lines[2:] == ["0.5", "0.0625", "0.443359375"]


def test_orbit_bytes_do_not_depend_on_the_multiply_backend(tmp_path,
                                                           monkeypatch):
    # criterion 9's orbit, through the seam's backend and through plain int
    argv = ["orbit", "--family", "monomial:k=2", "--alpha", "1.5",
            "--N", "400", "--delta", "1e-9", "--threads", "1", "--out"]
    assert main(argv + [str(tmp_path / "seam.txt")]) == 0
    monkeypatch.setattr(hpreal, "_mul", operator.mul)
    assert main(argv + [str(tmp_path / "int.txt")]) == 0
    assert ((tmp_path / "seam.txt").read_bytes()
            == (tmp_path / "int.txt").read_bytes())


def test_orbit_linpow_zeros(capsys):
    code, out, _ = run(capsys, "orbit", "--family", "linpow",
                       "--alpha", "2.0", "--N", "5")
    assert code == 0
    assert out.splitlines()[2:] == ["0"] * 5


def test_orbit_and_paircorr_at_an_alpha_past_the_float_range(capsys):
    # 10^4000 is far past 2^1024 and an integer: every linpow point is 0,
    # and all 20 ordered pairs of 5 equal points are within s/N
    code, out, err = run(capsys, "orbit", "--family", "linpow",
                         "--alpha", "1e4000", "--N", "3")
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == ["0"] * 3
    code, out, err = run(capsys, "paircorr", "--family", "linpow",
                         "--alpha", "1e4000", "--N", "5", "--s", "0.5")
    assert code == 0 and err == ""
    assert json.loads(out)["ordered_count"] == 20


def test_orbit_factorial_cap_is_precision_failure(capsys):
    code, out, err = run(capsys, "orbit", "--family", "factorial",
                         "--alpha", "1.8", "--N", "25")
    assert code == 2 and out == ""
    doc = json.loads(err.splitlines()[0])
    assert doc["error"] == "precision"
    assert "21" in doc["detail"]  # first index past the degree cap


def test_orbit_precision_budget_is_precision_failure(capsys):
    code, out, err = run(capsys, "orbit", "--family", "factorial",
                         "--alpha", "1.5", "--N", "13")
    assert code == 2 and out == ""
    doc = json.loads(err.splitlines()[0])
    assert doc["error"] == "precision"
    # degrees beyond the float range in the condition (5) scan and in the
    # walk's planner, and degrees past families.DEGREE_CAP_BITS, rejected
    # before the power n^k (3^(10^9) alone has 1.6 Gbit)
    for argv in (["hypothesis", "--family", "monomial:k=1100", "--a", "1.5",
                  "--b", "2", "--n1-max", "3", "--n2-max", "5"],
                 ["orbit", "--family", "monomial:k=1100", "--alpha", "1.5",
                  "--N", "3"],
                 ["orbit", "--family", "monomial:k=15000", "--alpha", "1.5",
                  "--N", "3"],
                 ["orbit", "--family", "monomial:k=1000000000",
                  "--alpha", "1.5", "--N", "3"],
                 ["hypothesis", "--family", "monomial:k=1000000000",
                  "--a", "1.5", "--b", "2"],
                 # a float g'(a) past the float range, and a b - a whose
                 # float underflows, at a level count inside the cap
                 ["measure", "--family", "geomsum:k=1", "--n1", "1",
                  "--n2", "2", "--a", "1e160",
                  "--b", "1." + "0" * 340 + "1e160",
                  "--target-c", "0", "--target-d", "0.5"],
                 ["measure", "--degree", "3", "--a", "1e160",
                  "--b", "1." + "0" * 700 + "1e160",
                  "--target-c", "0", "--target-d", "0.5"],
                 # results past the float range: g'(a) = 2 * 1e308, which
                 # JSON cannot hold, and V(N) from a square past it, then
                 # from a sum of finite squares past it, in CSV and JSON
                 ["measure", "--degree", "2", "--a", "1e308",
                  "--b", "1." + "0" * 620 + "1e308",
                  "--target-c", "0", "--target-d", "0.5"],
                 ["second-moment", "--family", "linpow", "--a", "1.5",
                  "--b", "1.6", "--s", "1e200", "--N-list", "10,20,40",
                  "--K", "2", "--threads", "1"],
                 ["second-moment", "--family", "linpow", "--a", "1.5",
                  "--b", "1.6", "--s", "5e153", "--N-list", "10,20,40",
                  "--K", "16", "--threads", "1", "--format", "csv"],
                 ["second-moment", "--family", "linpow", "--a", "1.5",
                  "--b", "1.6", "--s", "5e153", "--N-list", "10,20,40",
                  "--K", "16", "--threads", "1"],
                 # one level near 1 at any degree: an exact power past
                 # PREC_BUDGET_BITS, refused before any multiply rather than
                 # aborted inside GMP
                 *(["measure", "--a", "1." + "0" * 29 + "1",
                    "--b", "1." + "0" * 29 + "2", "--degree", degree,
                    "--target-c", "0", "--target-d", "0.25"]
                   for degree in ("100000000", "1000000000",
                                  "1000000000000"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "precision"


def test_orbit_file_parses_back(tmp_path, capsys):
    path = tmp_path / "orbit.txt"
    code, out, _ = run(capsys, "orbit", "--family", "monomial:k=2",
                       "--alpha", "1.5", "--N", "3", "--delta", "1e-9",
                       "--out", str(path))
    assert code == 0 and out == ""
    points = read_points(path)
    assert [p.value for p in points] == [0.5, 0.0625, 0.443359375]
    assert all(p.error == 0 for p in points)


# ---------------------------------------------------------------------------
# paircorr / discrepancy
# ---------------------------------------------------------------------------

def test_paircorr_from_file(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("# ppc-points v1 N=3\n0.1\n0.15\n0.9\n")
    code, out, _ = run(capsys, "paircorr", "--in", str(path), "--s", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "paircorr-result v1"
    assert doc["N"] == 3
    assert doc["ordered_count"] == 2
    assert doc["statistic"] == pytest.approx(2.0 / 3.0, abs=0.0)
    assert doc["config"]["in"].endswith("pts.txt")


def test_paircorr_antipodal_pair_counts_nothing(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("# ppc-points v1 N=2\n0.25\n0.75\n")
    code, out, _ = run(capsys, "paircorr", "--in", str(path), "--s", "0.5")
    assert code == 0
    assert json.loads(out)["statistic"] == 0.0


def test_paircorr_curve_csv(capsys):
    code, out, _ = run(capsys, "paircorr", "--family", "monomial:k=2",
                       "--alpha", "1.5", "--N-list", "20,40", "--s", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,statistic"
    assert len(lines) == 3
    assert [int(line.split(",")[0]) for line in lines[1:]] == [20, 40]


@pytest.mark.parametrize("family, alpha, s", [
    ("monomial:k=2", "1.5", "1"),
    ("linpow", "1.5", "0.5"),
    ("kronecker", "1.6180339887498948482045868343656381177", "0.1"),
])
def test_paircorr_single_n_and_one_entry_list_agree(capsys, family, alpha, s):
    # --N and --N-list share one route, so one N gives one statistic
    base = ["paircorr", "--family", family, "--alpha", alpha, "--s", s]
    single = run(capsys, *base, "--N", "200", "--format", "csv")
    listed = run(capsys, *base, "--N-list", "200", "--format", "csv")
    assert single == listed and single[0] == 0
    code, out, _ = run(capsys, *base, "--N", "200")
    assert code == 0
    result = json.loads(out)
    code, out, _ = run(capsys, *base, "--N-list", "200")
    assert code == 0
    curve = json.loads(out)
    assert result["schema"] == "paircorr-result v1"
    assert curve["schema"] == "paircorr-curve v1"
    assert curve["entries"] == [{"N": 200, "statistic": result["statistic"]}]
    assert curve["s"] == result["s"]


def test_paircorr_kronecker_golden_ratio(capsys):
    code, out, _ = run(capsys, "paircorr", "--family", "kronecker",
                       "--alpha", "1.6180339887498948482045868343656381177",
                       "--s", "0.1", "--N", "500")
    assert code == 0
    assert json.loads(out)["statistic"] == 0.0


def test_discrepancy_from_file(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("# ppc-points v1 N=2\n0.25\n0.75\n")
    code, out, _ = run(capsys, "discrepancy", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "discrepancy-result v1"
    assert doc["d_star"] == 0.25


def test_discrepancy_rejects_csv(capsys):
    code, _, err = run(capsys, "discrepancy", "--family", "linpow",
                       "--alpha", "1.7", "--N", "100", "--format", "csv")
    assert code == 1
    usage_error(err)


# ---------------------------------------------------------------------------
# hypothesis / measure
# ---------------------------------------------------------------------------

def test_hypothesis_monomial_holds(capsys):
    code, out, _ = run(capsys, "hypothesis", "--family", "monomial:k=2",
                       "--a", "1.5", "--b", "2",
                       "--n1-max", "60", "--n2-max", "120")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hypothesis-report v1"
    assert [c["status"] for c in doc["conditions"]] == ["holds"] * 5
    assert isinstance(doc["N1"], int)
    assert doc["config"]["n1_max"] == 60


def test_hypothesis_linpow_fails_with_witness(capsys):
    code, out, _ = run(capsys, "hypothesis", "--family", "linpow",
                       "--a", "1.5", "--b", "2",
                       "--n1-max", "60", "--n2-max", "120")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"][4]["status"] == "fails"
    witness = doc["conditions"][4]["witness"]
    assert witness["lhs"] > witness["rhs"]


def test_hypothesis_kronecker_fails_condition_one(capsys):
    code, out, _ = run(capsys, "hypothesis", "--family", "kronecker",
                       "--a", "1.5", "--b", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"][0]["status"] == "fails"


def test_measure_square_example(capsys):
    code, out, _ = run(capsys, "measure", "--a", "1.1", "--b", "1.2",
                       "--degree", "2", "--target-c", "0",
                       "--target-d", "0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "measure-result v1"
    assert doc["measure"] == pytest.approx(0.0180340, abs=1e-6)
    assert doc["lemma_bounds"]["residual_scaled"] == pytest.approx(
        0.0613, abs=2e-4)
    assert doc["config"]["degree"] == 2


def test_measure_difference_map(capsys):
    code, out, _ = run(capsys, "measure", "--a", "1.1", "--b", "1.2",
                       "--family", "monomial:k=2", "--n1", "1", "--n2", "2",
                       "--target-c", "0", "--target-d", "0.25")
    assert code == 0
    doc = json.loads(out)
    assert 0 <= doc["measure"] <= 0.1
    assert doc["config"]["n2"] == 2


def test_measure_wrap_target(capsys):
    code, out, _ = run(capsys, "measure", "--a", "1.1", "--b", "1.2",
                       "--degree", "2", "--target-c", "0.9",
                       "--target-d", "0.1", "--wrap")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["wrap"] is True


def test_measure_near_1_past_the_operand_budget_runs_no_multiply(
        monkeypatch, capsys):
    # one level at any degree: the exact power is refused by its operand
    # budget before the multiply seam sees it
    import ppclab.families as fam

    def never(a, b):
        raise AssertionError("a multiply ran before the budget check")

    monkeypatch.setattr(hpreal, "_mul", never)
    monkeypatch.setattr(fam, "_mul", never)
    for source in (["--degree", "100000000"],
                   ["--family", "monomial:k=40", "--n1", "2", "--n2", "3"]):
        code, out, err = run(capsys, "measure", "--a", "1." + "0" * 29 + "1",
                             "--b", "1." + "0" * 29 + "2", *source,
                             "--target-c", "0", "--target-d", "0.25")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "precision"
        assert "exceeds %d bits" % hpreal.PREC_BUDGET_BITS in doc["detail"]


def test_measure_level_cap_is_numeric_failure(capsys):
    code, _, err = run(capsys, "measure", "--a", "1.1", "--b", "1.2",
                       "--degree", "120", "--target-c", "0",
                       "--target-d", "0.25")
    assert code == 2
    doc = json.loads(err.splitlines()[0])
    assert doc["error"] == "numeric"
    # far past the cap: rejected before any exact power, so these return
    # at once; the level count itself has more digits than int-to-str allows
    for source in (["--degree", "56000"], ["--degree", "4000000"],
                   ["--family", "monomial:k=30", "--n1", "1", "--n2", "2"]):
        code, out, err = run(capsys, "measure", "--a", "1.1", "--b", "1.2",
                             *source, "--target-c", "0", "--target-d", "0.25")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric"


@pytest.mark.parametrize("argv", [
    ["--family", "geomsum:k=2", "--a", "1.5", "--b", "1e300"],
    ["--family", "geomsum:k=2", "--a", "1.5", "--b", "1e160"],
    ["--family", "geomsum:k=1", "--a", "1.5", "--b", "1e300",
     "--grid-size", "3"],
])
def test_hypothesis_past_the_float_square_is_precision_failure(capsys, argv):
    # condition (3)'s float form squares x - 1, which overflows past about
    # 1.3e154
    code, out, err = run(capsys, "hypothesis", *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "precision"
    assert doc["detail"].startswith("condition (3) at x = ")


# ---------------------------------------------------------------------------
# second-moment
# ---------------------------------------------------------------------------

def test_second_moment_selftest(capsys):
    code, out, err = run(capsys, "second-moment", "--selftest")
    assert code == 0 and err == ""
    assert out == "exponent -1.000\n"


def test_second_moment_csv(capsys):
    code, out, _ = run(capsys, "second-moment", "--family", "kronecker",
                       "--a", "1.55", "--b", "1.70", "--s", "0.1",
                       "--N-list", "100,200", "--K", "4",
                       "--mode", "random", "--seed", "20260819",
                       "--format", "csv", "--threads", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,V,K,mode,seed,s,a,b,family"
    assert len(lines) == 3
    assert lines[1].endswith("kronecker")


def test_second_moment_json_config(capsys):
    code, out, _ = run(capsys, "second-moment", "--family", "kronecker",
                       "--a", "1.55", "--b", "1.70", "--s", "0.1",
                       "--N", "100", "--K", "4", "--mode", "random",
                       "--seed", "20260819", "--threads", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "second-moment v1"
    assert doc["config"]["mode"] == "random"
    assert doc["config"]["seed"] == 20260819
    assert [e["N"] for e in doc["entries"]] == [100]


# ---------------------------------------------------------------------------
# replayability and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b, K", [
    ("1e308", "2"),  # node 0, 2.5e307 + 9/8, has a 1025-bit mantissa
    ("1.5" + "0" * 4296 + "1", "400"),  # nodes past 4300 digits as p/q text
], ids=["mantissa-1025-bits", "node-denominator-4302-digits"])
def test_second_moment_nodes_of_a_valid_interval_run(capsys, b, K):
    code, out, err = run(capsys, "second-moment", "--family", "linpow",
                         "--a", "1.5", "--b", b, "--s", "1", "--N", "5",
                         "--K", K, "--threads", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["schema"] == "second-moment v1"


def _argv_from_config(block: dict) -> list:
    argv = [block["subcommand"]]
    for key, value in block.items():
        if key == "subcommand":
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


def _config_of(path) -> dict:
    text = path.read_text()
    if text.startswith("#"):
        for line in text.splitlines():
            if line.startswith("# config "):
                return json.loads(line[len("# config "):])
        raise AssertionError("no config comment in points file")
    return json.loads(text)["config"]


@pytest.mark.parametrize("argv", [
    ["orbit", "--family", "monomial:k=2", "--alpha", "1.5", "--N", "50",
     "--delta", "1e-9"],
    ["paircorr", "--family", "geomsum:k=2", "--alpha", "1.9",
     "--N-list", "20,40", "--s", "0.5"],
    ["second-moment", "--family", "kronecker", "--a", "1.55", "--b", "1.70",
     "--s", "0.1", "--N-list", "100,200", "--K", "4", "--mode", "random",
     "--seed", "7"],
    ["measure", "--a", "1.1", "--b", "1.2", "--degree", "3",
     "--target-c", "0.9", "--target-d", "0.1", "--wrap"],
    ["hypothesis", "--family", "monomial:k=2", "--a", "1.5", "--b", "2",
     "--n1-max", "40", "--n2-max", "80"],
])
def test_replay_from_embedded_config(tmp_path, capsys, argv):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert main(argv + ["--out", str(first)]) == 0
    replay = _argv_from_config(_config_of(first))
    assert main(replay + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv, items", [
    (["paircorr", "--in", "pts.txt", "--s", "0.3"],
     [("subcommand", "paircorr"), ("s", "0.3"), ("format", "json"),
      ("in", "pts.txt")]),
    (["discrepancy", "--in", "pts.txt"],
     [("subcommand", "discrepancy"), ("in", "pts.txt")]),
    (["measure", "--a", "1.1", "--b", "1.2", "--degree", "2",
      "--target-c", "0.9", "--target-d", "0.1", "--wrap"],
     [("subcommand", "measure"), ("a", "1.1"), ("b", "1.2"), ("degree", 2),
      ("target_c", "0.9"), ("target_d", "0.1"), ("wrap", True),
      ("tol", "1e-9")]),
    (["measure", "--target-c", "0", "--target-d", "0.25", "--n2", "2",
      "--n1", "1", "--family", "monomial:k=2", "--b", "1.2", "--a", "1.1"],
     [("subcommand", "measure"), ("family", "monomial:k=2"), ("a", "1.1"),
      ("b", "1.2"), ("n1", 1), ("n2", 2), ("target_c", "0"),
      ("target_d", "0.25"), ("tol", "1e-9")]),
    (["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
      "--s", "1", "--N", "20", "--K", "2", "--threads", "1"],
     [("subcommand", "second-moment"), ("family", "linpow"), ("a", "1.5"),
      ("b", "1.6"), ("N", 20), ("s", "1"), ("delta", "1/1099511627776"),
      ("seed", 0), ("K", 2), ("format", "json"), ("mode", "midpoint")]),
    (["paircorr", "--s", "1", "--N-list", "20, 40", "--alpha", "1.5",
      "--family", "monomial:k=2"],
     [("subcommand", "paircorr"), ("family", "monomial:k=2"),
      ("alpha", "1.5"), ("N_list", "20,40"), ("s", "1"),
      ("delta", "1/1099511627776"), ("format", "json")]),
])
def test_replay_block_keys_and_order(tmp_path, monkeypatch, capsys, argv,
                                     items):
    # paths that the golden artifacts do not cover; the key order is part
    # of every artifact's bytes, whatever order the flags were given in
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.txt").write_text("# ppc-points v1 N=3\n0.1\n0.15\n0.9\n")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert list(json.loads(out)["config"].items()) == items


def test_threads_do_not_change_bytes(tmp_path, capsys):
    base = ["second-moment", "--family", "monomial:k=2", "--a", "1.5",
            "--b", "1.6", "--s", "1", "--N-list", "20,40", "--K", "2"]
    one = tmp_path / "t1.json"
    eight = tmp_path / "t8.json"
    assert main(base + ["--threads", "1", "--out", str(one)]) == 0
    assert main(base + ["--threads", "8", "--out", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()
    capsys.readouterr()


def test_orbit_threads_are_capped_by_usable_cpus(monkeypatch, tmp_path,
                                                capsys):
    # a stub thread runs its work inline when started, so the count is
    # what the walk asks for and no thread is ever started for real
    import threading

    started = []

    class Inline:
        def __init__(self, target):
            self.target = target

        def start(self):
            started.append(self)
            self.target()

        def join(self):
            pass

    monkeypatch.setattr(threading, "Thread", Inline)
    monkeypatch.setattr(hpreal, "_usable_cpus", lambda: 3)
    argv = ["orbit", "--family", "monomial:k=2", "--alpha", "1.5",
            "--N", "600", "--out"]
    assert main(argv + [str(tmp_path / "t1.txt"), "--threads", "1"]) == 0
    assert started == []
    assert main(argv + [str(tmp_path / "tm.txt"),
                        "--threads", "1000000"]) == 0
    # CPython's own multiply holds the GIL, so that backend walks serially
    assert len(started) == (0 if hpreal._mul is operator.mul else 2)
    assert ((tmp_path / "t1.txt").read_bytes()
            == (tmp_path / "tm.txt").read_bytes())
    capsys.readouterr()


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = ["orbit", "--family", "monomial:k=2", "--alpha", "1.5",
            "--N", "10", "--delta", "1e-9"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "o.txt"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# usage errors, help, version
# ---------------------------------------------------------------------------

_FLAG_RULES = [
    (["discrepancy", "--family", "linpow", "--alpha", "1.5"],
     "need --N (or --in FILE)"),
    (["measure", "--a", "1.1", "--b", "1.2", "--degree", "2", "--n1", "1",
      "--target-c", "0", "--target-d", "0.5"],
     "--n1/--n2 only apply with --family"),
    (["measure", "--family", "linpow", "--n1", "1", "--a", "1.1", "--b", "1.2",
      "--target-c", "0", "--target-d", "0.5"],
     "difference maps need --n1 and --n2"),
    (["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
      "--N", "5"],
     "need --family, --a, --b and --s"),
]


@pytest.mark.parametrize("argv", [
    [],
    ["orbit"],
    ["orbit", "--family", "nosuch", "--alpha", "1.5", "--N", "3"],
    ["orbit", "--family", "linpow", "--alpha", "0.9", "--N", "3"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "1"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "3",
     "--delta", "0.3"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "3",
     "--delta", "frogs"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "3",
     "--nosuchflag"],
    ["paircorr", "--s", "0.3"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "10",
     "--N-list", "10,20", "--s", "1"],
    ["paircorr", "--in", "x.txt", "--family", "linpow", "--s", "1"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "10",
     "--s", "-1"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "1000",
     "--s", "0.1", "--delta", "0.01"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5",
     "--N-list", "10,frog", "--s", "1"],
    ["hypothesis", "--family", "linpow", "--a", "2", "--b", "1.5"],
    ["hypothesis", "--family", "linpow", "--a", "0.5", "--b", "2"],
    ["measure", "--a", "1.1", "--b", "1.2", "--degree", "2",
     "--family", "linpow", "--target-c", "0", "--target-d", "0.25"],
    ["measure", "--a", "1.1", "--b", "1.2", "--degree", "2",
     "--target-c", "0.5", "--target-d", "0.25"],
    ["measure", "--a", "1.1", "--b", "1.2", "--degree", "2",
     "--target-c", "0", "--target-d", "0.25", "--tol", "0.1"],
    ["second-moment", "--family", "monomial:k=2", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N-list", "10,20", "--K", "1"],
    ["second-moment", "--family", "monomial:k=2", "--a", "1.5", "--b", "1.6",
     "--s", "1"],
    ["second-moment", "--family", "monomial:k=2", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N-list", "10,20", "--mode", "sobol"],
    ["second-moment", "--family", "monomial:k=2", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N-list", "10,20", "--threads", "0"],
    ["measure", "--family", "kronecker", "--n1", "1", "--n2", "2",
     "--a", "1.5", "--b", "2", "--target-c", "0", "--target-d", "0.5"],
    ["measure", "--family", "linpow", "--n1", "3", "--n2", "2",
     "--a", "1.5", "--b", "2", "--target-c", "0", "--target-d", "0.5"],
    ["orbit", "--family", "geomsum:k=2",
     "--alpha", "1.0000000000000000000000000000000000000001", "--N", "3"],
    ["hypothesis", "--family", "monomial:k=2", "--a", "1.5", "--b", "2",
     "--n1-max", "1", "--n2-max", "5"],
    ["hypothesis", "--family", "kronecker", "--a", "1.5", "--b", "2",
     "--n1-max", "1"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "3",
     "--out", "/nonexistent/dir/x.txt"],
    # literals whose exact value Fraction(text) would expand for minutes
    ["orbit", "--family", "linpow", "--alpha", "1e999999999", "--N", "3"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "3",
     "--delta", "1e-999999999"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "10",
     "--s", "1e999999999"],
    ["hypothesis", "--family", "linpow", "--a", "1.5",
     "--b", "2e9999999999999999999999999"],
    # scans and tolerances beyond their caps
    ["hypothesis", "--family", "geomsum:k=2", "--a", "1.5", "--b", "2",
     "--n-max", "40"],
    ["hypothesis", "--family", "linpow", "--a", "1.5", "--b", "2",
     "--n-max", "100000000"],
    ["hypothesis", "--family", "factorial", "--a", "1.5", "--b", "2",
     "--grid-size", "100000000"],
    ["measure", "--a", "1.1", "--b", "1.2", "--degree", "2",
     "--target-c", "0", "--target-d", "0.25", "--tol", "1e-400"],
    # an a above 1 that rounds to 1.0, where conditions (3)-(5) run
    ["hypothesis", "--family", "monomial:k=2",
     "--a", "1.00000000000000000001", "--b", "2"],
    ["hypothesis", "--family", "geomsum:k=1",
     "--a", "1.00000000000000000001", "--b", "2"],
    ["hypothesis", "--family", "linpow",
     "--a", "1.00000000000000000001", "--b", "2"],
    ["hypothesis", "--family", "factorial",
     "--a", "1.00000000000000000001", "--b", "2"],
    # flags these commands do not take
    ["hypothesis", "--family", "linpow", "--a", "1.5", "--b", "2",
     "--alpha", "7"],
    ["measure", "--family", "linpow", "--n1", "3", "--n2", "12",
     "--a", "1.5", "--b", "1.6", "--target-c", "0", "--target-d", "0.25",
     "--alpha", "9"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N-list", "10,20", "--K", "2", "--threads", "1",
     "--alpha", "9"],
    ["discrepancy", "--family", "linpow", "--alpha", "1.5", "--N", "10",
     "--format", "json"],
    # a single N and a list together
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N", "7", "--N-list", "20,40", "--K", "2",
     "--threads", "1"],
    # --selftest fits a synthetic series and takes no other flag
    ["second-moment", "--selftest", "--N", "7", "--family", "linpow",
     "--K", "3"],
    ["second-moment", "--selftest", "--K", "99", "--seed", "5"],
    # an endpoint or scale beyond the float range
    ["hypothesis", "--family", "linpow", "--a", "1.5", "--b", "1e400"],
    ["hypothesis", "--family", "monomial:k=2", "--a", "1e400", "--b", "1e401"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "5",
     "--s", "1e400"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N-list", "5,6",
     "--s", "1e400"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1e400", "--N", "5", "--K", "2", "--threads", "1"],
    ["second-moment", "--family", "kronecker", "--a", "1.5", "--b", "1e400",
     "--s", "1", "--N", "5", "--K", "2", "--threads", "1"],
    ["measure", "--a", "1.5", "--b", "1e400", "--degree", "2",
     "--target-c", "0", "--target-d", "0.25"],
    # a scale or delta whose float underflows to 0.0
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "5",
     "--s", "1e-4000"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N-list", "5,6",
     "--s", "1e-4000"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1e-4000", "--N", "5", "--K", "2", "--threads", "1"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--delta", "1e-400", "--N", "5", "--K", "2", "--threads", "1"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "5",
     "--s", "1", "--delta", "1e-400"],
    # a geomsum difference, whose float form divides by a - 1, at an a that
    # rounds to 1.0
    ["measure", "--family", "geomsum:k=1", "--n1", "1", "--n2", "2",
     "--a", "1.0000000000000001", "--b", "1.1", "--target-c", "0",
     "--target-d", "0.5"],
    # a target arc whose length has no nonzero float
    ["measure", "--degree", "2", "--a", "1.5", "--b", "1.6",
     "--target-c", "0", "--target-d", "1e-400"],
    # the CLI's own rules on which flags go together
    *(argv for argv, _ in _FLAG_RULES),
])
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    usage_error(err)


@pytest.mark.parametrize("argv, detail", _FLAG_RULES)
def test_flag_rules_name_the_missing_flags(capsys, argv, detail):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert usage_error(err)["detail"] == detail


def test_unwritable_out_names_the_flag(tmp_path, capsys):
    code, out, err = run(capsys, "orbit", "--family", "linpow", "--alpha",
                         "1.5", "--N", "3", "--out",
                         str(tmp_path / "absent" / "x.txt"))
    assert code == 1 and out == ""
    assert usage_error(err)["detail"].startswith("--out: ")


@pytest.mark.parametrize("argv", [
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N", "10", "--K", "100000000", "--threads", "1"],
    ["hypothesis", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--n2-max", "100000000"],
    ["hypothesis", "--family", "geomsum:k=2", "--a", "1.5", "--b", "2",
     "--n-max", "40"],
    ["hypothesis", "--family", "linpow", "--a", "1.5", "--b", "2",
     "--n-max", "100000000"],
    ["hypothesis", "--family", "factorial", "--a", "1.5", "--b", "2",
     "--grid-size", "100000000"],
    ["measure", "--a", "1.1", "--b", "1.2", "--degree", "2",
     "--target-c", "0", "--target-d", "0.25", "--tol", "1e-400"],
    ["orbit", "--family", "linpow", "--alpha", "1.5", "--N", "100000000"],
    ["orbit", "--family", "kronecker", "--alpha", "1.6180339887",
     "--N", "100000000"],
    ["paircorr", "--family", "kronecker", "--alpha", "1.6180339887",
     "--N", "100000000", "--s", "1"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--N", "100000000", "--threads", "1"],
    ["hypothesis", "--family", "geomsum:k=10", "--a", "1.5", "--b", "2"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "5",
     "--s", "1e400"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N-list", "5,6",
     "--s", "1e400"],
    ["second-moment", "--family", "kronecker", "--a", "1.5", "--b", "1e400",
     "--s", "1", "--N", "5", "--K", "2", "--threads", "1"],
    # a scale or delta whose float underflows to 0.0
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "5",
     "--s", "1e-4000"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N-list", "5,6",
     "--s", "1e-4000"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1e-4000", "--N", "5", "--K", "2", "--threads", "1"],
    ["second-moment", "--family", "linpow", "--a", "1.5", "--b", "1.6",
     "--s", "1", "--delta", "1e-400", "--N", "5", "--K", "2", "--threads", "1"],
    ["paircorr", "--family", "linpow", "--alpha", "1.5", "--N", "5",
     "--s", "1", "--delta", "1e-400"],
])
def test_oversized_scans_are_rejected_before_any_work(monkeypatch, capsys,
                                                       argv):
    import ppclab.families as fam
    import ppclab.hypothesis as hyp
    import ppclab.measure as ms
    import ppclab.secondmoment as sm

    def never(*args, **kwargs):
        raise AssertionError("work started before the bounds check")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", never)
    monkeypatch.setattr(sm, "quadrature_nodes", never)
    monkeypatch.setattr(hyp, "_condition1", never)
    monkeypatch.setattr(ms, "_iterations", never)
    monkeypatch.setattr(fam, "frac_walk", never)
    monkeypatch.setattr(fam, "LatticePoints", never)  # the Kronecker walk
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    usage_error(err)


_SECOND_MOMENT = ["second-moment", "--family", "linpow", "--a", "1.5",
                  "--b", "1.6", "--s", "1", "--N-list", "40,80", "--K", "2"]


def test_second_moment_failure_keeps_the_orbit_index(monkeypatch, capsys):
    from ppclab import hpreal
    from ppclab.families import orbit, parse_family
    from ppclab.paircorr import default_delta

    # 40 bits, 80 after the doubling, certify the first few dozen linpow
    # points only
    monkeypatch.setattr(hpreal, "required_precision", lambda *args: 40)
    with pytest.raises(hpreal.IndeterminateFrac) as info:
        orbit(parse_family("linpow"),
              hpreal.parse_alpha("1.525", hpreal.ALPHA_BITS),  # node 0
              80, default_delta(1, 80))
    assert info.value.index > 1
    code, out, err = run(capsys, *_SECOND_MOMENT, "--threads", "1")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "precision"
    assert doc["detail"].startswith("node 0: ")
    assert doc["index"] == info.value.index


def test_broken_worker_pool_is_one_json_line(monkeypatch, capsys):
    from concurrent.futures.process import BrokenProcessPool

    import ppclab.secondmoment as sm

    class BrokenPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return self

        def result(self):
            raise BrokenProcessPool("a worker process died")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(sm, "_usable_cpus", lambda: 2)
    code, out, err = run(capsys, *_SECOND_MOMENT, "--threads", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "worker",
                                    "detail": "a worker process died"}


def test_overflow_error_is_one_precision_line(monkeypatch, capsys):
    import ppclab.cli as cli

    def overflows(ns):
        raise OverflowError("past the float range")

    monkeypatch.setitem(cli._HANDLERS, "orbit", overflows)
    code, out, err = run(capsys, "orbit", "--family", "linpow",
                         "--alpha", "1.5", "--N", "3")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "precision",
                                    "detail": "past the float range",
                                    "index": None}


def test_wrap_target_without_a_float_length_takes_no_power(monkeypatch,
                                                            capsys):
    from ppclab.families import PowerMap

    def never(self, D):
        raise AssertionError("exact power taken")

    monkeypatch.setattr(PowerMap, "over", never)
    argv = ["measure", "--degree", "2", "--a", "1.5", "--b", "1.6",
            "--target-d", "0", "--wrap", "--target-c"]
    with pytest.raises(AssertionError, match="exact power taken"):
        run(capsys, *argv, "0.9")  # the sentinel stands in the way
    # c = 1 - 10^-400, so the wrap [c, 1) u [0, 0] has length 10^-400
    code, out, err = run(capsys, *argv, "%d/%d" % (10**400 - 1, 10**400))
    assert code == 1 and out == ""
    assert usage_error(err)["detail"] == ("target length must be within the "
                                          "float range")


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "paircorr", "--in",
                       str(tmp_path / "absent.txt"), "--s", "1")
    assert code == 1
    usage_error(err)


def test_malformed_points_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n0.5\n")
    code, _, err = run(capsys, "paircorr", "--in", str(path), "--s", "1")
    assert code == 1
    usage_error(err)
    # a zero denominator, and exponents whose exact value would take
    # gigabytes: all are rejected as text, for both readers of --in
    for line in ("1/0", "1e999999999", "1e-999999999"):
        path.write_text("# ppc-points v1 N=2\n0.5\n%s\n" % line)
        for argv in (["paircorr", "--in", str(path), "--s", "1"],
                     ["discrepancy", "--in", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            usage_error(err)


def test_help_lists_subcommands_and_is_stable(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in ("orbit", "paircorr", "discrepancy", "hypothesis",
                 "measure", "second-moment"):
        assert name in out
    code2, out2, _ = run(capsys, "--help")
    assert code2 == 0 and out2 == out


def test_subcommand_help(capsys):
    code, out, _ = run(capsys, "second-moment", "--help")
    assert code == 0
    for flag in ("--family", "--N-list", "--K", "--mode", "--seed",
                 "--selftest", "--format", "--threads", "--out"):
        assert flag in out


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("ppclab ")
    assert out.strip().split()[1][0].isdigit()
    assert out.strip().endswith("(multiply: %s)" % hpreal.MUL_BACKEND)
    assert ((hpreal._mul is operator.mul)
            == (hpreal.MUL_BACKEND == "python int"))


def test_importing_cli_loads_no_worker_pool_module():
    # only a pooled second-moment sweep starts worker processes, so the
    # command line loads every library module but not multiprocessing
    probe = ("import json, sys, ppclab.cli; print(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] in "
             "('ppclab', 'multiprocessing', 'concurrent'))))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(ppclab.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [
        "ppclab", "ppclab.cli", "ppclab.families", "ppclab.hpreal",
        "ppclab.hypothesis", "ppclab.measure", "ppclab.paircorr",
        "ppclab.secondmoment"]


@pytest.mark.parametrize("module", ["ppclab.measure", "ppclab.secondmoment"])
def test_interval_users_load_no_hypothesis_module(module):
    # the interval [a, b] and the maps g belong to families, so measuring
    # and sweeping need no growth-condition code
    probe = ("import json, sys, %s; print(json.dumps("
             "'ppclab.hypothesis' in sys.modules))" % module)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(ppclab.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) is False
