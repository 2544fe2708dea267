import json

import pytest

from fglcheck.cli import run


def test_fgl_multiplicative(capsys):
    assert run(["fgl", "--builtin", "multiplicative", "--p", "2",
                "--precision", "4", "--degree-bound", "5"]) == 0
    out = capsys.readouterr().out
    assert "[2](x)" in out and "PASS" in out


def test_fgl_lubin_tate(capsys):
    assert run(["fgl", "--builtin", "lubin-tate", "--p", "2", "--n", "2",
                "--precision", "2", "--u-bound", "1",
                "--degree-bound", "6"]) == 0
    assert "Height(2)" in capsys.readouterr().out


def test_graded(capsys):
    assert run(["graded"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_bialg_with_dual(capsys):
    assert run(["bialg", "--height1", "2,2,2,2", "--dualize"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_theta_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "ring": {"p": 2, "N": 5},
        "shape": {"kind": "poly", "vars": ["x"]},
        "psi_on_coeffs": "id",
        "psi_gen_images": {"x": [[[2], "1"]]}}))
    assert run(["theta", "check", "--file", str(good)]) == 0
    out = capsys.readouterr().out
    assert "theta(x) = 0" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ring": {"p": 2, "N": 5},
        "shape": {"kind": "poly", "vars": ["x"]},
        "psi_on_coeffs": "id",
        "psi_gen_images": {"x": [[[1], "1"]]}}))
    assert run(["theta", "check", "--file", str(bad)]) == 1
    assert "witness" in capsys.readouterr().out


def test_congruence_squares_and_height1(capsys):
    assert run(["congruence", "--squares", "2,4", "--height1", "2,3,2,3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_congruence_comodule(tmp_path, capsys):
    doc = {"base": {"p": 2, "N": 1}, "vars": ["y"],
           "l1": {"ring": {"p": 2, "N": 3}},
           "psi1": {"y": [["1", [[[2], "1"]]]]}}
    f = tmp_path / "com.json"
    f.write_text(json.dumps(doc))
    assert run(["congruence", "--comodule-file", str(f)]) == 0
    doc["psi1"] = {"y": [["1", [[[1], "1"]]]]}
    f.write_text(json.dumps(doc))
    assert run(["congruence", "--comodule-file", str(f)]) == 1


def test_weights_gcd_table(capsys):
    assert run(["weights", "gcd", "--max", "20"]) == 0
    out = capsys.readouterr().out
    assert "m=   4  gcd binom = 2" in out
    assert "m=  20  gcd binom = 1" in out


def test_weights_certify(capsys):
    assert run(["weights", "certify", "--m", "6", "--p", "3"]) == 0
    assert "DivisibleCase" in capsys.readouterr().out


def test_weights_epi(tmp_path, capsys):
    doc = {"ring": {"p": 2, "N": 3}, "target_rank": 1, "maps": [[["2"]]]}
    f = tmp_path / "fam.json"
    f.write_text(json.dumps(doc))
    assert run(["weights", "epi", "--file", str(f)]) == 1
    assert "surjective: False" in capsys.readouterr().out


def test_json_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["congruence", "--squares", "2,4", "--json"]
    assert run(args + [str(out1)]) == 0
    assert run(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["seed"] == 0 and doc["subcommand"] == "congruence"


def test_usage_errors_exit_2(capsys):
    assert run(["congruence"]) == 2
    assert run(["theta", "check", "--file", "/nonexistent.json"]) == 2
    assert run(["nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ["weights", "certify", "--m", "5", "--p", "1"],   # digit_sum never ends at p = 1
    ["fgl", "--builtin", "honda", "--n", "0"],        # the Honda log never ends at n = 0
    ["weights", "certify", "--m", "5", "--p", "0"],   # division by p
    ["weights", "certify", "--m", "6", "--p", "4"],   # not a prime
    ["weights", "certify", "--m", "-3", "--p", "3"],  # negative weight
    ["fgl", "--p", str(10 ** 30 + 57)],               # beyond exact primality testing
    ["bialg", "--height1", "2,3,-2,1"],               # f <= 0 used to build f = 1
    ["congruence", "--height1", "2,3,0,1"],
    ["bialg", "--height1", "4,3,2,1"],                # not a prime
    ["congruence", "--height1", "2,0,1,1"],           # precision 0
    ["bialg", "--height1", "2,3,1,-1"],               # negative kmax
    ["bialg", "--height1", "2,3,1"],                  # three fields, not four
    ["fgl", "--builtin", "multiplicative", "--degree-bound", "0"],  # [2](x) = 0
    ["weights", "gcd", "--max", "1"],                 # no m to check
])
def test_out_of_range_arguments_exit_2(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert "invalid" in err and "Traceback" not in err + out
    assert "Case" not in out


def test_fgl_from_file(tmp_path, capsys):
    from fglcheck.exact_arith import WittCoefRing
    from fglcheck.formal_groups import fgl_multiplicative
    G = fgl_multiplicative(WittCoefRing(2, 3), 5)
    f = tmp_path / "fgl.json"
    f.write_text(json.dumps(G.to_json()))
    assert run(["fgl", "--file", str(f)]) == 0
    assert "Height(1)" in capsys.readouterr().out


def _mismatched_law_file(tmp_path):
    """A multiplicative law whose top-level D differs from its series' D."""
    from fglcheck.exact_arith import WittCoefRing
    from fglcheck.formal_groups import fgl_multiplicative
    doc = fgl_multiplicative(WittCoefRing(2, 3), 5).to_json()
    doc["D"] = 7
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    return f


def test_fgl_file_with_mismatched_bound_exits_2(tmp_path, capsys):
    assert run(["fgl", "--file", str(_mismatched_law_file(tmp_path))]) == 2
    out, err = capsys.readouterr()
    assert "a law at D=7" in err and "Traceback" not in err + out


def test_fgl_file_with_mismatched_bound_exits_2_under_O(tmp_path):
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-m", "fglcheck", "fgl", "--file",
                           str(_mismatched_law_file(tmp_path))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "a law at D=7" in proc.stderr and "Traceback" not in proc.stderr


def test_selftest_exit_zero(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS] criterion") == 12
