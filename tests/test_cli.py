import copy
import json
import random
import signal

import pytest

from fglcheck.cli import run
from fglcheck.twisted_bialgebra import height1_gamma


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


def _theta_and_comodule_files(tmp_path, theta_vars, theta_images, com_vars, psi1):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"ring": {"p": 2, "N": 3},
                                 "shape": {"kind": "poly", "vars": theta_vars},
                                 "psi_gen_images": theta_images}))
    com = tmp_path / "com.json"
    com.write_text(json.dumps({"base": {"p": 2, "N": 1}, "vars": com_vars,
                               "l1": {"ring": {"p": 2, "N": 3}}, "psi1": psi1}))
    return (["theta", "check", "--file", str(theta), "--samples", "0"],
            ["congruence", "--comodule-file", str(com)])


def test_repeated_generator_names_exit_2(tmp_path, capsys):
    # psi(x_2) = x_1^2 is no Frobenius lift; with both named x it used to pass.
    # A Lubin-Tate law over u1, u1 passed 5/5 and printed two variables as u1.
    theta, com = _theta_and_comodule_files(
        tmp_path, ["x", "x"], {"x": [[[2, 0], "1"]]},
        ["y", "y"], {"y": [["1", [[[2, 0], "1"]]]]})
    from fglcheck.formal_groups import lubin_tate_deformation
    doc = lubin_tate_deformation(2, 3, 2, 2, 6).to_json()
    doc["ring"]["vars"] = ["u1", "u1"]
    law = tmp_path / "law.json"
    law.write_text(json.dumps(doc))
    for argv in (theta, com, ["fgl", "--file", str(law)]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "must name each variable once" in err
    assert "['u1', 'u1']" in err


def test_images_of_non_generators_exit_2(tmp_path, capsys):
    theta, com = _theta_and_comodule_files(
        tmp_path, ["x"], {"x": [[[2], "1"]], "y": [[[1], "1"]]},
        ["y"], {"y": [["1", [[[2], "1"]]]], "z": [["1", [[[1], "1"]]]]})
    for argv, name in ((theta, "'y'"), (com, "'z'")):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert name in err and "not generators" in err


def test_an_ill_defined_psi_exits_2_with_its_relation(tmp_path, capsys):
    # x^2 = 0 but psi(x) = 1: the presentation is refused when it is read
    f = tmp_path / "ill.json"
    f.write_text(json.dumps({"ring": {"p": 2, "N": 3},
                             "shape": {"kind": "monic_quotient", "var": "x",
                                       "monic": ["0", "0", "1"]},
                             "psi_gen_images": {"x": ["1", "0"]}}))
    assert run(["theta", "check", "--file", str(f)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: psi(x*x^1) != psi(x)*psi(x^1)\n" and not out


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
    ["graded", "--p", "4"],                           # not a prime
    ["theta", "check", "--file", "unread.json", "--samples", "-3"],  # no samples
    ["fgl", "--builtin", "lubin-tate", "--n", "2", "--u-bound", "-1"],  # no u-degrees
    ["congruence", "--squares", "2,1"],               # the squares need N >= 2
    ["congruence", "--squares", "2"],                 # one field, not two
    ["congruence", "--squares", "4,3"],               # not a prime
    ["congruence", "--squares", "2,x"],               # not an integer
    ["fgl", "--precision", "0"],                      # Z/p^0 is the zero ring
    ["graded", "--precision", "0"],
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


def test_package_import_loads_no_module():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, fglcheck\n"
            "print(sorted(m for m in sys.modules if m.startswith('fglcheck.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    proc = subprocess.run([sys.executable, "-m", "fglcheck", "weights", "gcd",
                           "--max", "10"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _subprocess(argv, preexec_fn=None):
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "fglcheck"] + argv, capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=preexec_fn)


def test_height1_over_a_large_residue_field_ends_quickly():
    # choosing the extension of F_7^12 once walked 7^11 candidates with the
    # factor t, each through a trial-division irreducibility test
    proc = _subprocess(["bialg", "--height1", "7,2,12,1", "--dualize"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[PASS]")


@pytest.mark.parametrize("argv", [
    ["fgl", "--precision", "1000000000000"],
    ["graded", "--precision", "1000000000000"],
    ["bialg", "--height1", "2,1000000000000,1,1"],
    ["congruence", "--squares", "2,1000000000000"],
    ["weights", "epi", "--file", "EPI"],
])
def test_a_huge_precision_ends_quickly(tmp_path, argv):
    # writing p^N in decimal fails past the interpreter's digit limit, and
    # computing it first took longer than any timeout
    epi = tmp_path / "epi.json"
    epi.write_text(json.dumps(dict(FUZZ_EPI[0], ring={"p": 2, "N": 1000000000000})))
    proc = _subprocess([str(epi) if a == "EPI" else a for a in argv])
    assert proc.returncode == 2
    assert "error: precision N=1000000000000" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_a_precision_past_the_digit_limit_names_it(capsys):
    import sys
    assert run(["fgl", "--precision", "20000"]) == 2
    out, err = capsys.readouterr()
    assert (f"error: precision N=20000: p^N = 2^20000 has over "
            f"{sys.get_int_max_str_digits()} decimal digits") in err
    assert "Traceback" not in out + err


def _cap_address_space(limit=1 << 30):
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_running_out_of_memory_exits_2(tmp_path):
    # the packed products of x^20000 y^20000 within D = 10^6 outgrow a 1 GiB cap
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"ring": {"p": 2, "N": 2}, "D": 10 ** 6, "F": {
        "vars": ["x", "y"], "D": 10 ** 6,
        "terms": [[[1, 0], "1"], [[0, 1], "1"], [[20000, 20000], "1"]]}}))
    proc = _subprocess(["fgl", "--file", str(law)], _cap_address_space)
    assert proc.returncode == 2
    assert "error: memory ran out" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_running_out_of_memory_inside_the_handler_exits_2():
    # printing inside the MemoryError handler, whose traceback still held the
    # failed command's frames, ran out of memory again and exited 1
    proc = _subprocess(["congruence", "--height1", "2,2,1,100000"],
                       lambda: _cap_address_space(1 << 28))
    assert proc.returncode == 2, proc.stderr
    assert "error: memory ran out" in proc.stderr
    assert not any(m in proc.stdout + proc.stderr
                   for m in ("Traceback",) + INTERPRETER_MESSAGES), proc.stderr


def test_memory_error_frees_the_command_before_printing(monkeypatch):
    # the subprocess above exited 1 only in runs whose last failed allocation
    # left no room to print; this sees directly that the failed command's
    # frames are freed before the print
    import weakref

    from fglcheck import cli

    class Held:
        pass

    refs, at_print = [], []

    def cmd(args):
        held = Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_weights", cmd)
    monkeypatch.setattr(cli, "print", lambda *a, **k: at_print.append(refs[0]()),
                        raising=False)
    assert run(["weights", "gcd", "--max", "3"]) == 2
    assert at_print == [None]


# psi_1(y) = 1 (x) y^2 over F_4: the p-th power map is sigma-semilinear, and with
# the identity on coefficients every sample with a coefficient t failed (9/21)
F4_COMODULE = {"base": {"p": 2, "N": 1, "ext": [1, 1, 1]}, "vars": ["y"],
               "l1": {"ring": {"p": 2, "N": 3, "ext": [1, 1, 1]}},
               "psi1": {"y": [[["1", "0"], [[[2], ["1", "0"]]]]]}}


@pytest.mark.parametrize("argv,doc,code,message", [
    # the Honda log stopped only once p^(n i) > D, after computing p^(n i)
    (["fgl", "--builtin", "honda", "--n", "1000000000000"], None, 0, "[PASS] 5/5"),
    # the certificate computed a 10^12-digit index before printing failed on it
    (["weights", "certify", "--m", "1000000000000", "--p", "2"], None, 2,
     "error: weight m=1000000000000: the index at p=2 has over"),
    (["congruence", "--comodule-file", "FILE"], F4_COMODULE, 0, "[PASS] 21/21"),
    # (Z/p^N)[u] coefficients were packed in a box of (U+1)^m slots each
    (["fgl", "--builtin", "lubin-tate", "--n", "2", "--u-bound", "1000000000000",
      "--degree-bound", "4", "--precision", "2"], None, 0, "[PASS] 5/5"),
    (["fgl", "--builtin", "lubin-tate", "--n", "30", "--u-bound", "2", "--degree-bound", "4"],
     None, 0, "[PASS] 5/5"),
    # _dots nested one lazy map per u-variable, and the chain overflowed the C stack
    (["fgl", "--builtin", "lubin-tate", "--p", "2", "--n", "100000", "--precision", "2",
      "--u-bound", "0", "--degree-bound", "4"], None, 0, "[PASS] 5/5"),
    # elements() copied range(p^N) into a tuple before the first element
    (["congruence", "--height1", "2,2,1,1", "--squares", "2,26"], None, 0, "[PASS] 14/14"),
    (["congruence", "--height1", "2,2,1,1", "--squares", "2,63"], None, 0, "[PASS] 14/14"),
    (["congruence", "--height1", "2,2,1,1", "--squares", "2,100"], None, 0, "[PASS] 14/14"),
], ids=["honda", "certify", "f4-comodule", "lubin-tate-huge-u-bound", "lubin-tate-n30",
        "lubin-tate-n100000", "squares-26", "squares-63", "squares-100"])
def test_inputs_that_hung_or_failed_end_in_a_verdict(tmp_path, argv, doc, code, message):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(doc))
    proc = _subprocess([str(f) if a == "FILE" else a for a in argv], _cap_address_space)
    # a signal shows as -11 here, or as 139 through a shell
    assert proc.returncode >= 0 and proc.returncode != 139, \
        f"killed by a signal ({proc.returncode})"
    assert proc.returncode == code, proc.stderr
    assert message in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_selftest_exit_zero(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS] criterion") == 12


def _theta_doc(basis, mult):
    """A finite-free presentation over Z/8 with psi(e) = e for every non-unit e;
    mult maps a pair to the index of its product, or to an index outside the
    basis for a zero product."""
    def vec(i):
        return ["1" if j == i else "0" for j in range(len(basis))]
    return {"ring": {"p": 2, "N": 3},
            "shape": {"kind": "finite_free", "basis": basis,
                      "mult": [[i, j, vec(k)] for (i, j), k in mult.items()]},
            "psi_on_coeffs": "id",
            "psi_gen_images": {b: vec(i) for i, b in enumerate(basis) if b != "1"}}


def _theta_file(tmp_path, basis, mult):
    f = tmp_path / "pres.json"
    f.write_text(json.dumps(_theta_doc(basis, mult)))
    return str(f)


@pytest.mark.parametrize("basis,mult", [
    (["e", "1"], {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),  # unit not first
    (["1", "1"], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),  # unit named twice
    (["1", "e"], {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}),  # 1*e = 1
    (["1", "e", "e"], {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
                       (1, 1): -1, (1, 2): -1, (2, 1): -1, (2, 2): -1}),  # e named twice
])
def test_finite_free_basis_must_start_with_its_unit(tmp_path, capsys, basis, mult):
    assert run(["theta", "check", "--file", _theta_file(tmp_path, basis, mult)]) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and "Traceback" not in out + err


@pytest.mark.parametrize("spoil", [
    lambda doc: doc["shape"]["mult"].append([1, 5, ["0", "1"]]),  # index 5 of 2
    lambda doc: doc["shape"]["mult"][3][2].append("0"),           # 3 coordinates
    lambda doc: doc["shape"]["mult"].pop(),                       # no e*e
    lambda doc: doc["psi_gen_images"]["e"].pop(),                 # psi(e) of length 1
])
def test_finite_free_table_must_fit_its_basis(tmp_path, capsys, spoil):
    doc = _theta_doc(["1", "e"], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    spoil(doc)
    f = tmp_path / "pres.json"
    f.write_text(json.dumps(doc))
    assert run(["theta", "check", "--file", str(f)]) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and "Traceback" not in out + err


# e*e = e, b*b = b and e*b = b, but b*e = 0: psi = id passes on the generators
NONCOMMUTATIVE = (["1", "e", "b"], {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1,
                                    (2, 0): 2, (1, 1): 1, (2, 2): 2, (1, 2): 2,
                                    (2, 1): -1})


def test_theta_on_a_noncommutative_table_ends_in_an_exit_code(tmp_path, capsys):
    path = _theta_file(tmp_path, *NONCOMMUTATIVE)
    # psi = id passes on the generators, so only the table check can refuse it
    for samples in ("0", "2"):
        assert run(["theta", "check", "--file", path, "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert "error: the table is not commutative: e*b != b*e" in err
        assert "Traceback" not in out + err


def test_bialg_with_misshapen_constants_fails_grading(tmp_path, capsys):
    from fglcheck.twisted_bialgebra import height1_gamma
    doc = height1_gamma(2, 3, 1, 2).to_json()
    doc["mu"]["0,1"]["0,0"].append("0")   # one coordinate too many for rank(1) = 1
    doc["eps"]["2"].append("0")
    f = tmp_path / "bialg.json"
    f.write_text(json.dumps(doc))
    assert run(["bialg", "--file", str(f)]) == 1
    out = capsys.readouterr().out
    assert "witness (grading_structural): mu[0,1][0,0] has 2 entries" in out


def _bialg_table_mutants():
    from fglcheck.twisted_bialgebra import height1_gamma
    doc = height1_gamma(2, 3, 1, 2).to_json()
    extra_mu, extra_delta, no_mu, no_delta = (copy.deepcopy(doc) for _ in range(4))
    extra_mu["mu"]["0,1"]["7,9"] = doc["mu"]["0,1"]["0,0"]
    extra_delta["delta"]["1"]["4"] = doc["delta"]["1"]["0"]
    del no_mu["mu"]["0,1"]["0,0"]
    del no_delta["delta"]["1"]["0"]
    return [(extra_mu, "mu[0,1] has the key (7, 9), which names no basis element"),
            (extra_delta, "delta[1] has the key 4, which names no basis element"),
            (no_mu, "mu[0,1] lacks the key (0, 0)"),
            (no_delta, "delta[1] lacks the key 0")]


@pytest.mark.parametrize("doc, witness", _bialg_table_mutants(),
                         ids=["extra-mu", "extra-delta", "missing-mu", "missing-delta"])
def test_bialg_tables_are_checked_by_key(tmp_path, capsys, doc, witness):
    f = tmp_path / "bialg.json"
    f.write_text(json.dumps(doc))
    assert run(["bialg", "--file", str(f), "--dualize"]) == 1
    out, err = capsys.readouterr()
    assert f"witness (grading_structural): {witness}" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("table,key,name", [
    (("mu", "0,1"), "a,b", "mu[0,1]"),
    (("mu",), "x,1", "mu"),
    (("mu",), "0", "mu"),
    (("mu",), "0,1,2", "mu"),
    (("basis",), "one", "basis"),
    (("basis",), "-1", "basis"),
    (("delta", "1"), "z", "delta[1]"),
    (("eps",), "1.5", "eps"),
    (("left_t",), "x", "left_t"),
])
def test_bialg_table_keys_are_integers(tmp_path, capsys, table, key, name):
    doc = height1_gamma(2, 2, 2, 1).to_json()
    entries = _at(doc, table)
    entries[key] = copy.deepcopy(next(iter(entries.values())))
    f = tmp_path / "bialg.json"
    f.write_text(json.dumps(doc))
    assert run(["bialg", "--file", str(f), "--dualize"]) == 2
    out, err = capsys.readouterr()
    want = "two integers" if table[0] == "mu" else "an integer"
    assert f"error: {name} has the key {key!r}, which is not {want} >= 0" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("table,entries,first,second", [
    # the later key won: with "01" first the file passed 27/27, and last it failed 25/27
    (("eps",), {"01": ["0"], "1": ["1"], "0": ["1"]}, "01", "1"),
    (("eps",), {"0": ["1"], "1": ["1"], "01": ["0"]}, "1", "01"),
    (("mu", "1,0"), {"0,0": ["1"], "00,0": ["0"]}, "0,0", "00,0"),
])
def test_bialg_keys_naming_one_entry_twice_exit_2(tmp_path, capsys, table, entries,
                                                  first, second):
    doc = height1_gamma(2, 2, 1, 1).to_json()
    _at(doc, table[:-1])[table[-1]] = entries
    f = tmp_path / "bialg.json"
    f.write_text(json.dumps(doc))
    assert run(["bialg", "--file", str(f)]) == 2
    out, err = capsys.readouterr()
    assert (f"error: {table[0]}{''.join(f'[{k}]' for k in table[1:])} has the keys "
            f"{first!r} and {second!r}, which name the same entry") in err
    assert "Traceback" not in out + err


def test_dualize_at_weight_zero_only_over_an_extension(capsys):
    # kmax = 0 stores no weight 1, which the t* diagnostic must not ask for
    assert run(["bialg", "--height1", "2,2,4,0", "--dualize"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_points_imply_dualize(tmp_path):
    reports = []
    for extra in ([], ["--dualize"]):
        out = tmp_path / f"r{len(extra)}.json"
        assert run(["bialg", "--height1", "2,3,1,2", "--points", '{"p": 2, "N": 1}',
                    *extra, "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]
    assert len(reports[0]["checks"]) == 90   # 47 without the dual scheme and points


@pytest.mark.parametrize("argv", [
    ["fgl"], ["graded"], ["bialg"], ["weights", "gcd"],
    ["weights", "certify", "--m", "6", "--p", "3"],
    ["weights", "epi", "--file", "unread.json"], ["selftest"]])
def test_seed_only_where_a_command_samples(argv, capsys):
    assert run(argv + ["--seed", "7"]) == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_seed_is_echoed_where_a_command_samples(tmp_path):
    out = tmp_path / "r.json"
    assert run(["congruence", "--squares", "2,3", "--seed", "7", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7


def _law_file(tmp_path, D, terms):
    f = tmp_path / f"law{D}.json"
    f.write_text(json.dumps({"ring": {"p": 2, "N": 3}, "D": D,
                             "F": {"vars": ["x", "y"], "D": D, "terms": terms}}))
    return str(f)


def test_law_file_with_a_bound_below_one_exits_2(tmp_path, capsys):
    x_plus_5y = [[[1, 0], "1"], [[0, 1], "5"]]   # not a law: F(0, y) = 5y
    for D, terms in ((0, []), (-3, x_plus_5y)):
        assert run(["fgl", "--file", _law_file(tmp_path, D, terms)]) == 2
        out, err = capsys.readouterr()
        assert f"a law needs a degree bound D >= 1, not D={D}" in err
        assert "Traceback" not in out + err
    assert run(["fgl", "--file", _law_file(tmp_path, 1, x_plus_5y)]) == 1
    out = capsys.readouterr().out
    for axiom in ("unit_y", "commutativity", "associativity"):
        assert f"witness (axiom:{axiom})" in out


class _Overrun(BaseException):
    """Raised by the alarm when one fuzz case runs past its time limit."""


FUZZ_CASES = 300
FUZZ_LIMIT_S = 5

# the inputs that file cases mutate: a psi-ring presentation of each shape,
# the non-commutative table, epimorphic families over Z/8, Z/9 and W(F_4), and
# the height-1 bialgebra over W(F_4)
FUZZ_THETA = [
    {"ring": {"p": 2, "N": 5}, "shape": {"kind": "poly", "vars": ["x"]},
     "psi_on_coeffs": "id", "psi_gen_images": {"x": [[[2], "1"], [[1], "2"]]}},
    {"ring": {"p": 2, "N": 4, "ext": [1, 1, 1]},
     "shape": {"kind": "poly", "vars": ["x", "y"]}, "psi_on_coeffs": "sigma",
     "psi_gen_images": {"x": [[[2, 0], ["1", "0"]]], "y": [[[0, 2], ["0", "1"]]]}},
    {"ring": {"p": 2, "N": 3},
     "shape": {"kind": "monic_quotient", "var": "x", "monic": ["0", "7", "1"]},
     "psi_on_coeffs": "id", "psi_gen_images": {"x": ["0", "1"]}},
    {"ring": {"p": 3, "N": 2},
     "shape": {"kind": "finite_free", "basis": ["1", "b"],
               "mult": [[0, 0, ["1", "0"]], [0, 1, ["0", "1"]], [1, 0, ["0", "1"]],
                        [1, 1, ["0", "0"]]]},
     "psi_on_coeffs": "id", "psi_gen_images": {"b": ["0", "0"]}},
    _theta_doc(*NONCOMMUTATIVE),
]
FUZZ_EPI = [
    {"ring": {"p": 2, "N": 3}, "target_rank": 1, "maps": [[["2"]], [["1"], ["3"]]]},
    {"ring": {"p": 3, "N": 2}, "target_rank": 2,
     "maps": [[["1", "0"], ["0", "3"]], [["0", "1"]]]},
    {"ring": {"p": 2, "N": 2, "ext": [1, 1, 1]}, "target_rank": 1,
     "maps": [[[["1", "1"]]]]},
]
FUZZ_BIALG = [height1_gamma(2, 2, 2, 1).to_json()]
# what the interpreter says when a reader hands input straight to int(), tuple
# unpacking or an allocation; a data error must say what it read instead
INTERPRETER_MESSAGES = ("invalid literal for int()", "values to unpack", "MemoryError",
                        "too large to convert", "Exception ignored",
                        "maximum recursion depth")


def _paths(doc, here=()):
    """The path of every entry below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield here + (k,)
        yield from _paths(v, here + (k,))


def _mutate(doc, rng):
    """doc with one to three entries changed: a number or string replaced by
    another of its type, a list entry dropped or repeated, or a key dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        *where, key = rng.choice(list(_paths(doc)))
        parent = doc
        for k in where:
            parent = parent[k]
        v = parent[key]
        if isinstance(v, int):
            parent[key] = rng.choice([-2, -1, 0, 1, 2, 3, 4, 5, 7, 8, 9])
        elif isinstance(v, str):
            parent[key] = rng.choice(["0", "1", "2", "-1", "7", "x", "b"])
        elif isinstance(v, list) and v and rng.random() < 0.5:
            v.pop(rng.randrange(len(v)))
        elif isinstance(v, list) and v:
            v.append(copy.deepcopy(rng.choice(v)))
        elif isinstance(v, dict) and v:
            v.pop(rng.choice(list(v)))
    return doc


def _mutated_file(tmp_path, rng, seeds):
    f = tmp_path / "fuzz.json"
    f.write_text(json.dumps(_mutate(rng.choice(seeds), rng)))
    return str(f)


def _fuzz_argv(rng, tmp_path):
    """Small arguments, mostly valid; 0, negatives and non-primes mixed in.
    File inputs are seeded presentations and families with a few entries
    mutated."""
    def pick(good, bad):
        return str(rng.choice(good if rng.random() < 0.85 else bad))

    def p():
        return pick([2, 3, 5], [-3, 0, 1, 4, 9])

    def v():
        return pick([1, 2, 3], [-1, 0])

    cmd = rng.choice(["fgl", "graded", "bialg", "bialg-file", "congruence", "weights",
                      "theta", "epi"])
    if cmd == "fgl":
        return ["fgl", "--builtin",
                rng.choice(["multiplicative", "additive", "honda", "lubin-tate"]),
                "--p", p(), "--n", v(), "--precision", v(), "--u-bound", v(),
                "--degree-bound", pick([1, 4, 6], [-1, 0])]
    if cmd == "graded":
        return ["graded", "--p", p(), "--precision", v()]
    if cmd == "theta":
        return ["theta", "check", "--file", _mutated_file(tmp_path, rng, FUZZ_THETA),
                "--samples", pick([0, 2, 5], [-1])]
    if cmd == "epi":
        return ["weights", "epi", "--file", _mutated_file(tmp_path, rng, FUZZ_EPI)]
    if cmd == "bialg-file":
        return ["bialg", "--file", _mutated_file(tmp_path, rng, FUZZ_BIALG), "--dualize"]
    spec = ",".join([p(), v(), v(), v()])
    if cmd == "bialg":
        argv = ["bialg", "--height1", spec]
        if rng.random() < 0.5:
            argv.append("--dualize")
            if rng.random() < 0.5:
                argv += ["--points", json.dumps({"p": int(p()), "N": int(v())})]
        return argv
    if cmd == "congruence":
        return ["congruence", "--height1", spec,
                "--squares", f"{p()},{pick([1, 2, 3, 9], [-1, 0])}"]
    if rng.random() < 0.5:
        return ["weights", "gcd", "--max", pick([2, 30], [-1, 0, 1])]
    return ["weights", "certify", "--m", pick([0, 2, 5, 6, 9], [-3]), "--p", p()]


def test_cli_fuzz_ends_in_an_exit_code(tmp_path, capsys):
    def overrun(signum, frame):
        raise _Overrun

    old = signal.signal(signal.SIGALRM, overrun)
    rng = random.Random(20261018)
    try:
        for _ in range(FUZZ_CASES):
            argv = _fuzz_argv(rng, tmp_path)
            signal.setitimer(signal.ITIMER_REAL, FUZZ_LIMIT_S)
            try:
                code = run(argv)
            except _Overrun:
                pytest.fail(f"{argv} ran past {FUZZ_LIMIT_S} s")
            except Exception as e:
                pytest.fail(f"{argv} raised {e!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert "Traceback" not in out + err, argv
            assert not any(m in out + err for m in INTERPRETER_MESSAGES), (argv, err)
    finally:
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("kind,doc,message", [
    ("theta", dict(FUZZ_THETA[0], ring=[2, 5]),
     "a ring descriptor must be an object, not [2, 5]"),
    ("theta", dict(FUZZ_THETA[0], psi_gen_images={"x": [1, 0, 0]}),
     "psi(x): a term is [exponents, coefficient], not 1"),
    ("theta", dict(FUZZ_THETA[0], ring={"p": "2", "N": 5}),
     "ring p must be an integer, not '2'"),
    ("theta", dict(FUZZ_THETA[0], psi_gen_images={"x": [[[1], "1"], [[2], "1"], [[1], "0"]]}),
     "psi(x): exponents [1] are given twice"),
    ("theta", dict(FUZZ_THETA[2], psi_gen_images={"x": [0, 1]}),
     "an element of Z/2^3 is a decimal string or a list of them, not 0"),
    ("epi", [FUZZ_EPI[0]], "an epi family must be an object, not [{"),
    ("epi", dict(FUZZ_EPI[0], target_rank="1"), "target_rank must be an integer"),
    ("theta", dict(FUZZ_THETA[2], shape=dict(FUZZ_THETA[2]["shape"], monic=["x", "7", "1"])),
     "an element of Z/2^3 is a decimal string or a list of them, not 'x'"),
    ("theta", dict(FUZZ_THETA[3], shape=dict(FUZZ_THETA[3]["shape"], mult=[
        [0, 0, ["1", "0"]], [0, 1, ["0", "1"]], [1, 0, ["0", "1"]], [1, 1, ["0", "b"]]])),
     "an element of Z/3^2 is a decimal string or a list of them, not 'b'"),
    ("epi", dict(FUZZ_EPI[0], maps=[[["x"]]]),
     "an element of Z/2^3 is a decimal string or a list of them, not 'x'"),
])
def test_json_of_the_wrong_type_or_shape_exits_2(tmp_path, capsys, kind, doc, message):
    f = tmp_path / "typed.json"
    f.write_text(json.dumps(doc))
    argv = (["theta", "check"] if kind == "theta" else ["weights", "epi"]) + ["--file", str(f)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert f"error: {message}" in err and "Traceback" not in out + err


# JSON values of every type, each put in turn where a value of another type belongs
WRONG_TYPES = [None, True, 2, 1.5, "2", [2, 5], {"p": 2}]


def _typed_seeds():
    """(argv before the file, document) for every file-reading subcommand."""
    from fglcheck.exact_arith import WittCoefRing
    from fglcheck.formal_groups import fgl_multiplicative, lubin_tate_deformation
    from fglcheck.twisted_bialgebra import height1_gamma
    comodule = {"base": {"p": 2, "N": 1}, "vars": ["y"],
                "l1": {"ring": {"p": 2, "N": 3}, "can_power": 0},
                "psi1": {"y": [["1", [[[2], "1"]]]]}}
    return ([(["theta", "check", "--samples", "2"], d) for d in FUZZ_THETA]
            + [(["weights", "epi"], d) for d in FUZZ_EPI]
            + [(["bialg", "--dualize"], height1_gamma(2, 2, 2, 1).to_json()),
               (["fgl"], fgl_multiplicative(WittCoefRing(2, 3), 3).to_json()),
               (["fgl"], lubin_tate_deformation(2, 2, 1, 1, 3).to_json()),
               (["congruence"], comodule)])


def test_entries_of_the_wrong_json_type_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(1729)
    f = tmp_path / "typed.json"
    for argv, seed in _typed_seeds():
        argv = argv + ["--comodule-file" if argv == ["congruence"] else "--file", str(f)]
        for *where, key in _paths(seed):
            others = [w for w in WRONG_TYPES if type(w) is not type(_at(seed, where)[key])]
            for wrong in rng.sample(others, 2):
                doc = copy.deepcopy(seed)
                _at(doc, where)[key] = wrong
                f.write_text(json.dumps(doc))
                try:
                    code = run(argv)
                except Exception as e:
                    pytest.fail(f"{where + [key]} = {wrong!r} raised {e!r}")
                out, err = capsys.readouterr()
                assert code in (0, 1, 2) and "Traceback" not in out + err, (where, key, wrong)
                assert not any(m in out + err for m in INTERPRETER_MESSAGES), (where, err)


def _at(doc, where):
    for k in where:
        doc = doc[k]
    return doc


def test_one_parser_serves_every_call_without_leaking_options(tmp_path, capsys):
    from fglcheck import cli
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(["fgl", "--p", "4"]) == 2
    assert run(["fgl", "--degree-bound", "5", "--json", str(first)]) == 0
    assert json.loads(first.read_text())["report"]["meta"] == {"D": "5"}
    first.unlink()
    capsys.readouterr()
    assert run(["fgl"]) == 0
    assert "json report written" not in capsys.readouterr().out
    assert not first.exists()
    assert run(["fgl", "--json", str(second)]) == 0
    assert json.loads(second.read_text())["report"]["meta"] == {"D": "6"}
    assert not first.exists()


def test_commands_are_looked_up_when_they_run(monkeypatch, capsys):
    # the shared parser holds no command function, so one replaced on the
    # module after the parser was built is the one that runs
    from fglcheck import cli
    assert run(["weights", "gcd", "--max", "3"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_weights", lambda args: seen.append(args.max) or 0)
    assert run(["weights", "gcd", "--max", "4"]) == 0
    assert seen == [4]


def _theta_report(tmp_path, doc):
    src, out = tmp_path / "theta.json", tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    rc = run(["theta", "check", "--file", str(src), "--json", str(out)])
    return rc, json.loads(out.read_text())["report"]


def test_theta_at_precision_one_ends_in_the_wilkerson_verdict(tmp_path, capsys):
    doc = {"ring": {"p": 5, "N": 1}, "shape": {"kind": "poly", "vars": ["x"]},
           "psi_gen_images": {"x": [[[5], "1"]]}}
    rc, rep = _theta_report(tmp_path, doc)
    out = capsys.readouterr()
    assert rc == 0 and rep["verdict"] == "pass" and "error" not in out.err
    assert "precision N - 1 = 0" in rep["meta"]["theta"]
    assert not any(c["name"].startswith("theta_") for c in rep["checks"])
    doc["psi_gen_images"]["x"] = [[[1], "1"]]  # psi(x) = x is not x^5 mod 5
    rc, rep = _theta_report(tmp_path, doc)
    assert rc == 1 and rep["verdict"] == "fail" and "theta" not in rep["meta"]
    assert rep["witnesses"][0]["check"] == "generator[x]"
    assert "psi(x) - x^5 has residues" in rep["witnesses"][0]["witness"]
    doc["ring"]["N"] = 2
    doc["psi_gen_images"]["x"] = [[[5], "1"]]
    rc, rep = _theta_report(tmp_path, doc)
    assert rc == 0 and "theta" not in rep["meta"]
    assert any(c["name"].startswith("theta_") for c in rep["checks"])
