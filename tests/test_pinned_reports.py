"""sha256 digests of `--json` reports, pinned where the tests run them.

Each case runs one CLI command whose report goes through the finite-algebra
paths (structure-constant products, dual algebras, point enumeration) or
builds a Honda or Lubin-Tate law, and compares the digest of the report bytes
with the digest recorded before those paths were merged.  The selftest report
is pinned in the benchmark reference too, which the test suite does not run.
A mismatch means the output changed.
"""

import hashlib
import json

import pytest

from fglcheck.cli import run

# W[x]/(x^2 - x) over Z/2^4 with psi(x) = x
MONIC_QUOTIENT = {
    "ring": {"p": 2, "N": 4},
    "shape": {"kind": "monic_quotient", "var": "x", "monic": ["0", "15", "1"]},
    "psi_on_coeffs": "id",
    "psi_gen_images": {"x": ["0", "1"]}}

# W(F_4)<1, e, b> at precision 3: e^2 = e, eb = b, b^2 = 0; psi is sigma on
# coefficients, psi(e) = e and psi(b) = 2b
_Z, _O, _T = ["0", "0"], ["1", "0"], ["2", "0"]
FINITE_FREE = {
    "ring": {"p": 2, "N": 3, "ext": [1, 1, 1]},
    "shape": {"kind": "finite_free", "basis": ["1", "e", "b"],
              "mult": [[0, 0, [_O, _Z, _Z]], [0, 1, [_Z, _O, _Z]],
                       [0, 2, [_Z, _Z, _O]], [1, 0, [_Z, _O, _Z]],
                       [1, 1, [_Z, _O, _Z]], [1, 2, [_Z, _Z, _O]],
                       [2, 0, [_Z, _Z, _O]], [2, 1, [_Z, _Z, _O]],
                       [2, 2, [_Z, _Z, _Z]]]},
    "psi_on_coeffs": "sigma",
    "psi_gen_images": {"e": [_Z, _O, _Z], "b": [_Z, _Z, _T]}}

CASES = {
    "theta-monic-quotient": (["theta", "check", "--file", "{input}"],
                             MONIC_QUOTIENT,
        "7b10940f94e5d41b5ca2c8b63691169c00047e4bd150743c14c2dc1cfc1f85b2"),
    "theta-finite-free": (["theta", "check", "--file", "{input}"],
                          FINITE_FREE,
        "e5cea5b79328382c1f11da239429a3c440b8a69348dde2cdbd277b3eb057313e"),
    "bialg-points-F4": (["bialg", "--height1", "2,3,2,3", "--dualize", "--points",
                         '{"p":2,"N":1,"ext":[1,1,1]}'], None,
        "88469568f40a306a2aefbaf43215dc5dbd31da72827afe9f8a1d34db5add6767"),
    "congruence-2,3,2,2": (["congruence", "--height1", "2,3,2,2"], None,
        "2f4306cfd708422b84293a0f945ba3b3f87c7641a26f5abf7471dd51e09b44f4"),
    # Honda and Lubin-Tate laws, recorded when they were built over Q
    "fgl-lubin-tate-3,3,2,u=2,D=12": (["fgl", "--builtin", "lubin-tate", "--p", "3",
                                       "--n", "3", "--precision", "2", "--u-bound", "2",
                                       "--degree-bound", "12"], None,
        "d66f5fe61d32688d4c1c5142fd89b1cf8ada778b5b894e560aba4d417d6128af"),
    "fgl-lubin-tate-2,4,2,u=1,D=16": (["fgl", "--builtin", "lubin-tate", "--p", "2",
                                       "--n", "4", "--precision", "2", "--u-bound", "1",
                                       "--degree-bound", "16"], None,
        "34f975e5b9990d5ee6c5216a3d948285aa0a862e12aa66e8c83f2161080949d7"),
    "fgl-honda-5,1,3,D=30": (["fgl", "--builtin", "honda", "--p", "5", "--n", "1",
                              "--precision", "3", "--degree-bound", "30"], None,
        "a4e67cbffe7440207b8980958972f0a0022774e45a88c2d3e5669cc03b6353a5"),
    "fgl-honda-2,3,3,D=60": (["fgl", "--builtin", "honda", "--p", "2", "--n", "3",
                              "--precision", "3", "--degree-bound", "60"], None,
        "24c823abd1a97f394fd35267c04962c4f144a999975b719d11b6ff155322c9aa"),
    # a dense law: every degree of F has terms
    "fgl-honda-2,1,3,D=40": (["fgl", "--builtin", "honda", "--p", "2", "--n", "1",
                              "--precision", "3", "--degree-bound", "40"], None,
        "f9081562888416bc48c8d3711d7fc06542f2b6dd69cdc55a5dc26b03e7883339"),
    # the twelve criteria, whose mutation and class-change loops skip what
    # their perturbation cannot change
    "selftest": (["selftest"], None,
        "4fb0514338d8032500e48f76e5ca24a788d9c05f7767531687477d71c25087aa"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_pinned(name, tmp_path, capsys):
    argv, doc, digest = CASES[name]
    if doc is not None:
        src = tmp_path / "input.json"
        src.write_text(json.dumps(doc))
        argv = [str(src) if a == "{input}" else a for a in argv]
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == 0, capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# a comodule whose psi_1(y) = 1 (x) y breaks the congruence at y: the merged
# report of all three congruence inputs fails, exits 1 and names its witness
BAD_COMODULE = {"base": {"p": 2, "N": 1}, "vars": ["y"], "l1": {"ring": {"p": 2, "N": 3}},
                "psi1": {"y": [["1", [[[1], "1"]]]]}}
MERGED_FAILURE_DIGEST = "686afaaf218be76d0d260eb2a1e4621e03487875b806aa4a279cf2a4c8d40f50"


def test_failing_merged_congruence_report_is_pinned(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(BAD_COMODULE))
    out = tmp_path / "report.json"
    argv = ["congruence", "--height1", "2,3,2,2", "--squares", "2,3",
            "--comodule-file", str(src), "--json", str(out)]
    assert run(argv) == 1, capsys.readouterr().out
    assert json.loads(out.read_bytes())["report"]["witnesses"][0]["check"] == "generator[y]"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MERGED_FAILURE_DIGEST


# psi_1(y) = t (x) t^2 y^2 over F_4, l1 ring W(F_4) at precision 3: can* is
# residue o sigma^k, so the composite is y^2 at even k only; k is taken mod f
SIGMA_POWER_DIGESTS = {
    1: "d5df80642de925dee86195a4bdd8a626d9bd81aec2a358a400637eacd7fa9edf",
    -1: "da6a9c83dd770f8163d29cf331565b8472db094e48b89a5e220fd504ffb73945",
}


@pytest.mark.parametrize("can_power", sorted(SIGMA_POWER_DIGESTS))
def test_comodule_report_under_a_power_of_sigma_is_pinned(can_power, tmp_path, capsys):
    doc = {"base": {"p": 2, "N": 1, "ext": [1, 1, 1]}, "vars": ["y"],
           "l1": {"ring": {"p": 2, "N": 3, "ext": [1, 1, 1]}, "can_power": can_power},
           "psi1": {"y": [[["0", "1"], [[[2], ["1", "1"]]]]]}}
    src = tmp_path / "comodule.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    argv = ["congruence", "--comodule-file", str(src), "--json", str(out)]
    assert run(argv) == 1, capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIGMA_POWER_DIGESTS[can_power]


# lubin_tate_deformation(2, 2, 3, 2, 8) with 1 added to its x*y^2 coefficient:
# not commutative, so associativity composes comm(x, F(y, z)) as well, and the
# report carries both residuals as witnesses
NON_COMMUTATIVE_LAW = {
    "ring": {"poly_over": {"p": 2, "N": 3}, "vars": ["u1"], "ubound": 2}, "D": 8,
    "F": {"vars": ["x", "y"], "D": 8, "terms": [
        [[0, 1], [[[0], "1"]]], [[1, 0], [[[0], "1"]]], [[1, 1], [[[1], "7"]]],
        [[1, 2], [[[0], "1"], [[2], "1"]]], [[1, 3], [[[0], "6"]]], [[1, 4], [[[1], "4"]]],
        [[1, 5], [[[2], "2"]]], [[1, 6], [[[0], "4"]]], [[1, 7], [[[1], "2"]]],
        [[2, 1], [[[2], "1"]]], [[2, 2], [[[0], "5"]]], [[2, 3], [[[1], "3"]]],
        [[2, 4], [[[2], "4"]]], [[2, 5], [[[0], "2"]]], [[2, 6], [[[1], "7"]]],
        [[3, 1], [[[0], "6"]]], [[3, 2], [[[1], "3"]]], [[3, 3], [[[2], "5"]]],
        [[3, 4], [[[0], "2"]]], [[3, 5], [[[1], "6"]]], [[4, 1], [[[1], "4"]]],
        [[4, 2], [[[2], "4"]]], [[4, 3], [[[0], "2"]]], [[4, 4], [[[1], "2"]]],
        [[5, 1], [[[2], "2"]]], [[5, 2], [[[0], "2"]]], [[5, 3], [[[1], "6"]]],
        [[6, 1], [[[0], "4"]]], [[6, 2], [[[1], "7"]]], [[7, 1], [[[1], "2"]]]]}}
NON_COMMUTATIVE_DIGEST = "c3af4fa318f483195029b77249b361a24df8e034cdaa1e536f39b47ee5bedd81"


def test_non_commutative_law_report_is_pinned(tmp_path, capsys):
    src = tmp_path / "law.json"
    src.write_text(json.dumps(NON_COMMUTATIVE_LAW))
    out = tmp_path / "report.json"
    assert run(["fgl", "--file", str(src), "--json", str(out)]) == 1, capsys.readouterr().out
    failed = [c["name"] for c in json.loads(out.read_bytes())["report"]["checks"]
              if not c["passed"]]
    assert failed == ["axiom:associativity", "axiom:commutativity", "height_detected"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NON_COMMUTATIVE_DIGEST
