"""The benchmark's own tests: seeded inputs, layer counters, failure accounting.

    python3 -m pytest -q perfbench

The traced-pass fixture runs every workload once untraced and once traced
(about a minute in all, most of it selftest).
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import run
import workloads


@pytest.fixture(scope="module", autouse=True)
def fglcheck_imported():
    run.import_fglcheck()


def _materialize(tmp_path, workload, seed):
    wd = run.Workdir(tmp_path / f"{workload}-{seed}", workloads.jobs_for(workload, seed))
    wd.write()
    files = {p.name: p.read_bytes() for p in sorted(wd.inputs.iterdir())}
    return [(job.name, job.argv, job.expect) for job in wd.jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    assert _materialize(tmp_path / "a", workload, 7) == _materialize(tmp_path / "b", workload, 7)


def test_batch_seeds_differ_but_keep_the_mix():
    a, b = workloads.batch_verify_jobs(1), workloads.batch_verify_jobs(2)
    assert [j.key for j in a] != [j.key for j in b]
    strata = lambda jobs: sorted(j.name.split("#")[0] for j in jobs)
    assert strata(a) == strata(b)
    assert {1} <= {j.expect for j in a}


def test_every_drawable_job_has_a_reference():
    reference = run.load_reference()
    jobs = workloads.selftest_jobs(0) + workloads.fgl_deep_jobs(0) + workloads.batch_pool()
    missing = [j.name for j in jobs if j.key not in reference]
    assert not missing


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in workloads.WORKLOADS:
        metrics, attempted, failures, meta = run.measure(workload, 0, 0, 1)
        out[workload] = ({k: v for k, (v, _) in metrics.items()}, failures)
    return out


# counters each workload must move (the prediction table in README.md)
NONZERO = {
    "selftest": [
        "exact_arith.elem.calls", "exact_arith.add.calls", "exact_arith.mul.calls",
        "exact_arith.self_s", "linalg.matmul.calls", "linalg.matmul.s",
        "graded2.verify_coherence.calls", "graded2.verify_coherence.s",
        "graded2.compose.calls", "graded2.tensor_map.calls",
        "graded2.associator.calls", "graded2.interchange.calls", "graded2.self_s",
        "twisted_bialgebra.verify_bialgebra.calls", "twisted_bialgebra.verify_bialgebra.s",
        "series.weierstrass_prepare.s", "weights.brute_force_surjective.s",
        "weights.epi_family_check.s", "weights.binomial_gcd.s",
    ] + [f"acceptance.criterion_{i}.s" for i in range(1, 13)],
    "fgl-deep": [
        "exact_arith.elem.calls", "exact_arith.add.calls", "exact_arith.mul.calls",
        "series.mul.calls", "series.mul.s", "series.mul.pairs",
        "series.substitute.calls", "series.substitute.s", "series.reversion.s",
        "series.self_s", "formal_groups.construct.s",
        "formal_groups.axiom_residuals.s", "formal_groups.height.s",
    ],
    "batch-verify": [
        "exact_arith.ring_new.calls", "exact_arith.ring_new.s", "exact_arith.decode.calls",
        "exact_arith.inv.calls", "linalg.smith.calls", "linalg.smith.s", "linalg.solve.s",
        "linalg.residue_rank.s", "twisted_bialgebra.verify_bialgebra.s",
        "twisted_bialgebra.dualize.s", "twisted_bialgebra.points_category.s",
        "twisted_bialgebra.from_json.s", "theta_congruence.wilkerson_check.s",
        "theta_congruence.derive_theta.s", "theta_congruence.theta_consistency.s",
        "theta_congruence.gamma_congruence_check.s",
        "theta_congruence.verify_weight_p_squares.s", "weights.epi_family_check.s",
        "formal_groups.construct.s", "cli.parse.s", "cli.emit.s",
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_predicted_counters_are_nonzero(traced, workload):
    metrics, failures = traced[workload]
    assert not failures
    assert [n for n in NONZERO[workload] if not metrics[n] > 0] == []


@pytest.mark.parametrize("workload", ["fgl-deep", "batch-verify"])
def test_graded2_and_weierstrass_stay_idle(traced, workload):
    metrics, _ = traced[workload]
    idle = [n for n in metrics if n.startswith("graded2.")] + ["series.weierstrass_prepare.s"]
    assert {n: metrics[n] for n in idle if metrics[n]} == {}


def test_fgl_deep_leaves_linalg_and_bialgebras_alone(traced):
    metrics, _ = traced["fgl-deep"]
    busy = {n: v for n, v in metrics.items()
            if n.startswith(("linalg.", "twisted_bialgebra.")) and v}
    assert busy == {}


def test_tracer_uninstall_restores_every_binding(traced):
    fg = sys.modules["fglcheck.formal_groups"]
    series = sys.modules["fglcheck.series"]
    assert fg.substitute is series.substitute
    assert not hasattr(series.substitute, "__wrapped__")
    assert not hasattr(series.TruncSeries.__mul__, "__wrapped__")
    acc = sys.modules["fglcheck.acceptance"]
    assert not any(hasattr(fn, "__wrapped__") for _, fn in acc.CRITERIA)


def test_injected_wrong_expectation_is_counted(tmp_path):
    reference = run.load_reference()
    jobs = [j for j in workloads.batch_verify_jobs(0) if j.name.startswith(("epi", "theta-bad"))][:4]
    wrong = dataclasses.replace(jobs[1], expect=1 - jobs[1].expect)
    wd = run.Workdir(tmp_path / "w", [jobs[0], wrong, jobs[2], jobs[3]])
    wd.write()
    res = run.run_pass(wd, reference)
    assert [r[1] is not None for r in res] == [False, True, False, False]


def test_wrong_reference_digest_is_counted(tmp_path):
    reference = run.load_reference()
    job = next(j for j in workloads.batch_verify_jobs(0) if j.name.startswith("epi("))
    wd = run.Workdir(tmp_path / "w", [job])
    wd.write()
    assert run.run_pass(wd, reference)[0][1] is None
    bad = dict(reference)
    bad[job.key] = dict(reference[job.key], sha256="0" * 64)
    assert "digest" in run.run_pass(wd, bad)[0][1]


def test_traced_job_fails_once_when_both_checks_fail(tmp_path):
    job = next(j for j in workloads.batch_verify_jobs(0) if j.name.startswith("epi("))
    wd = run.Workdir(tmp_path / "w", [job, job])
    wd.write()
    untraced = [(0.1, None, "a" * 64), (0.1, None, "a" * 64)]
    traced = [(0.1, "report digest differs from the reference", "b" * 64),
              (0.1, None, "b" * 64)]
    assert run.traced_failures(wd, traced, untraced) == [
        (job.name, "report digest differs from the reference"),
        (job.name, "traced report digest differs from untraced")]


def test_ring_descriptors_agree_across_job_kinds():
    rings = {j.name.split("#")[0]: j.ring for j in workloads.batch_pool()}
    assert rings["congruence(2,2,1,2|2,3)"] == rings["bialg(2,2,1,2)"]
    assert rings["congruence(2,3,2,3|2,4)"] == rings["bialg(2,3,2,3)"]
    assert rings["congruence(3,2,2,2|2,3)"] == rings["bialg(3,2,2,2)"]
    assert rings["epi(Z/8)"] == rings["bialg(2,3,1,3)"]
