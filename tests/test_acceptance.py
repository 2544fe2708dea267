"""Acceptance battery: one test (and one printed pass/fail line) per criterion."""

import pytest

from fglcheck import acceptance
from fglcheck.acceptance import CRITERIA
from fglcheck.twisted_bialgebra import bialgebra_checks, height1_gamma


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, fn):
    rep = fn()
    print(f"[{'PASS' if rep.verdict else 'FAIL'}] criterion {name}")
    if not rep.verdict:
        for wname, w in rep.witnesses[:5]:
            print(f"    witness {wname}: {w}")
    assert rep.verdict, f"criterion {name}: {rep.witnesses[:3]}"


def test_criterion_5_mutants_leave_the_honest_bialgebra_alone(monkeypatch):
    built = []

    def record(*args):
        built.append(height1_gamma(*args))
        return built[-1]

    monkeypatch.setattr(acceptance, "height1_gamma", record)
    rep = acceptance.criterion_5_bialgebra_axioms()
    assert rep.verdict and len(built) == 1
    G, fresh = built[0], height1_gamma(2, 3, 2, 3)
    assert (G.mu, G.eps, G.delta, G.left_t) == \
        (fresh.mu, fresh.eps, fresh.delta, fresh.left_t)


def test_criterion_5_draws_only_the_checks_its_mutants_read(monkeypatch):
    # a count, not a timer: the 50 mutants drew 1,827 checks before each was
    # filtered to the checks that read its changed table, and 248 after
    drawn = []

    def spy(G, touched=None):
        for c in bialgebra_checks(G, touched):
            drawn.append(c)
            yield c

    monkeypatch.setattr(acceptance, "bialgebra_checks", spy)
    assert acceptance.criterion_5_bialgebra_axioms().verdict
    assert 50 <= len(drawn) <= 400
