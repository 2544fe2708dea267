"""The derived report: its verdict and witnesses are read off its checks."""

from hypothesis import given
from hypothesis import strategies as st

from fglcheck.report import CheckResult, CongruenceReport

checks_st = st.lists(st.builds(
    CheckResult, name=st.text(max_size=6), passed=st.booleans(),
    witness=st.one_of(st.none(), st.text(max_size=6))), max_size=8)


@given(checks_st)
def test_verdict_and_witnesses_come_from_the_checks(checks):
    rep = CongruenceReport.from_checks(checks)
    assert rep.verdict == all(c.passed for c in checks)
    assert rep.witnesses == [(c.name, c.witness) for c in checks if not c.passed]


@given(checks_st, checks_st)
def test_merging_concatenates_the_witnesses(a, b):
    left, right = CongruenceReport.from_checks(a), CongruenceReport.from_checks(b)
    want = left.witnesses + right.witnesses
    left.checks += right.checks
    assert left.witnesses == want
    assert left.verdict == (not want)


@given(checks_st, st.text(max_size=6))
def test_as_check_carries_the_first_witness_only_on_failure(checks, name):
    rep = CongruenceReport.from_checks(checks)
    c = rep.as_check(name)
    assert (c.name, c.passed) == (name, rep.verdict)
    assert c.witness == (None if rep.verdict else str(rep.witnesses[:1]))
    assert not c.details
