import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck.exact_arith import WittCoefRing
from fglcheck.linalg import FiniteAlgebra, Mat
from fglcheck.twisted_bialgebra import find_irreducible
from fglcheck.weights import (EpiFamily, InvariantViolation, NotLocal,
                              WeightedMonadData, binomial_gcd,
                              brute_force_surjective, digit_sum, epi_family_check,
                              inherit_structure, kummer_carries,
                              legendre_valuation, regularity_certificate,
                              sym_matrix)

F2 = WittCoefRing(2, 1)
Z8 = WittCoefRing(2, 3)


def test_binomial_gcd_values():
    assert binomial_gcd(4) == 2
    assert binomial_gcd(6) == 1
    assert binomial_gcd(27) == 3
    assert binomial_gcd(2) == 2
    assert binomial_gcd(125) == 5


def comb_gcd(m):
    """gcd of C(m, i) for 0 < i < m, one math.comb per entry."""
    g = 0
    for i in range(1, m):
        g = math.gcd(g, math.comb(m, i))
        if g == 1:
            break
    return g


def test_binomial_gcd_matches_math_comb():
    assert [binomial_gcd(m) for m in range(2, 1201)] == \
        [comb_gcd(m) for m in range(2, 1201)]


def test_certificates():
    c = regularity_certificate(5, 3)
    assert (c.tag, c.r, c.index, c.valuation) == ("CoprimeCase", 1, 10, 0)
    c = regularity_certificate(6, 3)
    assert (c.tag, c.d, c.valuation) == ("DivisibleCase", 2, 0)
    # index of the partition stabilizer (S_3 x S_3) . S_2 inside S_6
    assert c.index == 720 // (6 * 6 * 2)
    assert regularity_certificate(2, 2).tag == "Critical"
    assert regularity_certificate(0, 5).tag == "TrivialWeight"
    assert regularity_certificate(1, 2).tag == "TrivialWeight"
    assert regularity_certificate(4, 2).tag == "DivisibleCase"
    assert regularity_certificate(8, 3).tag == "CoprimeCase"


def test_valuation_methods_agree():
    for m in range(2, 120):
        for p in (2, 3, 5, 7):
            if m % p == 0 and m != p:
                d = m // p
                v1 = kummer_carries((p,) * d, p) - legendre_valuation(d, p)
                v2 = (legendre_valuation(m, p) - d * legendre_valuation(p, p)
                      - legendre_valuation(d, p))
                assert v1 == v2


def test_epi_identity():
    fam = EpiFamily(ring=Z8, target_rank=2, maps=[Mat.identity(Z8, 2)])
    assert epi_family_check(fam).surjective


def test_epi_times_two_fails():
    fam = EpiFamily(ring=Z8, target_rank=1, maps=[Mat.from_int_rows(Z8, [[2]])])
    r = epi_family_check(fam)
    assert not r.surjective
    assert r.residue_rank == 0
    k = Z8.residue_ring()
    assert r.witness_functional == (k.one(),)


def test_epi_complementary_coordinates():
    fam = EpiFamily(ring=Z8, target_rank=2,
                    maps=[Mat.from_int_rows(Z8, [[1], [0]]),
                          Mat.from_int_rows(Z8, [[0], [1]])])
    assert epi_family_check(fam).surjective


def test_epi_requires_local_ring():
    # Z8[x]/(x^2 - x) is Z8 x Z8, which has two maximal ideals
    A = FiniteAlgebra.monic_quotient(Z8, "x", (Z8.zero(), Z8.from_int(-1), Z8.one()))
    fam = EpiFamily(ring=A, target_rank=1, maps=[Mat(A, [[A.one()]])])
    with pytest.raises(NotLocal):
        epi_family_check(fam)


def test_epi_oracle_agreement():
    rng = random.Random(2)
    F4 = WittCoefRing(2, 1, ext=[1, 1, 1])
    for i in range(40):
        ring = Z8 if i % 2 == 0 else F4
        rank = rng.choice([1, 2])
        maps = []
        for _ in range(rng.choice([1, 2])):
            ncols = rng.choice([1, 2])
            maps.append(Mat(ring, [[ring.rand(rng) for _ in range(ncols)]
                                   for _ in range(rank)]))
        fam = EpiFamily(ring=ring, target_rank=rank, maps=maps)
        assert epi_family_check(fam).surjective == brute_force_surjective(fam)


def all_scalars_surjective(family):
    """Enumerate the image subgroup, adding every scalar multiple of every column."""
    R = family.ring
    n = family.target_rank
    zero = tuple(R.zero() for _ in range(n))
    gens = []
    for m in family.maps:
        for j in range(m.ncols):
            gens.append(m.col(j))
    span = {zero}
    frontier = [zero]
    scalars = list(R.elements())
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                for c in scalars:
                    w = tuple(R.add(x, R.mul(c, y)) for x, y in zip(v, g))
                    if w not in span:
                        span.add(w)
                        new.append(w)
        frontier = new
    return len(span) == R.size() ** n


ORACLE_RINGS = [Z8, WittCoefRing(3, 2), WittCoefRing(2, 1, ext=[1, 1, 1]),
                WittCoefRing(2, 2, ext=[1, 1, 1]), WittCoefRing(2, 1, ext=[1, 1, 0, 1])]


@st.composite
def epi_families(draw):
    ring = draw(st.sampled_from(ORACLE_RINGS))
    rank = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    maps = [Mat(ring, [[ring.rand(rng) for _ in range(ncols)] for _ in range(rank)])
            for ncols in draw(st.lists(st.integers(0, 2), min_size=0, max_size=2))]
    return EpiFamily(ring=ring, target_rank=rank, maps=maps)


@settings(max_examples=60, deadline=None)
@given(epi_families())
def test_additive_oracle_matches_all_scalars_oracle(fam):
    assert brute_force_surjective(fam) == all_scalars_surjective(fam)


# metamorphic: surjectivity is decided on the residue field, and base change
# Z/p^N -> W(F_(p^2)) is faithfully flat, so it keeps the verdict
@settings(max_examples=60, deadline=None)
@given(epi_families().filter(lambda fam: fam.ring.f == 1))
def test_base_change_keeps_the_epi_verdict(fam):
    R = fam.ring
    W2 = WittCoefRing(R.p, R.N, ext=find_irreducible(R.p, 2))
    moved = EpiFamily(ring=W2, target_rank=fam.target_rank,
                      maps=[m.map(lambda c: W2.from_int(c.coeffs[0]), ring=W2)
                            for m in fam.maps])
    assert epi_family_check(moved).surjective == epi_family_check(fam).surjective


def rank2_algebra_data(incl_rows):
    # F_2[x]/(x^2 - x): u = 1, w = x
    prod = Mat.from_int_rows(F2, [[1, 0, 0, 0], [0, 1, 1, 1]])
    return WeightedMonadData(ring=F2, m_rank=2, unit=(F2.one(), F2.zero()),
                             product=prod, bound=4,
                             incl=Mat.from_int_rows(F2, incl_rows))


def test_inherit_full_module():
    data = rank2_algebra_data([[1, 0], [0, 1]])
    res = inherit_structure(data, 2)
    assert res.ok
    for m in range(5):
        assert res.psi_n[m] == data.psi[m]


def test_inherit_zero_module():
    data = rank2_algebra_data([[], []])
    res = inherit_structure(data, 2)
    assert res.ok
    assert all(res.psi_n[m].nrows == 0 for m in range(5))


def test_inherit_unit_line():
    data = rank2_algebra_data([[1], [0]])
    res = inherit_structure(data, 2)
    assert res.ok and res.report.verdict
    # every weight acts as the identity on the line through 1
    for m in range(5):
        assert all(not F2.is_zero(c) for c in res.psi_n[m].rows[0][:1])


def test_inherit_unit_missing():
    data = rank2_algebra_data([[0], [1]])
    with pytest.raises(InvariantViolation) as e:
        inherit_structure(data, 2)
    assert e.value.diagram == "iota_weight_0"


def test_inherit_broken_closure_reports_element():
    prod3 = Mat.from_int_rows(F2, [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 1, 0, 0]])
    data = WeightedMonadData(ring=F2, m_rank=3,
                             unit=(F2.one(), F2.zero(), F2.zero()),
                             product=prod3, bound=4,
                             incl=Mat.from_int_rows(F2, [[1, 0], [0, 1], [0, 0]]))
    res = inherit_structure(data, 2)
    assert not res.ok
    assert res.offending_weight == 2
    assert res.offending_element == "n1*n1"


def test_invalid_weight_data_rejected():
    data = rank2_algebra_data([[1], [0]])
    rows = [list(r) for r in data.psi[2].rows]
    rows[1][0] = F2.one()
    data.psi[2] = Mat(F2, rows)
    with pytest.raises(InvariantViolation) as e:
        inherit_structure(data, 2)
    assert e.value.diagram.startswith("delta")


def test_sym_matrix_functorial():
    rng = random.Random(8)
    for _ in range(5):
        A = Mat(F2, [[F2.rand(rng) for _ in range(2)] for _ in range(2)])
        B = Mat(F2, [[F2.rand(rng) for _ in range(2)] for _ in range(2)])
        for k in (2, 3):
            assert sym_matrix(F2, k, A @ B) == \
                sym_matrix(F2, k, A) @ sym_matrix(F2, k, B)


@pytest.mark.parametrize("call", [lambda: digit_sum(5, 1), lambda: digit_sum(5, 0),
                                  lambda: regularity_certificate(5, 1),
                                  lambda: regularity_certificate(-3, 3)])
def test_library_guards_refuse_out_of_range(call):
    with pytest.raises(ValueError):
        call()


def _index(m, p):
    """The certificate's index for 2 <= m != p, computed here."""
    if m % p:
        r = max(r for r in range(m.bit_length()) if p ** r < m)
        return math.comb(m, p ** r)
    d = m // p
    return math.factorial(m) // (math.factorial(p) ** d * math.factorial(d))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_an_index_past_the_digit_limit_is_refused_exactly(monkeypatch, p):
    # with the limit at the index's own digit count the certificate is given,
    # and one digit lower it is refused: the index's lower bound passes both
    import sys
    weights = [m for m in random.Random(p).sample(range(20, 1500), 60) if m != p]
    digits = {m: len(str(_index(m, p))) for m in weights}
    for m in weights:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits[m])
        assert regularity_certificate(m, p).index == _index(m, p)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits[m] - 1)
        with pytest.raises(ValueError, match=f"weight m={m}: the index at p={p} has over "
                                             f"{digits[m] - 1} decimal digits"):
            regularity_certificate(m, p)


def test_a_huge_weight_with_a_small_index_is_certified():
    # m = 2^2000 + 1: the index C(m, 2^2000) = m has 603 digits, though m
    # is past what a float holds
    m = 2 ** 2000 + 1
    assert regularity_certificate(m, 2).index == m


def test_the_critical_weights_criterion_is_unchanged():
    import hashlib
    import json

    from fglcheck.acceptance import criterion_11_critical_weights
    doc = json.dumps(criterion_11_critical_weights().to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        "73d849dc2727927001e53d6adbfa31c019b45a31fd8efa776fb67909712c963f"
