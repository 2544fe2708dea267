"""Oracles from sympy, which shares no code with fglcheck.

- Laws: F = log^-1(log x + log y) over QQ, by sympy's series reversion and a
  composition truncated at total degree D, reduced mod p^N.
- Smith form: the invariant factors of an integer lift over ZZ.
- Residue rank: the rank over GF(p).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, QQ, ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix
from sympy.polys.ring_series import rs_series_reversion
from sympy.polys.rings import ring

from fglcheck.exact_arith import WittCoefRing
from fglcheck.formal_groups import fgl_honda, lubin_tate_deformation
from fglcheck.linalg import Mat, residue_rank, smith_normal_form

# x, y are the law's variables, u1..u3 the deformation parameters (so heights
# up to 4), t the reversion's
R, X, Y, *UVARS, T = ring("x,y,u1,u2,u3,t", QQ)
M = len(UVARS)


def _truncate(f, D, ubound):
    """f without its terms of total degree above D in x, y or above ubound in the u's."""
    return R({m: c for m, c in f.terms() if m[0] + m[1] <= D and sum(m[2:2 + M]) <= ubound})


def _sigma(c, k, p):
    """Each u -> u^(p^k) on a polynomial in the u's."""
    return R({(0, 0) + tuple(e * p ** k for e in m[2:2 + M]) + (0,): a
              for m, a in c.terms()})


def _law_from_log(coeffs, p, D, ubound):
    """log^-1(log x + log y) for log(x) = sum_j coeffs[j] x^(p^j), truncated."""
    def log(v):
        return sum((c * v ** p ** j for j, c in enumerate(coeffs)), R.zero)

    exp = rs_series_reversion(log(X), X, D + 1, T)   # a series in t over QQ[u]
    s, power, F = log(X) + log(Y), R.one, R.zero
    for k in range(1, D + 1):
        power = _truncate(power * s, D, ubound)
        ek = R({m[:-1] + (0,): c for m, c in exp.terms() if m[-1] == k})
        F += _truncate(ek * power, D, ubound)
    return F


def _mod(F, p, N):
    """{(i, j, u-exponents): c mod p^N} over the nonzero reductions."""
    q = p ** N
    out = {}
    for m, c in F.terms():
        r = int(c.numerator) * pow(int(c.denominator), -1, q) % q
        if r:
            out[m[:-1]] = r
    return out


def _honda_log(p, n, D):
    """sum_i x^(p^(n i)) / p^i, as coefficients at x^(p^j)."""
    coeffs, j = [], 0
    while p ** j <= D:
        coeffs.append(QQ(1, p ** (j // n)) if j % n == 0 else QQ(0))
        j += 1
    return coeffs


def _lubin_tate_log(p, n, D, ubound):
    """c_0 = 1 and c_j = sum_{i=1..min(j,n)} (u_i/p) sigma^i(c_(j-i)), with u_n = 1
    and sigma raising each u to its p-th power."""
    u = UVARS[:n - 1] + [R.one]
    c = [R.one]
    while p ** len(c) <= D:
        j = len(c)
        cj = sum((u[i - 1] * _sigma(c[j - i], i, p) for i in range(1, min(j, n) + 1)),
                 R.zero)
        c.append(_truncate(cj / p, D, ubound))
    return c


def _got(G, n):
    """G's coefficients as {(i, j, u-exponents): int}, u-exponents padded to M."""
    pad = (0,) * (M - n + 1)
    if n == 1:
        return {(i, j) + pad: c.coeffs[0] for (i, j), c in G.F.terms.items()}
    return {(i, j) + e + pad: c.coeffs[0] for (i, j), s in G.F.terms.items()
            for e, c in s.items()}


@pytest.mark.parametrize("p, n, N, D", [(2, 1, 4, 7), (2, 2, 3, 8), (2, 3, 2, 8),
                                        (3, 1, 3, 9), (3, 2, 2, 9), (5, 1, 2, 6)])
def test_honda_law_matches_sympy(p, n, N, D):
    want = _mod(_law_from_log(_honda_log(p, n, D), p, D, 0), p, N)
    assert _got(fgl_honda(p, n, N, D), 1) == want


@pytest.mark.parametrize("p, N, ubound, D", [(2, 3, 2, 7), (2, 2, 3, 8), (3, 2, 1, 9)])
def test_lubin_tate_law_matches_sympy(p, N, ubound, D):
    want = _mod(_law_from_log(_lubin_tate_log(p, 2, D, ubound), p, D, ubound), p, N)
    assert _got(lubin_tate_deformation(p, 2, N, ubound, D), 2) == want


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 3), st.integers(1, 10), st.booleans())
@example(2, 3, 3, 2, 16, False)  # fgl-deep's lubin-tate(2,3,3,u=2,D=16)
@example(2, 4, 2, 1, 8, False)
@example(3, 3, 2, 2, 9, False)
def test_laws_match_sympy(p, n, N, ubound, D, honda):
    if honda:
        want = _mod(_law_from_log(_honda_log(p, n, D), p, D, 0), p, N)
        assert _got(fgl_honda(p, n, N, D), 1) == want
    else:
        want = _mod(_law_from_log(_lubin_tate_log(p, n, D, ubound), p, D, ubound), p, N)
        assert _got(lubin_tate_deformation(p, n, N, ubound, D), n) == want


def _valuation(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


@st.composite
def integer_matrices(draw):
    """A p and an integer matrix whose entries are small multiples of powers of p."""
    p = draw(st.sampled_from([2, 3, 5]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.builds(lambda k, u: p ** k * u, st.integers(0, 3), st.integers(-6, 6))
    return p, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m,
                            max_size=m))


@settings(max_examples=120, deadline=None)
@given(integer_matrices(), st.integers(1, 4))
def test_smith_form_matches_invariant_factors(pm, N):
    p, rows = pm
    factors = invariant_factors(Matrix(rows), domain=ZZ)
    # a factor of valuation >= N, or 0, vanishes mod p^N
    want = [v for v in (_valuation(int(d), p) if d else N for d in factors) if v < N]
    assert smith_normal_form(Mat.from_int_rows(WittCoefRing(p, N), rows)).pivots == want


@settings(max_examples=120, deadline=None)
@given(integer_matrices(), st.integers(1, 3))
def test_residue_rank_matches_rank_over_gf_p(pm, N):
    p, rows = pm
    field = GF(p)
    dm = DomainMatrix([[field(a) for a in r] for r in rows], (len(rows), len(rows[0])),
                      field)
    assert residue_rank(Mat.from_int_rows(WittCoefRing(p, N), rows)) == dm.rank()
