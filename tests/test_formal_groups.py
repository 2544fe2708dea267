import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck import cli, formal_groups, series
from fglcheck.exact_arith import IdentityFailed, WittCoefRing
from fglcheck.formal_groups import (FormalGroupLaw, MalformedPSeries, NotCharP, bcp_module,
                                    fgl_additive, fgl_honda, fgl_multiplicative,
                                    formal_inverse, frobenius_isogeny, height,
                                    lubin_tate_deformation, n_series,
                                    reduce_to_residue, specialize_deformation)
from fglcheck.linalg import unit_vector
from fglcheck.twisted_bialgebra import find_irreducible
from fglcheck.series import (ContextMismatch, PolyTruncRing, ResidueZero, TruncSeries,
                             substitute, weierstrass_prepare)


def test_multiplicative_terms():
    G = fgl_multiplicative(WittCoefRing(2, 3), 6)
    assert G.F == TruncSeries.from_int_terms(G.ring, ("x", "y"), 6,
                                             {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert all(c.passed for c in G.axiom_checks())


def test_multiplicative_2_series():
    G = fgl_multiplicative(WittCoefRing(2, 4), 6)
    assert n_series(G, 2) == TruncSeries.from_int_terms(
        G.ring, ("x",), 6, {(1,): 2, (2,): 1})


def test_multiplicative_3_series():
    G = fgl_multiplicative(WittCoefRing(5, 2), 5)
    assert n_series(G, 3) == TruncSeries.from_int_terms(
        G.ring, ("x",), 5, {(1,): 3, (2,): 3, (3,): 1})


def test_minus_one_series():
    G = fgl_multiplicative(WittCoefRing(2, 4), 4)
    inv = n_series(G, -1)
    # oracle: the formal inverse must satisfy F(x, [-1](x)) = 0
    x = TruncSeries.var(G.ring, ("x",), 4, "x")
    assert substitute(G.F, [x, inv]).is_zero()
    assert inv == TruncSeries.from_int_terms(
        G.ring, ("x",), 4, {(1,): 15, (2,): 1, (3,): 15, (4,): 1})


def test_n_series_basics():
    G = fgl_honda(2, 2, 3, 6)
    x = TruncSeries.var(G.ring, ("x",), 6, "x")
    assert n_series(G, 0).is_zero()
    assert n_series(G, 1) == x
    # [a+b](x) = F([a](x), [b](x)) spot checks
    for a, b in ((1, 1), (2, 1), (2, 3)):
        lhs = n_series(G, a + b)
        rhs = substitute(G.F, [n_series(G, a), n_series(G, b)])
        assert lhs == rhs
    # inverse axiom: F([1](x), [-1](x)) = 0
    inv = formal_inverse(G)
    assert substitute(G.F, [x, inv]).is_zero()


def test_n_series_multiplicative_law():
    G = fgl_multiplicative(WittCoefRing(3, 2), 6)
    for a, b in ((2, 3), (-1, 2), (2, 2)):
        assert n_series(G, a * b) == substitute(n_series(G, a), [n_series(G, b)])


def test_honda_heights():
    assert height(fgl_honda(2, 1, 3, 6)).value == 1
    assert height(fgl_honda(2, 2, 3, 8)).value == 2
    h31 = fgl_honda(3, 1, 3, 8)
    res = n_series(reduce_to_residue(h31), 3)
    assert res.min_degree() == 3
    assert res.ring.is_unit(res.coefficient((3,)))
    assert height(h31).value == 1


def test_honda_2_2_p_series_mod_2():
    G = fgl_honda(2, 2, 3, 8)
    pser = n_series(reduce_to_residue(G), 2)
    assert pser.min_degree() == 4


def test_additive_height_is_bound():
    G = fgl_additive(WittCoefRing(3, 1), 8)
    h = height(G)
    assert h.value is None and h.at_least == 1


def test_malformed_p_series():
    F2 = WittCoefRing(2, 1)
    # not an FGL (associativity fails), but exercises the degree guard
    F = TruncSeries.from_int_terms(F2, ("x", "y"), 5,
                                   {(1, 0): 1, (0, 1): 1, (2, 1): 1})
    G = FormalGroupLaw(ring=F2, bound=5, F=F)
    with pytest.raises(MalformedPSeries):
        height(G)


def test_lubin_tate_specialization():
    LT = lubin_tate_deformation(2, 2, 3, 2, 8)
    assert all(c.passed for c in LT.axiom_checks())
    sp = reduce_to_residue(specialize_deformation(LT))
    hon = reduce_to_residue(fgl_honda(2, 2, 3, 8))
    assert sp.F == hon.F
    # [2](x) = x^4 modulo the maximal ideal (2, u1)
    L = LT.ring
    red = n_series(LT, 2).map_coefficients(L.residue, ring=L.residue_ring())
    assert red.min_degree() == 4
    assert height(LT).value == 2


def test_lubin_tate_n1_is_honda():
    G = lubin_tate_deformation(3, 1, 2, 2, 6)
    assert isinstance(G.ring, WittCoefRing)
    red = n_series(reduce_to_residue(G), 3)
    assert red.min_degree() == 3


def test_a_corrupt_log_is_a_witness_naming_its_degree(monkeypatch, capsys):
    # d_1 = 1 makes the log of honda(2, 2) x + x^2/2 + x^4/2 + ..., whose law
    # has -11/2 x^2 y^2 at degree 4
    real = formal_groups._log_numerators

    def corrupt(*args):
        d = real(*args)
        d[1] = {(): 1}
        return d

    monkeypatch.setattr(formal_groups, "_log_numerators", corrupt)
    with pytest.raises(IdentityFailed, match="degree-4 part is not integral"):
        fgl_honda(2, 2, 3, 8)
    argv = ["fgl", "--builtin", "honda", "--p", "2", "--n", "2", "--precision", "3",
            "--degree-bound", "8"]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "degree-4" in err
    assert "Traceback" not in out + err


def test_laws_build_without_reversion_or_substitute(monkeypatch):
    def refuse(*args):
        raise AssertionError("the laws are built degree by degree")

    for module in (series, formal_groups):
        for name in ("reversion", "substitute"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert len(fgl_honda(2, 3, 3, 16).F.terms) > 2
    assert len(lubin_tate_deformation(2, 3, 2, 2, 8).F.terms) > 2


def test_frobenius_isogeny_multiplicative():
    F2 = WittCoefRing(2, 1)
    G = fgl_multiplicative(F2, 6)
    iso = frobenius_isogeny(G)
    assert iso.verify()
    assert iso.target.F == G.F  # coefficients already in F_p
    assert iso.f == TruncSeries.from_int_terms(F2, ("x",), 6, {(2,): 1})


def test_frobenius_isogeny_additive_f3():
    F3 = WittCoefRing(3, 1)
    iso = frobenius_isogeny(fgl_additive(F3, 6))
    assert iso.verify()


def test_frobenius_iterate_is_composite():
    F2 = WittCoefRing(2, 1)
    G = fgl_multiplicative(F2, 6)
    once = frobenius_isogeny(G)
    twice = frobenius_isogeny(once.target).compose(once)
    direct = frobenius_isogeny(G, r=2)
    assert twice.f == direct.f
    assert direct.f == TruncSeries.from_int_terms(F2, ("x",), 6, {(4,): 1})


def test_frobenius_requires_char_p():
    with pytest.raises(NotCharP):
        frobenius_isogeny(fgl_multiplicative(WittCoefRing(2, 2), 4))


def test_height_invariant_under_coordinate_change():
    rng = random.Random(9)
    for G in (fgl_multiplicative(WittCoefRing(2, 1), 6), fgl_honda(2, 2, 1, 8),
              fgl_honda(3, 1, 1, 6)):
        R, D = G.ring, G.bound
        h0 = height(G).value
        for _ in range(3):
            terms = {(1,): R.one()}
            for k in range(2, D + 1):
                c = R.rand(rng)
                if not R.is_zero(c):
                    terms[(k,)] = c
            u = TruncSeries(R, ("x",), D, terms)
            from fglcheck.series import reversion
            uinv = reversion(u)
            x3 = TruncSeries.var(R, ("x", "y"), D, "x")
            y3 = TruncSeries.var(R, ("x", "y"), D, "y")
            conj = substitute(u, [substitute(
                G.F, [substitute(uinv, [x3]), substitute(uinv, [y3])])])
            Gc = FormalGroupLaw(ring=R, bound=D, F=conj)
            assert all(c.passed for c in Gc.axiom_checks())
            assert height(Gc).value == h0


def test_bcp_multiplicative_z8():
    G = fgl_multiplicative(WittCoefRing(2, 3), 6)
    b = bcp_module(G)
    assert b.basis == ("1", "x^1")
    wf = weierstrass_prepare(n_series(G, 2))
    assert wf.distinguished == TruncSeries.from_int_terms(G.ring, ("x",), 6,
                                                          {(1,): 2, (2,): 1})
    assert wf.unit * wf.distinguished == n_series(G, 2)
    # multiplication by x: x*1 = x, x*x = -2x
    R = G.ring
    e = [unit_vector(R, 2, j) for j in range(2)]
    assert b.mul(e[1], e[0]) == (R.zero(), R.one())
    assert b.mul(e[1], e[1]) == (R.zero(), R.from_int(-2))


def test_bcp_additive_residue_zero():
    with pytest.raises(ResidueZero):
        bcp_module(fgl_additive(WittCoefRing(3, 1), 6))


def test_fgl_json_roundtrip():
    for G in (fgl_multiplicative(WittCoefRing(2, 3), 5),
              lubin_tate_deformation(2, 2, 2, 1, 4)):
        G2 = FormalGroupLaw.from_json(G.to_json())
        assert G2.F == G.F


@pytest.mark.parametrize("build", [lambda: fgl_honda(2, 0, 3, 6),
                                   lambda: lubin_tate_deformation(2, 0, 3, 2, 6),
                                   lambda: fgl_honda(2, -1, 3, 6)])
def test_height_below_one_is_refused(build):
    with pytest.raises(ValueError):
        build()


def test_law_must_match_its_bound_and_variables():
    Z8 = WittCoefRing(2, 3)
    F = fgl_multiplicative(Z8, 5).F
    with pytest.raises(ContextMismatch):
        FormalGroupLaw(ring=Z8, bound=6, F=F)
    uv = TruncSeries.from_int_terms(Z8, ("u", "v"), 5, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ContextMismatch):
        FormalGroupLaw(ring=Z8, bound=5, F=uv)


# ---------------------------------------------------------------------------
# associativity by one three-variable composition, against two

def _residuals_by_two_compositions(G):
    """The axiom residuals, with F(x, F(y, z)) composed as it reads."""
    R, D, F = G.ring, G.bound, G.F
    x1 = TruncSeries.var(R, ("x",), D, "x")
    z1 = TruncSeries.zero(R, ("x",), D)
    x3, y3, z3 = (TruncSeries.var(R, ("x", "y", "z"), D, v) for v in "xyz")
    swapped = TruncSeries(R, ("x", "y"), D, {(j, i): c for (i, j), c in F.terms.items()})
    return {"unit_x": substitute(F, [x1, z1]) - x1,
            "unit_y": substitute(F, [z1, x1]) - x1,
            "commutativity": F - swapped,
            "associativity": (substitute(F, [substitute(F, [x3, y3]), z3])
                              - substitute(F, [x3, substitute(F, [y3, z3])]))}


def _in_witt(G, W):
    """G's Z/p^N coefficients read in the unramified extension W."""
    return FormalGroupLaw(ring=W, bound=G.bound,
                          F=G.F.map_coefficients(lambda c: W.elem(c.coeffs[0]), ring=W))


W4 = WittCoefRing(2, 2, ext=[1, 1, 1])  # f > 1: the dict loop
LAWS = {
    "honda(2,2)/Z8": lambda: fgl_honda(2, 2, 3, 7),
    "honda(3,1)/Z9": lambda: fgl_honda(3, 1, 2, 7),
    "multiplicative/Z9": lambda: fgl_multiplicative(WittCoefRing(3, 2), 7),
    "lubin-tate(2,2)/Z8[u1]": lambda: lubin_tate_deformation(2, 2, 3, 2, 7),
    "multiplicative/Z8[u1]": lambda: fgl_multiplicative(
        PolyTruncRing(WittCoefRing(2, 3), ("u1",), 2), 7),
    "honda(2,2)/W(F_4)": lambda: _in_witt(fgl_honda(2, 2, 2, 6), W4),
    "multiplicative/W(F_4)": lambda: fgl_multiplicative(W4, 6),
}


@functools.lru_cache(maxsize=None)
def _law(name):
    return LAWS[name]()


@st.composite
def mutated_laws(draw, names=tuple(sorted(LAWS)), most=3):
    """A law of ``names`` with one to ``most`` coefficients changed; the first off
    the diagonal when ``off_diagonal`` is drawn, so the law is not commutative."""
    G = _law(draw(st.sampled_from(names)))
    R, D = G.ring, G.bound
    off_diagonal = draw(st.booleans())
    terms = dict(G.F.terms)
    for n in range(draw(st.integers(1, most))):
        a = draw(st.integers(0, D))
        b = draw(st.integers(0 if a else 1, D - a).filter(
            lambda b: b != a or not (n == 0 and off_diagonal)))
        if isinstance(R, PolyTruncRing):
            u = R.pow(R.var("u1"), draw(st.integers(0, R.ubound)))
            c = R.mul(R.from_int(draw(st.integers(1, R.ring.modulus - 1))), u)
        else:
            c = R.elem(tuple(draw(st.integers(0, R.modulus - 1)) for _ in range(R.f)))
        terms[(a, b)] = R.add(terms.get((a, b), R.zero()), c)
    F = TruncSeries(R, ("x", "y"), D, terms)
    return FormalGroupLaw(ring=R, bound=D, F=F)


@settings(max_examples=40, deadline=None)
@given(mutated_laws())
def test_associativity_residual_matches_two_compositions(G):
    got = G.axiom_residuals()
    want = _residuals_by_two_compositions(G)
    assert got == want
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_unmutated_laws_pass_all_axioms(name):
    assert all(c.passed for c in _law(name).axiom_checks())
    assert _law(name).axiom_residuals() == _residuals_by_two_compositions(_law(name))


def _three_variable_compositions(monkeypatch, G):
    calls = []

    def counting(f, gs):
        calls.append(len(gs[0].vars))
        return substitute(f, gs)

    monkeypatch.setattr(formal_groups, "substitute", counting)
    G.axiom_residuals()
    monkeypatch.undo()
    return calls.count(3)


def test_associativity_composes_into_three_variables_once(monkeypatch):
    G = fgl_honda(2, 2, 3, 12)
    # F(x,y) then F(F(x,y),z); F(x,F(y,z)) is A(y,z,x) when comm = 0
    assert _three_variable_compositions(monkeypatch, G) == 2
    R = G.ring
    F = TruncSeries(R, ("x", "y"), 12, {**G.F.terms, (1, 2): R.one()})
    H = FormalGroupLaw(ring=R, bound=12, F=F)
    assert not H.axiom_residuals()["commutativity"].is_zero()
    # and F(y,z), comm(x,F(y,z)) as well when it is not
    assert _three_variable_compositions(monkeypatch, H) == 4


# ---------------------------------------------------------------------------
# metamorphic: the residuals commute with truncation Z/p^N -> Z/p^(N-1) and
# with base change Z/p^N -> W(F_(p^2)), which runs the dict loop

def _truncation(W):
    Wl = W.lower()
    return Wl, lambda c: W.truncate_to(Wl, c)


def _base_change(W):
    W2 = WittCoefRing(W.p, W.N, ext=find_irreducible(W.p, 2))
    return W2, lambda c: W2.from_int(c.coeffs[0])


def _ring_map(R, base_map):
    """The target and the coefficient map of base_map on R's base Z/p^N, applied
    coefficient by coefficient when R is Z/p^N[u]."""
    if isinstance(R, PolyTruncRing):
        S, fn = base_map(R.ring)
        return PolyTruncRing(S, R.vars, R.ubound), lambda c: {
            e: y for e, x in c.items() if not S.is_zero(y := fn(x))}
    return base_map(R)


Z_LAWS = tuple(sorted(n for n in LAWS if "W(F_4)" not in n))  # the laws over Z/p^N, Z/p^N[u1]


@settings(max_examples=80, deadline=None)
@given(mutated_laws(Z_LAWS, most=2), st.sampled_from([_truncation, _base_change]))
def test_residuals_commute_with_ring_maps(G, base_map):
    S, fn = _ring_map(G.ring, base_map)
    image = FormalGroupLaw(ring=S, bound=G.bound, F=G.F.map_coefficients(fn, ring=S))
    want = {k: r.map_coefficients(fn, ring=S) for k, r in G.axiom_residuals().items()}
    assert image.axiom_residuals() == want


def _height(G):
    """(value, at_least) of height(G), or MalformedPSeries when height raises it."""
    try:
        h = height(G)
    except MalformedPSeries:
        return MalformedPSeries
    return h.value, h.at_least


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(Z_LAWS).map(_law), mutated_laws(Z_LAWS, most=2)),
       st.sampled_from([_truncation, _base_change]))
def test_heights_commute_with_ring_maps(G, base_map):
    # the height is read off [p](x) over the residue field, which truncation
    # keeps and base change only extends
    S, fn = _ring_map(G.ring, base_map)
    image = FormalGroupLaw(ring=S, bound=G.bound, F=G.F.map_coefficients(fn, ring=S))
    assert _height(image) == _height(G)
