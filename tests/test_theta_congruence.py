import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck.exact_arith import WittCoefRing
from fglcheck.linalg import Mat
from fglcheck.series import TruncSeries
from fglcheck.theta_congruence import (CharacteristicMismatch, CongruenceFails,
                                       FiniteFreeShape, FrobeniusClassSpec,
                                       IllDefinedPsi, L1Data,
                                       MonicQuotientShape, PolyRing, PolyShape,
                                       PsiRingPresentation,
                                       congruence_stability_under_class_change,
                                       derive_theta,
                                       frobenius_congruence_comodule,
                                       gamma_congruence_check, theta_consistency,
                                       theta_of, verify_weight_p_squares,
                                       wilkerson_check)
from fglcheck.twisted_bialgebra import (algebra_on_w, height1_gamma,
                                        trivial_algebra)

Z32 = WittCoefRing(2, 5)


def poly_pres(W, images, coeffs="id", vars=("x",)):
    return PsiRingPresentation(W=W, shape=PolyShape(vars),
                               psi_on_coeffs=coeffs, psi_gen_images=images)


def test_frobenius_psi_passes():
    P = poly_pres(Z32, {"x": {(2,): Z32.one()}})
    assert wilkerson_check(P).verdict
    td = derive_theta(P)
    assert td.lowered.A.is_zero(td.theta_gens["x"])


def test_identity_psi_fails_with_witness():
    P = poly_pres(Z32, {"x": {(1,): Z32.one()}})
    rep = wilkerson_check(P)
    assert not rep.verdict
    assert any(n == "generator[x]" for n, _ in rep.witnesses)
    with pytest.raises(CongruenceFails):
        derive_theta(P)


def test_sigma_on_witt_passes():
    W = WittCoefRing(2, 4, ext=[1, 1, 1])
    P = PsiRingPresentation(W=W, shape=PolyShape(()), psi_on_coeffs="sigma")
    assert wilkerson_check(P, sample_bound=60).verdict


def test_theta_integer_values():
    P = PsiRingPresentation(W=WittCoefRing(2, 4), shape=PolyShape(()))
    th = theta_of(P, P.from_coeff(P.W.from_int(3)))
    # theta(3) = (3 - 9)/2 = -3, at precision 3
    assert list(th.values())[0] == P.W.lower().from_int(-3)
    th2 = theta_of(P, P.from_coeff(P.W.from_int(2)))
    assert list(th2.values())[0] == P.W.lower().from_int(-1)
    P3 = PsiRingPresentation(W=WittCoefRing(3, 4), shape=PolyShape(()))
    th3 = theta_of(P3, P3.from_coeff(P3.W.from_int(2)))
    assert list(th3.values())[0] == P3.W.lower().from_int(-2)
    assert theta_of(P, P.A.zero()) == {}


def test_theta_identities_on_quotient():
    W = WittCoefRing(2, 4)
    shape = MonicQuotientShape("x", (W.zero(), W.from_int(-1), W.one()))
    P = PsiRingPresentation(W=W, shape=shape,
                            psi_gen_images={"x": (W.zero(), W.one())})
    assert wilkerson_check(P).verdict
    assert theta_consistency(P, samples=20).verdict


def test_degree_one_monic_quotient():
    # W[x]/(x - 3) over Z/8 is W itself with x = 3, and psi(x) = 3 = x^2 - 6
    W = WittCoefRing(2, 3)
    shape = MonicQuotientShape("x", (W.from_int(-3), W.one()))
    P = PsiRingPresentation(W=W, shape=shape, psi_gen_images={"x": (W.from_int(3),)})
    assert P.gen("x") == (W.from_int(3),)
    assert wilkerson_check(P).verdict
    td = derive_theta(P)
    assert td.theta_gens["x"] == (td.lowered.W.from_int(-3),)


def test_monic_quotient_needs_a_monic_relation():
    W = WittCoefRing(2, 3)
    with pytest.raises(ValueError):
        PsiRingPresentation(W=W, shape=MonicQuotientShape("x", (W.one(), W.from_int(2))),
                            psi_gen_images={"x": (W.one(),)})


def test_theta_identities_on_poly():
    P = poly_pres(Z32, {"x": {(2,): Z32.one()}})
    assert theta_consistency(P, samples=30).verdict


def test_ill_defined_psi():
    W = WittCoefRing(2, 3)
    shape = MonicQuotientShape("x", (W.zero(), W.zero(), W.one()))  # x^2 = 0
    P = PsiRingPresentation(W=W, shape=shape,
                            psi_gen_images={"x": (W.one(), W.zero())})
    with pytest.raises(IllDefinedPsi):
        wilkerson_check(P)


def test_finite_free_shape():
    W = WittCoefRing(2, 4)
    z, o = W.zero(), W.one()
    # W[b]/(b^2): basis (1, b)
    mult = ((0, 0, (o, z)), (0, 1, (z, o)), (1, 0, (z, o)), (1, 1, (z, z)))
    P = PsiRingPresentation(W=W, shape=FiniteFreeShape(("1", "b"), mult),
                            psi_gen_images={"b": (z, z)})  # psi(b) = 0 = b^2
    assert wilkerson_check(P).verdict
    td = derive_theta(P)
    assert td.lowered.A.is_zero(td.theta_gens["b"])


def test_gamma_congruence_paths():
    G = height1_gamma(2, 3, 2, 3)
    R = G.ring
    sigma = FrobeniusClassSpec(gamma=G, coords=(R.one(),))
    assert gamma_congruence_check(sigma, trivial_algebra(G)).verdict
    pert = algebra_on_w(G, {k: Mat(R, [[R.from_int(2) if k == 1 else R.one()]])
                            for k in range(4)})
    rep = gamma_congruence_check(sigma, pert)
    assert not rep.verdict and rep.witnesses
    rng = random.Random(1)
    gammas = [(R.rand(rng),) for _ in range(10)]
    assert congruence_stability_under_class_change(
        sigma, trivial_algebra(G), gammas).verdict


def test_stability_verdicts_match_full_checks():
    G = height1_gamma(2, 3, 2, 3)
    R = G.ring
    sigma = FrobeniusClassSpec(gamma=G, coords=(R.one(),))
    pert = algebra_on_w(G, {k: Mat(R, [[R.from_int(2) if k == 1 else R.one()]])
                            for k in range(4)})
    rng = random.Random(3)
    gammas = [(R.rand(rng),) for _ in range(6)]
    for B in (trivial_algebra(G), pert):
        base = gamma_congruence_check(sigma, B).verdict
        shifted = [gamma_congruence_check(
            FrobeniusClassSpec(gamma=G, coords=(R.add(R.one(), R.scalar(2, g)),)),
            B).verdict for (g,) in gammas]
        rep = congruence_stability_under_class_change(sigma, B, gammas)
        assert rep.meta["base_verdict"] == base
        assert rep.verdict == all(v == base for v in shifted)
        assert [c.passed for c in rep.checks[1:]] == [v == base for v in shifted]
    assert not base  # the perturbed action fails


def test_gamma_congruence_records_theorem_a():
    G = height1_gamma(2, 3, 1, 2)
    sigma = FrobeniusClassSpec(gamma=G, coords=(G.ring.one(),))
    rep = gamma_congruence_check(sigma, trivial_algebra(G))
    assert "theorem_a" in rep.meta


def test_comodule_congruence():
    F2 = WittCoefRing(2, 1)
    B = PsiRingPresentation(W=F2, shape=PolyShape(("y",)))
    l1 = L1Data(W=WittCoefRing(2, 3))
    good = frobenius_congruence_comodule(
        l1, B, {"y": [(l1.W.one(), {(2,): F2.one()})]})
    assert good.verdict
    bad = frobenius_congruence_comodule(
        l1, B, {"y": [(l1.W.one(), {(1,): F2.one()})]})
    assert not bad.verdict
    assert any(n == "generator[y]" for n, _ in bad.witnesses)
    # B = F_p itself: trivially a^p = a
    triv = PsiRingPresentation(W=F2, shape=PolyShape(()))
    assert frobenius_congruence_comodule(l1, triv, {}).verdict


def test_comodule_requires_char_p():
    B = PsiRingPresentation(W=WittCoefRing(2, 2), shape=PolyShape(("y",)))
    with pytest.raises(CharacteristicMismatch):
        frobenius_congruence_comodule(L1Data(W=WittCoefRing(2, 3)), B, {})


def test_weight_p_squares():
    rep = verify_weight_p_squares(2, 4)
    assert rep.verdict
    assert rep.meta["pullback_basis"] == [
        ("<1 mod 2^4>", "<1 mod 2^4>"), ("<0 mod 2^4>", "<2 mod 2^4>")]
    assert rep.meta["pullback_divisors"] == [0, 1]
    assert rep.meta["pushout_relation_divisors"] == [0]
    assert rep.meta["generation_precision"] == 3


def test_weight_p_squares_odd_prime():
    assert verify_weight_p_squares(3, 3).verdict


def test_presentation_json_roundtrip():
    W = WittCoefRing(2, 4, ext=[1, 1, 1])
    P = PsiRingPresentation(W=W, shape=PolyShape(("x", "y")),
                            psi_on_coeffs="sigma",
                            psi_gen_images={"x": {(2, 0): W.one()},
                                            "y": {(0, 2): W.gen()}})
    # coordinates low to high in t: ["1", "0"] is 1 and ["0", "1"] is t
    P2 = PsiRingPresentation.from_json({
        "ring": {"p": 2, "N": 4, "ext": [1, 1, 1]},
        "shape": {"kind": "poly", "vars": ["x", "y"]},
        "psi_on_coeffs": "sigma",
        "psi_gen_images": {"x": [[[2, 0], ["1", "0"]]], "y": [[[0, 2], ["0", "1"]]]}})
    assert P2.W.descriptor() == W.descriptor()
    assert (P2.shape, P2.psi_on_coeffs, P2.psi_gen_images) == \
        (P.shape, P.psi_on_coeffs, P.psi_gen_images)
    assert wilkerson_check(P2, sample_bound=5).verdict == \
        wilkerson_check(P, sample_bound=5).verdict


def test_weight_p_squares_samples_a_large_ring(monkeypatch):
    # at |W|^2 > 65536 every check samples or stops early: (2, 20) has 2^20 elements
    elements = WittCoefRing.elements

    def bounded(self):
        for i, x in enumerate(elements(self)):
            if i == 65536:
                raise AssertionError("enumerated the whole ring")
            yield x

    monkeypatch.setattr(WittCoefRing, "elements", bounded)
    assert verify_weight_p_squares(2, 20).verdict


def test_poly_ring_refuses_repeated_names():
    with pytest.raises(ValueError, match="once"):
        PolyRing(Z32, ("x", "x"))
    with pytest.raises(ValueError, match="once"):
        poly_pres(Z32, {"x": {(2, 0): Z32.one()}}, vars=("x", "x"))


def test_images_of_non_generators_are_refused():
    with pytest.raises(ValueError, match="not generators"):
        poly_pres(Z32, {"x": {(2,): Z32.one()}, "y": {(1,): Z32.one()}})
    F2 = WittCoefRing(2, 1)
    B = PsiRingPresentation(W=F2, shape=PolyShape(("y",)))
    l1 = L1Data(W=WittCoefRing(2, 3))
    psi1 = {"y": [(l1.W.one(), {(2,): F2.one()})], "z": [(l1.W.one(), {(1,): F2.one()})]}
    with pytest.raises(ValueError, match="not generators"):
        frobenius_congruence_comodule(l1, B, psi1)


# PolyRing against TruncSeries at a bound above every degree drawn, where
# truncation drops nothing
ORACLE_RINGS = [WittCoefRing(2, 3), WittCoefRing(3, 2), WittCoefRing(2, 2, ext=[1, 1, 1])]
ORACLE_BOUND = 64


def _draw_poly(data, W, nvars, label):
    coeff = st.tuples(*[st.integers(0, W.modulus - 1)] * W.f).map(W.elem)
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = data.draw(st.lists(st.tuples(exps, coeff), max_size=4), label=label)
    out = {}
    for e, c in terms:
        out[e] = c
    return {e: c for e, c in out.items() if not W.is_zero(c)}


def _psi_per_variable(P, a):
    """psi as computed term by term before PolyRing: psi(c), then times each
    generator image, one variable power at a time."""
    A = P.A
    out = {}
    for e, c in a.items():
        term = P.from_coeff(P.psi_coeff(c))
        for var, k in zip(P.shape.vars, e):
            for _ in range(k):
                term = A.mul(term, P.psi_gen_images[var])
        out = A.add(out, term)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_ring_matches_truncated_series(data):
    W = data.draw(st.sampled_from(ORACLE_RINGS), label="ring")
    vars = ("x", "y")[:data.draw(st.integers(1, 2), label="nvars")]
    A = PolyRing(W, vars)
    a, b = (_draw_poly(data, W, len(vars), label) for label in "ab")
    n = data.draw(st.integers(0, 4), label="n")

    def series(f):
        return TruncSeries(W, vars, ORACLE_BOUND, f)

    p = W.from_int(W.p)
    assert A.add(a, b) == (series(a) + series(b)).terms
    assert A.sub(a, b) == (series(a) - series(b)).terms
    assert A.mul(a, b) == (series(a) * series(b)).terms
    assert A.pow(a, n) == (series(a) ** n).terms
    assert A.scale(p, a) == series(a).map_coefficients(lambda c: W.mul(p, c)).terms
    assert A.decode([[list(e), W.encode(c)] for e, c in sorted(a.items())], "a") == a
    for c in (*A.add(a, b).values(), *A.mul(a, b).values(), *A.pow(a, n).values()):
        assert not W.is_zero(c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_psi_on_polynomials_matches_per_variable_formula(data):
    W = data.draw(st.sampled_from(ORACLE_RINGS), label="ring")
    vars = ("x", "y")[:data.draw(st.integers(1, 2), label="nvars")]
    images = {v: _draw_poly(data, W, len(vars), f"psi({v})") for v in vars}
    coeffs = data.draw(st.sampled_from(["id", "sigma"]), label="psi_on_coeffs")
    P = poly_pres(W, images, coeffs, vars)
    for label in ("a", "b"):
        a = _draw_poly(data, W, len(vars), label)
        # equal as dicts and in term order, which witnesses print
        assert list(P.psi(a).items()) == list(_psi_per_variable(P, a).items())


# witnesses list residues in the order the terms first appear; these two were
# read from the dict-loop implementation that PolyRing replaced.  The first
# changes if psi scales a cached monomial image (psi(c) = 12 is not a unit),
# the second if pow squares instead of multiplying in from the left.
PINNED_WITNESS_ORDER = [
    ({"ring": {"p": 2, "N": 4}, "shape": {"kind": "poly", "vars": ["x", "y"]},
      "psi_on_coeffs": "sigma",
      "psi_gen_images": {"x": [[[0, 2], "3"]],
                         "y": [[[0, 1], "9"], [[2, 1], "9"], [[0, 3], "2"], [[3, 1], "14"],
                               [[0, 2], "1"]]}},
     2, 5, "sample[1]",
     "element <12 mod 2^4>*x*y^2 + <5 mod 2^4>*x^2 + <11 mod 2^4>*x^2*y^2: residues "
     "{(0, 4): <1 mod 2^1>, (4, 4): <1 mod 2^1>, (0, 6): <1 mod 2^1>, "
     "(0, 8): <1 mod 2^1>, (4, 6): <1 mod 2^1>, (4, 0): <1 mod 2^1>}"),
    ({"ring": {"p": 3, "N": 1}, "shape": {"kind": "poly", "vars": ["x"]},
      "psi_on_coeffs": "id", "psi_gen_images": {"x": [[[1], "2"]]}},
     0, 25, "sample[3]",
     "element <1 mod 3^1> + <2 mod 3^1>*x + <2 mod 3^1>*x^2: residues "
     "{(1,): <1 mod 3^1>, (2,): <2 mod 3^1>, (3,): <1 mod 3^1>, (6,): <1 mod 3^1>}"),
]


@pytest.mark.parametrize("doc, seed, samples, check, witness", PINNED_WITNESS_ORDER,
                         ids=["psi", "pow"])
def test_witnesses_keep_the_order_terms_appear(doc, seed, samples, check, witness):
    P = PsiRingPresentation.from_json(doc)
    rep = wilkerson_check(P, sample_bound=samples, seed=seed)
    assert dict(rep.witnesses)[check] == witness
