import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck.exact_arith import WittCoefRing
from fglcheck.linalg import FiniteAlgebra, Mat, unit_vector
from fglcheck.report import CheckResult
from fglcheck.series import PolyTruncRing, TruncSeries
from fglcheck.theta_congruence import (GAMMA_DEGREE_BOUND, GAMMA_SCALAR_SAMPLES,
                                       CharacteristicMismatch, CongruenceFails,
                                       FiniteFreeShape, FrobeniusClassSpec,
                                       IllDefinedPsi, L1Data,
                                       MonicQuotientShape, PolyShape,
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
    assert td.lowered.is_zero(td.theta_gens["x"])


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
    assert td.theta_gens["x"] == (td.lowered.ring.from_int(-3),)


def test_monic_quotient_needs_a_monic_relation():
    W = WittCoefRing(2, 3)
    with pytest.raises(ValueError):
        PsiRingPresentation(W=W, shape=MonicQuotientShape("x", (W.one(), W.from_int(2))),
                            psi_gen_images={"x": (W.one(),)})


def test_theta_identities_on_poly():
    P = poly_pres(Z32, {"x": {(2,): Z32.one()}})
    assert theta_consistency(P, samples=30).verdict


def test_ill_defined_psi():
    # psi is checked when the presentation is built, so no check meets one
    W = WittCoefRing(2, 3)
    shape = MonicQuotientShape("x", (W.zero(), W.zero(), W.one()))  # x^2 = 0
    for images, message in (({"x": (W.one(), W.zero())}, "psi(x*x^1) != psi(x)*psi(x^1)"),
                            ({"x": (W.one(),)}, "psi(x) has 1 coordinates, not 2"),
                            ({}, "no psi image for generator x")):
        with pytest.raises(IllDefinedPsi) as e:
            PsiRingPresentation(W=W, shape=shape, psi_gen_images=images)
        assert str(e.value) == message


def test_finite_free_shape():
    W = WittCoefRing(2, 4)
    z, o = W.zero(), W.one()
    # W[b]/(b^2): basis (1, b)
    mult = ((0, 0, (o, z)), (0, 1, (z, o)), (1, 0, (z, o)), (1, 1, (z, z)))
    P = PsiRingPresentation(W=W, shape=FiniteFreeShape(("1", "b"), mult),
                            psi_gen_images={"b": (z, z)})  # psi(b) = 0 = b^2
    assert wilkerson_check(P).verdict
    td = derive_theta(P)
    assert td.lowered.is_zero(td.theta_gens["b"])


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


def _congruence_checks_rebuilt(sigma, B, seed=0):
    """gamma_congruence_check's checks with the scalars, the monomials and every
    x^p rebuilt for this one sigma, as each shift once did: the oracle of the
    spanning set that the class-change loop builds once."""
    R = sigma.gamma.ring
    rng = random.Random(seed)
    if R.size() <= 256:
        scalars = [c for c in R.elements() if not R.is_zero(c)]
    else:
        scalars = [R.one()] + [R.rand(rng) for _ in range(GAMMA_SCALAR_SAMPLES)]
    monomials = frontier = [("1", B.unit)]
    for _ in range(GAMMA_DEGREE_BOUND):
        frontier = [(g if name == "1" else f"{name}*{g}", B.mul(vec, gvec))
                    for name, vec in frontier for g, gvec in B.gens.items()]
        monomials = monomials + frontier
    seen, out = set(), []
    for name, vec in monomials:
        for c in scalars:
            x = B.scale(c, vec)
            if x in seen:
                continue
            seen.add(x)
            diff = [R.sub(u, v) for u, v in zip(B.act(1, sigma.coords, x), B.pow(x, R.p))]
            res = {i: R.residue(d) for i, d in enumerate(diff)
                   if not R.residue_ring().is_zero(R.residue(d))}
            out.append(CheckResult(f"monomial[{c!r}*{name}]", not res,
                                   None if not res else
                                   f"x={c!r}*{name}: x.sigma - x^{R.p} residues {res}"))
    return out


# W(F_4) mod 8 draws its scalars exhaustively, W(F_4) mod 32 by seeded sampling
CONGRUENCE_BASES = [height1_gamma(2, 3, 2, 3), height1_gamma(2, 5, 2, 1)]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([0, 1]), st.integers(0, 2 ** 32 - 1))
def test_shared_spanning_set_matches_rebuilding_it_per_sigma(which, seed):
    G = CONGRUENCE_BASES[which]
    R = G.ring
    sigma = FrobeniusClassSpec(gamma=G, coords=(R.one(),))
    pert = algebra_on_w(G, {k: Mat(R, [[R.from_int(2) if k == 1 else R.one()]])
                            for k in range(G.kmax + 1)})
    rng = random.Random(seed)
    gammas = [(R.rand(rng),) for _ in range(4)]
    shifted = [FrobeniusClassSpec(gamma=G, coords=(R.add(R.one(), R.scalar(2, g)),))
               for (g,) in gammas]
    for B in (trivial_algebra(G), pert):
        want = _congruence_checks_rebuilt(sigma, B, seed)
        assert gamma_congruence_check(sigma, B, seed).checks == want
        base = all(c.passed for c in want)
        rep = congruence_stability_under_class_change(sigma, B, gammas, seed=seed)
        assert rep.meta["base_verdict"] == base
        assert [c.passed for c in rep.checks[1:]] == [
            all(c.passed for c in _congruence_checks_rebuilt(s, B, seed)) == base
            for s in shifted]


def test_gamma_congruence_records_theorem_a():
    G = height1_gamma(2, 3, 1, 2)
    sigma = FrobeniusClassSpec(gamma=G, coords=(G.ring.one(),))
    rep = gamma_congruence_check(sigma, trivial_algebra(G))
    assert "theorem_a" in rep.meta


def test_comodule_congruence():
    F2 = WittCoefRing(2, 1)
    B = PolyTruncRing(F2, ("y",), math.inf)
    l1 = L1Data(W=WittCoefRing(2, 3))
    good = frobenius_congruence_comodule(
        l1, B, {"y": [(l1.W.one(), {(2,): F2.one()})]})
    assert good.verdict
    bad = frobenius_congruence_comodule(
        l1, B, {"y": [(l1.W.one(), {(1,): F2.one()})]})
    assert not bad.verdict
    assert any(n == "generator[y]" for n, _ in bad.witnesses)
    # B = F_p itself: trivially a^p = a
    assert frobenius_congruence_comodule(l1, PolyTruncRing(F2, (), math.inf), {}).verdict


# over F_4 = F_2[t]/(t^2 + t + 1), with A[1] = W(F_4) at precision 3
F4 = WittCoefRing(2, 1, ext=[1, 1, 1])
L1_F4 = WittCoefRing(2, 3, ext=[1, 1, 1])


def test_comodule_congruence_over_f4_is_sigma_semilinear(monkeypatch):
    # the p-th power map sends c y^j to c^2 y^2j, so the composite extends to
    # samples with sigma on coefficients; with the identity there, every
    # sample with a coefficient t failed
    B = PolyTruncRing(F4, ("y",), math.inf)
    built = []
    post_init = PsiRingPresentation.__post_init__
    monkeypatch.setattr(PsiRingPresentation, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    good = frobenius_congruence_comodule(L1Data(W=L1_F4), B,
                                         {"y": [(L1_F4.one(), {(2,): F4.one()})]})
    assert good.verdict and len(good.checks) == 21
    assert [P.psi_on_coeffs for P in built] == ["sigma"]  # one presentation
    bad = frobenius_congruence_comodule(L1Data(W=L1_F4), B,
                                        {"y": [(L1_F4.one(), {(1,): F4.one()})]})
    assert not bad.verdict and bad.witnesses[0][0] == "generator[y]"


def test_can_power_twists_the_comodule_by_sigma():
    # psi_1(y) = t (x) t^2 y^2: can* sends t to t^(2^k), so the composite is
    # t^(1 + 2^(k+1)) y^2, which is y^2 at even k only (t^3 = 1)
    B = PolyTruncRing(F4, ("y",), math.inf)
    t = L1_F4.gen()
    psi1 = {"y": [(t, {(2,): F4.pow(F4.gen(), 2)})]}

    def report(k):
        return frobenius_congruence_comodule(L1Data(W=L1_F4, can_power=k), B, psi1)

    reports = [report(k) for k in range(4)]
    assert [r.verdict for r in reports] == [True, False, True, False]
    for k in range(2):
        assert reports[k].to_json() == reports[k + 2].to_json()
    assert reports[0].to_json() != reports[1].to_json()
    assert reports[1].witnesses[0][0] == "generator[y]"


def test_comodule_requires_char_p():
    B = PolyTruncRing(WittCoefRing(2, 2), ("y",), math.inf)
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


def test_negative_powers_go_through_the_inverse():
    # the untruncated ring's pow(x, -1) used to return 1
    Z8 = WittCoefRing(2, 3)
    for bound in (math.inf, 4):
        A = PolyTruncRing(Z8, ("x",), bound)
        x = A.var("x")
        with pytest.raises(ValueError, match="not a unit"):
            A.pow(x, -1)
        u = A.add(A.one(), A.scale(Z8.from_int(2), x))  # 1 + 2x: (2x)^3 = 0
        for n in (1, 2, 3):
            assert A.mul(A.pow(u, -n), A.pow(u, n)) == A.one()
    T = PolyTruncRing(Z8, ("x",), 4)
    assert T.pow(T.add(T.one(), T.var("x")), -1) == {
        (0,): Z8.one(), (1,): Z8.from_int(-1), (2,): Z8.one(), (3,): Z8.from_int(-1),
        (4,): Z8.one()}


def test_theta_consistency_builds_each_power_once(monkeypatch):
    # al^0..al^p and bl^0..bl^p per sample: 2p products of the lowered ring,
    # then p - 1 cross terms and 3 for the multiplication rule; rebuilt by pow
    # for every term, the powers took p(p + 1)
    W = WittCoefRing(3, 3)
    P = poly_pres(W, {"x": {(3,): W.one()}})
    lowered = []
    mul = PolyTruncRing.mul
    monkeypatch.setattr(PolyTruncRing, "mul", lambda A, a, b: (
        lowered.append(1) if A.ring.N == W.N - 1 else None) or mul(A, a, b))
    rep = theta_consistency(P, samples=4, seed=1)
    p = W.p
    assert rep.verdict and len(lowered) == 4 * (2 * p + (p - 1) + 3)


def test_poly_ring_refuses_repeated_names():
    with pytest.raises(ValueError, match="once"):
        PolyTruncRing(Z32, ("x", "x"), math.inf)
    with pytest.raises(ValueError, match="once"):
        poly_pres(Z32, {"x": {(2, 0): Z32.one()}}, vars=("x", "x"))


def test_images_of_non_generators_are_refused():
    with pytest.raises(ValueError, match="not generators"):
        poly_pres(Z32, {"x": {(2,): Z32.one()}, "y": {(1,): Z32.one()}})
    F2 = WittCoefRing(2, 1)
    B = PolyTruncRing(F2, ("y",), math.inf)
    l1 = L1Data(W=WittCoefRing(2, 3))
    psi1 = {"y": [(l1.W.one(), {(2,): F2.one()})], "z": [(l1.W.one(), {(1,): F2.one()})]}
    with pytest.raises(ValueError, match="not generators"):
        frobenius_congruence_comodule(l1, B, psi1)


# the add, mul and pow loops of the untruncated polynomial ring that
# PolyTruncRing replaced, kept as its oracle
ORACLE_RINGS = [WittCoefRing(2, 3), WittCoefRing(3, 2), WittCoefRing(2, 2, ext=[1, 1, 1])]
ORACLE_COEFFS = ORACLE_RINGS + [PolyTruncRing(WittCoefRing(2, 2), ("u",), 2)]


def _loop_add(W, a, b):
    out = dict(a)
    for e, c in b.items():
        s = W.add(out[e], c) if e in out else c
        if W.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _loop_mul(W, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            m = W.mul(c1, c2)
            s = W.add(out[e], m) if e in out else m
            if W.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _loop_pow(W, nvars, a, n):
    out = {(0,) * nvars: W.one()}
    for _ in range(n):
        out = _loop_mul(W, out, a)
    return out


def _coeff(W):
    """Coefficients of W, zero among them; over a PolyTruncRing, dicts."""
    if isinstance(W, PolyTruncRing):
        return st.dictionaries(st.tuples(st.integers(0, W.ubound)), _coeff(W.ring),
                               max_size=2).map(lambda t: {e: c for e, c in t.items()
                                                          if not W.ring.is_zero(c)})
    return st.tuples(*[st.integers(0, W.modulus - 1)] * W.f).map(W.elem)


def _draw_poly(data, W, nvars, label, bound=math.inf):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = data.draw(st.lists(st.tuples(exps, _coeff(W)), max_size=4), label=label)
    out = {}
    for e, c in terms:
        out[e] = c
    return {e: c for e, c in out.items() if sum(e) <= bound and not W.is_zero(c)}


def _psi_per_variable(P, a):
    """psi as computed term by term before the polynomial ring: psi(c), then
    times each generator image, one variable power at a time."""
    A = P.A
    out = {}
    for e, c in a.items():
        term = P.from_coeff(P.psi_coeff(c))
        for var, k in zip(P.shape.vars, e):
            for _ in range(k):
                term = A.mul(term, P.psi_gen_images[var])
        out = A.add(out, term)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_ring_matches_the_poly_ring_loops(data):
    # values and term order; at a finite bound, the loops' results cut by degree
    W = data.draw(st.sampled_from(ORACLE_COEFFS), label="ring")
    vars = ("x", "y")[:data.draw(st.integers(1, 2), label="nvars")]
    bound = data.draw(st.sampled_from([math.inf, 0, 2, 3, 5]), label="bound")
    A = PolyTruncRing(W, vars, bound)
    a, b = (_draw_poly(data, W, len(vars), label, bound) for label in "ab")
    n = data.draw(st.integers(0, 4), label="n")

    def cut(f):
        return list((e, c) for e, c in f.items() if sum(e) <= bound)

    def series(f):
        return TruncSeries(W, vars, bound, f)

    minus_b = {e: W.neg(c) for e, c in b.items()}
    for got, want in [(A.add(a, b), _loop_add(W, a, b)),
                      (A.sub(a, b), _loop_add(W, a, minus_b)),
                      (A.mul(a, b), _loop_mul(W, a, b)),
                      (A.pow(a, n), _loop_pow(W, len(vars), a, n)),
                      ((series(a) + series(b)).terms, _loop_add(W, a, b)),
                      ((series(a) - series(b)).terms, _loop_add(W, a, minus_b)),
                      ((series(a) * series(b)).terms, _loop_mul(W, a, b))]:
        assert list(got.items()) == cut(want)


# the ring at no bound against itself at a bound above every degree drawn,
# where truncation drops nothing
ORACLE_BOUND = 64


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_ring_matches_truncated_series(data):
    W = data.draw(st.sampled_from(ORACLE_RINGS), label="ring")
    vars = ("x", "y")[:data.draw(st.integers(1, 2), label="nvars")]
    A, T = PolyTruncRing(W, vars, math.inf), PolyTruncRing(W, vars, ORACLE_BOUND)
    a, b = (_draw_poly(data, W, len(vars), label) for label in "ab")
    n = data.draw(st.integers(0, 4), label="n")

    def series(f):
        return TruncSeries(W, vars, ORACLE_BOUND, f)

    p = W.from_int(W.p)
    assert A.add(a, b) == T.add(a, b)
    assert A.sub(a, b) == T.sub(a, b)
    assert A.mul(a, b) == T.mul(a, b)
    assert A.pow(a, n) == T.pow(a, n)
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
# read from the dict-loop implementation that the polynomial ring replaced.  The first
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


# ---------------------------------------------------------------------------
# one well-definedness rule for finite shapes, against the two it replaced

def _psi_by_basis_images(P, a):
    """psi of an element of a finite shape, from basis images built here: powers
    of psi(x) for a monic quotient, the unit and the images for a finite-free
    shape.  P is a presentation or the fields of one, with its algebra A."""
    A = P.A
    if isinstance(P.shape, MonicQuotientShape):
        images = [A.pow(P.psi_gen_images[P.shape.var], i) for i in range(len(A.basis))]
    else:
        images = [A.one()] + [P.psi_gen_images[b] for b in P.shape.basis[1:]]
    out = A.zero()
    for c, img in zip(a, images):
        out = A.add(out, A.scale(P.psi_coeff(c), img))
    return out


def _well_defined_by_relations(P):
    """psi(m) = 0 for the relation m of a monic quotient; psi(e_i e_j) =
    psi(e_i) psi(e_j) on every basis pair of a finite-free shape."""
    A = P.A
    if isinstance(P.shape, MonicQuotientShape):
        m, d = P.shape.monic, len(A.basis)
        top = A.pow(P.psi_gen_images[P.shape.var], d)
        return A.is_zero(A.add(_psi_by_basis_images(P, m[:d]),
                               A.scale(P.psi_coeff(m[d]), top)))
    e = [unit_vector(P.W, len(A.basis), i) for i in range(len(A.basis))]
    return all(A.eq(_psi_by_basis_images(P, vec),
                    A.mul(_psi_by_basis_images(P, e[i]), _psi_by_basis_images(P, e[j])))
               for (i, j), vec in A.mult.items())


WELL_DEFINED_RINGS = [WittCoefRing(2, 2), WittCoefRing(2, 3), WittCoefRing(3, 2),
                      WittCoefRing(2, 2, ext=[1, 1, 1])]


def _coeffs(W):
    return st.tuples(*[st.integers(0, W.modulus - 1)] * W.f).map(W.elem)


def _monic_generator(W, monic):
    """W[x]/(monic) as a FiniteAlgebra, and x in it."""
    A = FiniteAlgebra.monic_quotient(W, "x", monic)
    d = len(A.basis)  # W[x]/(x + m_0) has basis 1, and x reduces to -m_0
    return A, ((W.neg(monic[0]),) if d == 1 else unit_vector(W, d, 1))


@st.composite
def finite_psi_data(draw):
    """The fields of a presentation on a monic quotient of degree 1-3 or a
    rank-2 finite-free shape, with psi(x) a random element, x itself or 0, and
    the shape's algebra A built here."""
    W = draw(st.sampled_from(WELL_DEFINED_RINGS), label="ring")
    c = _coeffs(W)
    z, o = W.zero(), W.one()
    if draw(st.booleans(), label="monic"):
        d = draw(st.integers(1, 3), label="degree")
        shape = MonicQuotientShape("x", tuple(draw(st.lists(c, min_size=d, max_size=d)))
                                   + (o,))
        A, x = _monic_generator(W, shape.monic)
    else:
        d = 2
        mult = ((0, 0, (o, z)), (0, 1, (z, o)), (1, 0, (z, o)),
                (1, 1, draw(st.tuples(c, c), label="b*b")))
        shape = FiniteFreeShape(("1", "x"), mult)
        A = FiniteAlgebra(ring=W, basis=shape.basis, mult={(i, j): v for i, j, v in mult},
                          unit=(o, z))
        x = (z, o)
    image = draw(st.one_of(st.tuples(*[c] * d), st.sampled_from([x, (z,) * d])),
                 label="psi(x)")
    coeffs = draw(st.sampled_from(["id", "sigma"]))
    return types.SimpleNamespace(W=W, shape=shape, A=A, psi_on_coeffs=coeffs,
                                 psi_gen_images={"x": image},
                                 psi_coeff=W.frobenius if coeffs == "sigma" else (lambda c: c))


@settings(max_examples=200, deadline=None)
@given(finite_psi_data())
def test_one_rule_decides_well_definedness_as_the_relations_do(D):
    try:
        PsiRingPresentation(W=D.W, shape=D.shape, psi_on_coeffs=D.psi_on_coeffs,
                            psi_gen_images=D.psi_gen_images)
        built = True
    except IllDefinedPsi as e:
        assert str(e).startswith("psi(x*")
        built = False
    assert built == _well_defined_by_relations(D)


def test_a_degree_one_quotient_fixes_psi_of_its_generator():
    # W[x]/(x + m_0) with sigma on W(F_4): psi(x) = psi(-m_0) = -sigma(m_0)
    W = WittCoefRing(2, 2, ext=[1, 1, 1])
    m0 = W.gen()
    shape = MonicQuotientShape("x", (m0, W.one()))
    good = PsiRingPresentation(W=W, shape=shape, psi_on_coeffs="sigma",
                               psi_gen_images={"x": (W.neg(W.frobenius(m0)),)})
    assert good.psi(good.gen("x")) == (W.neg(W.frobenius(m0)),)
    with pytest.raises(IllDefinedPsi, match=r"^psi\(x\*1\) != psi\(x\)\*psi\(1\)$"):
        PsiRingPresentation(W=W, shape=shape, psi_on_coeffs="sigma",
                            psi_gen_images={"x": (W.neg(m0),)})


def test_psi_scales_cached_basis_images(monkeypatch):
    # psi(x) = x r on W[x]/(x^6), r random, so psi(x)^6 = 0 and the basis
    # images are dense: once they exist, an element costs d scalings and no product
    W = WittCoefRing(2, 3)
    rng = random.Random(6)
    monic = (W.zero(),) * 6 + (W.one(),)
    A, x = _monic_generator(W, monic)
    P = PsiRingPresentation(W=W, shape=MonicQuotientShape("x", monic),
                            psi_gen_images={"x": A.mul(x, A.rand(rng))})
    a, b = P.A.rand(rng), P.A.rand(rng)
    assert P.psi(a) == _psi_by_basis_images(P, a)
    want = _psi_by_basis_images(P, b)
    calls = []
    mul = FiniteAlgebra.mul
    monkeypatch.setattr(FiniteAlgebra, "mul", lambda *args: calls.append(1) or mul(*args))
    assert P.psi(b) == want and not calls


def test_theta_builds_no_second_presentation(monkeypatch):
    W = WittCoefRing(2, 4)
    shape = MonicQuotientShape("x", (W.from_int(-1), W.zero(), W.one()))
    P = PsiRingPresentation(W=W, shape=shape,
                            psi_gen_images={"x": (W.from_int(1), W.zero())})

    def refuse(self):
        raise AssertionError("a second presentation was built")

    monkeypatch.setattr(PsiRingPresentation, "__post_init__", refuse)
    td = derive_theta(P)
    assert td.lowered.ring is W.lower()
    assert theta_consistency(P, samples=5).verdict


# ---------------------------------------------------------------------------
# metamorphic: theta commutes with truncation Z/p^N -> Z/p^(N-1)

def _down(x, R, Rl):
    """x with each coefficient reduced from R into Rl, zero terms dropped."""
    if isinstance(x, dict):
        low = {e: R.truncate_to(Rl, c) for e, c in x.items()}
        return {e: c for e, c in low.items() if not Rl.is_zero(c)}
    return tuple(R.truncate_to(Rl, c) for c in x)


def _truncated(P):
    """P one precision digit down: its shape and images reduced here, entry by entry."""
    W = P.W
    Wl = W.lower()
    shape = P.shape
    if isinstance(shape, MonicQuotientShape):
        shape = MonicQuotientShape(shape.var, _down(shape.monic, W, Wl))
    elif isinstance(shape, FiniteFreeShape):
        shape = FiniteFreeShape(shape.basis, tuple((i, j, _down(v, W, Wl))
                                                   for i, j, v in shape.mult))
    return PsiRingPresentation(W=Wl, shape=shape, psi_on_coeffs=P.psi_on_coeffs,
                               psi_gen_images={g: _down(v, W, Wl)
                                               for g, v in P.psi_gen_images.items()})


THETA_RINGS = [WittCoefRing(2, 3), WittCoefRing(2, 4), WittCoefRing(3, 3),
               WittCoefRing(2, 3, ext=[1, 1, 1])]


@st.composite
def theta_presentations(draw):
    """Presentations with a Frobenius lift psi, so theta exists on every element:
    - W[x] or W[x, y] with psi(g) = g^p + p h;
    - W[x]/(x^d - c), c in {0, 1}, with psi(x) = x^p;
    - W[x]/((x - r_1)...(x - r_d)), the r_i distinct mod p, with psi(x) = x
      (the algebra is etale, and r^p = r mod p);
    - W<1, b> with b^2 = b and psi(b) = b, or b^2 = 0 and psi(b) = p k b.
    psi is sigma on coefficients over W(F_4), as the coefficient generator needs."""
    W = draw(st.sampled_from(THETA_RINGS), label="ring")
    p, z, o = W.p, W.zero(), W.one()
    coeffs = "sigma" if W.f > 1 else draw(st.sampled_from(["id", "sigma"]))
    kind = draw(st.sampled_from(["poly", "power", "roots", "finite_free"]), label="kind")
    if kind == "poly":
        vars = ("x", "y")[:draw(st.integers(1, 2), label="nvars")]
        A = PolyTruncRing(W, vars, math.inf)
        data = types.SimpleNamespace(draw=draw)
        images = {v: A.add(A.pow(A.var(v), p),
                           A.scale(W.from_int(p), _draw_poly(data, W, len(vars), f"h({v})")))
                  for v in vars}
        return poly_pres(W, images, coeffs, vars)
    if kind == "power":
        d = draw(st.integers(1, 3), label="degree")
        c = draw(st.sampled_from([z, o]), label="c")
        shape = MonicQuotientShape("x", (W.neg(c),) + (z,) * (d - 1) + (o,))
        A, x = _monic_generator(W, shape.monic)
        return PsiRingPresentation(W=W, shape=shape, psi_on_coeffs=coeffs,
                                   psi_gen_images={"x": A.pow(x, p)})
    if kind == "roots":
        roots = draw(st.lists(st.integers(0, W.modulus - 1), min_size=1, max_size=p,
                              unique_by=lambda r: r % p), label="roots")
        m = [o]
        for r in roots:  # m times (x - r), low to high
            m = [W.sub(a, W.mul(W.from_int(r), b)) for a, b in zip([z] + m, m + [z])]
        _, x = _monic_generator(W, tuple(m))
        return PsiRingPresentation(W=W, shape=MonicQuotientShape("x", tuple(m)),
                                   psi_on_coeffs=coeffs, psi_gen_images={"x": x})
    k = draw(st.integers(0, W.modulus - 1), label="k")
    idempotent = draw(st.booleans(), label="b^2 = b")
    mult = ((0, 0, (o, z)), (0, 1, (z, o)), (1, 0, (z, o)),
            (1, 1, (z, o) if idempotent else (z, z)))
    image = (z, o) if idempotent else (z, W.from_int(p * k))
    return PsiRingPresentation(W=W, shape=FiniteFreeShape(("1", "b"), mult),
                               psi_on_coeffs=coeffs, psi_gen_images={"b": image})


@settings(max_examples=80, deadline=None)
@given(theta_presentations(), st.randoms(use_true_random=False))
def test_theta_commutes_with_truncation(P, rng):
    """theta at N, truncated to N - 2, is theta of P truncated to N - 1, on the
    generators and on sampled elements."""
    PL = _truncated(P)
    W, Wl = P.W, PL.W
    Wll = Wl.lower()
    td, tdl = derive_theta(P), derive_theta(PL)
    assert td.theta_gens.keys() == tdl.theta_gens.keys()
    for g, v in td.theta_gens.items():
        assert _down(v, Wl, Wll) == tdl.theta_gens[g]
    for _ in range(3):
        a = P.A.rand(rng)
        assert _down(theta_of(P, a), Wl, Wll) == theta_of(PL, _down(a, W, Wl))
