"""The acceptance battery: every exact algebraic claim the library commits to.

Each criterion function returns a CongruenceReport; the CRITERIA table lists
them in order.  It is wired both into pytest (tests/test_acceptance.py) and the
CLI (`fglcheck selftest`).  All sampling is seeded; everything else is exact.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

from . import formal_groups as fg
from . import graded2, weights
from .exact_arith import WittCoefRing
from .linalg import Mat
from .report import CheckResult, CongruenceReport
from .series import PolyTruncRing, weierstrass_prepare
from .theta_congruence import (FrobeniusClassSpec, L1Data, PolyShape,
                               PsiRingPresentation,
                               congruence_stability_under_class_change,
                               derive_theta, frobenius_congruence_comodule,
                               gamma_congruence_check, theta_consistency,
                               theta_of, verify_weight_p_squares,
                               wilkerson_check)
from .twisted_bialgebra import (algebra_on_w, bialgebra_checks, dualize,
                                height1_gamma, points_category,
                                trivial_algebra, verify_bialgebra)

SEED = 20260810


def criterion_1_fgl_axioms():
    """Unit, commutativity and associativity with zero residual at truncation."""
    laws = {
        "multiplicative/Z16": fg.fgl_multiplicative(WittCoefRing(2, 4), 6),
        "multiplicative/Z27": fg.fgl_multiplicative(WittCoefRing(3, 3), 6),
        "honda(2,2)/N3": fg.fgl_honda(2, 2, 3, 8),
        "honda(3,1)/N3": fg.fgl_honda(3, 1, 3, 8),
        "lubin_tate(2,2,3,u2,8)": fg.lubin_tate_deformation(2, 2, 3, 2, 8),
    }
    laws["honda(2,2)/mod2"] = fg.reduce_to_residue(laws["honda(2,2)/N3"])
    laws["honda(3,1)/mod3"] = fg.reduce_to_residue(laws["honda(3,1)/N3"])
    return CongruenceReport.from_checks(
        [c for name, G in laws.items() for c in G.axiom_checks(name)])


def criterion_2_heights():
    """Height detection matches [p](x) = x^{p^n} mod the maximal ideal."""
    checks = []
    h = fg.height(fg.fgl_multiplicative(WittCoefRing(2, 4), 6))
    checks.append(CheckResult("multiplicative mod 2 height 1", h.value == 1))
    H22 = fg.fgl_honda(2, 2, 3, 8)
    h2 = fg.height(H22)
    checks.append(CheckResult("honda(2,2) mod 2 height 2", h2.value == 2))
    pser = fg.n_series(fg.reduce_to_residue(H22), 2)
    k = pser.ring
    lead_ok = (pser.min_degree() == 4
               and k.is_unit(pser.coefficient((4,))))
    checks.append(CheckResult("[2](x) = x^4 + O(x^5) for honda(2,2) mod 2",
                              lead_ok, repr(pser)))
    A3 = fg.fgl_additive(WittCoefRing(3, 1), 8)
    ha = fg.height(A3)
    want = 1  # floor(log_3 8)
    checks.append(CheckResult("additive mod 3 AtLeast(floor(log_p D))",
                              ha.value is None and ha.at_least == want,
                              repr(ha)))
    return CongruenceReport.from_checks(checks)


def criterion_3_bcp_structure():
    """Weierstrass data of [p](x) for the Lubin-Tate instance: rank p^n = 4."""
    LT = fg.lubin_tate_deformation(2, 2, 3, 2, 8)
    R = LT.ring
    pser = fg.n_series(LT, 2)
    wf = weierstrass_prepare(pser)
    b = fg._monic_quotient(R, wf)  # bcp_module(LT), on the one preparation
    checks = [
        CheckResult("distinguished degree 4", wf.degree == 4),
        CheckResult("basis 1,x,x^2,x^3", b.basis == ("1", "x^1", "x^2", "x^3")),
        CheckResult("distinguished monic",
                    wf.distinguished.coefficient((4,)) == R.one()),
        CheckResult("lower coefficients in the maximal ideal",
                    all(R.in_max_ideal(wf.distinguished.coefficient((j,)))
                        for j in range(4))),
        CheckResult("unit * distinguished == [2](x) exactly",
                    wf.unit * wf.distinguished == pser),
        CheckResult("unit factor has unit constant term",
                    R.is_unit(wf.unit.constant_term())),
    ]
    return CongruenceReport.from_checks(checks)


def standard_graded_objects(ring):
    """The unit, omega, its odd square root and a rank 1|1 object."""
    return [graded2.unit_obj(ring), graded2.omega_obj(ring),
            graded2.omega_sqrt(ring), graded2.GradedObj(ring, ("a",), ("b",))]


def criterion_4_coherence():
    """Coherence over Z/8 plus detection of every injected sign flip."""
    ring = WittCoefRing(2, 3)
    objs = standard_graded_objects(ring)
    rep = graded2.verify_coherence(ring, objs)
    checks = [rep.as_check("coherence suite")]
    t = graded2.interchange(objs[2], objs[2])
    minus = graded2.SignedPerm(ring, (0,), (-1,))
    checks.append(CheckResult("tau on omega^(1/2) square is -id", t.m0 == minus))
    # a mutant differs only in tau, which the triangles and pentagons never call
    monoidal = all(c.passed for c in rep.checks
                   if c.name.startswith(("triangle", "pentagon")))
    rng = random.Random(SEED)
    pairs = list(itertools.product(objs, repeat=2))
    injected = 0
    detected = 0
    trials = 0
    while injected < 20 and trials < 200:
        trials += 1
        A, B = rng.choice(pairs)
        honest = graded2.interchange(A, B)
        deg = rng.choice([0, 1])
        block = honest.m0 if deg == 0 else honest.m1
        entries = sorted(zip(block.perm, range(len(block.perm))))
        if not entries:
            continue
        i, j = rng.choice(entries)
        mutated = graded2.flip_sign(honest, deg, i, j)

        def tau_fn(X, Y, A=A, B=B, mutated=mutated):
            if X is A and Y is B:
                return mutated
            return graded2.interchange(X, Y)

        injected += 1
        if not (monoidal and all(c.passed for c in graded2.coherence_checks(
                ring, objs, tau_fn, monoidal=False))):
            detected += 1
    checks.append(CheckResult("sign mutations always detected",
                              injected == 20 and detected == injected,
                              f"{detected}/{injected} detected"))
    return CongruenceReport.from_checks(checks, meta={"seed": SEED})


def _mutate_one_constant(G, rng):
    """Add a random nonzero element to one structure constant; returns a copy
    that shares every table entry it does not change, a description, and the
    table it changed as bialgebra_checks names it."""
    R = G.ring
    e = R.rand(rng)
    while R.is_zero(e):
        e = R.rand(rng)
    kinds = ["mu", "eps", "delta"]
    if G.left_t is not None:
        kinds.append("left")
    kind = rng.choice(kinds)
    if kind == "mu":
        k, l = rng.choice(list(G.mu))
        ij = rng.choice(list(G.mu[(k, l)]))
        vec = list(G.mu[(k, l)][ij])
        a = rng.randrange(len(vec))
        vec[a] = R.add(vec[a], e)
        mu = dict(G.mu)
        mu[(k, l)] = {**mu[(k, l)], ij: tuple(vec)}
        return replace(G, mu=mu), f"mu[{k},{l}][{ij}][{a}] += {e!r}", ("mu", k, l)
    if kind == "eps":
        k = rng.choice(list(G.eps))
        vec = list(G.eps[k])
        a = rng.randrange(len(vec))
        vec[a] = R.add(vec[a], e)
        return (replace(G, eps={**G.eps, k: tuple(vec)}), f"eps[{k}][{a}] += {e!r}",
                ("eps", k))
    if kind == "delta":
        k = rng.choice(list(G.delta))
        a = rng.choice(list(G.delta[k]))
        m = G.delta[k][a]
        i = rng.randrange(m.nrows)
        j = rng.randrange(m.ncols)
        rows = [list(r) for r in m.rows]
        rows[i][j] = R.add(rows[i][j], e)
        delta = dict(G.delta)
        delta[k] = {**delta[k], a: Mat(R, rows)}
        return replace(G, delta=delta), f"delta[{k}][{a}][{i},{j}] += {e!r}", ("delta", k)
    k = rng.choice(list(G.left_t))
    rows = [list(r) for r in G.left_t[k].rows]
    rows[0][0] = R.add(rows[0][0], e)
    return (replace(G, left_t={**G.left_t, k: Mat(R, rows)}), f"left_t[{k}] += {e!r}",
            ("left_t", k))


def criterion_5_bialgebra_axioms():
    """height1_gamma(2,3,2,3) passes; 50 single-constant mutations all fail."""
    G = height1_gamma(2, 3, 2, 3)
    honest = verify_bialgebra(G)
    checks = [honest.as_check("height1_gamma(2,3,2,3) axioms")]
    rng = random.Random(SEED)
    detected = 0
    for i in range(50):
        H, what, touched = _mutate_one_constant(G, rng)
        # once G passes, a check that does not read the changed table passes on H
        if not all(c.passed for c in bialgebra_checks(H, touched if honest.verdict else None)):
            detected += 1
        else:
            checks.append(CheckResult(f"mutation[{i}] detected", False, what))
    checks.append(CheckResult("50/50 mutations detected", detected == 50,
                              f"{detected}/50"))
    return CongruenceReport.from_checks(checks, meta={"seed": SEED})


def criterion_6_dual_scheme():
    """Dual category scheme: i* iso; exhaustive point-category axioms."""
    checks = []
    for f in (2, 1):
        G = height1_gamma(2, 3, f, 3)
        scheme = dualize(G)
        checks.append(scheme.report.as_check(f"dualize(f={f}) structure checks"))
        iso = [c for c in scheme.report.checks if c.name == "i_star_isomorphism"]
        checks.append(CheckResult(f"i* isomorphism (f={f})",
                                  bool(iso) and iso[0].passed))
        for Rp, label in ((WittCoefRing(2, 1), "F_2"), (WittCoefRing(2, 2), "Z/4")):
            pc = points_category(scheme, Rp)
            checks.append(CheckResult(
                f"points over {label} (f={f}) axioms", pc.report.verdict,
                None if pc.report.verdict else str(pc.report.witnesses[:1]),
                details={"objects": len(pc.objects),
                         "morphisms": {k: len(v) for k, v in pc.morphisms.items()}}))
    return CongruenceReport.from_checks(checks)


def criterion_7_wilkerson():
    """Theorem A at height 1 via the Wilkerson congruence and theta identities."""
    checks = []
    W5 = WittCoefRing(2, 5)
    P = PsiRingPresentation(W=W5, shape=PolyShape(("x",)),
                            psi_gen_images={"x": {(2,): W5.one()}})
    rep = wilkerson_check(P, seed=SEED)
    checks.append(CheckResult("psi(x)=x^2 on Z/2^5[x] passes", rep.verdict))
    td = derive_theta(P)
    checks.append(CheckResult("theta(x) = 0",
                              td.lowered.is_zero(td.theta_gens["x"])))

    W4 = WittCoefRing(2, 4, ext=[1, 1, 1])
    P2 = PsiRingPresentation(W=W4, shape=PolyShape(()), psi_on_coeffs="sigma")
    rep2 = wilkerson_check(P2, sample_bound=50, seed=SEED)
    checks.append(CheckResult("psi=sigma on W(F_4) passes", rep2.verdict))
    rng = random.Random(SEED)
    ok = 0
    for _ in range(100):
        a = W4.rand(rng)
        th = theta_of(P2, P2.from_coeff(a))
        coeffs = list(th.values())[0].coeffs if th else (0,) * W4.f
        lift = W4.elem(coeffs)
        if W4.eq(W4.frobenius(a), W4.add(W4.mul(a, a), W4.scalar(2, lift))):
            ok += 1
    checks.append(CheckResult("psi(a) = a^2 + 2 theta(a) on 100 samples",
                              ok == 100, f"{ok}/100"))

    P3 = PsiRingPresentation(W=W5, shape=PolyShape(("x",)),
                             psi_gen_images={"x": {(1,): W5.one()}})
    rep3 = wilkerson_check(P3, seed=SEED)
    witness_names = [n for n, _ in rep3.witnesses]
    checks.append(CheckResult("psi(x)=x fails with witness x",
                              not rep3.verdict and "generator[x]" in witness_names,
                              str(rep3.witnesses[:1])))

    checks.append(theta_consistency(P, samples=100, seed=SEED).as_check(
        "theta addition/multiplication identities x100"))
    return CongruenceReport.from_checks(checks, meta={"seed": SEED})


def criterion_8_gamma_congruence():
    """x sigma = x^p mod pB on the canonical algebra; replayable failures."""
    G = height1_gamma(2, 3, 2, 3)
    R = G.ring
    sigma = FrobeniusClassSpec(gamma=G, coords=(R.one(),))
    B = trivial_algebra(G)
    checks = [gamma_congruence_check(sigma, B, seed=SEED).as_check(
        "(W, psi -> sigma) passes")]

    pert = algebra_on_w(G, {k: Mat(R, [[R.from_int(2) if k == 1 else R.one()]])
                            for k in range(G.kmax + 1)})
    rep2 = gamma_congruence_check(sigma, pert, seed=SEED)
    replayed = False
    if not rep2.verdict:
        # replay: the unit monomial itself must violate the congruence
        x = B.unit
        lhs = pert.act(1, sigma.coords, x)
        rhs = pert.pow(x, 2)
        diff = R.sub(lhs[0], rhs[0])
        replayed = not R.residue_ring().is_zero(R.residue(diff))
    checks.append(CheckResult("perturbed action fails with replayable witness",
                              (not rep2.verdict) and replayed,
                              str(rep2.witnesses[:1])))

    rng = random.Random(SEED)
    gammas = [(R.rand(rng),) for _ in range(20)]
    rep3 = congruence_stability_under_class_change(sigma, B, gammas, seed=SEED)
    rep4 = congruence_stability_under_class_change(sigma, pert, gammas, seed=SEED)
    checks.append(CheckResult("verdict invariant under sigma + 2*gamma (pass case)",
                              rep3.verdict))
    checks.append(CheckResult("verdict invariant under sigma + 2*gamma (fail case)",
                              rep4.verdict))
    return CongruenceReport.from_checks(checks, meta={"seed": SEED})


def criterion_9_frobenius_congruence():
    """The section-9 comodule congruence on F_2[y]."""
    F2 = WittCoefRing(2, 1)
    B = PolyTruncRing(F2, ("y",), math.inf)
    l1 = L1Data(W=WittCoefRing(2, 3))
    good = frobenius_congruence_comodule(
        l1, B, {"y": [(l1.W.one(), {(2,): F2.one()})]}, seed=SEED)
    bad = frobenius_congruence_comodule(
        l1, B, {"y": [(l1.W.one(), {(1,): F2.one()})]}, seed=SEED)
    witness_names = [n for n, _ in bad.witnesses]
    checks = [
        CheckResult("psi_1(y) = 1 (x) y^2 passes", good.verdict),
        CheckResult("psi_1(y) = 1 (x) y fails with witness y",
                    not bad.verdict and "generator[y]" in witness_names,
                    str(bad.witnesses[:1])),
    ]
    return CongruenceReport.from_checks(checks, meta={"seed": SEED})


def criterion_10_weight_p_squares():
    return verify_weight_p_squares(2, 4, seed=SEED)


def criterion_11_critical_weights():
    checks = []
    bad = []
    for m in range(0, 201):
        for p in (2, 3, 5):
            c = weights.regularity_certificate(m, p)
            if (c.tag == "Critical") != (m == p):
                bad.append((m, p, c.tag))
            if c.tag in ("CoprimeCase", "DivisibleCase") and c.valuation != 0:
                bad.append((m, p, "valuation"))
    checks.append(CheckResult("certificates on [0,200] x {2,3,5}", not bad,
                              str(bad[:3])))
    gcd_bad = []
    for m in range(2, 501):
        g = weights.binomial_gcd(m)
        base = weights._prime_power_base(m)
        want = base if base is not None else 1
        if g != want:
            gcd_bad.append((m, g))
    checks.append(CheckResult("binomial gcd lemma on [2,500]", not gcd_bad,
                              str(gcd_bad[:3])))
    return CongruenceReport.from_checks(checks)


def criterion_12_epi_and_inheritance():
    checks = []
    rng = random.Random(SEED)
    Z8 = WittCoefRing(2, 3)
    F4 = WittCoefRing(2, 1, ext=[1, 1, 1])
    mismatches = 0
    for i in range(200):
        ring = Z8 if i % 2 == 0 else F4
        rank = rng.choice([1, 2])
        maps = []
        for _ in range(rng.choice([1, 2])):
            ncols = rng.choice([1, 2])
            maps.append(Mat(ring, [[ring.rand(rng) for _ in range(ncols)]
                                   for _ in range(rank)]))
        fam = weights.EpiFamily(ring=ring, target_rank=rank, maps=maps)
        if weights.epi_family_check(fam).surjective != weights.brute_force_surjective(fam):
            mismatches += 1
    checks.append(CheckResult("epi check == brute force on 200 families",
                              mismatches == 0, f"{mismatches} mismatches"))

    F2 = WittCoefRing(2, 1)
    prod2 = Mat.from_int_rows(F2, [[1, 0, 0, 0], [0, 1, 1, 1]])
    toy = weights.WeightedMonadData(
        ring=F2, m_rank=2, unit=(F2.one(), F2.zero()), product=prod2, bound=4,
        incl=Mat.from_int_rows(F2, [[1], [0]]))
    res = weights.inherit_structure(toy, 2)
    checks.append(CheckResult("rank-2 toy: induced structure certified",
                              res.ok and res.report.verdict))

    prod3 = Mat.from_int_rows(F2, [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 1, 0, 0]])
    broken = weights.WeightedMonadData(
        ring=F2, m_rank=3, unit=(F2.one(), F2.zero(), F2.zero()),
        product=prod3, bound=4,
        incl=Mat.from_int_rows(F2, [[1, 0], [0, 1], [0, 0]]))
    res2 = weights.inherit_structure(broken, 2)
    checks.append(CheckResult("broken T_p closure returns the offending element",
                              (not res2.ok) and res2.offending_weight == 2
                              and res2.offending_element == "n1*n1",
                              f"{res2.offending_weight}/{res2.offending_element}"))
    return CongruenceReport.from_checks(checks, meta={"seed": SEED})


CRITERIA = [
    ("1 formal group law axiom suite", criterion_1_fgl_axioms),
    ("2 height claims", criterion_2_heights),
    ("3 E0BC_p module structure", criterion_3_bcp_structure),
    ("4 twisted Z/2 coherence", criterion_4_coherence),
    ("5 bialgebra axioms + mutations", criterion_5_bialgebra_axioms),
    ("6 dual category scheme", criterion_6_dual_scheme),
    ("7 Wilkerson criterion at height 1", criterion_7_wilkerson),
    ("8 general congruence", criterion_8_gamma_congruence),
    ("9 Frobenius congruence on comodules", criterion_9_frobenius_congruence),
    ("10 weight-p squares", criterion_10_weight_p_squares),
    ("11 critical weights", criterion_11_critical_weights),
    ("12 epimorphic families + inheritance", criterion_12_epi_and_inheritance),
]

