"""psi-rings, theta-rings, and the congruence criteria.

A psi-ring presentation does its element arithmetic in one ring, pres.A: the
untruncated series.PolyTruncRing (bound math.inf) for the polynomial shape
W[x_1..x_k], the ring that also holds the Lubin-Tate coefficients, and a
linalg.FiniteAlgebra (the type of the Gamma-algebras of twisted_bialgebra) for
a monic quotient W[x]/(m) or a finite-free algebra.  psi is one loop on both:
psi(c) times the psi-image of each basis element or monomial.

The Wilkerson check asks whether psi(x) = x^p mod p; on a pass, theta is
derived by exact division and its forced addition/multiplication identities
are re-verified.  The general (height >= 1) congruence x . sigma = x^p mod pB
is checked against a Gamma-algebra action, and the weight-p pullback/pushout
squares behind the criterion are certified by Smith normal form at finite
precision.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .exact_arith import (MalformedData, NotDivisible, Ring, WittCoefRing, json_names,
                          json_typed, json_vec, ring_from_descriptor)
from .linalg import (FiniteAlgebra, Mat, ShapeMismatch, residue_rank,
                     smith_normal_form, solve, unit_vector)
from .report import CheckResult, CongruenceReport
from .series import PolyTruncRing
from .twisted_bialgebra import TwistedBialgebra


# seeded sample sizes: scalars of the general congruence, comodule and
# weight-p samples
GAMMA_SCALAR_SAMPLES, COMODULE_SAMPLES, SQUARES_SAMPLES = 30, 20, 40
# the general congruence spans the algebra by monomials up to this degree
GAMMA_DEGREE_BOUND = 2


class IllDefinedPsi(ValueError):
    """psi does not preserve the presentation's relations."""


class CongruenceFails(ArithmeticError):
    def __init__(self, witness):
        super().__init__(f"congruence fails, witness {witness}")
        self.witness = witness


class CharacteristicMismatch(ValueError):
    """Comodule congruence requires a base of characteristic p."""


# ---------------------------------------------------------------------------
# presentations of psi-rings


@dataclass(frozen=True)
class PolyShape:
    vars: tuple


@dataclass(frozen=True)
class MonicQuotientShape:
    var: str
    monic: tuple  # coefficients in W, low to high, leading coefficient 1


@dataclass(frozen=True)
class FiniteFreeShape:
    basis: tuple
    mult: tuple  # ((i, j, coordinate vector) ...), dense over basis pairs


@dataclass
class PsiRingPresentation:
    """A commutative W-algebra with normal forms, plus a psi endomorphism.

    Its ring A does the element arithmetic: an untruncated PolyTruncRing for
    the polynomial shape, and a FiniteAlgebra, with coordinate tuples as
    elements, for a monic quotient (basis 1, x^1, ..., x^(d-1)) or a
    finite-free shape (whose basis starts with its unit "1").  psi acts on coefficients by the
    identity or by the Frobenius lift, and on generators by the given images.
    Construction checks that psi is well defined, so every presentation has
    an image for each generator and preserves its relations; IllDefinedPsi
    says which does not.
    """

    W: WittCoefRing
    shape: object
    psi_on_coeffs: str = "id"  # "id" | "sigma"
    psi_gen_images: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.psi_on_coeffs not in ("id", "sigma"):
            raise ValueError("psi_on_coeffs must be 'id' or 'sigma'")
        self.A, self._gens, self._word = _read_shape(self.W, self.shape)
        self._psi_cache = {}
        self._check_well_defined()

    def from_coeff(self, c):
        return self.A.scale(c, self.A.one())

    def gen(self, name):
        if name not in self._gens:
            raise ValueError(f"{name!r} is not a generator")
        return self._gens[name]

    def generators(self):
        return list(self._gens)

    def psi_coeff(self, c):
        return self.W.frobenius(c) if self.psi_on_coeffs == "sigma" else c

    def psi(self, a):
        """sum psi(c) * psi(key) over the terms c * key of a."""
        A = self.A
        out = A.zero()
        for key, c in A.terms(a):
            if not self.W.is_zero(c):
                first, *rest = self._psi_factors(key)
                term = A.scale(self.psi_coeff(c), first)
                for f in rest:
                    term = A.mul(term, f)
                out = A.add(out, term)
        return out

    def _psi_factors(self, key):
        """The psi-images whose product is psi(key), read from key's word once.
        A monomial keeps its generator images apart, in variable order: scaling
        a cached product would reorder terms when psi(c) is not a unit.  A
        basis element of a finite algebra has one image, their product."""
        A, cache = self.A, self._psi_cache
        if key not in cache:
            images = [self.psi_gen_images[g] for g in self._word(key)]
            cache[key] = ([functools.reduce(A.mul, images, A.one())]
                          if isinstance(A, FiniteAlgebra) else images or [A.one()])
        return cache[key]

    def residues(self, a):
        """Coefficient residues mod p, keyed for witness reporting."""
        W = self.W
        out = {e: W.residue(c) for e, c in self.A.terms(a)}
        return {e: r for e, r in out.items() if not W.residue_ring().is_zero(r)}

    def _check_well_defined(self):
        """Every generator, and no other name, has a psi image, and psi
        preserves the relations.

        A polynomial shape has none.  Every basis element of a finite shape is
        a word in the generators, so psi preserves its relations exactly when
        psi(g e) = psi(g) psi(e) for every generator g and basis element e."""
        A = self.A
        extra = sorted(set(self.psi_gen_images) - set(self._gens))
        if extra:
            raise ValueError(f"psi images for {extra}, which are not generators")
        finite = isinstance(A, FiniteAlgebra)
        for g in self._gens:
            img = self.psi_gen_images.get(g)
            if img is None:
                raise IllDefinedPsi(f"no psi image for generator {g}")
            if finite and len(img) != len(A.basis):
                raise IllDefinedPsi(f"psi({g}) has {len(img)} coordinates, not {len(A.basis)}")
        for g, x in self._gens.items() if finite else ():
            for i, name in enumerate(A.basis):
                e = unit_vector(self.W, len(A.basis), i)
                lhs, rhs = self.psi(A.mul(x, e)), A.mul(self.psi_gen_images[g], self.psi(e))
                if not A.eq(lhs, rhs):
                    raise IllDefinedPsi(f"psi({g}*{name}) != psi({g})*psi({name})")

    @staticmethod
    def from_json(data):
        json_typed(data, dict, "a presentation")
        W = ring_from_descriptor(data["ring"])
        sh = json_typed(data["shape"], dict, "the shape")
        kind = json_typed(sh["kind"], str, "the shape kind")

        def entry(t):
            if not (isinstance(t, list) and len(t) == 3):
                raise MalformedData(f"a table entry is [i, j, coordinates], not {t!r:.60}")
            i, j, v = t
            return (json_typed(i, int, "a table index"), json_typed(j, int, "a table index"),
                    json_vec(W, v, f"table entry ({i},{j})"))

        elem = functools.partial(json_vec, W)
        if kind == "poly":
            shape = PolyShape(json_names(sh["vars"], "shape vars"))
            elem = PolyTruncRing(W, shape.vars, math.inf).decode
        elif kind == "monic_quotient":
            shape = MonicQuotientShape(json_typed(sh["var"], str, "shape var"),
                                       json_vec(W, sh["monic"], "shape monic"))
        elif kind == "finite_free":
            shape = FiniteFreeShape(json_names(sh["basis"], "shape basis"),
                                    tuple(entry(t) for t in json_typed(sh["mult"], list,
                                                                       "shape mult")))
        else:
            raise MalformedData(f"shape kind {kind!r} is not poly, monic_quotient "
                                f"or finite_free")
        images = json_typed(data["psi_gen_images"], dict, "psi_gen_images")
        return PsiRingPresentation(
            W=W, shape=shape, psi_on_coeffs=data.get("psi_on_coeffs", "id"),
            psi_gen_images={k: elem(v, f"psi({k})") for k, v in images.items()})


def _read_shape(W, shape):
    """The shape read once: its algebra A, each generator as an element of A,
    and word(key), the generators whose product is the monomial or basis
    element key."""
    if isinstance(shape, PolyShape):
        A = PolyTruncRing(W, shape.vars, math.inf)
        return (A, {v: A.var(v) for v in shape.vars},
                lambda e: [v for v, k in zip(shape.vars, e) for _ in range(k)])
    if isinstance(shape, MonicQuotientShape):
        A = FiniteAlgebra.monic_quotient(W, shape.var, shape.monic)
        d = len(A.basis)  # W[x]/(x + m_0) has basis 1, and x reduces to -m_0
        x = (W.neg(shape.monic[0]),) if d == 1 else unit_vector(W, d, 1)
        return A, {shape.var: x}, lambda i: [shape.var] * i
    A = _finite_free_algebra(W, shape)
    return (A, {b: unit_vector(W, len(A.basis), i) for i, b in enumerate(A.basis) if i},
            lambda i: [A.basis[i]] if i else [])


def _finite_free_algebra(W, shape):
    """A finite-free shape as a FiniteAlgebra: commutative, its basis starting with
    its unit "1"."""
    basis = tuple(shape.basis)
    if not basis or basis[0] != "1" or len(set(basis)) != len(basis):
        raise ValueError(f"finite-free basis {list(basis)} must start with its "
                         f"unit '1' and name each element once")
    n = len(basis)
    pairs = set(itertools.product(range(n), repeat=2))
    mult = {}
    for i, j, vec in shape.mult:
        if (i, j) not in pairs or (i, j) in mult or len(vec) != n:
            raise ValueError(f"table entry ({i},{j}) with {len(vec)} coordinates: each "
                             f"of the {n * n} basis products is given once, with "
                             f"{n} coordinates")
        mult[(i, j)] = tuple(vec)
    if len(mult) != n * n:
        raise ValueError(f"the table gives {len(mult)} of the {n * n} basis products")
    for j, name in enumerate(basis):
        if mult[(0, j)] != unit_vector(W, n, j):
            raise ValueError(f"the table does not give 1*{name} = {name}")
    # Wilkerson's criterion decides on generators only in a commutative ring
    for i, j in itertools.combinations(range(n), 2):
        if mult[(i, j)] != mult[(j, i)]:
            raise ValueError(f"the table is not commutative: {basis[i]}*{basis[j]} "
                             f"!= {basis[j]}*{basis[i]}")
    return FiniteAlgebra(ring=W, basis=basis, mult=mult, unit=unit_vector(W, n, 0))


@dataclass
class ThetaData:
    """theta on generators, at one precision digit below the presentation."""

    lowered: Ring  # the presentation's algebra, one precision digit down
    theta_gens: dict


@dataclass
class FrobeniusClassSpec:
    """A representative of the Frobenius class: coordinates in Gamma[1]."""

    gamma: TwistedBialgebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.gamma.rank(1):
            raise ShapeMismatch(f"{len(self.coords)} coordinates for a Gamma[1] of "
                                f"rank {self.gamma.rank(1)}")


# ---------------------------------------------------------------------------
# checks


def wilkerson_check(pres, sample_bound=25, seed=0):
    """psi(x) = x^p mod p, on generators, coefficient generators and samples.

    Mod p both psi and x -> x^p are ring homomorphisms, so the generator
    congruences propagate to the whole ring; the samples re-verify that
    argument empirically.  The recorded meta carries the justification.
    """
    W, A = pres.W, pres.A
    p = W.p
    checks = []
    for g in pres.generators():
        gv = pres.gen(g)
        diff = A.sub(pres.psi(gv), A.pow(gv, p))
        res = pres.residues(diff)
        checks.append(CheckResult(f"generator[{g}]", not res,
                                  None if not res else f"psi({g}) - {g}^{p} has "
                                  f"residues {res}"))
    if W.f > 1:
        t = W.gen()
        diff = W.sub(pres.psi_coeff(t), W.pow(t, p))
        ok = W.in_max_ideal(diff)
        checks.append(CheckResult("coefficient_generator[t]", ok,
                                  None if ok else f"psi(t) - t^{p} = {diff!r}"))
    rng = random.Random(seed)
    for i in range(sample_bound):
        e = A.rand(rng)
        diff = A.sub(pres.psi(e), A.pow(e, p))
        res = pres.residues(diff)
        checks.append(CheckResult(f"sample[{i}]", not res,
                                  None if not res else
                                  f"element {A.repr_elem(e)}: residues {res}"))
    meta = {"seed": seed, "p": p, "N": W.N,
            "justification": "mod p, psi and the p-th power map are both ring "
                             "homomorphisms, so generator congruences imply the "
                             "congruence for every element"}
    return CongruenceReport.from_checks(checks, meta=meta)


def derive_theta(pres):
    """theta(g) = (psi(g) - g^p)/p on each generator, at precision N-1.

    A generator where the division is not exact raises CongruenceFails.
    """
    theta = {g: theta_of(pres, pres.gen(g)) for g in pres.generators()}
    return ThetaData(lowered=pres.A.lowered(), theta_gens=theta)


def theta_of(pres, elem):
    """theta on an arbitrary element, by exact division at precision N-1."""
    A = pres.A
    diff = A.sub(pres.psi(elem), A.pow(elem, pres.W.p))
    try:
        return A.map_coeffs(diff, pres.W.divide_by_p)
    except NotDivisible as e:
        raise CongruenceFails((A.repr_elem(elem), e.witness))


def theta_consistency(pres, samples=20, seed=0):
    """The forced addition and multiplication identities of theta.

    theta(a+b) = theta(a) + theta(b) - sum_{0<i<p} (1/p) C(p,i) a^i b^{p-i}
    theta(ab)  = theta(a) b^p + a^p theta(b) + p theta(a) theta(b)
    verified exactly at precision N-1 on seeded random pairs.
    """
    W, A = pres.W, pres.A
    p = W.p
    L = A.lowered()
    Wl = L.ring
    rng = random.Random(seed)
    checks = []
    for i in range(samples):
        a = A.rand(rng)
        b = A.rand(rng)
        ta, tb = theta_of(pres, a), theta_of(pres, b)
        al, bl = (A.map_coeffs(x, functools.partial(W.truncate_to, Wl)) for x in (a, b))
        # al^0 .. al^p and bl^0 .. bl^p, each multiplied in from the left as L.pow does
        apow, bpow = [L.one()], [L.one()]
        for _ in range(p):
            apow.append(L.mul(apow[-1], al))
            bpow.append(L.mul(bpow[-1], bl))
        # addition rule
        lhs = theta_of(pres, A.add(a, b))
        cross = L.zero()
        for j in range(1, p):
            coeff = Wl.from_int(math.comb(p, j) // p)
            term = L.mul(apow[j], bpow[p - j])
            cross = L.add(cross, L.scale(coeff, term))
        rhs = L.sub(L.add(ta, tb), cross)
        ok = L.eq(lhs, rhs)
        checks.append(CheckResult(f"theta_add[{i}]", ok,
                                  None if ok else
                                  f"a={A.repr_elem(a)} b={A.repr_elem(b)}"))
        # multiplication rule
        lhs = theta_of(pres, A.mul(a, b))
        rhs = L.add(L.add(L.mul(ta, bpow[p]), L.mul(apow[p], tb)),
                    L.scale(Wl.from_int(p), L.mul(ta, tb)))
        ok = L.eq(lhs, rhs)
        checks.append(CheckResult(f"theta_mul[{i}]", ok,
                                  None if ok else
                                  f"a={A.repr_elem(a)} b={A.repr_elem(b)}"))
    return CongruenceReport.from_checks(checks, meta={"seed": seed,
                                                      "precision": W.N - 1})


def gamma_congruence_check(sigma, algebra, seed=0):
    """x . sigma = x^p mod pB over a monomial spanning set of the algebra.

    The spanning set is all monomials in the declared generators up to degree
    GAMMA_DEGREE_BOUND, with coefficient multiples drawn exhaustively when the
    coefficient ring is small and by seeded sampling otherwise.  There is one
    check per element of the spanning set.
    """
    checks = list(_congruence_checks(sigma, algebra, _congruence_spanning_set(
        sigma.gamma, algebra, seed)))
    meta = {"seed": seed, "degree_bound": GAMMA_DEGREE_BOUND,
            "spanning_size": len(checks)}
    rep = CongruenceReport.from_checks(checks, meta=meta)
    if rep.verdict:
        rep.meta["theorem_a"] = (
            "congruence holds on the spanning set; with the presentation "
            "p-torsion free this certifies the criterion's hypothesis for a "
            "unique power-operation algebra structure")
    return rep


def _congruence_spanning_set(G, algebra, seed=0):
    """The sigma-independent half of gamma_congruence_check: (label, x, x^p)
    for each distinct element x of the spanning set, in report order."""
    B = algebra
    R = G.ring
    rng = random.Random(seed)
    if R.size() <= 256:
        scalars = [c for c in R.elements() if not R.is_zero(c)]
    else:
        scalars = [R.one()] + [R.rand(rng) for _ in range(GAMMA_SCALAR_SAMPLES)]
    gens = list(B.gens.items())
    monomials = [("1", B.unit)]
    frontier = [("1", B.unit)]
    for _ in range(GAMMA_DEGREE_BOUND):
        new = []
        for name, vec in frontier:
            for gname, gvec in gens:
                label = gname if name == "1" else f"{name}*{gname}"
                new.append((label, B.mul(vec, gvec)))
        monomials.extend(new)
        frontier = new
    seen = set()
    out = []
    for name, vec in monomials:
        for c in scalars:
            x = B.scale(c, vec)
            if x not in seen:
                seen.add(x)
                out.append((f"{c!r}*{name}", x, B.pow(x, R.p)))
    return out


def _congruence_checks(sigma, algebra, spanning):
    """Yield the CheckResults of gamma_congruence_check in report order, one per
    (label, x, x^p) of _congruence_spanning_set; only x . sigma depends on sigma."""
    R = sigma.gamma.ring
    p = R.p
    for label, x, xp in spanning:
        lhs = algebra.act(1, sigma.coords, x)  # IncompleteAction propagates
        diff = [R.sub(u, v) for u, v in zip(lhs, xp)]
        res = {i: R.residue(d) for i, d in enumerate(diff)
               if not R.residue_ring().is_zero(R.residue(d))}
        yield CheckResult(f"monomial[{label}]", not res,
                          None if not res else
                          f"x={label}: x.sigma - x^{p} residues {res}")


def congruence_stability_under_class_change(sigma, algebra, gammas, seed=0):
    """Verdicts are unchanged when sigma moves by p * gamma inside Gamma[1].

    The spanning set and its p-th powers are built once; each shift recomputes
    only x . sigma."""
    G = sigma.gamma
    R = G.ring
    spanning = _congruence_spanning_set(G, algebra, seed)
    base = all(c.passed for c in _congruence_checks(sigma, algebra, spanning))
    checks = [CheckResult("base", True)]
    for i, g in enumerate(gammas):
        shifted = FrobeniusClassSpec(
            gamma=G, coords=tuple(R.add(c, R.scalar(R.p, gc))
                                  for c, gc in zip(sigma.coords, g)))
        verdict = all(c.passed for c in _congruence_checks(shifted, algebra, spanning))
        checks.append(CheckResult(f"shift[{i}]", verdict == base,
                                  None if verdict == base else
                                  f"verdict changed to {verdict}"))
    return CongruenceReport.from_checks(checks, meta={"base_verdict": base})


# ---------------------------------------------------------------------------
# Frobenius congruence on comodule data (height 1, finite data)


@dataclass
class L1Data:
    """The weight-1 operation ring A[1] with its canonical character to W/p."""

    W: WittCoefRing          # A[1] as a rank-1 W-algebra
    can_power: int = 0       # can* = residue composed with sigma^can_power

    def can_star(self, a):
        return self.W.residue(self.W.frobenius(a, self.can_power))


def frobenius_congruence_comodule(l1, A, psi1_gens, seed=0):
    """Does psi_1 followed by can* (x) id reduce to the p-th power map?

    A is an untruncated PolyTruncRing over a characteristic-p field k;
    psi1_gens maps each generator to a list of (A[1] element, element of A)
    tensor terms.  The composite is a ring map, semilinear over sigma as the
    p-th power map is (c -> c^p on k), so it is the psi of one presentation:
    generators decide it, and samples re-verify.
    """
    k = A.ring
    if k.N != 1:
        raise CharacteristicMismatch(f"base {k!r} is not of characteristic {k.p}")
    if l1.W.residue_ring().descriptor() != k.descriptor():
        raise CharacteristicMismatch("A[1] residues do not land in the base field")
    composite = {g: functools.reduce(A.add, (A.scale(l1.can_star(a), b) for a, b in terms),
                                     A.zero())
                 for g, terms in psi1_gens.items()}
    pres = PsiRingPresentation(W=k, shape=PolyShape(A.vars), psi_on_coeffs="sigma",
                               psi_gen_images=composite)
    p = k.p
    checks = []
    for g in pres.generators():
        ok = A.eq(composite[g], A.pow(pres.gen(g), p))
        checks.append(CheckResult(f"generator[{g}]", ok,
                                  None if ok else
                                  f"composite({g}) = {A.repr_elem(composite[g])} != {g}^{p}"))
    rng = random.Random(seed)
    for i in range(COMODULE_SAMPLES):
        e = A.rand(rng)
        ok = A.eq(pres.psi(e), A.pow(e, p))
        checks.append(CheckResult(f"sample[{i}]", ok,
                                  None if ok else f"element {A.repr_elem(e)}"))
    return CongruenceReport.from_checks(checks, meta={"seed": seed})


# ---------------------------------------------------------------------------
# the weight-p pullback and pushout squares at height 1


def verify_weight_p_squares(p, N, seed=0):
    """Certify the weight-p module squares over W = Z/p^N at height 1.

    (i)  The pullback {(a, b) : sigma*(a) = b mod p} is free of rank 2, with
         explicit basis {(1, s), (0, p)} certified by Smith normal form and an
         exhaustive (or sampled) spanning check.
    (ii) The pushout of W --p--> W against W --(sigma, -id)--> Gamma[1] (+) W
         is the cokernel of the single relation (p, -s, 1); its Smith form
         certifies a free rank-2 module, abstractly the dual of (i).
    (iii) The images of u, v and the divided elements (sigma x - x^p)/p
         generate the pushout at precision N-1 (rank over the residue field).
    (iv) Both rows of the comparison ladder are exact: composites vanish and
         kernels match images, on the elements of W when (i) is exhaustive
         and on samples otherwise.
    """
    W = WittCoefRing(p, N)
    Wlow = W.lower()
    s = W.one()  # the sigma representative
    checks = []
    rng = random.Random(seed)

    # (i) pullback
    g1 = (W.one(), s)
    g2 = (W.zero(), W.from_int(p))

    def in_pullback(a, b):
        return W.in_max_ideal(W.sub(W.mul(s, a), b))

    checks.append(CheckResult("pullback_generators_in_set",
                              in_pullback(*g1) and in_pullback(*g2)))
    span_ok = True
    witness = None
    exhaustive = W.size() ** 2 <= 65536
    if exhaustive:
        pairs = itertools.product(W.elements(), repeat=2)
    else:
        pairs = ((W.rand(rng), W.rand(rng)) for _ in range(SQUARES_SAMPLES))
    for a, b in pairs:
        if not in_pullback(a, b):
            continue
        # (a, b) = a*g1 + y*g2 with y = (b - s a)/p
        try:
            W.divide_by_p(W.sub(b, W.mul(s, a)))
        except NotDivisible:
            span_ok = False
            witness = (a, b)
            break
    checks.append(CheckResult("pullback_spanning", span_ok, str(witness)))
    Mg = Mat(W, [[g1[0], g2[0]], [g1[1], g2[1]]])
    snf = smith_normal_form(Mg)
    free_rank2 = (snf.rank == 2 and all(v < N for v in snf.pivots))
    checks.append(CheckResult("pullback_free_rank_2", free_rank2,
                              f"elementary divisor valuations {snf.pivots}"))
    checks.append(CheckResult("pullback_mod_p_dimension_2", snf.rank == 2))

    # (ii) pushout: cokernel of the relation column (p, -s, 1)
    rel = Mat(W, [[W.from_int(p)], [W.neg(s)], [W.one()]])
    snf2 = smith_normal_form(rel)
    pushout_free = (snf2.rank == 1 and snf2.pivots == [0])
    checks.append(CheckResult("pushout_free_rank_2", pushout_free,
                              f"relation SNF valuations {snf2.pivots}"))
    checks.append(CheckResult("pushout_matches_pullback_dual",
                              pushout_free and free_rank2))

    # coordinates in pushout P ~ W^2: [(b,c,d)] -> (b - p d, c + s d)
    def u_map(c):
        return (W.zero(), c)

    def v_map(d):
        return (W.neg(W.scalar(p, d)), W.mul(s, d))

    # (iii) generation after dividing by p, at precision N-1
    def low(x):
        return W.truncate_to(Wlow, x)

    gen_cols = [tuple(map(low, u_map(W.one()))), tuple(map(low, v_map(W.one())))]
    xs = list(W.elements()) if W.size() <= 64 else [W.rand(rng) for _ in range(8)]
    for x in xs:
        sig_x = u_map(W.mul(s, x))
        xp = v_map(W.pow(x, p))
        diff = (W.sub(sig_x[0], xp[0]), W.sub(sig_x[1], xp[1]))
        w = (W.divide_by_p(diff[0]), W.divide_by_p(diff[1]))
        gen_cols.append(w)
    Mgen = Mat(Wlow, [[c[0] for c in gen_cols], [c[1] for c in gen_cols]])
    rk = residue_rank(Mgen)
    checks.append(CheckResult("image_generation_u_v_divided", rk == 2,
                              f"residue rank {rk}"))

    # (iv) exactness of the two rows
    # row 1: W --p--> W --pi--> W/p
    comp_zero = all(W.in_max_ideal(W.scalar(p, x))
                    for x in itertools.islice(W.elements(), 64))
    checks.append(CheckResult("row1_composite_zero", comp_zero))
    xs = (W.elements() if exhaustive
          else [W.rand(rng) for _ in range(SQUARES_SAMPLES)])
    ker_matches = all(
        (not W.in_max_ideal(x)) or (solve(Mat(W, [[W.from_int(p)]]), (x,)) is not None)
        for x in xs)
    checks.append(CheckResult("row1_exactness", ker_matches))
    # row 2: W^2 --(u,v)--> P --q--> W/p, q(x, y) = x mod p
    uv = Mat(W, [[W.zero(), W.neg(W.from_int(p))], [W.one(), s]])
    q_of_cols = [W.residue(uv.rows[0][j]) for j in range(2)]
    checks.append(CheckResult("row2_composite_zero",
                              all(W.residue_ring().is_zero(c) for c in q_of_cols)))
    ker_gens = [(W.from_int(p), W.zero()), (W.zero(), W.one())]
    ok = all(solve(uv, k) is not None for k in ker_gens)
    img_in_ker = all(W.in_max_ideal(uv.rows[0][j]) for j in range(2))
    checks.append(CheckResult("row2_exactness", ok and img_in_ker))

    meta = {"p": p, "N": N, "sigma_unit": 1, "seed": seed,
            "pullback_basis": [tuple(map(repr, g1)), tuple(map(repr, g2))],
            "pullback_divisors": snf.pivots,
            "pushout_relation_divisors": snf2.pivots,
            "generation_precision": N - 1}
    return CongruenceReport.from_checks(checks, meta=meta)
