"""Formal group laws at finite truncation.

Constructions (multiplicative, additive, Honda, Lubin-Tate deformation),
n-series, height detection on the residue field, Frobenius isogenies, and
E^0BC_p = R[[x]]/([p](x)), the rank-p^h linalg.FiniteAlgebra cut out by
Weierstrass preparation of [p](x).

The Honda and deformation laws come from Hazewinkel's functional-equation
lemma, run integrally: the law of the logarithm sum_j c_j x^(p^j) is built
degree by degree in Z/p^(N+K) (or (Z/p^(N+K))[u_1..u_{n-1}] truncated), where
p^K c_j is integral, with no rational number and no series reversion; a degree
whose coefficients are not integral raises IdentityFailed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import WittCoefRing, json_names, json_typed, ring_from_descriptor
from .linalg import FiniteAlgebra
from .report import CheckResult
from .series import (ContextMismatch, IdentityFailed, NotConverged,
                     PolyTruncRing, TruncSeries, _Packed, _raw_series,
                     substitute, weierstrass_prepare)


class MalformedPSeries(ValueError):
    """Lowest residue term of [p](x) is not a p-power; invalid FGL or D too small."""


class NotCharP(ValueError):
    """Frobenius isogenies only exist over rings of characteristic p."""


def residue_char(ring):
    """The residue characteristic p of a (possibly polynomial) local ring."""
    base = ring
    while isinstance(base, PolyTruncRing):
        base = base.ring
    return base.p


@dataclass(frozen=True)
class FormalGroupLaw:
    """A two-variable series over a local ring satisfying the group-law axioms."""

    ring: object
    bound: int
    F: TruncSeries

    def __post_init__(self):
        if self.bound < 1:  # truncation would drop every term, and every axiom would pass
            raise ContextMismatch(f"a law needs a degree bound D >= 1, not D={self.bound}")
        if self.F.vars != ("x", "y") or self.F.bound != self.bound:
            raise ContextMismatch(f"a law at D={self.bound} needs a series in x, y "
                                  f"at that bound, got {self.F.vars}/{self.F.bound}")

    def axiom_residuals(self):
        """Residual series of the unit, commutativity and associativity axioms.

        Associativity composes only A = F(F(x,y),z).  With comm = F - F(y,x),
        F(x,F(y,z)) = F(F(y,z),x) + comm(x,F(y,z)) = A(y,z,x) + comm(x,F(y,z)),
        and A(y,z,x) re-keys A's terms (i,j,k) -> (k,i,j).  This is exact at the
        bound over every ring: composition is linear in the outer series, and
        renaming the variables keeps total degree, so truncation commutes with
        it.  comm(x,F(y,z)) is composed only when comm is nonzero.
        """
        R, D, F = self.ring, self.bound, self.F
        x1 = TruncSeries.var(R, ("x",), D, "x")
        z1 = TruncSeries.zero(R, ("x",), D)
        unit_x = substitute(F, [x1, z1]) - x1
        unit_y = substitute(F, [z1, x1]) - x1
        swapped = TruncSeries(R, ("x", "y"), D,
                              {(j, i): c for (i, j), c in F.terms.items()})
        comm = F - swapped
        v3 = ("x", "y", "z")
        x3, y3, z3 = (TruncSeries.var(R, v3, D, v) for v in v3)
        A = substitute(F, [substitute(F, [x3, y3]), z3])
        A_yzx = {(k, i, j): c for (i, j, k), c in A.terms.items()}
        assoc = A - TruncSeries(R, v3, D, A_yzx)
        if not comm.is_zero():
            assoc = assoc - substitute(comm, [x3, substitute(F, [y3, z3])])
        return {"unit_x": unit_x, "unit_y": unit_y,
                "commutativity": comm, "associativity": assoc}

    def axiom_checks(self, label="axiom"):
        """One check per axiom, named label:axiom; a failure's witness is its residual."""
        for axiom, residual in self.axiom_residuals().items():
            ok = residual.is_zero()
            yield CheckResult(f"{label}:{axiom}", ok, None if ok else repr(residual))

    def to_json(self):
        return {"ring": self.ring.descriptor(), "D": self.bound,
                "F": self.F.to_json()}

    @staticmethod
    def from_json(data):
        json_typed(data, dict, "a formal group law")
        ring = _ring_from_any_descriptor(data["ring"])
        F = TruncSeries.from_json(ring, data["F"])
        return FormalGroupLaw(ring=ring, bound=json_typed(data["D"], int, "law D"), F=F)


def _ring_from_any_descriptor(d):
    if "poly_over" in json_typed(d, dict, "a ring descriptor"):
        return PolyTruncRing(ring_from_descriptor(d["poly_over"]),
                             json_names(d["vars"], "ring vars"),
                             json_typed(d["ubound"], int, "ring ubound"))
    return ring_from_descriptor(d)


def fgl_multiplicative(ring, D):
    """F = x + y + xy, the multiplicative formal group law."""
    F = TruncSeries.from_int_terms(ring, ("x", "y"), D,
                                   {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    return FormalGroupLaw(ring=ring, bound=D, F=F)


def fgl_additive(ring, D):
    F = TruncSeries.from_int_terms(ring, ("x", "y"), D, {(1, 0): 1, (0, 1): 1})
    return FormalGroupLaw(ring=ring, bound=D, F=F)


def _log_numerators(p, n, q, m, U, K):
    """d_j = p^j c_j mod q for j <= K, as {u-exponents: int}, with u_1..u_m free.

    The log sum_j c_j x^(p^j) has d_0 = 1 and
    d_j = sum_{i=1..min(j,n)} p^(i-1) u_i sigma^i(d_(j-i)), where u_n = 1,
    u_i = 0 for m < i < n, sigma raises each u to its p-th power, and every
    u-degree above U is dropped.
    """
    d = [{(0,) * m: 1}]
    for j in range(1, K + 1):
        acc = {}
        for i in range(1, min(j, n) + 1):
            if m < i < n:
                continue
            for e, c in d[j - i].items():
                e = [a * p ** i for a in e]
                if i < n:
                    e[i - 1] += 1
                if sum(e) <= U:
                    e = tuple(e)
                    acc[e] = (acc.get(e, 0) + p ** (i - 1) * c) % q
        d.append({e: c for e, c in acc.items() if c})
    return d


def _law_by_degree(p, n, N, uvars, U, D):
    """The law of the log with numerators _log_numerators, over Z/p^N or
    (Z/p^N)[uvars] truncated at u-degree U, exact up to degree D.

    The functional-equation lemma, integrally: f(F) = f(x) + f(y) reads
    F_d = sum_{1 <= j, p^j <= d} c_j ([d = p^j](x^d + y^d) - (F^(p^j))_d) for
    d >= 2, and (F^(p^j))_d needs F only below degree d.  With K the largest j
    such that p^j <= D, p^K c_j = p^(K-j) d_j is integral, and F = G mod p^N
    gives F^(p^j) = G^(p^j) mod p^(N+j); so p^K F_d is known mod p^(N+K) from F
    mod p^N below d.  It must be divisible by p^K, and IdentityFailed names the
    first degree where it is not.  F^(p^j) = (F^(p^(j-1)))^p are kept by
    homogeneous part, each one packed int, and each product gains one degree a
    step: a degree's pair products are summed before its one unpack.
    """
    K = 0
    while p ** (K + 1) <= D:
        K += 1
    target = WittCoefRing(p, N)
    work = WittCoefRing(p, N + K)
    q, pK, qN = work.modulus, p ** K, target.modulus
    if uvars:
        target = PolyTruncRing(target, uvars, U)
        work = PolyTruncRing(work, uvars, U)
    nums = _log_numerators(p, n, q, len(uvars), U, K)
    # a part of F^(p^j) of degree d has u-degree <= (d - 1) h, by induction on d
    h = max(sum(e) for dj in nums for e in dj)
    kernel = _Packed(work, ("x", "y"), D, (0, 1), [e for dj in nums for e in dj],
                     (D - 1) * h, K)
    pKc = [{e: p ** (K - j) * c % q for e, c in dj.items()} for j, dj in enumerate(nums)]
    pKc_parts = [kernel.pack(((0, 0), e, c) for e, c in dj.items()) for dj in pKc]
    zu = (0,) * len(uvars)
    F = {1: kernel.pack([((1, 0), zu, 1), ((0, 1), zu, 1)])}  # degree -> packed part
    # each product A * B = C by degree; the last C of level j is F^(p^j)
    products, powers = [], [F]
    for _ in range(K):
        A = powers[-1]
        for _ in range(p - 1):
            C = {}
            products.append((A, powers[-1], C))
            A = C
        powers.append(A)
    law = {(1, 0): {zu: 1}, (0, 1): {zu: 1}}
    for d in range(2, D + 1):
        for A, B, C in products:
            if x := kernel.part(A, B, d):
                C[d] = x
        P = sum(powers[j][d] * pKc_parts[j] for j in range(1, K + 1) if d in powers[j])
        S = {(e, ue): -v for e, ue, v in kernel.terms(P, d, (0, 0))}
        for j in range(1, K + 1):
            if d == p ** j:  # c_j (x^d + y^d)
                for ue, v in pKc[j].items():
                    for e in ((d, 0), (0, d)):
                        S[e, ue] = S.get((e, ue), 0) + v
        Fd = []
        for (e, ue), v in S.items():
            v %= q
            if v % pK:
                raise IdentityFailed(f"the law's degree-{d} part is not integral: "
                                     f"p^{K} F_d at {e + ue} is {v} mod {p}^{N + K}")
            if v := v // pK % qN:
                Fd.append((e, ue, v))
                law.setdefault(e, {})[ue] = v
        if Fd:
            F[d] = kernel.pack(Fd)
    return FormalGroupLaw(ring=target, bound=D,
                          F=_raw_series(target, ("x", "y"), D, law))


def fgl_honda(p, n, N, D):
    """The height-n Honda formal group law over Z/p^N, exact up to degree D.

    Logarithm: sum of x^{p^{ni}} / p^i, whose law is built integrally, degree
    by degree (_law_by_degree); a degree whose coefficients are not integral
    raises IdentityFailed.
    """
    if n < 1:
        raise ValueError(f"height n={n} must be >= 1")
    return _law_by_degree(p, n, N, (), 0, D)


def lubin_tate_deformation(p, n, N, u_degree_bound, D):
    """A deformation of the height-n Honda law over (Z/p^N)[u_1..u_{n-1}].

    Functional equation with u_n = 1: the logarithm solves
    f(x) = x + sum_{i=1..n} (u_i/p) (sigma^i f)(x^{p^i}), where sigma is the
    u_j -> u_j^p endomorphism of the coefficient ring (the twist that makes
    the functional-equation lemma produce integral coefficients).  Setting
    every u_i = 0 and reducing mod p recovers the Honda reduction, and
    [p](x) = x^{p^n} modulo the maximal ideal (p, u_1..u_{n-1}).  The law is
    built integrally, degree by degree, with u-degrees above u_degree_bound
    dropped (_law_by_degree).
    """
    if n < 1:
        raise ValueError(f"height n={n} must be >= 1")
    if n == 1:
        return fgl_honda(p, 1, N, D)
    uvars = tuple(f"u{i}" for i in range(1, n))
    return _law_by_degree(p, n, N, uvars, u_degree_bound, D)


def specialize_deformation(G):
    """Set the deformation parameters to zero; returns an FGL over the base."""
    L = G.ring
    if not isinstance(L, PolyTruncRing):
        return G
    F = G.F.map_coefficients(L.constant_term, ring=L.ring)
    return FormalGroupLaw(ring=L.ring, bound=G.bound, F=F)


def reduce_to_residue(G):
    """Reduce an FGL's coefficients to the residue field of its ring."""
    ring = G.ring
    k = ring.residue_ring()
    F = G.F.map_coefficients(ring.residue, ring=k)
    return FormalGroupLaw(ring=k, bound=G.bound, F=F)


def n_series(G, n):
    """[n](x): the n-fold formal sum, with [-1] the formal inverse."""
    R, D = G.ring, G.bound
    x = TruncSeries.var(R, ("x",), D, "x")
    if n == 0:
        return TruncSeries.zero(R, ("x",), D)
    if n < 0:
        inv = formal_inverse(G)
        return substitute(inv, [n_series(G, -n)])
    out = x
    for _ in range(n - 1):
        out = substitute(G.F, [out, x])
    return out


def formal_inverse(G):
    """The series i with F(x, i(x)) = 0, found by fixed-point refinement.

    Each pass through j -> j - F(x, j) gains one degree of agreement, so D
    iterations suffice at bound D.
    """
    R, D = G.ring, G.bound
    x = TruncSeries.var(R, ("x",), D, "x")
    j = -x
    for _ in range(D):
        j = j - substitute(G.F, [x, j])
    if not substitute(G.F, [x, j]).is_zero():
        raise NotConverged("formal inverse iteration failed")
    return j


@dataclass(frozen=True)
class Height:
    """Either an exact height (value, unit coefficient) or a lower bound."""

    value: int = None
    at_least: int = None
    unit_coeff: object = None

    def __repr__(self):
        if self.value is not None:
            return f"Height({self.value})"
        return f"Height(at least {self.at_least})"


def height(G):
    """Height from the residue reduction of [p](x).

    h = log_p(degree of the lowest residue term), which must be a p-power;
    AtLeast(floor(log_p D)) when [p] vanishes identically at this truncation.
    """
    p = residue_char(G.ring)
    Gk = reduce_to_residue(G)
    pser = n_series(Gk, p)
    if pser.is_zero():
        b = 0
        while p ** (b + 1) <= G.bound:
            b += 1
        return Height(at_least=b)
    d = pser.min_degree()
    h = 0
    while p ** h < d:
        h += 1
    if p ** h != d:
        raise MalformedPSeries(f"lowest residue term of [p](x) has degree {d}")
    return Height(value=h, unit_coeff=pser.coefficient((d,)))


@dataclass(frozen=True)
class FglHom:
    """f: G -> G' with f(F(x,y)) = F'(f(x), f(y)) up to the bound."""

    source: FormalGroupLaw
    target: FormalGroupLaw
    f: TruncSeries

    def residual(self):
        R, D = self.source.ring, self.source.bound
        x3 = TruncSeries.var(R, ("x", "y"), D, "x")
        y3 = TruncSeries.var(R, ("x", "y"), D, "y")
        fx = substitute(self.f, [x3])
        fy = substitute(self.f, [y3])
        return substitute(self.f, [self.source.F]) - substitute(self.target.F, [fx, fy])

    def verify(self):
        return self.residual().is_zero()

    def compose(self, other):
        """self after other (other: G -> G', self: G' -> G'')."""
        f = substitute(self.f, [other.f])
        return FglHom(source=other.source, target=self.target, f=f)


def frobenius_twist(G, r=1):
    """G^phi: every coefficient raised to the p^r-th power (char p only)."""
    R = G.ring
    p = residue_char(R)
    if not R.is_zero(R.from_int(p)):
        raise NotCharP(f"{R!r} does not have characteristic {p}")
    F = G.F.map_coefficients(lambda c: R.pow(c, p ** r))
    return FormalGroupLaw(ring=R, bound=G.bound, F=F)


def frobenius_isogeny(G, r=1):
    """Frob^r: G -> G^{phi^r}, f(x) = x^{p^r}; hom law verified on construction."""
    R, D = G.ring, G.bound
    p = residue_char(R)
    if not R.is_zero(R.from_int(p)):
        raise NotCharP(f"{R!r} does not have characteristic {p}")
    target = frobenius_twist(G, r)
    f = TruncSeries(R, ("x",), D, {(p ** r,): R.one()})
    hom = FglHom(source=G, target=target, f=f)
    if not hom.verify():
        raise IdentityFailed("Frobenius isogeny failed the homomorphism law")
    return hom


def bcp_module(G):
    """E^0BC_p = R[[x]]/([p](x)) as the FiniteAlgebra R[x]/(g) on 1, x^1, ...,
    x^(d-1), where [p](x) = unit * g is the Weierstrass factorization."""
    return _monic_quotient(G.ring, weierstrass_prepare(n_series(G, residue_char(G.ring))))


def _monic_quotient(R, wf):
    """R[x]/(g) for the distinguished factor g of the factorization wf."""
    return FiniteAlgebra.monic_quotient(
        R, "x", tuple(wf.distinguished.coefficient((j,)) for j in range(wf.degree + 1)))
