"""Formal group laws at finite truncation.

Constructions (multiplicative, additive, Honda, Lubin-Tate deformation),
n-series, height detection on the residue field, Frobenius isogenies, and
E^0BC_p = R[[x]]/([p](x)), the rank-p^h linalg.FiniteAlgebra cut out by
Weierstrass preparation of [p](x).

The Honda and deformation laws are produced by the functional-equation method:
the logarithm is solved exactly over Q (or Q[u_1..u_{n-1}] truncated), the law
is F = log^{-1}(log x + log y), and only then are coefficients carried into
Z/p^N, failing loudly if any denominator meets p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import (RationalField, WittCoefRing, json_names, json_typed,
                          ring_from_descriptor)
from .linalg import FiniteAlgebra
from .report import CheckResult
from .series import (ContextMismatch, IdentityFailed, NotConverged,
                     PolyTruncRing, TruncSeries, reversion, substitute,
                     weierstrass_prepare)


class PrecisionExhausted(ArithmeticError):
    """A division by p required by the construction is not exact at this precision."""


class MalformedPSeries(ValueError):
    """Lowest residue term of [p](x) is not a p-power; invalid FGL or D too small."""


class NotCharP(ValueError):
    """Frobenius isogenies only exist over rings of characteristic p."""


def residue_char(ring):
    """The residue characteristic p of a (possibly polynomial) local ring."""
    base = ring
    while isinstance(base, PolyTruncRing):
        base = base.base
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


def _embed_1var(f, vars, pos):
    n = len(vars)
    return TruncSeries(f.ring, vars, f.bound,
                       {tuple(e[0] if i == pos else 0 for i in range(n)): c
                        for e, c in f.terms.items()})


def _law_from_log(log):
    """F = log^{-1}(log x + log y) over the log's own coefficient ring."""
    explog = reversion(log)
    lx = _embed_1var(log, ("x", "y"), 0)
    ly = _embed_1var(log, ("x", "y"), 1)
    return substitute(explog, [lx + ly])


def _frac_into(ring, q, context):
    num = q.numerator
    den = q.denominator
    p = ring.p
    if den % p == 0:
        raise PrecisionExhausted(
            f"{context}: coefficient {q} needs an inexact division by {p}")
    return ring.mul(ring.from_int(num), ring.inv(ring.from_int(den)))


def fgl_honda(p, n, N, D):
    """The height-n Honda formal group law over Z/p^N, exact up to degree D.

    Logarithm: sum of x^{p^{ni}} / p^i.  All coefficients of the resulting law
    lie in Z_(p); PrecisionExhausted is raised otherwise.
    """
    if n < 1:
        raise ValueError(f"height n={n} must be >= 1")
    QQ = RationalField()
    terms = {}
    i = 0
    while n * i < D.bit_length() and p ** (n * i) <= D:  # else p^(n i) > D
        terms[(p ** (n * i),)] = Fraction(1, p ** i)
        i += 1
    log = TruncSeries(QQ, ("x",), D, terms)
    FQ = _law_from_log(log)
    W = WittCoefRing(p, N)
    F = FQ.map_coefficients(lambda q: _frac_into(W, q, f"honda({p},{n})"), ring=W)
    return FormalGroupLaw(ring=W, bound=D, F=F)


def lubin_tate_deformation(p, n, N, u_degree_bound, D):
    """A deformation of the height-n Honda law over (Z/p^N)[u_1..u_{n-1}].

    Functional equation with u_n = 1: the logarithm solves
    f(x) = x + sum_{i=1..n} (u_i/p) (sigma^i f)(x^{p^i}), where sigma is the
    u_j -> u_j^p endomorphism of the coefficient ring (the twist that makes
    the functional-equation lemma produce integral coefficients).  Setting
    every u_i = 0 and reducing mod p recovers the Honda reduction, and
    [p](x) = x^{p^n} modulo the maximal ideal (p, u_1..u_{n-1}).
    """
    if n < 1:
        raise ValueError(f"height n={n} must be >= 1")
    if n == 1:
        return fgl_honda(p, 1, N, D)
    uvars = tuple(f"u{i}" for i in range(1, n))
    QQ = RationalField()
    Qu = PolyTruncRing(QQ, uvars, u_degree_bound)
    u_over_p = [None]
    for i in range(1, n + 1):
        ui = Qu.var(f"u{i}") if i < n else Qu.one()
        u_over_p.append(ui.scalar(Fraction(1, p)))

    def sigma(poly, k):
        """u_j -> u_j^{p^k}; descends to the degree-truncated ring."""
        scale = p ** k
        return TruncSeries(QQ, uvars, u_degree_bound,
                           {tuple(scale * e for e in exps): cc
                            for exps, cc in poly.terms.items()})

    # logarithm coefficients c_j at x^{p^j}
    c = {0: Qu.one()}
    j = 1
    while p ** j <= D:
        acc = Qu.zero()
        for i in range(1, min(j, n) + 1):
            acc = Qu.add(acc, Qu.mul(u_over_p[i], sigma(c[j - i], i)))
        c[j] = acc
        j += 1
    log = TruncSeries(Qu, ("x",), D, {(p ** jj,): cc for jj, cc in c.items()})
    FQ = _law_from_log(log)
    W = WittCoefRing(p, N)
    L = PolyTruncRing(W, uvars, u_degree_bound)

    def carry(poly_q):
        return TruncSeries(W, uvars, u_degree_bound,
                           {e: _frac_into(W, q, f"lubin_tate({p},{n})")
                            for e, q in poly_q.terms.items()})

    F = FQ.map_coefficients(carry, ring=L)
    return FormalGroupLaw(ring=L, bound=D, F=F)


def specialize_deformation(G):
    """Set the deformation parameters to zero; returns an FGL over the base."""
    L = G.ring
    if not isinstance(L, PolyTruncRing):
        return G
    F = G.F.map_coefficients(lambda c: c.constant_term(), ring=L.base)
    return FormalGroupLaw(ring=L.base, bound=G.bound, F=F)


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
    R = G.ring
    wf = weierstrass_prepare(n_series(G, residue_char(R)))
    return FiniteAlgebra.monic_quotient(
        R, "x", tuple(wf.distinguished.coefficient((j,)) for j in range(wf.degree + 1)))
