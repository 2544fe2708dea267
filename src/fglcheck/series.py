"""Truncated multivariate power series over an exact coefficient ring.

A TruncSeries stores a sparse map from exponent tuples to nonzero
coefficients, truncated at a fixed total degree bound D.  Multiplication,
composition, reversion and Weierstrass preparation are all exact at the
bound.  PolyTruncRing(ring, vars, ubound) is the one polynomial ring: its
elements are {exponents: coefficient} dicts, truncated at total degree ubound,
or not at all at math.inf.  It holds the Lubin-Tate coefficients
W[u_1..u_{n-1}] and the polynomial psi-rings W[x_1..x_k] of theta_congruence.
The terms of a series and the elements of the ring are added, subtracted and
multiplied by the same three routines, sparse_add, sparse_sub and sparse_mul.

a * b multiplies term by term over every ring.  substitute over Z/p^N, and
over a PolyTruncRing on Z/p^N, runs on one Kronecker-packed kernel: each
homogeneous part of a series, in the variables of the arguments that are not
monomials, is one Python int, in one layout for the whole composition.  A
product of two parts is one int multiplication, and each degree of a product
or of a sum of products is one int, reduced and unpacked once.  The
u-exponents of a PolyTruncRing are a block inside each x-slot.  A monomial
argument c * x^e is no part at all: its coefficient scales f's terms and its
exponents shift them.  Every other ring composes through the dict loop of
a * b, the reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass

from .exact_arith import (IdentityFailed, Ring, WittCoefRing, json_names, json_terms,
                          json_typed)


class ContextMismatch(ValueError):
    """Series do not share ring, variables and degree bound."""


class NonzeroConstantTerm(ValueError):
    def __init__(self, index):
        super().__init__(f"substituted series #{index} has a nonzero constant term")
        self.index = index


class NonUnitLinearCoefficient(ValueError):
    """Reversion requires the linear coefficient to be a unit."""


class ResidueZero(ValueError):
    """Series reduces to zero mod the maximal ideal; preparation impossible."""


class DegreeOverflow(ValueError):
    """Distinguished degree exceeds the truncation bound."""


class NotConverged(ArithmeticError):
    """An iteration did not settle within the steps that provably suffice."""


class TruncSeries:
    __slots__ = ("ring", "vars", "bound", "terms")

    def __init__(self, ring, vars, bound, terms):
        self.ring = ring
        self.vars = tuple(vars)
        self.bound = bound
        clean = {}
        for e, c in terms.items():
            if sum(e) <= bound and not ring.is_zero(c):
                clean[tuple(e)] = c
        self.terms = clean

    # constructors

    @staticmethod
    def _make(ring, vars, bound, terms):
        """A series from nonzero terms within the bound, taken without checks."""
        s = object.__new__(TruncSeries)
        s.ring = ring
        s.vars = vars
        s.bound = bound
        s.terms = terms
        return s

    @staticmethod
    def zero(ring, vars, bound):
        return TruncSeries(ring, vars, bound, {})

    @staticmethod
    def const(ring, vars, bound, c):
        return TruncSeries(ring, vars, bound, {(0,) * len(vars): c})

    @staticmethod
    def one(ring, vars, bound):
        return TruncSeries.const(ring, vars, bound, ring.one())

    @staticmethod
    def var(ring, vars, bound, name):
        i = tuple(vars).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return TruncSeries(ring, vars, bound, {e: ring.one()})

    @staticmethod
    def from_int_terms(ring, vars, bound, int_terms):
        return TruncSeries(ring, vars, bound,
                           {tuple(e): ring.from_int(c) for e, c in int_terms.items()})

    # context

    def same_context(self, other):
        return (self.vars == other.vars and self.bound == other.bound
                and self.ring.same_ring(other.ring))

    def check_context(self, other):
        if not self.same_context(other):
            raise ContextMismatch(f"{self.vars}/{self.bound} vs {other.vars}/{other.bound}")

    # ring operations

    def __add__(self, other):
        self.check_context(other)
        return TruncSeries._make(self.ring, self.vars, self.bound,
                                 sparse_add(self.ring, self.terms, other.terms))

    def __neg__(self):
        R = self.ring
        return TruncSeries._make(R, self.vars, self.bound,
                                 {e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        self.check_context(other)
        return TruncSeries._make(self.ring, self.vars, self.bound,
                                 sparse_sub(self.ring, self.terms, other.terms))

    def __mul__(self, other):
        self.check_context(other)
        return TruncSeries._make(self.ring, self.vars, self.bound,
                                 sparse_mul(self.ring, self.terms, other.terms, self.bound))

    def scalar(self, c):
        R = self.ring
        return TruncSeries(R, self.vars, self.bound,
                           {e: R.mul(c, v) for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.same_context(other) and self.terms == other.terms

    # inspection

    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.zero())

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def min_degree(self):
        """Lowest total degree of a nonzero term, or None for the zero series."""
        return min((sum(e) for e in self.terms), default=None)

    def items_sorted(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return terms_repr(self.vars, self.terms, self.ring)

    # coefficient maps

    def map_coefficients(self, fn, ring=None):
        R = ring or self.ring
        return TruncSeries(R, self.vars, self.bound,
                           {e: fn(c) for e, c in self.terms.items()})

    # serialization

    def to_json(self):
        enc = self.ring.encode
        return {"vars": list(self.vars), "D": self.bound,
                "terms": [[list(e), enc(c)] for e, c in self.items_sorted()]}

    @staticmethod
    def from_json(ring, data):
        json_typed(data, dict, "a series")
        vars = json_names(data["vars"], "series vars")
        terms = json_terms(data["terms"], len(vars), "series terms")
        return TruncSeries(ring, vars, json_typed(data["D"], int, "series D"),
                           {e: ring.decode(c) for e, c in terms})


def terms_repr(vars, terms, ring):
    """{exponents: coefficient} as c*x^i*y^j + ..., in exponent order, each c
    printed by ring.repr_elem; "0" if empty."""
    if not terms:
        return "0"
    bits = []
    for e, c in sorted(terms.items()):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(vars, e) if k)
        bits.append(f"{ring.repr_elem(c)}*{mono}" if mono else ring.repr_elem(c))
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# sums, differences and products of {exponents: coefficient} dicts over R: a sum
# that vanishes leaves the dict, the others keep the order that witnesses print


def sparse_add(R, a, b):
    """a + b."""
    out = dict(a)
    for e, c in b.items():
        s = R.add(out[e], c) if e in out else c
        if R.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def sparse_sub(R, a, b):
    """a - b."""
    out = dict(a)
    for e, c in b.items():
        s = R.sub(out[e], c) if e in out else R.neg(c)
        if R.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def sparse_mul(R, a, b, bound=math.inf):
    """a * b without the pairs of total degree above bound."""
    out = {}
    right = [(e, c, sum(e)) for e, c in b.items()]
    for e1, c1 in a.items():
        room = bound - sum(e1)
        for e2, c2, d2 in right:
            if d2 > room:
                continue
            e = tuple(map(operator.add, e1, e2))
            m = R.mul(c1, c2)
            s = R.add(out[e], m) if e in out else m
            if R.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def substitute(f, gs):
    """Formal composition f(g_1, .., g_k), truncated at the g's bound.

    Every g_i must share a context and have zero constant term, so that the
    composition is finitely computable.
    """
    gs = list(gs)
    if len(gs) != len(f.vars):
        raise ContextMismatch(f"need {len(f.vars)} series, got {len(gs)}")
    for i, g in enumerate(gs):
        gs[0].check_context(g)
        if not g.ring.is_zero(g.constant_term()):
            raise NonzeroConstantTerm(i)
    if not f.ring.same_ring(gs[0].ring):
        raise ContextMismatch("coefficient rings differ")
    ctx = gs[0]
    make = _kernel(ctx.ring, ctx.vars, ctx.bound)
    return _dict_loop(f, gs) if make is None else _packed_substitute(make, f, gs)


def _dict_loop(f, gs):
    """f(g_1, .., g_k) as sum c * prod g_i^{e_i}, every product by a * b."""
    R, vars, bound = gs[0].ring, gs[0].vars, gs[0].bound
    powers = [[None, g] for g in gs]
    acc = {}
    for e, c in f.terms.items():
        term = None
        for pw, n in zip(powers, e):
            while len(pw) <= n:
                pw.append(pw[-1] * pw[1])
            if n:
                term = pw[n] if term is None else term * pw[n]
        acc = sparse_add(R, acc, (term or TruncSeries.one(R, vars, bound)).scalar(c).terms)
    return TruncSeries._make(R, vars, bound, acc)


def _packed_substitute(make, f, gs):
    """f(g_1, .., g_k) on the packed kernel.

    A g_i of one term c * x^m, or of none, is a monomial argument: a term
    with e_i > 0 takes the factor c^(e_i) into its coefficient and the shift
    e_i * m into its exponents, or vanishes when g_i = 0.  The other g_i are
    kept by homogeneous part, with their powers; f's terms are then summed per
    degree into one int for each shift, and each is unpacked once.
    """
    R, vars, bound = gs[0].ring, gs[0].vars, gs[0].bound
    one = R.one()
    mono = {i: next(iter(g.terms.items()), None) for i, g in enumerate(gs) if len(g.terms) < 2}
    general = [i for i in range(len(gs)) if i not in mono]
    terms = []  # (exponents of the general g_i, coefficient, shift)
    for e, c in f.terms.items():
        shift = [0] * len(vars)
        for i, mc in mono.items():
            if n := e[i]:
                if mc is None:
                    break
                shift = [s + n * x for s, x in zip(shift, mc[0])]
                if mc[1] != one:
                    c = R.mul(c, R.pow(mc[1], n))
        else:
            if sum(shift) <= bound and not R.is_zero(c):
                terms.append((tuple(e[i] for i in general), c, shift))
    top = [max((t[0][j] for t in terms), default=0) for j in range(len(general))]
    used = [gs[i] for i, n in zip(general, top) if n]
    vary = sorted({v for g in used for e in g.terms for v, n in enumerate(e) if n})
    udeg = (max((_udeg(t[1]) for t in terms), default=0)
            + sum(n * max(map(_udeg, gs[i].terms.values())) for i, n in zip(general, top)))
    coeffs = [t[1] for t in terms] + [c for g in used for c in g.terms.values()]
    k = make(vary, _u_exponents(coeffs), udeg, len(terms))
    powers = []
    for i, n in zip(general, top):
        powers.append([None, k.parts(gs[i])] if n else [])
        for _ in range(n - 1):
            powers[-1].append(k.mul(powers[-1][-1], powers[-1][1]))
    prods = {(0,) * len(general): {0: 1}}

    def product(ns):
        if ns not in prods:
            j = max(j for j, n in enumerate(ns) if n)
            rest = ns[:j] + (0,) + ns[j + 1:]
            pw = powers[j][ns[j]]
            prods[ns] = pw if not any(rest) else k.mul(product(rest), pw)
        return prods[ns]

    acc = {}
    for ns, c, shift in terms:
        base = tuple(0 if v in vary else s for v, s in enumerate(shift))
        dv = sum(shift) - sum(base)
        room = bound - sum(shift)
        c, bits = k.coefficient(c), k.bits(shift)
        for d, x in product(ns).items():
            if d <= room:
                key = base, d + dv
                acc[key] = acc.get(key, 0) + (c * x << bits)
    return k.series(acc)


def reversion(f):
    """Compositional inverse of a one-variable series u*x + O(x^2), u a unit."""
    if len(f.vars) != 1:
        raise ContextMismatch("reversion needs a one-variable series")
    R, bound = f.ring, f.bound
    if not R.is_zero(f.constant_term()):
        raise NonzeroConstantTerm(0)
    u = f.coefficient((1,))
    if not R.is_unit(u):
        raise NonUnitLinearCoefficient(f"linear coefficient {R.repr_elem(u)} is not a unit")
    uinv = R.inv(u)
    # g(f(x)) = x solved degree by degree; powers of f are reused.
    fpow = [TruncSeries.one(R, f.vars, bound), f]
    for _ in range(bound - 1):
        fpow.append(fpow[-1] * f)
    g = {}
    for k in range(1, bound + 1):
        acc = R.one() if k == 1 else R.zero()
        for j in range(1, k):
            if j in g:
                acc = R.sub(acc, R.mul(g[j], fpow[j].coefficient((k,))))
        gk = R.mul(acc, R.pow(uinv, k))
        if not R.is_zero(gk):
            g[k] = gk
    return TruncSeries(R, f.vars, bound, {(k,): c for k, c in g.items()})


def inverse(f):
    """Multiplicative inverse of a series with unit constant term."""
    R = f.ring
    c0 = f.constant_term()
    if not R.is_unit(c0):
        raise NonUnitLinearCoefficient(f"constant term {R.repr_elem(c0)} is not a unit")
    one = TruncSeries.one(R, f.vars, f.bound)
    b = TruncSeries.const(R, f.vars, f.bound, R.inv(c0))
    two = one + one
    steps = f.bound if f.bound < math.inf else R.chain_length()  # f - c0 is nilpotent
    for _ in range(max(1, steps.bit_length()) + 2):
        b = b * (two - f * b)
        if f * b == one:
            break
    if f * b != one:
        raise NotConverged("series inversion failed to converge")
    return b


@dataclass
class WeierstrassFactorization:
    unit: TruncSeries
    distinguished: TruncSeries  # monic polynomial of the stated degree
    degree: int


def weierstrass_prepare(f):
    """Factor f = unit * distinguished over a local ring, exactly at the bound.

    The distinguished factor is monic of degree d (the lowest degree of the
    residue reduction of f) with all other coefficients in the maximal ideal.
    Classical successive division: with f = x^d*U + P (U a unit series, P the
    low part with ideal coefficients), the quotient q of x^d by f is the fixed
    point of q -> highdiv(x^d - q*P) * U^{-1}, which converges because every
    correction picks up a factor from the maximal ideal, nilpotent at finite
    precision.
    """
    R = f.ring
    if len(f.vars) != 1:
        raise ContextMismatch("weierstrass_prepare needs a one-variable series")
    if not R.is_local():
        raise ValueError(f"{R!r} does not declare a maximal ideal")
    bound = f.bound
    res = f.map_coefficients(R.residue, ring=R.residue_ring())
    if res.is_zero():
        raise ResidueZero("series is zero modulo the maximal ideal")
    d = res.min_degree()
    if d > bound:
        raise DegreeOverflow(f"distinguished degree {d} exceeds bound {bound}")
    one = TruncSeries.one(R, f.vars, bound)
    if d == 0:
        return WeierstrassFactorization(unit=f, distinguished=one, degree=0)

    def highdiv(h):
        return TruncSeries(R, f.vars, bound,
                           {(e[0] - d,): c for e, c in h.terms.items() if e[0] >= d})

    U = highdiv(f)
    P = TruncSeries(R, f.vars, bound,
                    {e: c for e, c in f.terms.items() if e[0] < d})
    Uinv = inverse(U)
    xd = TruncSeries(R, f.vars, bound, {(d,): R.one()})
    q = TruncSeries.zero(R, f.vars, bound)
    for _ in range(R.chain_length() + bound + 6):
        q_next = highdiv(xd - q * P) * Uinv
        if q_next == q:
            break
        q = q_next
    else:
        raise NotConverged("weierstrass division did not stabilize")
    r = xd - q * f
    if any(e[0] >= d for e in r.terms):
        raise IdentityFailed("division remainder has high terms")
    if not all(R.in_max_ideal(c) for c in r.terms.values()):
        raise IdentityFailed("division remainder has unit coefficients")
    distinguished = xd - r
    unit = inverse(q)
    if unit * distinguished != f:
        raise IdentityFailed("weierstrass recomposition failed")
    return WeierstrassFactorization(unit=unit, distinguished=distinguished, degree=d)


# seeded sample sizes of PolyTruncRing.rand: terms, and degree in each variable
SAMPLE_TERMS, SAMPLE_DEGREE = 3, 2


class PolyTruncRing(Ring):
    """ring[v_1..v_k] truncated at a total degree bound ubound, math.inf for
    none.  Elements are {exponents: nonzero coefficient} dicts, computed by
    sparse_add, sparse_sub and sparse_mul.

    Local when ubound is finite and the base is, with maximal ideal
    (max(ring), v_1..v_k); residue passes through the constant term.
    """

    def __init__(self, ring, vars, ubound):
        if len(set(vars)) != len(vars):
            raise ValueError(f"polynomial variables {list(vars)} must name each "
                             f"variable once")
        self.ring = ring
        self.vars = tuple(vars)
        self.ubound = ubound

    def lowered(self):
        """The same ring one precision digit down."""
        return PolyTruncRing(self.ring.lower(), self.vars, self.ubound)

    def zero(self):
        return {}

    def from_int(self, n):
        c = self.ring.from_int(n)
        return {} if self.ring.is_zero(c) else {(0,) * len(self.vars): c}

    def var(self, name):
        i = self.vars.index(name)
        e = tuple(int(j == i) for j in range(len(self.vars)))
        return {e: self.ring.one()} if self.ubound >= 1 else {}

    def constant_term(self, a):
        return a.get((0,) * len(self.vars), self.ring.zero())

    def add(self, a, b):
        return sparse_add(self.ring, a, b)

    def neg(self, a):
        return {e: self.ring.neg(c) for e, c in a.items()}

    def sub(self, a, b):
        return sparse_sub(self.ring, a, b)

    def mul(self, a, b):
        return sparse_mul(self.ring, a, b, self.ubound)

    def pow(self, a, n):
        """a^n multiplied in from the left, which fixes the order of its terms."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def scale(self, c, a):
        R = self.ring
        return {e: m for e, v in a.items() if not R.is_zero(m := R.mul(c, v))}

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        """A unit constant term; with no bound, the others nilpotent too."""
        return self.ring.is_unit(self.constant_term(a)) and (self.ubound < math.inf or all(
            self.ring.in_max_ideal(c) for e, c in a.items() if any(e)))

    def inv(self, a):
        return inverse(TruncSeries._make(self.ring, self.vars, self.ubound, a)).terms

    def is_local(self):
        return self.ubound < math.inf and self.ring.is_local()

    def in_max_ideal(self, a):
        c0 = self.constant_term(a)
        return self.ring.in_max_ideal(c0) if self.ring.is_local() else not a

    def residue_ring(self):
        return self.ring.residue_ring()

    def residue(self, a):
        return self.ring.residue(self.constant_term(a))

    def chain_length(self):
        return self.ubound + 1 + self.ring.chain_length()

    def terms(self, a):
        return a.items()

    def map_coeffs(self, a, fn):
        return {e: fn(c) for e, c in a.items()}

    def rand(self, rng):
        """SAMPLE_TERMS terms of degree <= SAMPLE_DEGREE in each variable, if within the bound."""
        out = {}
        for _ in range(SAMPLE_TERMS):
            e = tuple(rng.randrange(SAMPLE_DEGREE + 1) for _ in self.vars)
            c = self.ring.rand(rng)
            if sum(e) <= self.ubound:
                out = self.add(out, {e: c})
        return out

    def repr_elem(self, a):
        return terms_repr(self.vars, a, self.ring)

    def descriptor(self):
        return {"poly_over": self.ring.descriptor(), "vars": list(self.vars),
                "ubound": self.ubound}

    def encode(self, a):
        enc = self.ring.encode
        return [[list(e), enc(c)] for e, c in sorted(a.items())]

    def decode(self, s, what=None):
        """[[exponents], coefficient] terms, dropping zeros and terms past the bound."""
        R = self.ring
        terms = json_terms(s, len(self.vars), what or f"an element of {self!r}")
        out = {e: R.decode(c) for e, c in terms}
        return {e: c for e, c in out.items() if sum(e) <= self.ubound and not R.is_zero(c)}

    def __repr__(self):
        return f"{self.ring!r}[{','.join(self.vars)}]<={self.ubound}"


# ---------------------------------------------------------------------------
# Kronecker-packed kernel over Z/p^N and (Z/p^N)[u], by homogeneous degree
#
# A series is {d: int}, one int per homogeneous part in the varying variables
# (those of the non-monomial arguments; x and y in a law).  A term sits at slot
# head * S + j: its head is its exponents of the varying variables but the
# last, digits in radix D+1, and j indexes its u-monomial.  Both are sums over
# the exponents and a product's degree is at most D, so no digit carries: the
# product of two parts is one int multiplication, in the same layout, and a
# degree of a product or of a sum of products is one int, reduced mod p^N, cut
# at the u-bound and unpacked once.  The u-index of e, over the u-variables
# that occur, is w.e + |e| * T, with weights w under which the sums of H of
# them differ (_u_monomials) and T above every such sum.  So each u-monomial
# of degree <= H has its own index below usize = (H+1) * T, one of degree
# above H lands at or above it and is cut, and S = 2 * usize - 1 holds a
# product of two kept u-parts.  H is U, or less where no operand reaches U.

# (bytes, array code) of the smallest C word of at least wb <= 8 bytes: slots
# are read and written in C through array / memoryview.cast, a word at a time
_WORD = ({wb: min((array(t).itemsize, t) for t in "QLIHB" if array(t).itemsize >= wb)
          for wb in range(1, 9)} if sys.byteorder == "little" else {})


def _kernel(ring, vars, bound):
    """A maker of packed layouts for series over ``ring``, or None for the dict loop."""
    W = ring.ring if isinstance(ring, PolyTruncRing) else ring
    if isinstance(W, WittCoefRing) and W.f == 1:
        return functools.partial(_Packed, ring, vars, bound)
    return None


def _udeg(c):
    """The largest u-degree of a coefficient; 0 over Z/p^N."""
    return max(map(sum, c), default=0) if isinstance(c, dict) else 0


def _u_exponents(coeffs):
    """The u-exponents of every term of the coefficients; none over Z/p^N."""
    return [ue for c in coeffs if isinstance(c, dict) for ue in c]


def _to_int(vals, wb):
    """The int whose wb-byte little-endian slots hold ``vals``."""
    if wb not in _WORD:
        return int.from_bytes(b"".join(v.to_bytes(wb, "little") for v in vals), "little")
    w, code = _WORD[wb]
    data = words = array(code, vals).tobytes()
    if w != wb:  # the low wb bytes of each word
        data = bytearray(wb * len(vals))
        for i in range(wb):
            data[i::wb] = words[i::w]
    return int.from_bytes(data, "little")


def _slot_values(x, wb):
    """The wb-byte slots of the nonnegative int x."""
    buf = x.to_bytes(-(-x.bit_length() // (8 * wb)) * wb, "little")
    if wb not in _WORD:
        return [int.from_bytes(buf[o:o + wb], "little") for o in range(0, len(buf), wb)]
    w, code = _WORD[wb]
    if w != wb:  # each slot widened to a word
        buf, narrow = bytearray(len(buf) // wb * w), buf
        for i in range(wb):
            buf[i::w] = narrow[i::wb]
    return memoryview(buf).cast(code).tolist()


def _apart(top, x, H):
    """top, {w.e: e} over the monomials of degree H, with a variable of weight x
    more; None if two of its monomials then share their sum."""
    sums = set(top)
    for n in range(1, H + 1):
        for s, e in top.items():
            if e[0] >= n:
                if s + n * x in sums:
                    return None
                sums.add(s + n * x)
    return {s + n * x: (e[0] - n,) + e[1:] + (n,)
            for n in range(H + 1) for s, e in top.items() if e[0] >= n}


@functools.cache
def _u_monomials(a, H):
    """Weights of a variables, w_0 = 0 and each next the least that keeps the
    sums of exactly H of them (with repeats) apart, and {w.e + |e| T: e} over
    every monomial e of degree <= H.  Padded with w_0, a monomial of degree
    t <= H has the sum of one of degree H, so these sums differ too."""
    if not a:
        return (), 1, {0: ()}
    w, top = [0], {0: (H,)}
    for _ in range(a - 1):
        x = w[-1] + 1
        while (new := _apart(top, x, H)) is None:
            x += 1
        w.append(x)
        top = new
    T = H * w[-1] + 1
    index = {s + t * T: (e[0] - H + t,) + e[1:]
             for s, e in top.items() for t in range(H - e[0], H + 1)}
    return tuple(w), T, index


class _Packed:
    """Homogeneous parts over Z/p^N or (Z/p^N)[u] in the variables ``vary``, the
    u-variables of ``ues`` and u-degrees <= udeg; a slot sums at most
    max(2 * #monomials, nterms) products of two parts."""

    def __init__(self, ring, vars, bound, vary, ues, udeg, nterms):
        self.ring, self.vars, self.bound = ring, vars, bound
        self.poly = isinstance(ring, PolyTruncRing)
        self.W = ring.ring if self.poly else ring
        self.q = self.W.modulus
        self.vary = list(vary)
        cols = sorted({i for ue in ues if any(ue) for i, n in enumerate(ue) if n})
        H = min(ring.ubound, udeg) if cols else 0
        w, T, index = _u_monomials(len(cols), H)
        ue, self.umono = [0] * len(ring.vars) if self.poly else [], {}
        for j, e in index.items():  # e over cols; every other u-exponent stays 0
            for i, n in zip(cols, e):
                ue[i] = n
            self.umono[j] = tuple(ue)
        self.ucols = list(zip(cols, (x + T for x in w)))
        self.usize = (H + 1) * T
        self.S = 2 * self.usize - 1
        self.radix = bound + 1
        self.heads = [(v, self.radix ** i * self.S) for i, v in enumerate(self.vary[:-1])]
        count = max(2 * math.comb(bound + len(self.vary), len(self.vary)), nterms) * len(index)
        self.wb = (2 * (self.q - 1).bit_length() + count.bit_length() + 8) // 8
        # over Z/2^N a part reduces by one AND: 2^N - 1 in each head's kept slots
        self.block = self.W.p == 2 and _to_int([self.q - 1] * self.usize + [0] * (
            self.usize - 1), self.wb).to_bytes(self.S * self.wb, "little")
        self.mask = 0

    def slot(self, e, ue):
        """The slot of x^e u^ue in its homogeneous part."""
        return (sum(e[v] * w for v, w in self.heads)
                + sum(ue[i] * w for i, w in self.ucols))

    def bits(self, e):
        """The bit shift that multiplies a part by x^e, e in the varying variables."""
        return 8 * self.wb * sum(e[v] * w for v, w in self.heads)

    def pack(self, terms):
        """The int of one homogeneous part, from (exponents, u-exponents, value < p^N)."""
        at = {self.slot(e, ue): v for e, ue, v in terms}
        return _to_int([at.get(i, 0) for i in range(max(at, default=0) + 1)], self.wb)

    def coefficient(self, c):
        """A coefficient as an int of degree 0."""
        if not self.poly:
            return c.coeffs[0]
        return self.pack(((0,) * len(self.vars), ue, v.coeffs[0]) for ue, v in c.items())

    def parts(self, s):
        """The homogeneous parts of a series in the varying variables."""
        by = {}
        for e, c in s.terms.items():
            for ue, v in c.items() if self.poly else [((), c)]:
                by.setdefault(sum(e), []).append((e, ue, v.coeffs[0]))
        return {d: self.pack(ts) for d, ts in by.items()}

    def part(self, A, B, d):
        """Degree d of A * B, reduced and cut; A is B for a square."""
        x = 0
        for a, pa in A.items():
            pb = B.get(d - a)
            if pb is not None and (A is not B or 2 * a <= d):
                x += pa * pb << (A is B and 2 * a < d)
        if self.block:  # over Z/2^N: one AND
            if x.bit_length() > self.mask.bit_length():
                self.mask = int.from_bytes(
                    self.block * (2 * x.bit_length() // (8 * len(self.block)) + 1), "little")
            return x & self.mask
        n, S = self.usize, self.S  # u-indices from usize on are cut
        return _to_int([v % self.q if i % S < n else 0
                        for i, v in enumerate(_slot_values(x, self.wb))], self.wb)

    def mul(self, A, B):
        """A * B by homogeneous part."""
        out = {}
        for d in sorted({a + b for a in A for b in B if a + b <= self.bound}):
            if x := self.part(A, B, d):
                out[d] = x
        return out

    def terms(self, x, d, base):
        """(exponents, u-exponents, value) of the nonzero kept slots of x, a
        degree-d part times the monomial base in the other variables."""
        q, S, umono, vary, radix = self.q, self.S, self.umono, self.vary, self.radix
        vals = _slot_values(x, self.wb)
        here = None
        for p in itertools.compress(range(len(vals)), vals):
            if v := vals[p] % q:
                h, j = divmod(p, S)
                ue = umono.get(j)
                if ue is not None:
                    if h != here:
                        here, e, r = h, list(base), d
                        for i in vary[:-1]:
                            h, digit = divmod(h, radix)
                            e[i] += digit
                            r -= digit
                        if vary:
                            e[vary[-1]] += r
                        e = tuple(e)
                    yield e, ue, v

    def series(self, parts):
        """The series sum of {(base, d): x} over parts x from ``terms``."""
        raw = {}
        for (base, d), x in parts.items():
            for e, ue, v in self.terms(x, d, base):
                raw.setdefault(e, {})[ue] = v
        return _raw_series(self.ring, self.vars, self.bound, raw)


def _raw_series(ring, vars, bound, raw):
    """The series of {exponents: {u-exponents: int in [1, p^N)}} over Z/p^N,
    where the one u-exponent is (), or over a PolyTruncRing on it."""
    make = TruncSeries._make
    if not isinstance(ring, PolyTruncRing):
        return make(ring, vars, bound, {e: ring.reduced((c[()],)) for e, c in raw.items()})
    W = ring.ring
    return make(ring, vars, bound, {e: {ue: W.reduced((v,)) for ue, v in c.items()}
                                    for e, c in raw.items()})
