"""Truncated multivariate power series over an exact coefficient ring.

A TruncSeries stores a sparse map from exponent tuples to nonzero
coefficients, truncated at a fixed total degree bound D.  Multiplication,
composition, reversion and Weierstrass preparation are all exact at the
bound.  PolyTruncRing wraps these series as a coefficient ring in their own
right, which is how Lubin-Tate style base rings W[u_1..u_{n-1}] are built.

a * b multiplies term by term over every ring.  substitute over Z/p^N, and
over a PolyTruncRing on Z/p^N, runs on one Kronecker-packed kernel: each
operand becomes one Python int and a product is one int multiplication.  Its
raw terms are {x-exponents + u-exponents: int}, the u-exponents of a
PolyTruncRing being more variables, laid out per product from the operands'
exponents.  A one-term operand c * x^e * u^f is a shift of the other
operand's exponents, with no packing.  Every other ring composes through the
dict loop of a * b, the reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import itertools
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
        R = self.ring
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = R.add(out[e], c)
            else:
                out[e] = c
        return TruncSeries(R, self.vars, self.bound, out)

    def __neg__(self):
        R = self.ring
        return TruncSeries(R, self.vars, self.bound,
                           {e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self.check_context(other)
        R = self.ring
        out = {}
        b = self.bound
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > b:
                    continue
                e = tuple(a + bb for a, bb in zip(e1, e2))
                p = R.mul(c1, c2)
                if e in out:
                    out[e] = R.add(out[e], p)
                else:
                    out[e] = p
        return TruncSeries(R, self.vars, self.bound, out)

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
        return terms_repr(self.vars, self.terms)

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


def terms_repr(vars, terms):
    """{exponents: coefficient} as c*x^i*y^j + ..., in exponent order; "0" if empty."""
    if not terms:
        return "0"
    bits = []
    for e, c in sorted(terms.items()):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(vars, e) if k)
        bits.append(f"{c!r}*{mono}" if mono else repr(c))
    return " + ".join(bits)


def substitute(f, gs):
    """Formal composition f(g_1, .., g_k), truncated at the g's bound.

    Every g_i must share a context and have zero constant term, so that the
    composition is finitely computable.  The terms c * prod g_i^{e_i} are
    streamed into the ring's accumulator and reduced once, at the end.
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
    R, vars, bound = ctx.ring, ctx.vars, ctx.bound
    k = _kernel(R, vars, bound) or _SeriesOps(R, vars, bound)
    # powers of each g_i up to the largest exponent appearing in f
    max_e = [0] * len(gs)
    for e in f.terms:
        for i, n in enumerate(e):
            max_e[i] = max(max_e[i], n)
    powers = []
    for g, me in zip(gs, max_e):
        pw = [None, k.raw(g)]
        for _ in range(me - 1):
            pw.append(k.mul(pw[-1], pw[1]))
        powers.append(pw)

    def scaled_terms():
        for e, c in f.terms.items():
            term = None
            for pw, n in zip(powers, e):
                if n:
                    term = pw[n] if term is None else k.mul(term, pw[n])
            yield c, (k.one() if term is None else term)

    return k.sum_scaled(scaled_terms(), f, gs)


def reversion(f):
    """Compositional inverse of a one-variable series u*x + O(x^2), u a unit."""
    if len(f.vars) != 1:
        raise ContextMismatch("reversion needs a one-variable series")
    R, bound = f.ring, f.bound
    if not R.is_zero(f.constant_term()):
        raise NonzeroConstantTerm(0)
    u = f.coefficient((1,))
    if not R.is_unit(u):
        raise NonUnitLinearCoefficient(f"linear coefficient {u!r} is not a unit")
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
        raise NonUnitLinearCoefficient(f"constant term {c0!r} is not a unit")
    one = TruncSeries.one(R, f.vars, f.bound)
    b = TruncSeries.const(R, f.vars, f.bound, R.inv(c0))
    two = one + one
    for _ in range(max(1, f.bound.bit_length()) + 2):
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


class PolyTruncRing(Ring):
    """base[v_1..v_k] truncated at a total degree bound, used as a coefficient ring.

    Local whenever the base is, with maximal ideal (max(base), v_1..v_k);
    residue passes through the constant term.
    """

    def __init__(self, base, vars, ubound):
        self.base = base
        self.vars = tuple(vars)
        self.ubound = ubound

    def zero(self):
        return TruncSeries.zero(self.base, self.vars, self.ubound)

    def from_int(self, n):
        return TruncSeries.const(self.base, self.vars, self.ubound, self.base.from_int(n))

    def var(self, name):
        return TruncSeries.var(self.base, self.vars, self.ubound, name)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return self.base.is_unit(a.constant_term())

    def inv(self, a):
        return inverse(a)

    def is_local(self):
        return self.base.is_local()

    def in_max_ideal(self, a):
        c0 = a.constant_term()
        return self.base.in_max_ideal(c0) if self.base.is_local() else a.is_zero()

    def residue_ring(self):
        return self.base.residue_ring()

    def residue(self, a):
        return self.base.residue(a.constant_term())

    def chain_length(self):
        return self.ubound + 1 + self.base.chain_length()

    def descriptor(self):
        return {"poly_over": self.base.descriptor(), "vars": list(self.vars),
                "ubound": self.ubound}

    def encode(self, a):
        return a.to_json()["terms"]

    def decode(self, s):
        terms = json_terms(s, len(self.vars), f"an element of {self!r}")
        return TruncSeries(self.base, self.vars, self.ubound,
                           {e: self.base.decode(c) for e, c in terms})

    def __repr__(self):
        return f"{self.base!r}[{','.join(self.vars)}]<={self.ubound}"


# ---------------------------------------------------------------------------
# Kronecker-packed kernel over Z/p^N and (Z/p^N)[u]
#
# A raw series is {x-exponents + u-exponents: int in [1, p^N)}, one term per
# monomial in the x's and the u's; over Z/p^N the u-part is empty.  A product
# packs each operand into one int, so that one int multiplication gives the
# product series.  Two _Layouts built from the operands' exponents index the
# x-part and the u-part; both indices are affine in the exponents, so a
# product's index is the sum of its factors'.  Each x-slot is a block of S
# u-slots, and S exceeds the sum of the operands' u-index spans, so no u-part
# reaches the next block.  A u-part past the u-bound U indexes past the
# u-layout and is dropped on unpack.  A slot holds a sum of at most min(terms
# of A, terms of B) products of values below p^N, so it needs
# 2 * bits(p^N - 1) + bits(that count) + 1 bits.

# slot widths read and written in C through array / memoryview.cast
_WORD = ({array(t).itemsize: t for t in "QLIHB"} if sys.byteorder == "little" else {})


def _kernel(ring, vars, bound):
    """The packed kernel for series over ``ring``, or None for the dict loop."""
    W = ring.base if isinstance(ring, PolyTruncRing) else ring
    if isinstance(W, WittCoefRing) and W.f == 1:
        return _Packed(ring, vars, bound)
    return None


def _slot_bytes(bits):
    """Bytes per slot: the smallest C word that holds ``bits``, else whole bytes."""
    for wb in (1, 2, 4, 8):
        if 8 * wb >= bits and wb in _WORD:
            return wb
    return (bits + 7) // 8


def _to_int(vals, wb):
    """The int whose wb-byte little-endian slots hold ``vals``."""
    code = _WORD.get(wb)
    data = (array(code, vals).tobytes() if code
            else b"".join(v.to_bytes(wb, "little") for v in vals))
    return int.from_bytes(data, "little")


def _slot_values(x, wb, count):
    """The wb-byte slots of the nonnegative int x, the first ``count`` at most."""
    n = (x.bit_length() + 8 * wb - 1) // (8 * wb) * wb
    buf = x.to_bytes(n, "little")[:count * wb]
    code = _WORD.get(wb)
    if code:
        return memoryview(buf).cast(code).tolist()
    return [int.from_bytes(buf[o:o + wb], "little") for o in range(0, len(buf), wb)]


def _dot(e, w):
    return sum(map(operator.mul, e, w))


_DOTS_CHAIN = 64


def _dots(cols, w):
    """_dot(e, w) for every term e, read off the terms' columns ``cols``.

    Each column nests one lazy map, and a chain one map per column deep
    overflowed the C stack at 10^5 variables; the running sums are therefore
    materialised every _DOTS_CHAIN columns."""
    dots = map(operator.mul, cols[0], itertools.repeat(w[0]))
    for i, (col, x) in enumerate(zip(cols[1:], w[1:]), 1):
        dots = map(operator.add, dots, map(operator.mul, col, itertools.repeat(x)))
        if i % _DOTS_CHAIN == 0:
            dots = list(dots)
    return list(dots)


class _Layout:
    """Slot indices of the monomials a product keeps.

    Every monomial e of the product has e >= emin; the kept ones also have
    e <= emax and lo <= |e| <= hi.  Every varying variable but the last is a
    mixed-radix digit e_i - emin_i, and |e| - lo is the top digit, so
    each kept monomial has its own index below ``size`` and each dropped one
    (|e| > hi) lands at or above it.  The index is _dot(e, w) - origin.
    """

    def __init__(self, lo, hi, emin, emax):
        var = [i for i, (a, b) in enumerate(zip(emin, emax)) if a < min(b, hi)]
        self.lo, self.emin = lo, emin
        self.last = var[-1] if var else None
        self.heads = []  # (variable, radix), lowest digit first
        w = [0] * len(emin)
        place = 1
        for i in var[:-1]:
            radix = min(emax[i], hi) - emin[i] + 1
            self.heads.append((i, radix))
            w[i] = place
            place *= radix
        self.top = place
        self.w = [x + place for x in w]
        self.origin = _dot(emin, w) + lo * place
        self.size = (hi - lo + 1) * place
        self.fixed = sum(emin) - (emin[self.last] if var else 0)
        self.hi = hi

    def reach(self, emin, emax):
        """Bounds on _dot(e, w) over emin <= e <= emax with |e| <= hi."""
        return (_dot(emin, self.w),
                _dot(emax, self.w) - max(0, sum(emax) - self.hi) * self.top)

    def exponent(self, x):
        """The monomial at index x < size."""
        t, r = divmod(x, self.top)
        e = list(self.emin)
        s = self.fixed
        for i, radix in self.heads:
            r, d = divmod(r, radix)
            e[i] += d
            s += d
        if self.last is not None:
            e[self.last] = self.lo + t - s
        return tuple(e)


class _SeriesOps:
    """Any other ring: TruncSeries multiplied by the reference dict loop."""

    def __init__(self, ring, vars, bound):
        self.ring, self.vars, self.bound = ring, vars, bound

    def raw(self, s):
        return s

    def one(self):
        return TruncSeries.one(self.ring, self.vars, self.bound)

    def mul(self, a, b):
        return a * b

    def sum_scaled(self, pairs, f, gs):
        """sum c * term over (coefficient, term) pairs, as a series."""
        R = self.ring
        acc = {}
        for c, term in pairs:
            for e, v in term.terms.items():
                p = R.mul(c, v)
                acc[e] = R.add(acc[e], p) if e in acc else p
        return TruncSeries(R, self.vars, self.bound, acc)


class _Packed:
    """Series over Z/p^N or (Z/p^N)[u] as raw terms {x + u exponents: int in [1, p^N)}."""

    def __init__(self, ring, vars, bound):
        self.ring, self.vars, self.bound = ring, vars, bound
        poly = isinstance(ring, PolyTruncRing)
        self.W = ring.base if poly else ring
        self.q = self.W.modulus
        self.k = len(vars)
        self.uvars = ring.vars if poly else ()
        self.ubound = ring.ubound if poly else 0

    def raw(self, s):
        if not self.uvars:
            return {e: c.coeffs[0] for e, c in s.terms.items()}
        return {e + ue: v.coeffs[0] for e, c in s.terms.items() for ue, v in c.terms.items()}

    def series(self, raw):
        W, k, make = self.W, self.k, TruncSeries._make
        if not self.uvars:
            return make(W, self.vars, self.bound, {e: W.reduced((v,)) for e, v in raw.items()})
        coeffs = {}
        for e, v in raw.items():
            x = e[:k]
            c = coeffs.get(x)
            if c is None:
                c = coeffs[x] = {}
            c[e[k:]] = W.reduced((v,))
        return make(self.ring, self.vars, self.bound,
                    {x: make(W, self.uvars, self.ubound, c) for x, c in coeffs.items()})

    def one(self):
        return {(0,) * (self.k + len(self.uvars)): 1}

    def mul(self, A, B):
        """Raw product of raw terms, truncated at both bounds and reduced mod p^N.

        A one-term operand c * x^e * u^f is a shift of the other by (e, f),
        scaled by c, with no pack and no unpack."""
        if not A or not B:
            return {}
        if len(A) == 1 or len(B) == 1:
            one, other = (A, B) if len(A) == 1 else (B, A)
            (e1, c), = one.items()
            return self._shift(other, e1, c)
        k, U = self.k, self.ubound
        cols_a, cols_b = list(zip(*A)), list(zip(*B))
        min_a, max_a = list(map(min, cols_a)), list(map(max, cols_a))
        min_b, max_b = list(map(min, cols_b)), list(map(max, cols_b))
        emin = list(map(operator.add, min_a[:k], min_b[:k]))
        emax = list(map(operator.add, max_a[:k], max_b[:k]))
        x = _Layout(sum(emin), min(self.bound, sum(emax)), emin, emax)
        if x.size <= 0:
            return {}
        # u-digits count from 0, so every operand's u-part has its own index
        u = _Layout(0, U, [0] * (len(min_a) - k),
                    list(map(operator.add, max_a[k:], max_b[k:])))
        lu_a, hu_a = u.reach(min_a[k:], max_a[k:])
        lu_b, hu_b = u.reach(min_b[k:], max_b[k:])
        S = hu_a - lu_a + hu_b - lu_b + 1
        w = [wx * S for wx in x.w] + u.w
        pos_a, pos_b = _dots(cols_a, w), _dots(cols_b, w)
        low_a, low_b = min(pos_a), min(pos_b)
        # product slot p holds x-index X - x.origin and u-index j + LU, where
        # (X, j) = divmod(p + c0, S)
        LU = lu_a + lu_b
        c0 = low_a + low_b - LU
        n = (x.origin + x.size) * S - c0
        if n <= 0:
            return {}
        wb = _slot_bytes(2 * (self.q - 1).bit_length() + min(len(A), len(B)).bit_length() + 1)
        prod = self._pack(A, pos_a, low_a, wb) * self._pack(B, pos_b, low_b, wb)
        vals = _slot_values(prod, wb, n)
        q, xo, usize = self.q, x.origin, u.size
        x_at, u_at = x.exponent, functools.cache(u.exponent)
        out = {}
        here = None
        for p in itertools.compress(range(len(vals)), vals):
            v = vals[p] % q
            if v:
                X, j = divmod(p + c0, S)
                j += LU
                if j < usize:
                    if X != here:
                        here, ex = X, x_at(X - xo)
                    out[ex + u_at(j)] = v
        return out

    @staticmethod
    def _pack(raw, pos, low, wb):
        vals = [0] * (max(pos) - low + 1)
        for p, c in zip(pos, raw.values()):
            vals[p - low] = c
        return _to_int(vals, wb)

    def _shift(self, raw, e1, c):
        """raw times c * x^e * u^f, truncated at both bounds; vanishing products drop."""
        k, q = self.k, self.q
        room, uroom = self.bound - sum(e1[:k]), self.ubound - sum(e1[k:])
        within = uroom == self.ubound  # every u-part of raw stays within U
        out = {}
        for e, v in raw.items():
            if sum(e[:k]) <= room and (within or sum(e[k:]) <= uroom):
                v = v * c % q
                if v:
                    out[tuple(map(operator.add, e, e1))] = v
        return out

    def sum_scaled(self, pairs, f, gs):
        """sum c * term over (coefficient of f, raw term) pairs, as a series.

        Every term is a product of powers of the gs, so its u-exponents lie in
        the u-variables of the gs, each at most U.  Over (Z/p^N)[u] one
        u-layout of the u-variables of f and the gs packs c and each
        x-coefficient of a term, and their product is one int multiplication;
        a slot sums at most one product per u-term of f's coefficients."""
        q, k = self.q, self.k
        acc = {}
        get = acc.get
        if not self.uvars:
            for c, term in pairs:
                c = c.coeffs[0]
                for e, v in term.items():
                    acc[e] = get(e, 0) + c * v
            return self.series({e: v for e, a in acc.items() if (v := a % q)})
        U = self.ubound
        ues = [ue for s in (f, *gs) for c in s.terms.values() for ue in c.terms]
        u = _Layout(0, U, [0] * len(self.uvars), [U * any(col) for col in zip(*ues)])
        count = sum(len(c.terms) for c in f.terms.values())
        wb = _slot_bytes(2 * (q - 1).bit_length() + count.bit_length() + 1)
        shifts = [8 * wb * w for w in u.w]
        for c, term in pairs:
            if not term:
                continue
            cp = sum(v.coeffs[0] << _dot(ue, shifts) for ue, v in c.terms.items())
            xs = map(operator.getitem, term, itertools.repeat(slice(k)))
            for x, s, v in zip(xs, _dots(list(zip(*term))[k:], shifts), term.values()):
                acc[x] = get(x, 0) + (cp * v << s)
        W, u_at = self.W, functools.cache(u.exponent)
        out = {}
        for x, a in acc.items():
            vals = _slot_values(a, wb, u.size)
            c = {u_at(j): W.reduced((v,))
                 for j in itertools.compress(range(len(vals)), vals) if (v := vals[j] % q)}
            if c:
                out[x] = TruncSeries._make(W, self.uvars, U, c)
        return TruncSeries._make(self.ring, self.vars, self.bound, out)
