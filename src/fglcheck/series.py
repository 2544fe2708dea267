"""Truncated multivariate power series over an exact coefficient ring.

A TruncSeries stores a sparse map from exponent tuples to nonzero
coefficients, truncated at a fixed total degree bound D.  Multiplication,
composition, reversion and Weierstrass preparation are all exact at the
bound.  PolyTruncRing wraps these series as a coefficient ring in their own
right, which is how Lubin-Tate style base rings W[u_1..u_{n-1}] are built.

a * b multiplies term by term over every ring.  substitute over Z/p^N, and
over a PolyTruncRing on Z/p^N, runs on a Kronecker-packed kernel: each operand
becomes one Python int and a product is one int multiplication; a one-term
operand with a scalar coefficient is a shift of the other operand's exponents,
with no packing.  Every other ring composes through the dict loop of a * b,
the reference the kernel is tested against.
"""

from __future__ import annotations

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
        if isinstance(other, int):
            return self.int_scalar(other)
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

    __rmul__ = __mul__

    def scalar(self, c):
        R = self.ring
        return TruncSeries(R, self.vars, self.bound,
                           {e: R.mul(c, v) for e, v in self.terms.items()})

    def int_scalar(self, n):
        return self.scalar(self.ring.from_int(n))

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative power {n} of a series")
        out, b = TruncSeries.one(self.ring, self.vars, self.bound), self
        while True:
            if n & 1:
                out = out * b
            n >>= 1
            if not n:
                return out
            b = b * b

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
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.items_sorted():
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            cc = repr(c)
            chunks.append(f"{cc}*{mono}" if mono else cc)
        return " + ".join(chunks)

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

    return k.sum_scaled(scaled_terms(), len(f.terms))


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
    for _ in range(_nilpotency_margin(R) + bound + 4):
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


def _nilpotency_margin(R):
    try:
        n = R.chain_length()
    except NotImplementedError:
        n = getattr(R, "nilpotency_hint", 8)
    return n + 2


class PolyTruncRing(Ring):
    """base[v_1..v_k] truncated at a total degree bound, used as a coefficient ring.

    Local whenever the base is, with maximal ideal (max(base), v_1..v_k);
    residue passes through the constant term.
    """

    def __init__(self, base, vars, ubound):
        self.base = base
        self.vars = tuple(vars)
        self.ubound = ubound
        self.nilpotency_hint = ubound + 1 + (base.chain_length()
                                             if _has_chain(base) else 1)

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


def _has_chain(R):
    try:
        R.chain_length()
        return True
    except NotImplementedError:
        return False


# ---------------------------------------------------------------------------
# Kronecker-packed kernel over Z/p^N and (Z/p^N)[u]
#
# A series is packed into one int: the coefficient of a monomial sits in a
# fixed-width slot at the monomial's index, so the product of two packed ints
# holds the product series.  The index is affine in the exponents (see
# _Layout), so a product's index is the sum of its factors' indices.  Over
# (Z/p^N)[u] each outer slot is a block of S inner slots, indexed by the same
# rule in the u-variables at their bound U; S exceeds the sum of the operands'
# largest inner indices, so an inner product never reaches the next block.  A
# slot holds a sum of at most min(entries of A, entries of B) products of
# values below p^N, so it needs 2 * bits(p^N - 1) + bits(that count) + 1 bits.

# slot widths read and written in C through array / memoryview.cast
_WORD = ({array(t).itemsize: t for t in "QLIHB"} if sys.byteorder == "little" else {})


def _kernel(ring, vars, bound):
    """The packed kernel for series over ``ring``, or None for the dict loop."""
    if isinstance(ring, WittCoefRing) and ring.f == 1:
        return _PackedZ(ring, vars, bound)
    if (isinstance(ring, PolyTruncRing) and isinstance(ring.base, WittCoefRing)
            and ring.base.f == 1):
        return _PackedPoly(ring, vars, bound)
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
    """The first ``count`` wb-byte slots of the nonnegative int x."""
    n = count * wb
    buf = x.to_bytes((x.bit_length() + 7) // 8, "little")[:n].ljust(n, b"\0")
    code = _WORD.get(wb)
    if code:
        return memoryview(buf).cast(code).tolist()
    return [int.from_bytes(buf[o:o + wb], "little") for o in range(0, n, wb)]


def _dot(e, w):
    return sum(map(operator.mul, e, w))


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

    def sum_scaled(self, pairs, count):
        """sum c * term over (coefficient, term) pairs, as a series."""
        R = self.ring
        acc = {}
        for c, term in pairs:
            for e, v in term.terms.items():
                p = R.mul(c, v)
                acc[e] = R.add(acc[e], p) if e in acc else p
        return TruncSeries(R, self.vars, self.bound, acc)


class _PackedZ:
    """Series over Z/p^N as raw terms {exponent: int in [1, p^N)}."""

    def __init__(self, ring, vars, bound):
        self.ring, self.vars, self.bound = ring, vars, bound
        self.q = ring.modulus

    def raw(self, s):
        return {e: c.coeffs[0] for e, c in s.terms.items()}

    def series(self, raw):
        R = self.ring
        return TruncSeries._make(R, self.vars, self.bound,
                                 {e: R.reduced((v,)) for e, v in raw.items()})

    def one(self):
        return {(0,) * len(self.vars): 1}

    def mul(self, A, B):
        """Raw product of raw terms, truncated at the bound and reduced mod p^N.

        A one-term operand c * x^e with c a scalar is a shift of the other by e,
        scaled by c, with no pack and no unpack."""
        if not A or not B:
            return {}
        for one, other in ((A, B), (B, A)):
            if len(one) == 1:
                (e1, c1), = one.items()
                c = self._scalar(c1)
                if c is not None:
                    return self._shift(other, e1, c)
        cols_a, cols_b = list(zip(*A)), list(zip(*B))
        deg_a, deg_b = list(map(sum, A)), list(map(sum, B))
        lo = min(deg_a) + min(deg_b)
        hi = min(self.bound, max(deg_a) + max(deg_b))
        if lo > hi:
            return {}
        lay = _Layout(lo, hi, [min(a) + min(b) for a, b in zip(cols_a, cols_b)],
                      [max(a) + max(b) for a, b in zip(cols_a, cols_b)])
        S = self._span(A) + self._span(B) + 1
        count = min(self._count(A), self._count(B))
        wb = _slot_bytes(2 * (self.q - 1).bit_length() + count.bit_length() + 1)
        pos_a = [_dot(e, lay.w) for e in A]
        pos_b = [_dot(e, lay.w) for e in B]
        low_a, low_b = min(pos_a), min(pos_b)
        prod = (self._pack(A, [p - low_a for p in pos_a], S, wb)
                * self._pack(B, [p - low_b for p in pos_b], S, wb))
        # product slot p holds the monomial of index p + shift
        shift = low_a + low_b - lay.origin
        if shift >= lay.size:
            return {}
        vals = _slot_values(prod, wb, (lay.size - shift) * S)
        return self._unpack(vals, S, lay, shift)

    def _scalar(self, v):
        """The scalar a raw value is, or None when it is not one."""
        return v

    def _scale(self, v, c):
        return v * c % self.q

    def _shift(self, raw, e1, c):
        """raw times c * x^e1, truncated at the bound; vanishing products drop."""
        room, scale = self.bound - sum(e1), self._scale
        out = {}
        for e, v in raw.items():
            if sum(e) <= room:
                v = scale(v, c)
                if v:
                    out[tuple(map(operator.add, e, e1))] = v
        return out

    def _span(self, raw):
        """Largest inner slot index used by ``raw``."""
        return 0

    def _count(self, raw):
        return len(raw)

    def _pack(self, raw, pos, S, wb):
        vals = [0] * (max(pos) + 1)
        for p, c in zip(pos, raw.values()):
            vals[p] = c
        return _to_int(vals, wb)

    def _unpack(self, vals, S, lay, shift):
        q, exponent = self.q, lay.exponent
        out = {}
        for p in itertools.compress(range(len(vals)), vals):
            v = vals[p] % q
            if v:
                out[exponent(p + shift)] = v
        return out

    def sum_scaled(self, pairs, count):
        """sum c * term over (coefficient, raw term) pairs, as a series."""
        acc = {}
        get = acc.get
        for c, term in pairs:
            c = c.coeffs[0]
            for e, v in term.items():
                acc[e] = get(e, 0) + c * v
        q = self.q
        out = {}
        for e, v in acc.items():
            v %= q
            if v:
                out[e] = v
        return self.series(out)


class _PackedPoly(_PackedZ):
    """Series over (Z/p^N)[u] as raw terms {exponent: {inner index: int}}.

    The inner index of a u-monomial is its _Layout index over all
    u-variables at the ring's bound U.
    """

    def __init__(self, ring, vars, bound):
        self.ring, self.vars, self.bound = ring, vars, bound
        self.q = ring.base.modulus
        m, U = len(ring.vars), ring.ubound
        self.uw = _Layout(0, U, [0] * m, [U] * m).w
        self.uexp = {_dot(ue, self.uw): ue
                     for ue in itertools.product(range(U + 1), repeat=m) if sum(ue) <= U}

    def _inner(self, c):
        w = self.uw
        return {_dot(ue, w): v.coeffs[0] for ue, v in c.terms.items()}

    def raw(self, s):
        return {e: self._inner(c) for e, c in s.terms.items()}

    def series(self, raw):
        L = self.ring
        W, uvars, U, uexp = L.base, L.vars, L.ubound, self.uexp
        make = TruncSeries._make
        return make(L, self.vars, self.bound,
                    {e: make(W, uvars, U,
                             {uexp[j]: W.reduced((v,)) for j, v in inner.items()})
                     for e, inner in raw.items()})

    def one(self):
        return {(0,) * len(self.vars): {0: 1}}

    def _scalar(self, inner):
        return inner[0] if len(inner) == 1 and 0 in inner else None

    def _scale(self, inner, c):
        return {j: w for j, v in inner.items() if (w := v * c % self.q)}

    def _span(self, raw):
        return max(max(inner) for inner in raw.values())

    def _count(self, raw):
        return sum(map(len, raw.values()))

    def _pack(self, raw, pos, S, wb):
        vals = [0] * ((max(pos) + 1) * S)
        for p, inner in zip(pos, raw.values()):
            b = p * S
            for j, c in inner.items():
                vals[b + j] = c
        return _to_int(vals, wb)

    def _unpack(self, vals, S, lay, shift):
        q, exponent, uexp = self.q, lay.exponent, self.uexp
        out = {}
        here = None
        for p in itertools.compress(range(len(vals)), vals):
            x, j = divmod(p, S)
            v = vals[p] % q
            if v and j in uexp:  # j outside uexp: u-degree beyond U
                if x != here:
                    here = x
                    inner = out[exponent(x + shift)] = {}
                inner[j] = v
        return out

    def sum_scaled(self, pairs, count):
        """sum c * term; each inner product c * v is one packed int multiplication."""
        n = max(self.uexp) + 1
        wb = _slot_bytes(2 * (self.q - 1).bit_length() + (count * n).bit_length() + 1)
        shift = 8 * wb
        acc = {}
        get = acc.get
        for c, term in pairs:
            cp = sum(v << (j * shift) for j, v in self._inner(c).items())
            for e, inner in term.items():
                acc[e] = get(e, 0) + cp * sum(v << (j * shift) for j, v in inner.items())
        q, uexp = self.q, self.uexp
        out = {}
        for e, a in acc.items():
            vals = _slot_values(a, wb, n)
            inner = {}
            for j in itertools.compress(range(n), vals):
                v = vals[j] % q
                if v and j in uexp:
                    inner[j] = v
            if inner:
                out[e] = inner
        return self.series(out)
