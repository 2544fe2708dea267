"""Exact arithmetic in truncated p-adic rings and their unramified extensions.

The central object is ``WittCoefRing``: the ring W(F_{p^f}) truncated at
precision N, represented concretely as (Z/p^N)[t]/(m) for a monic lift m of an
irreducible polynomial over F_p.  The case f=1 is plain Z/p^N.  Every ring in
this library implements the small ``Ring`` interface so that series and matrix
code can stay generic.

Elements are canonical: a ``WittElem`` holds exactly f integers in [0, p^N),
so equal elements have equal coefficient tuples.  Coefficients are validated
where they enter, at ``elem(tuple)``, ``decode`` and the ``from_json``
loaders; ``reduced`` wraps results the ring has reduced itself (residues,
``from_int``, ``gen``, ``rand``, ``val_unit`` and ``truncate_to``) without
checking them again, writing the two slots through their descriptors.
``zero()`` and ``one()`` are built once per ring and shared, which is safe
because elements are frozen.

Every ring, f = 1 included (Z/p^N is (Z/p^N)[t]/(t)), has the structure
constants of (Z/p^N)[t]/(m): for each coordinate j, the triples (i, k, c)
with c != 0 the t^j coordinate of t^(i+k).  From them and p^N, Python source
for straight-line ``add``, ``sub``, ``neg``, ``mul`` and ``scalar`` is built
and compiled once per shape: each kernel unpacks the f coordinates, sums each
output coordinate exactly, one term per statement (for ``mul`` the products
c*a_i*b_k), and reduces it mod p^N once.  Elements have no arithmetic
operators of their own: all arithmetic goes through the ring.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


class HenselFailure(ArithmeticError):
    """Newton refinement impossible: derivative not a unit at the start point."""


class MalformedData(ValueError):
    """Input data whose JSON types or shape do not fit what it describes."""


class MalformedElement(MalformedData):
    """Coefficients that do not describe an element of the ring."""


class IdentityFailed(ArithmeticError):
    """A computed result fails an identity its construction guarantees."""


class NotDivisible(ArithmeticError):
    """Exact division by p requested on an element not congruent to 0 mod p."""

    def __init__(self, witness):
        super().__init__("not divisible by p, residue witness %r" % (witness,))
        self.witness = witness


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def json_typed(value, kind, what):
    """value, if it has the JSON type kind (dict, list, str or int); else MalformedData.

    json.load gives bools for true/false, which are ints to Python but not here.
    """
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedData(f"{what} must be {_JSON_NAMES[kind]}, not {value!r:.60}")
    return value


def json_names(data, what):
    """A JSON list of strings, as a tuple."""
    return tuple(json_typed(v, str, f"{what}: an entry")
                 for v in json_typed(data, list, what))


def json_vec(ring, data, what):
    """A JSON list of encoded elements of ring, as a tuple."""
    return tuple(ring.decode(c) for c in json_typed(data, list, what))


def json_terms(data, nvars, what):
    """[[exponents], coefficient] pairs as (exponent tuple, raw coefficient) pairs;
    each term has nvars nonnegative integer exponents, and no two the same."""
    out = []
    seen = set()
    for term in json_typed(data, list, what):
        if not isinstance(term, list) or len(term) != 2:
            raise MalformedData(f"{what}: a term is [exponents, coefficient], "
                                f"not {term!r:.60}")
        e, c = term
        e = tuple(json_typed(x, int, f"{what}: an exponent")
                  for x in json_typed(e, list, f"{what}: exponents"))
        if len(e) != nvars or min(e, default=0) < 0:
            raise MalformedData(f"{what}: exponents {list(e)} are not {nvars} "
                                f"integers >= 0")
        if e in seen:
            raise MalformedData(f"{what}: exponents {list(e)} are given twice")
        seen.add(e)
        out.append((e, c))
    return out


# Miller-Rabin with these bases decides primality exactly below this bound,
# the least strong pseudoprime to all of them (OEIS A014233).  The bases up to
# 37 alone are fooled by 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin; ValueError where it is no longer exact."""
    if not isinstance(p, int) or p < 2:
        return False
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {p} is only decided below {_MR_EXACT_BELOW}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Ring:
    """Interface for exact coefficient rings.

    Elements are opaque values; all arithmetic goes through the ring object.
    Subclasses override what they support; optional structure (locality,
    valuations, finite enumeration) raises by default.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def is_zero(self, a):
        raise NotImplementedError

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r, b = self.one(), a
        while True:
            if n & 1:
                r = self.mul(r, b)
            n >>= 1
            if not n:
                return r
            b = self.mul(b, b)

    def scalar(self, n, a):
        """n*a for an integer n."""
        return self.mul(self.from_int(n), a)

    # local-ring structure (declared, not inferred)

    def is_local(self):
        return False

    def in_max_ideal(self, a):
        raise NotImplementedError(f"{self!r} has no declared maximal ideal")

    def residue_ring(self):
        raise NotImplementedError

    def residue(self, a):
        raise NotImplementedError

    # chain-ring structure: a = unit * p^v, used by Smith normal form

    def val_unit(self, a):
        raise NotImplementedError(f"{self!r} is not a chain ring")

    # an n with m^n = 0 for the maximal ideal m of a local ring, which bounds
    # the steps of Weierstrass preparation

    def chain_length(self):
        raise NotImplementedError

    # finite enumeration (small rings only)

    def elements(self):
        raise NotImplementedError(f"{self!r} is not finitely enumerable")

    def size(self):
        raise NotImplementedError

    def rand(self, rng):
        raise NotImplementedError

    # serialization

    def descriptor(self):
        raise NotImplementedError

    def encode(self, a):
        raise NotImplementedError

    def decode(self, s):
        raise NotImplementedError

    def repr_elem(self, a):
        return repr(a)

    def same_ring(self, other):
        return self is other or (isinstance(other, Ring)
                                 and self.descriptor() == other.descriptor())


@dataclass(frozen=True, slots=True)
class WittElem:
    """Element of a WittCoefRing: tuple of residues in [0, p^N), low to high in t.

    Construction validates; ``WittCoefRing.reduced`` builds the results of the
    ring's own arithmetic without the check.  There are no arithmetic
    operators: compute through ``ring``.
    """

    ring: "WittCoefRing"
    coeffs: tuple

    def __post_init__(self):
        q = self.ring.modulus
        if len(self.coeffs) != self.ring.f:
            raise MalformedElement(f"{len(self.coeffs)} coefficients, the ring needs "
                                   f"{self.ring.f}")
        if not all(isinstance(c, int) and 0 <= c < q for c in self.coeffs):
            raise MalformedElement(f"coefficients {self.coeffs} are not integers "
                                   f"in [0, {q})")

    def __eq__(self, other):
        if not isinstance(other, WittElem):
            return NotImplemented
        return self.ring.same_ring(other.ring) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                v = "t" if i == 1 else f"t^{i}"
                terms.append(v if c == 1 else f"{c}*{v}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} mod {self.ring.p}^{self.ring.N}>"


# build a WittElem without its checks or the frozen __setattr__
_new = object.__new__
_set_ring = WittElem.ring.__set__
_set_coeffs = WittElem.coeffs.__set__

_KERNELS = {}  # (q, structure constants) -> (add, sub, neg, mul, scalar)


def _kernel_source(q, table):
    """Source of straight-line add, sub, neg, mul and scalar mod q, mul by the
    structure constants ``table``; only ints, through int(), reach the text.

    Each output coordinate c_j is summed one term per statement, because the
    compiler recurses once per operator of an expression and a long row of
    ``table`` would exceed the recursion limit; it is reduced mod q once."""
    q = int(q)
    a = [f"a{i}" for i in range(len(table))]
    b = [f"b{i}" for i in range(len(table))]
    mul = [[("" if c == 1 else f"{int(c)} * ") + f"a{int(i)} * b{int(k)}" for i, k, c in row]
           for row in table]
    kernels = [("add", "a, b", [[f"{x} + {y}"] for x, y in zip(a, b)]),
               ("sub", "a, b", [[f"{x} - {y}"] for x, y in zip(a, b)]),
               ("neg", "a", [[f"-{x}"] for x in a]),
               ("mul", "a, b", mul),
               ("scalar", "n, a", [[f"n * {x}"] for x in a])]
    lines = []
    for name, args, coords in kernels:
        lines += [f"def {name}(W, {args}):", f"    {', '.join(a)}, = a.coeffs"]
        if "b" in args:
            lines.append(f"    {', '.join(b)}, = b.coeffs")
        for j, (first, *rest) in enumerate(coords):
            lines += [f"    c{j} = {first}"] + [f"    c{j} += {t}" for t in rest]
        lines += ["    e = _new(WittElem)", "    _set_ring(e, W)",
                  "    _set_coeffs(e, (" + "".join(f"c{j} % {q}, " for j in range(len(a))) + "))",
                  "    return e"]
    return "\n".join(lines) + "\n"


def _kernels(q, table):
    """The compiled kernels of _kernel_source, shared by every ring of one shape."""
    if (q, table) not in _KERNELS:
        ns = {}
        exec(_kernel_source(q, table), globals(), ns)
        _KERNELS[q, table] = tuple(ns[k] for k in ("add", "sub", "neg", "mul", "scalar"))
    return _KERNELS[q, table]


def _structure_constants(lift, q):
    """The multiplication table of (Z/q)[t]/(m) for the monic lift m of degree f.

    Row j lists the triples (i, k, c) with c != 0 the t^j coordinate of
    t^(i+k) mod (m, q), so the t^j coordinate of a*b is sum c*a_i*b_k.
    """
    f = len(lift) - 1
    powers = [tuple(int(i == j) for j in range(f)) for i in range(f)]
    for _ in range(f - 1):
        # t * t^e: shift up, then t^f = -(lift[0] + ... + lift[f-1] t^(f-1))
        top = powers[-1][-1]
        powers.append(tuple((lo - top * m) % q
                            for lo, m in zip((0,) + powers[-1][:-1], lift)))
    return tuple(tuple((i, k, powers[i + k][j]) for i in range(f) for k in range(f)
                       if powers[i + k][j])
                 for j in range(f))


def _fp_poly_divmod(num, den, p):
    """Division with remainder in F_p[t]; polynomials as low-to-high int lists."""
    num = [c % p for c in num]
    den = [c % p for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    dlead = pow(den[-1], -1, p)
    deg_d = len(den) - 1
    quo = [0] * max(1, len(num) - deg_d)
    rem = list(num)
    for k in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        q = (c * dlead) % p
        quo[k - deg_d] = q
        for j in range(deg_d + 1):
            rem[k - deg_d + j] = (rem[k - deg_d + j] - q * den[j]) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _fp_irreducible(poly, p):
    """Irreducibility over F_p by Ben-Or's test: a monic m of degree f is
    irreducible iff gcd(t^(p^d) - t, m) = 1 for d = 1..f/2, since every
    irreducible factor of degree d divides t^(p^d) - t."""
    poly = [c % p for c in poly]
    f = len(poly) - 1
    if f < 1 or poly[-1] != 1:
        return False

    def mulmod(a, b):
        prod = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return _fp_poly_divmod(prod, poly, p)[1]

    x = [0, 1]  # t^(p^d) mod m
    for _ in range(f // 2):
        y, x = x, [1]  # x = y^p by square and multiply
        for bit in bin(p)[2:]:
            x = mulmod(x, x)
            if bit == "1":
                x = mulmod(x, y)
        a, b = poly, _fp_poly_divmod([c - (i == 1) for i, c in enumerate(x + [0, 0])],
                                     poly, p)[1]  # (x - t) mod m
        while b:
            a, b = b, _fp_poly_divmod(a, b, p)[1]
        if len(a) > 1:
            return False
    return True


class WittCoefRing(Ring):
    """W(F_{p^f}) at p-adic precision N, as (Z/p^N)[t]/(m).

    ``ext`` is the mod-p extension polynomial, low-to-high including the
    leading 1 (length f+1); omit for f=1 (plain Z/p^N).  ``lift`` optionally
    replaces the default integer-coefficient lift of ``ext`` by another monic
    lift mod p^N.
    """

    def __init__(self, p, N, ext=None, lift=None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if not isinstance(N, int) or N < 1:
            raise ValueError(f"precision N={N} must be >= 1")
        limit = sys.get_int_max_str_digits()  # the kernels write p^N in decimal
        digits = N * math.log10(p)  # the number of digits of p^N, to within 1
        if limit and digits > limit - 1 and (digits > limit + 1 or p ** N >= 10 ** limit):
            raise ValueError(f"precision N={N}: p^N = {p}^{N} has over {limit} decimal digits")
        self.p = p
        self.N = N
        self.modulus = p ** N
        if ext is None:
            self.ext = None
            self.f = 1
            self.lift = None
        else:
            ext = [c % p for c in ext]
            if len(ext) < 2 or ext[-1] != 1:
                raise ValueError("extension polynomial must be monic of degree >= 1")
            if not _fp_irreducible(ext, p):
                raise ValueError(f"extension polynomial {ext} is reducible mod {p}")
            self.ext = tuple(ext)
            self.f = len(ext) - 1
            if lift is None:
                lift = list(ext)
            lift = [c % self.modulus for c in lift]
            if len(lift) != len(ext) or lift[-1] != 1:
                raise ValueError("lift must be monic of the same degree as ext")
            if [c % p for c in lift] != list(ext):
                raise ValueError("lift does not reduce to ext mod p")
            self.lift = tuple(lift)
        q = self.modulus
        table = _structure_constants(self.lift or (0, 1), q)  # Z/q is (Z/q)[t]/(t)
        self._add, self._sub, self._neg, self._mul, self._scalar = _kernels(q, table)
        self._tail = (0,) * (self.f - 1)
        self._zero = self.reduced((0,) + self._tail)
        self._one = self.reduced((1,) + self._tail)
        self._frob = None
        self._residue_ring = None
        self._lower = None
        self._ground = None

    # construction helpers

    def elem(self, coeffs):
        """The element with coefficients ``coeffs`` (an int, or a tuple low to high
        in t, padded with zeros), reduced mod p^N; a tuple is checked."""
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple(c % self.modulus for c in coeffs)
        if len(coeffs) < self.f:
            coeffs = coeffs + (0,) * (self.f - len(coeffs))
        if len(coeffs) != self.f:
            raise MalformedElement(f"{len(coeffs)} coefficients, the ring needs {self.f}")
        return WittElem(self, coeffs)

    def reduced(self, coeffs):
        """The element with coefficient tuple ``coeffs``: f integers in [0, p^N).

        Skips the checks of ``elem``; for the ring's own arithmetic and for
        kernels that reduce their own output.
        """
        a = _new(WittElem)
        _set_ring(a, self)
        _set_coeffs(a, coeffs)
        return a

    def gen(self):
        """The class of t (only meaningful when f > 1)."""
        if self.f == 1:
            return self.one()
        return self.reduced((0, 1) + self._tail[1:])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self.reduced((n % self.modulus,) + self._tail)

    def add(self, a, b):
        return self._add(self, a, b)

    def sub(self, a, b):
        return self._sub(self, a, b)

    def neg(self, a):
        return self._neg(self, a)

    def mul(self, a, b):
        return self._mul(self, a, b)

    def scalar(self, n, a):
        return self._scalar(self, n, a)

    def eq(self, a, b):
        return a.coeffs == b.coeffs

    def is_zero(self, a):
        return not any(a.coeffs)

    def is_unit(self, a):
        return any(c % self.p for c in a.coeffs)

    def inv(self, a):
        """Inverse of a unit: a^(p^f - 2) is an inverse mod p by Fermat, since the
        residue field has p^f - 1 units; Newton iteration lifts it to p^N."""
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a!r} is not a unit")
        b = self.pow(a, self.p ** self.f - 2)
        two = self.from_int(2)
        for _ in range(max(1, self.N.bit_length()) + 1):
            b = self.mul(b, self.sub(two, self.mul(a, b)))
        if not self.eq(self.mul(a, b), self.one()):
            raise IdentityFailed(f"{b!r} * {a!r} != 1 after Newton iteration")
        return b

    # local structure: maximal ideal is (p)

    def is_local(self):
        return True

    def in_max_ideal(self, a):
        return all(c % self.p == 0 for c in a.coeffs)

    def residue_ring(self):
        if self.N == 1:
            return self
        if self._residue_ring is None:
            self._residue_ring = WittCoefRing(self.p, 1, self.ext)
        return self._residue_ring

    def ground_ring(self):
        """Z/p^N at this precision, the f = 1 ring under this one."""
        if self._ground is None:
            self._ground = self if self.f == 1 else WittCoefRing(self.p, self.N)
        return self._ground

    def residue(self, a):
        return self.residue_ring().reduced(tuple(c % self.p for c in a.coeffs))

    def val_unit(self, a):
        """Write a = u * p^v with u a unit; returns (None, zero) for a = 0."""
        if self.is_zero(a):
            return None, a
        v = min((self._ival(c) for c in a.coeffs if c), default=self.N)
        u = self.reduced(tuple(c // self.p ** v for c in a.coeffs))
        return v, u

    def _ival(self, c):
        v = 0
        while c % self.p == 0:
            c //= self.p
            v += 1
        return v

    def chain_length(self):
        return self.N

    # enumeration

    def elements(self):
        """Every element, in the order of itertools.product(range(p^N), repeat=f),
        counted out one at a time: product would first copy the whole range."""
        q = self.modulus
        for n in range(self.size()):
            coeffs = [0] * self.f
            for i in reversed(range(self.f)):
                n, coeffs[i] = divmod(n, q)
            yield self.reduced(tuple(coeffs))

    def size(self):
        return self.modulus ** self.f

    def rand(self, rng):
        return self.reduced(tuple(rng.randrange(self.modulus) for _ in range(self.f)))

    # precision handling

    def lower(self):
        """The same ring at precision N - 1, with the lift reduced mod p^(N-1)."""
        if self.N < 2:
            raise ValueError(f"cannot drop to precision {self.N - 1}")
        if self._lower is None:
            q = self.p ** (self.N - 1)
            lift = None if self.lift is None else [c % q for c in self.lift]
            self._lower = WittCoefRing(self.p, self.N - 1, self.ext, lift)
        return self._lower

    def truncate_to(self, other, a):
        """Reduce a into ``other``, this ring at a lower precision."""
        return other.reduced(tuple(c % other.modulus for c in a.coeffs))

    def divide_by_p(self, a):
        """Exact division by p; the result lives one precision digit lower."""
        for c in a.coeffs:
            if c % self.p != 0:
                raise NotDivisible(c % self.p)
        return self.lower().reduced(tuple(c // self.p for c in a.coeffs))

    def frobenius(self, a, k=1):
        """sigma^k(a), for the ring endomorphism sigma with sigma(x) = x^p mod p.

        sigma^f = id, so k is taken mod f and may be negative; for f = 1 sigma
        is the identity.  sigma(t) is the root of m congruent to t^p mod p,
        found once by Hensel refinement, and sigma evaluates coordinates there.
        """
        k %= self.f
        if k == 0:
            return a
        if self._frob is None:
            s = self.pow(self.gen(), self.p)
            mprime = _poly_derivative(self.lift, self.modulus)
            if not self.is_unit(_poly_eval(self, mprime, s)):
                raise HenselFailure("m'(t^p) is not a unit; extension not separable?")
            for _ in range(max(1, self.N.bit_length()) + 1):
                fs = _poly_eval(self, self.lift, s)
                s = self.sub(s, self.mul(fs, self.inv(_poly_eval(self, mprime, s))))
            if not self.is_zero(_poly_eval(self, self.lift, s)):
                raise HenselFailure("Newton iteration failed to converge")
            self._frob = s
        for _ in range(k):
            a = _poly_eval(self, a.coeffs, self._frob)
        return a

    def descriptor(self):
        d = {"p": self.p, "N": self.N}
        if self.ext is not None:
            d["ext"] = list(self.ext)
            if self.lift != tuple(c % self.modulus for c in self.ext):
                d["lift"] = list(self.lift)
        return d

    def encode(self, a):
        if self.f == 1:
            return str(a.coeffs[0])
        return [str(c) for c in a.coeffs]

    def decode(self, s):
        """The element encoded as a decimal string, or as a list of them low to high in t."""
        words = [s] if isinstance(s, str) else s
        if isinstance(words, list) and all(isinstance(c, str) for c in words):
            try:
                coeffs = tuple(int(c) for c in words)
            except ValueError:
                pass
            else:
                return self.elem(coeffs)
        raise MalformedElement(f"an element of {self!r} is a decimal string or a list "
                               f"of them, not {s!r:.60}")

    def __repr__(self):
        if self.f == 1:
            return f"Z/{self.p}^{self.N}"
        return f"W(F_{self.p}^{self.f}; prec {self.N})"


def ring_from_descriptor(d):
    """The ring of a JSON descriptor {"p": int, "N": int[, "ext": [int], "lift": [int]]}."""
    json_typed(d, dict, "a ring descriptor")
    polys = [d.get(key) for key in ("ext", "lift")]
    for key, poly in zip(("ext", "lift"), polys):
        if poly is not None:
            for c in json_typed(poly, list, f"ring {key}"):
                json_typed(c, int, f"a coefficient of ring {key}")
    return WittCoefRing(json_typed(d["p"], int, "ring p"),
                        json_typed(d["N"], int, "ring N"), *polys)


def _poly_derivative(coeffs, q):
    return tuple((i * c) % q for i, c in enumerate(coeffs))[1:] or (0,)


def _poly_eval(ring, coeffs, x):
    out = ring.zero()
    for c in reversed(coeffs):
        out = ring.add(ring.mul(out, x), ring.from_int(c))
    return out
