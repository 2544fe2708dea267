"""The omega-twisted Z/2-graded tensor category on finite free modules.

Objects are pairs of free modules; the tensor product twists the odd-odd
block by a fixed rank-1 symmetric object omega:

    (M (x) N)^0 = M^0 (x) N^0  (+)  M^1 (x) N^1 (x) omega
    (M (x) N)^1 = M^0 (x) N^1  (+)  M^1 (x) N^0

The interchange carries a -1 on the odd-odd block; the associator is the
block permutation repositioning the omega factor.  Coherence (pentagon,
triangle, symmetry involution, hexagon) is checked by exact equality of the
composite maps.

Every map is a signed permutation: identities, interchanges, associators,
unitors, and their tensor products and composites.  GradedMap keeps its two
blocks as SignedPerm, so composing and tensoring is linear in the rank.  The
associator reads its images off the degrees: (k1, (k0, a, b), c) goes to
(kind, a, (kind', b, c)), where kind' is "tw" iff b and c are both odd and
kind is "tw" iff a and b (x) c are both odd.  Tensor objects, identities,
interchanges, associators and unitors are built once per distinct arguments
and cached on their first argument, so the cache lives exactly as long as the
objects it was built from.  Tensor products and composites of maps are not
cached: they are cheap to rebuild, and keeping them would double the memory
a coherence run holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .linalg import Mat, ShapeMismatch
from .report import CheckResult, CongruenceReport, SizeLimit
from .series import ContextMismatch

# size guards of verify_coherence
COHERENCE_MAX_OBJECTS = 5
COHERENCE_MAX_RANK = 3


def _cached(owner, key, build, *args):
    """owner's value for key, built by build(*args) on first use."""
    memo = owner._memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*args)
    return value


@dataclass(frozen=True, slots=True)
class GradedObj:
    ring: object
    basis0: tuple
    basis1: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        names = list(self.basis0) + list(self.basis1)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct across both degrees")

    @property
    def rank0(self):
        return len(self.basis0)

    @property
    def rank1(self):
        return len(self.basis1)

    def ranks(self):
        return (self.rank0, self.rank1)

    def __repr__(self):
        return f"GradedObj(rank {self.rank0}|{self.rank1})"


def unit_obj(ring):
    return GradedObj(ring, ("1",), ())


def omega_obj(ring):
    """The twisting object: a rank-1 free module with trivial self-interchange."""
    return GradedObj(ring, ("w",), ())


def omega_sqrt(ring):
    """The odd square root {0, k} of omega."""
    return GradedObj(ring, (), ("h",))


class SignedPerm:
    """An n x n signed permutation matrix over a ring.

    Column j has one nonzero entry, signs[j] (the integer 1 or -1), in row
    perm[j].  to_mat gives the dense matrix and to_json its entries.  Signs
    are compared in the ring, where -1 = 1 in characteristic 2.
    """

    __slots__ = ("ring", "perm", "signs")

    def __init__(self, ring, perm, signs=None):
        self.ring = ring
        self.perm = tuple(perm)
        self.signs = (1,) * len(self.perm) if signs is None else tuple(signs)

    @staticmethod
    def identity(ring, n):
        return SignedPerm(ring, range(n))

    @staticmethod
    def direct_sum(ring, blocks):
        perm, signs, offset = [], [], 0
        for b in blocks:
            perm.extend(offset + i for i in b.perm)
            signs.extend(b.signs)
            offset += len(b.perm)
        return SignedPerm(ring, perm, signs)

    @property
    def shape(self):
        return (len(self.perm), len(self.perm))

    def __matmul__(self, other):
        """self after other."""
        p, s = self.perm, self.signs
        return SignedPerm(self.ring, tuple(p[k] for k in other.perm),
                          tuple(s[k] * t for k, t in zip(other.perm, other.signs)))

    def kron(self, other):
        """Kronecker product, in the row-major block layout of Mat.kron."""
        n = len(other.perm)
        return SignedPerm(self.ring,
                          tuple(i * n + k for i in self.perm for k in other.perm),
                          tuple(s * t for s in self.signs for t in other.signs))

    def negate_entry(self, i, j):
        if self.perm[j] != i:
            return self  # entry (i, j) is zero
        signs = list(self.signs)
        signs[j] = -signs[j]
        return SignedPerm(self.ring, self.perm, signs)

    def __eq__(self, other):
        if not isinstance(other, SignedPerm):
            return NotImplemented
        if self.perm != other.perm:
            return False
        R = self.ring
        return self.signs == other.signs or R.eq(R.neg(R.one()), R.one())

    def to_mat(self):
        R = self.ring
        z, one = R.zero(), R.one()
        minus = R.neg(one)
        rows = [[z] * len(self.perm) for _ in self.perm]
        for j, (i, s) in enumerate(zip(self.perm, self.signs)):
            rows[i][j] = one if s > 0 else minus
        return Mat(R, rows)

    def to_json(self):
        return self.to_mat().to_json()

    def __repr__(self):
        return f"SignedPerm(perm={self.perm}, signs={self.signs})"


@dataclass(frozen=True, slots=True)
class GradedMap:
    """A degree-preserving map; m0 and m1 are its SignedPerm blocks."""

    source: GradedObj
    target: GradedObj
    m0: object
    m1: object

    def __post_init__(self):
        if (self.m0.shape != (self.target.rank0, self.source.rank0)
                or self.m1.shape != (self.target.rank1, self.source.rank1)):
            raise ShapeMismatch(f"blocks {self.m0.shape} and {self.m1.shape} "
                                f"do not map {self.source!r} to {self.target!r}")

    @staticmethod
    def identity(obj):
        return _cached(obj, "identity", _identity, obj)

    def compose(self, other):
        """self after other."""
        if other.target.ranks() != self.source.ranks():
            raise ShapeMismatch(f"a map from {self.source!r} cannot follow "
                                f"a map into {other.target!r}")
        return GradedMap(other.source, self.target, self.m0 @ other.m0,
                         self.m1 @ other.m1)

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self.m0 == other.m0 and self.m1 == other.m1

    def __hash__(self):
        raise TypeError("GradedMap is unhashable")


def _identity(obj):
    return GradedMap(obj, obj, SignedPerm.identity(obj.ring, obj.rank0),
                     SignedPerm.identity(obj.ring, obj.rank1))


def twisted_tensor(M, N):
    """The omega-twisted tensor object, with summand bookkeeping in the labels.

    Plain pairs are labeled ("t", a, b); the odd-odd block, which carries the
    omega factor, is labeled ("tw", a, b).
    """
    return _cached(M, ("tensor", N), _twisted_tensor, M, N)


def _twisted_tensor(M, N):
    if not M.ring.same_ring(N.ring):
        raise ContextMismatch("objects over different rings")
    b0 = tuple(("t", a, b) for a in M.basis0 for b in N.basis0) + \
        tuple(("tw", a, b) for a in M.basis1 for b in N.basis1)
    b1 = tuple(("t", a, b) for a in M.basis0 for b in N.basis1) + \
        tuple(("t", a, b) for a in M.basis1 for b in N.basis0)
    return GradedObj(M.ring, b0, b1)


def tensor_map(f, g):
    """f (x) g on twisted tensor objects, blockwise Kronecker products."""
    ring = f.source.ring
    src = twisted_tensor(f.source, g.source)
    tgt = twisted_tensor(f.target, g.target)
    m0 = SignedPerm.direct_sum(ring, [f.m0.kron(g.m0), f.m1.kron(g.m1)])
    m1 = SignedPerm.direct_sum(ring, [f.m0.kron(g.m1), f.m1.kron(g.m0)])
    return GradedMap(src, tgt, m0, m1)


def _signed_perm(ring, src_basis, tgt_basis, image, sign=None):
    """The signed permutation sending label l of src to image(l) in tgt."""
    idx = {lbl: i for i, lbl in enumerate(tgt_basis)}
    perm = [idx[image(lbl)] for lbl in src_basis]
    signs = None if sign is None else [sign(lbl) for lbl in src_basis]
    return SignedPerm(ring, perm, signs)


def interchange(M, N):
    """tau: M (x) N -> N (x) M; the odd-odd block picks up a -1."""
    return _cached(M, ("interchange", N), _interchange, M, N)


def _interchange(M, N):
    src = twisted_tensor(M, N)
    tgt = twisted_tensor(N, M)

    def image(lbl):
        kind, a, b = lbl
        return (kind, b, a)

    def sign0(lbl):
        return -1 if lbl[0] == "tw" else 1

    m0 = _signed_perm(M.ring, src.basis0, tgt.basis0, image, sign0)
    m1 = _signed_perm(M.ring, src.basis1, tgt.basis1, image)
    return GradedMap(src, tgt, m0, m1)


def associator(M, N, P):
    """alpha: (M (x) N) (x) P -> M (x) (N (x) P).

    A pure block permutation: atoms keep their order and only the omega
    factor is repositioned (via the untwisted interchange, which is sign-free
    because omega is symmetric).
    """
    return _cached(M, ("associator", N, P), _associator, M, N, P)


def _associator(M, N, P):
    src = twisted_tensor(twisted_tensor(M, N), P)
    tgt = twisted_tensor(M, twisted_tensor(N, P))
    odd_m, odd_n, odd_p = (frozenset(X.basis1) for X in (M, N, P))

    def image(lbl):
        _, (_, a, b), c = lbl
        b_odd, c_odd = b in odd_n, c in odd_p
        outer = "tw" if a in odd_m and b_odd != c_odd else "t"
        return (outer, a, ("tw" if b_odd and c_odd else "t", b, c))

    return GradedMap(src, tgt,
                     _signed_perm(M.ring, src.basis0, tgt.basis0, image),
                     _signed_perm(M.ring, src.basis1, tgt.basis1, image))


def left_unitor(M):
    """1 (x) M -> M."""
    return _cached(M, "left_unitor", _unitor, M, True)


def right_unitor(M):
    """M (x) 1 -> M."""
    return _cached(M, "right_unitor", _unitor, M, False)


def _unitor(M, left):
    unit = unit_obj(M.ring)
    src = twisted_tensor(unit, M) if left else twisted_tensor(M, unit)
    image = (lambda lbl: lbl[2]) if left else (lambda lbl: lbl[1])
    return GradedMap(src, M,
                     _signed_perm(M.ring, src.basis0, M.basis0, image),
                     _signed_perm(M.ring, src.basis1, M.basis1, image))


def _diagram_check(name, lhs, rhs):
    ok = lhs == rhs
    return CheckResult(name, ok, None if ok else
                       f"lhs0={lhs.m0.to_json()} rhs0={rhs.m0.to_json()} "
                       f"lhs1={lhs.m1.to_json()} rhs1={rhs.m1.to_json()}")


def coherence_checks(ring, objects, tau, monoidal=True):
    """Yield a CheckResult for every coherence diagram, in report order.

    The braided half (symmetry, hexagon, odd square) calls tau; the monoidal
    half (triangle, pentagon) never does and is skipped when monoidal is
    False.
    """
    if (len(objects) > COHERENCE_MAX_OBJECTS
            or any(max(o.ranks()) > COHERENCE_MAX_RANK for o in objects)):
        raise SizeLimit(f"at most {COHERENCE_MAX_OBJECTS} objects of rank "
                        f"<= {COHERENCE_MAX_RANK}")
    unit = unit_obj(ring)

    for i, (A, B) in enumerate(itertools.product(objects, repeat=2)):
        pair = tau(B, A).compose(tau(A, B))
        yield _diagram_check(f"symmetry[{i}]", pair,
                             GradedMap.identity(twisted_tensor(A, B)))
        if monoidal:
            tri_lhs = tensor_map(GradedMap.identity(A), left_unitor(B)).compose(
                associator(A, unit, B))
            tri_rhs = tensor_map(right_unitor(A), GradedMap.identity(B))
            yield _diagram_check(f"triangle[{i}]", tri_lhs, tri_rhs)

    for i, (A, B, C) in enumerate(itertools.product(objects, repeat=3)):
        lhs = associator(B, C, A).compose(tau(A, twisted_tensor(B, C))).compose(
            associator(A, B, C))
        rhs = tensor_map(GradedMap.identity(B), tau(A, C)).compose(
            associator(B, A, C)).compose(
            tensor_map(tau(A, B), GradedMap.identity(C)))
        yield _diagram_check(f"hexagon[{i}]", lhs, rhs)

    if monoidal:
        for i, (A, B, C, D) in enumerate(itertools.product(objects, repeat=4)):
            lhs = associator(A, B, twisted_tensor(C, D)).compose(
                associator(twisted_tensor(A, B), C, D))
            rhs = tensor_map(GradedMap.identity(A), associator(B, C, D)).compose(
                associator(A, twisted_tensor(B, C), D)).compose(
                tensor_map(associator(A, B, C), GradedMap.identity(D)))
            yield _diagram_check(f"pentagon[{i}]", lhs, rhs)

    for i, X in enumerate(objects):
        if X.ranks() == (0, 1):
            t = tau(X, X)
            yield _diagram_check(
                f"odd_square_sign[{i}]", t,
                GradedMap(t.source, t.target, SignedPerm(ring, (0,), (-1,)),
                          SignedPerm.identity(ring, 0)))


def verify_coherence(ring, objects, interchange_fn=None):
    """Pentagon, unit triangle, symmetry involution, hexagon and odd-sign checks.

    The report of coherence_checks: diagrams are compared as exact signed
    permutations, and each failing one is recorded with both composites.
    interchange_fn injects faults; only the braided half calls it.
    """
    # drawn here, not in from_checks, so a profile charges the checks to this module
    return CongruenceReport.from_checks(
        list(coherence_checks(ring, objects, interchange_fn or interchange)),
        meta={"objects": len(objects)})


def flip_sign(gmap, degree, i, j):
    """Return gmap with entry (i, j) of the chosen degree negated (fault injection)."""
    blocks = {0: gmap.m0, 1: gmap.m1}
    blocks[degree] = blocks[degree].negate_entry(i, j)
    return GradedMap(gmap.source, gmap.target, blocks[0], blocks[1])
