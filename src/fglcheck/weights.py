"""Weight decomposition arithmetic: the critical-weight case split.

For a weight m >= 2 the subgroup indices behind the regularity proof are
binomial (m coprime to p) or wreath-product (p | m, m != p) indices, both
prime to p; their valuations are computed by two independent methods (digit
carries and factorial valuations) that must agree.  Epimorphic families of
module maps over a local ring are decided on the residue field, and a
T-algebra structure is pushed onto a submodule by the inductive factoring
through delta- and mu-images, weight p being the one genuine hypothesis.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

from .exact_arith import IdentityFailed
from .linalg import (Mat, ShapeMismatch, field_left_kernel_vector, residue_rank,
                     solve_matrix)
from .report import CheckResult, CongruenceReport
from .series import sparse_mul


class NotLocal(ValueError):
    """Epimorphic-family decision needs a declared maximal ideal."""


class InvariantViolation(ValueError):
    """A weight-decomposition diagram the input data was required to satisfy fails."""

    def __init__(self, diagram, detail=""):
        super().__init__(f"diagram {diagram!r} does not commute {detail}")
        self.diagram = diagram


def binomial_gcd(m):
    """gcd of C(m, i) for 0 < i < m: p when m is a prime power p^k, else 1."""
    if m < 2:
        raise ValueError(f"binomial gcd needs m >= 2, got m={m}")
    g, c = 0, 1
    for i in range(1, m // 2 + 1):  # a row of Pascal's triangle to its middle
        c = c * (m - i + 1) // i
        g = math.gcd(g, c)
        if g == 1:
            break
    base = _prime_power_base(m)
    expected = base if base is not None else 1
    if g != expected:
        raise IdentityFailed(f"binomial gcd lemma violated at m={m}")
    return g


def _prime_power_base(m):
    """p when m = p^k with k >= 1, else None."""
    for q in range(2, m + 1):
        if q * q > m:
            break
        if m % q == 0:
            n = m
            while n % q == 0:
                n //= q
            return q if n == 1 else None
    return m if m > 1 else None


def digit_sum(n, p):
    if p < 2:
        raise ValueError(f"digit base p={p} must be >= 2")
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def legendre_valuation(n, p):
    """v_p(n!) by summing floor(n / p^j)."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def kummer_carries(parts, p):
    """v_p of the multinomial (sum parts)! / prod(parts!) via digit sums."""
    total = sum(parts)
    return (sum(digit_sum(a, p) for a in parts) - digit_sum(total, p)) // (p - 1)


@dataclass(frozen=True)
class RegularityCertificate:
    m: int
    p: int
    tag: str                 # Critical | TrivialWeight | CoprimeCase | DivisibleCase
    r: int = None            # CoprimeCase: largest r with p^r < m
    d: int = None            # DivisibleCase: m / p
    index: int = None        # subgroup index witnessing regularity
    valuation: int = None    # p-valuation of the index (0 in regular cases)


def regularity_certificate(m, p):
    """Case split for weight m at the prime p, with the index valuation
    computed both by carry counting and by factorial valuations."""
    if m < 0:
        raise ValueError(f"weight m={m} must be >= 0")
    if p < 2:
        raise ValueError(f"p={p} must be >= 2")
    if m in (0, 1):
        return RegularityCertificate(m=m, p=p, tag="TrivialWeight")
    if m == p:
        return RegularityCertificate(m=m, p=p, tag="Critical")
    if m % p != 0:
        r = 0
        while p ** (r + 1) < m:
            r += 1
        j = min(p ** r, m - p ** r)  # C(m, j) >= (m/j)^j
        index = _printable_index(m, p, j, math.log10(m) - math.log10(j),
                                 lambda: math.comb(m, p ** r))
        v1 = kummer_carries((p ** r, m - p ** r), p)
        v2 = (legendre_valuation(m, p) - legendre_valuation(p ** r, p)
              - legendre_valuation(m - p ** r, p))
        _check_valuations(v1, v2, m, p, "coprime")
        return RegularityCertificate(m=m, p=p, tag="CoprimeCase", r=r,
                                     index=index, valuation=v1)
    # p | m, m != p: the stabilizer of a partition into d = m/p blocks of
    # size p contains a p-Sylow subgroup, so its index is prime to p
    d = m // p
    # m! / (p!^d d!) is the product of C(ip - 1, p - 1) >= 2^(p - 1) over 2 <= i <= d
    index = _printable_index(m, p, (d - 1) * (p - 1), math.log10(2),
                             lambda: math.factorial(m) // (math.factorial(p) ** d
                                                           * math.factorial(d)))
    v1 = kummer_carries((p,) * d, p) - legendre_valuation(d, p)
    v2 = (legendre_valuation(m, p) - d * legendre_valuation(p, p)
          - legendre_valuation(d, p))
    _check_valuations(v1, v2, m, p, "divisible")
    return RegularityCertificate(m=m, p=p, tag="DivisibleCase", d=d,
                                 index=index, valuation=v1)


def _printable_index(m, p, count, log10_base, exact):
    """exact(), the index the certificate prints, refused with a ValueError when
    it has more decimal digits than sys.get_int_max_str_digits().

    The index is at least base^count, so a count past limit / log10(base) is
    refused before exact() runs; an index that passes has at most about
    limit + 0.44 count digits, with count below limit / log10(2), and is cheap.
    Below 2^(3 limit) < 10^limit it is printable without building 10^limit."""
    limit = sys.get_int_max_str_digits()
    index = None if limit and count > limit / log10_base else exact()
    if limit and (index is None or (index.bit_length() > 3 * limit
                                    and index >= 10 ** limit)):
        raise ValueError(f"weight m={m}: the index at p={p} has over {limit} "
                         f"decimal digits")
    return index


def _check_valuations(v1, v2, m, p, case):
    if v1 != v2:
        raise IdentityFailed(f"valuation methods disagree at m={m}, p={p}")
    if v1 != 0:
        raise IdentityFailed(f"{case}-case index is divisible by p at m={m}")


# ---------------------------------------------------------------------------
# epimorphic families


@dataclass
class EpiFamily:
    """Maps into a common finite free target over a (declared) local ring."""

    ring: object
    target_rank: int
    maps: list  # of Mat with target_rank rows

    def __post_init__(self):
        for m in self.maps:
            if m.nrows != self.target_rank:
                raise ShapeMismatch(f"a map with {m.nrows} rows into a target of "
                                    f"rank {self.target_rank}")


@dataclass
class EpiReport:
    surjective: bool
    residue_rank: int
    witness_functional: tuple = None  # nonzero functional killing the image

    def to_json(self):
        out = {"surjective": self.surjective, "residue_rank": self.residue_rank}
        if self.witness_functional is not None:
            out["witness"] = [str(c) for c in self.witness_functional]
        return out


def epi_family_check(family):
    """Joint surjectivity over a local ring, decided on the residue field.

    By Nakayama the maps are jointly surjective iff the stacked matrix has
    full row rank over the residue field; when it does not, a nonzero
    functional vanishing on the image is returned.
    """
    R = family.ring
    if not R.is_local():
        raise NotLocal(f"{R!r} does not declare a maximal ideal")
    if not family.maps:
        stacked = Mat.zeros(R, family.target_rank, 0)
    else:
        stacked = family.maps[0]
        for m in family.maps[1:]:
            stacked = stacked.hstack(m)
    if family.target_rank == 0:
        return EpiReport(surjective=True, residue_rank=0)
    rank = residue_rank(stacked)
    if rank == family.target_rank:
        return EpiReport(surjective=True, residue_rank=rank)
    k = R.residue_ring()
    red = stacked.map(R.residue, ring=k)
    wit = field_left_kernel_vector(red)
    return EpiReport(surjective=False, residue_rank=rank, witness_functional=wit)


def brute_force_surjective(family):
    """Oracle: enumerate the image subgroup in the full finite module.

    R = W(F_q) at finite precision is generated as a group by 1, t, ...,
    t^(f-1), so the R-span of the columns g is the additive closure of the
    vectors t^i g.  These are multiplied out once; the enumeration only adds.
    """
    R = family.ring
    n = family.target_rank
    zero = tuple(R.zero() for _ in range(n))
    tpows = [R.pow(R.gen(), i) for i in range(R.f)]
    gens = [tuple(R.mul(s, y) for y in m.col(j))
            for m in family.maps for j in range(m.ncols) for s in tpows]
    span = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = tuple(R.add(x, y) for x, y in zip(v, g))
                if w not in span:
                    span.add(w)
                    new.append(w)
        frontier = new
    return len(span) == R.size() ** n


# ---------------------------------------------------------------------------
# symmetric-power functor data and structure inheritance


def _monomials(n, k):
    """Sorted exponent-multiset monomials of degree k over n letters."""
    return list(itertools.combinations_with_replacement(range(n), k))


def sym_rank(n, k):
    return math.comb(n + k - 1, k) if n > 0 else (1 if k == 0 else 0)


def sym_matrix(ring, k, A):
    """Sym^k of a linear map A, on the sorted monomial bases: column m is the
    product of the images of m's letters, polynomials in the target letters."""
    n = A.nrows
    tgt = {m: i for i, m in enumerate(_monomials(n, k))}
    images = [{tuple(int(r == i) for r in range(n)): a
               for i, a in enumerate(A.col(j)) if not ring.is_zero(a)} for j in range(A.ncols)]
    src = _monomials(A.ncols, k)
    rows = [[ring.zero()] * len(src) for _ in tgt]
    for j, mono in enumerate(src):
        poly = {(0,) * n: ring.one()}
        for letter in mono:
            poly = sparse_mul(ring, poly, images[letter])
        for e, c in poly.items():  # e as its sorted monomial
            rows[tgt[tuple(i for i, d in enumerate(e) for _ in range(d))]][j] = c
    return Mat(ring, rows)


def delta_matrix(ring, n, i, j):
    """Sym^i (x) Sym^j -> Sym^{i+j}: monomial concatenation."""
    src_i, src_j = _monomials(n, i), _monomials(n, j)
    tgt = _monomials(n, i + j)
    tgt_index = {m: r for r, m in enumerate(tgt)}
    rows = [[ring.zero()] * (len(src_i) * len(src_j)) for _ in tgt]
    col = 0
    for a in src_i:
        for b in src_j:
            rows[tgt_index[tuple(sorted(a + b))]][col] = ring.one()
            col += 1
    return Mat(ring, rows)


def mu_matrix(ring, n, d, e):
    """Sym^d(Sym^e(M)) -> Sym^{de}(M): flatten nested monomials."""
    inner = _monomials(n, e)
    src = _monomials(len(inner), d)
    tgt = _monomials(n, d * e)
    tgt_index = {m: r for r, m in enumerate(tgt)}
    rows = [[ring.zero()] * len(src) for _ in tgt]
    for c, mono in enumerate(src):
        flat = tuple(sorted(sum((inner[idx] for idx in mono), ())))
        rows[tgt_index[flat]][c] = ring.one()
    return Mat(ring, rows)


@dataclass
class WeightedMonadData:
    """Sym-weighted monad data for a commutative algebra structure on M.

    psi[k] : Sym^k(M) -> M are the iterated products; the submodule N is the
    column span of incl.  The delta and mu components are the canonical ones
    for the symmetric-power weight decomposition.
    """

    ring: object
    m_rank: int
    unit: tuple     # coordinates of the algebra unit in M
    product: Mat    # M (x) M -> M
    bound: int
    incl: Mat = None  # N -> M
    psi: dict = field(default_factory=dict)

    def __post_init__(self):
        R, n = self.ring, self.m_rank
        if not self.psi:
            self.psi[0] = Mat(R, [[c] for c in self.unit])
            self.psi[1] = Mat.identity(R, n)
            for k in range(2, self.bound + 1):
                prev = self.psi[k - 1]
                # multiply the first k-1 letters, then fold in the last
                heads = {h: j for j, h in enumerate(_monomials(n, k - 1))}
                src = _monomials(n, k)
                cols = []
                for mono in src:
                    vec = [R.zero()] * (n * n)
                    for i, c in enumerate(prev.col(heads[mono[:-1]])):
                        vec[i * n + mono[-1]] = c
                    cols.append(self.product.apply(tuple(vec)))
                self.psi[k] = Mat(R, [[cols[j][i] for j in range(len(src))]
                                      for i in range(n)])

    def verify_diagrams(self):
        """The delta and mu compatibilities of the weight decomposition."""
        R, n = self.ring, self.m_rank
        checks = []
        unit_ok = self.psi[0] == Mat(R, [[c] for c in self.unit])
        checks.append(CheckResult("iota_weight_0", unit_ok))
        checks.append(CheckResult("eta_weight_1",
                                  self.psi[1] == Mat.identity(R, n)))
        for i in range(self.bound + 1):
            for j in range(self.bound + 1 - i):
                lhs = self.psi[i + j] @ delta_matrix(R, n, i, j)
                rhs = self.product @ self.psi[i].kron(self.psi[j])
                ok = lhs == rhs
                checks.append(CheckResult(f"delta_compat[{i},{j}]", ok))
                if not ok:
                    raise InvariantViolation(f"delta[{i},{j}]")
        for d in range(2, self.bound + 1):
            for e in range(2, self.bound + 1):
                if d * e > self.bound:
                    continue
                lhs = self.psi[d * e] @ mu_matrix(R, n, d, e)
                rhs = self.psi[d] @ sym_matrix(R, d, self.psi[e])
                ok = lhs == rhs
                checks.append(CheckResult(f"mu_compat[{d},{e}]", ok))
                if not ok:
                    raise InvariantViolation(f"mu[{d},{e}]")
        return CongruenceReport.from_checks(checks)


@dataclass
class InheritResult:
    ok: bool
    psi_n: dict = None
    offending_weight: int = None
    offending_element: str = None
    report: CongruenceReport = None


def inherit_structure(data, p):
    """Induce the algebra structure on N when psi(T_p(N)) lands in N.

    Follows the critical-weight induction: weights 0 and 1 factor through the
    unit and the identity, weight p is the hypothesis (solved exactly; its
    failure returns the offending element), and every other weight is
    reconstructed from lower ones through the delta- and mu-prescriptions,
    then certified against the ambient structure.
    """
    R = data.ring
    data.verify_diagrams()
    incl = data.incl
    n_N = incl.ncols

    if n_N == 0:
        # the zero submodule carries the zero structure in positive weights
        # (weight 0, the constant unit part, has nothing to factor through)
        psi_n = {k: Mat.zeros(R, 0, sym_rank(0, k))
                 for k in range(data.bound + 1)}
        checks = [CheckResult(f"certified[{m}]",
                              (data.psi[m] @ sym_matrix(R, m, incl)).ncols == 0)
                  for m in range(1, data.bound + 1)]
        return InheritResult(ok=True, psi_n=psi_n,
                             report=CongruenceReport.from_checks(checks))

    # weight p hypothesis first: psi_p(Sym^p(incl)) must factor through incl
    target_p = data.psi[p] @ sym_matrix(R, p, incl)
    X_p = solve_matrix(incl, target_p)
    if X_p is None:
        for j, mono in enumerate(_monomials(n_N, p)):
            col = Mat(R, [[c] for c in target_p.col(j)])
            if solve_matrix(incl, col) is None:
                label = "*".join(f"n{i}" for i in mono)
                return InheritResult(ok=False, offending_weight=p,
                                     offending_element=label)
        return InheritResult(ok=False, offending_weight=p,
                             offending_element="(unlocatable)")

    # subobject conditions: the unit lies in N and N is closed under the
    # product (at p = 2 closure already follows from the hypothesis)
    unit_in = solve_matrix(incl, Mat(R, [[c] for c in data.unit]))
    if unit_in is None:
        raise InvariantViolation("iota_weight_0", "(unit of M is not in N)")
    prod_N = solve_matrix(incl, data.product @ incl.kron(incl))
    if prod_N is None:
        raise InvariantViolation("delta_compat[1,1]",
                                 "(N is not closed under the product)")

    psi_n = {0: Mat(R, [[c] for c in unit_in.col(0)]),
             1: Mat.identity(R, n_N)}
    for m in range(2, data.bound + 1):
        if m == p:
            psi_n[m] = X_p
            continue
        # prescriptions from delta (all 0 < i < m) and mu (divisors 1 < d < m)
        blocks = []
        rhs_blocks = []
        for i in range(1, m):
            blocks.append(delta_matrix(R, n_N, i, m - i))
            rhs_blocks.append(prod_N @ psi_n[i].kron(psi_n[m - i]))
        for d in range(2, m):
            if m % d:
                continue
            e = m // d
            blocks.append(mu_matrix(R, n_N, d, e))
            rhs_blocks.append(psi_n[d] @ sym_matrix(R, d, psi_n[e]))
        S = blocks[0]
        T = rhs_blocks[0]
        for b, rb in zip(blocks[1:], rhs_blocks[1:]):
            S = S.hstack(b)
            T = T.hstack(rb)
        # X @ S = T, i.e. S^T X^T = T^T
        Xt = solve_matrix(S.transpose(), T.transpose())
        if Xt is None:
            raise InvariantViolation(f"regular_weight[{m}]",
                                     "(factoring prescription inconsistent)")
        psi_n[m] = Xt.transpose()

    checks = []
    for m in range(data.bound + 1):
        lhs = incl @ psi_n[m]
        rhs = data.psi[m] @ sym_matrix(R, m, incl)
        checks.append(CheckResult(f"certified[{m}]", lhs == rhs,
                                  None if lhs == rhs else
                                  f"{lhs.to_json()} vs {rhs.to_json()}"))
    rep = CongruenceReport.from_checks(checks)
    if not rep.verdict:
        raise InvariantViolation("certification", str(rep.witnesses))
    return InheritResult(ok=True, psi_n=psi_n, report=rep)
