"""Twisted cocommutative bialgebras presented by structure constants.

The coefficient ring R sits in Gamma through eta with a non-central image, so
every graded piece Gamma[k] is stored as a free *right* R-module together with
the matrix L_t of left multiplication by the ring generator.  A scalar
r = sum_i c_i t^i crosses an element g as eta(r) g = sum_i c_i L_t^i g
(left_mul), one sum for the product, eta, the counit, t* and the c* check;
all axiom checks below are exact identities between coordinate vectors.

Tensor squares Gamma[k] (x)_R Gamma[k] are written in the canonical form
sum (gamma_u (x) gamma_v) . c_uv with all scalars pushed onto the right leg,
which is a free basis presentation, so equality is matrix equality.

Every finite commutative algebra here is a linalg.FiniteAlgebra on coordinate
tuples: a Gamma-algebra is one with an action matrix per basis operation of
Gamma, and the dual algebras A[k] of the category scheme and the coefficient
ring as a W-algebra are the presentations whose points are enumerated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .exact_arith import (IdentityFailed, MalformedData, WittCoefRing, _fp_irreducible,
                          json_names, json_typed, json_vec, ring_from_descriptor)
from .linalg import FiniteAlgebra, Mat, smith_normal_form, solve, unit_vector
from .report import CheckResult, CongruenceReport, SizeLimit

# enumeration guards of points_category and ring_maps
POINTS_MAX_RING_SIZE = 16
POINTS_MAX_RANK = 4
RING_MAPS_LIMIT = 200000


class IncompleteData(ValueError):
    """A structure constant needed for a check is missing."""


class IncompleteAction(ValueError):
    """Module action not available at the requested weight."""


@dataclass
class TwistedBialgebra:
    ring: WittCoefRing
    kmax: int
    basis: dict            # weight -> tuple of basis names
    unit: tuple            # coordinates of 1 in basis[0]
    mu: dict               # (k, l) -> {(i, j): coord vector in basis[k+l]}
    eps: dict              # weight -> tuple of values in R
    delta: dict            # weight -> {a: Mat of c_uv over R}
    left_t: dict = None    # weight -> Mat of left multiplication by t (f >= 2)
    # weight -> (the left_t[k] they came from, [1, L_t, ..., L_t^(f-1)])
    _left_powers: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def rank(self, k):
        try:
            return len(self.basis[k])
        except KeyError:
            raise IncompleteData(f"no basis stored for weight {k}")

    def left_powers(self, k):
        """[1, L_t, ..., L_t^(f-1)] on Gamma[k], L_t the left multiplication by t.

        Without stored left actions R is central and L_t is t times the
        identity.  The powers are computed once per weight and kept with the
        left_t[k] matrix they came from, so replacing that matrix (as the
        mutation checks do on a copy) computes them afresh.
        """
        R = self.ring
        n = self.rank(k)
        Lt = None
        if R.f > 1 and self.left_t is not None:
            if k not in self.left_t:
                raise IncompleteData(f"no left action stored for weight {k}")
            Lt = self.left_t[k]
        cached = self._left_powers.get(k)
        if cached is not None and cached[0] is Lt:
            return cached[1]
        step = Mat.identity(R, n).scale(R.gen()) if Lt is None else Lt
        powers = [Mat.identity(R, n)]
        for _ in range(R.f - 1):
            powers.append(powers[-1] @ step)
        self._left_powers[k] = (Lt, powers)
        return powers

    def left_mul(self, k, r, g):
        """eta(r) g = sum_i c_i L_t^i g for r = sum_i c_i t^i in R, g in Gamma[k]."""
        return _left_sum(self.ring, r, [P.apply(g) for P in self.left_powers(k)])

    def eta(self, r):
        """Coordinates of eta(r) in Gamma[0]."""
        return self.left_mul(0, r, self.unit)

    def basis_vec(self, k, a, c=None):
        """The a-th basis vector of Gamma[k], times c when given."""
        R = self.ring
        out = [R.zero()] * self.rank(k)
        out[a] = R.one() if c is None else c
        return tuple(out)

    def mul_elems(self, k, x, l, y):
        """Product Gamma[k] x Gamma[l] -> Gamma[k+l] on coordinate vectors."""
        if (k, l) not in self.mu:
            raise IncompleteData(f"no mu constants for weights ({k},{l})")
        consts = self.mu[(k, l)]
        return twisted_sum(self, l, y, x, self.rank(k + l),
                           lambda i, j: consts[(i, j)])

    def eps_elem(self, k, x):
        R = self.ring
        acc = R.zero()
        for v, c in zip(self.eps[k], x):
            acc = R.add(acc, R.mul(v, c))
        return acc

    def delta_elem(self, k, x):
        """Delta(x) as the canonical coefficient matrix c_uv."""
        R = self.ring
        n = self.rank(k)
        out = Mat.zeros(R, n, n)
        for a, c in enumerate(x):
            if not R.is_zero(c):
                out = out + self.delta[k][a].scale(c)
        return out

    def tensor_mul(self, k, S, l, T):
        """Product of tensor-square elements, legwise, in canonical form."""
        R = self.ring
        n = self.rank(k + l)
        rows = [[R.zero()] * n for _ in range(n)]
        for u, row in enumerate(S.rows):
            if all(map(R.is_zero, row)):
                continue
            firsts = [self.mul_elems(k, self.basis_vec(k, u), l, self.basis_vec(l, w))
                      for w in range(self.rank(l))]  # mu(gamma_u gamma_w), for every v
            for v, s in enumerate(row):
                if R.is_zero(s):
                    continue
                xsecond = self.basis_vec(k, v, s)
                for w, first in enumerate(firsts):
                    for z in range(self.rank(l)):
                        t = T.rows[w][z]
                        if R.is_zero(t):
                            continue
                        second = self.mul_elems(k, xsecond, l, self.basis_vec(l, z, t))
                        for a, ca in enumerate(first):
                            if R.is_zero(ca):
                                continue
                            for b, cb in enumerate(second):
                                if not R.is_zero(cb):
                                    rows[a][b] = R.add(rows[a][b], R.mul(cb, ca))
        return Mat(R, rows)

    def counit_left(self, k, D):
        """(eps (x) id) applied to a canonical tensor matrix; lands in Gamma[k].

        sum_uv eta(eps(gamma_u)) gamma_v c_uv = sum_u eta(eps_u) (row u of D).
        """
        R = self.ring
        rows = [self.left_mul(k, e, row) for e, row in zip(self.eps[k], D.rows)]
        return tuple(functools.reduce(R.add, col, R.zero()) for col in zip(*rows))

    def counit_right(self, k, D):
        """(id (x) eps) applied to a canonical tensor matrix."""
        return D.apply(self.eps[k])

    def ring_generators(self):
        R = self.ring
        return [R.gen()] if R.f > 1 else []

    def to_json(self):
        R = self.ring
        enc = R.encode
        return {
            "ring": R.descriptor(),
            "kmax": self.kmax,
            "basis": {str(k): list(v) for k, v in self.basis.items()},
            "unit": [enc(c) for c in self.unit],
            "mu": {f"{k},{l}": {f"{i},{j}": [enc(c) for c in vec]
                                for (i, j), vec in tbl.items()}
                   for (k, l), tbl in self.mu.items()},
            "eps": {str(k): [enc(c) for c in v] for k, v in self.eps.items()},
            "delta": {str(k): {str(a): m.to_json() for a, m in tbl.items()}
                      for k, tbl in self.delta.items()},
            "left_t": ({str(k): m.to_json() for k, m in self.left_t.items()}
                       if self.left_t else None),
        }

    @staticmethod
    def from_json(data):
        json_typed(data, dict, "a bialgebra")
        R = ring_from_descriptor(data["ring"])

        def table(name, tbl, width=1):
            """(key, entry name, value) per entry; each key is width integers >= 0, as
            "k,l", and no two keys name the same integers."""
            seen = {}
            for key, v in json_typed(tbl, dict, f"bialgebra {name}").items():
                try:
                    ints = tuple(int(s) for s in key.split(","))
                except ValueError:
                    ints = ()
                if len(ints) != width or min(ints) < 0:
                    raise MalformedData(f"{name} has the key {key!r}, which is not "
                                        f"{('an integer', 'two integers')[width - 1]} >= 0")
                if ints in seen:
                    raise MalformedData(f"{name} has the keys {seen[ints]!r} and {key!r}, "
                                        f"which name the same entry")
                seen[ints] = key
                yield ints if width > 1 else ints[0], f"{name}[{key}]", v

        out = TwistedBialgebra(
            ring=R, kmax=json_typed(data["kmax"], int, "bialgebra kmax"),
            basis={k: json_names(v, what) for k, what, v in table("basis", data["basis"])},
            unit=json_vec(R, data["unit"], "bialgebra unit"),
            mu={kl: {ij: json_vec(R, v, w) for ij, w, v in table(what, tbl, 2)}
                for kl, what, tbl in table("mu", data["mu"], 2)},
            eps={k: json_vec(R, v, what) for k, what, v in table("eps", data["eps"])},
            delta={k: {a: Mat.from_json(R, rows, w) for a, w, rows in table(what, tbl)}
                   for k, what, tbl in table("delta", data["delta"])},
            left_t=({k: Mat.from_json(R, rows, what)
                     for k, what, rows in table("left_t", data["left_t"])}
                    if data.get("left_t") else None),
        )
        out.check_weights()
        return out

    def check_weights(self):
        """Every weight up to kmax needs a basis, eps and Delta."""
        for k in range(self.kmax + 1):
            if k not in self.basis or k not in self.eps or k not in self.delta:
                raise IncompleteData(f"weight {k} missing from bialgebra data")


def twisted_sum(G, k, g, vec, n, column):
    """sum_i sum_j (eta(vec_i) g)_j column(i, j), a vector of length n.

    g is a weight-k element; the scalar vec_i crosses it through the left
    action on Gamma[k].  This is the one bilinear loop behind the product of
    Gamma and its action on Gamma-algebras.
    """
    R = G.ring
    out = [R.zero()] * n
    moved = None  # L_t^i g for i < f, computed at the first nonzero scalar
    for i, c in enumerate(vec):
        if R.is_zero(c):
            continue
        if moved is None:
            moved = [P.apply(g) for P in G.left_powers(k)]
        for j, w in enumerate(_left_sum(R, c, moved)):
            if R.is_zero(w):
                continue
            col = column(i, j)
            for r in range(n):
                out[r] = R.add(out[r], R.mul(w, col[r]))
    return tuple(out)


def _left_sum(R, r, moved):
    """sum_i c_i moved[i] for r = sum_i c_i t^i, each integer c_i through R.scalar;
    with moved[i] = L_t^i g this is eta(r) g."""
    terms = [(c, v) for c, v in zip(r.coeffs, moved) if c]
    out = []
    for j in range(len(moved[0])):
        w = R.zero()
        for c, v in terms:
            w = R.add(w, R.scalar(c, v[j]))
        out.append(w)
    return tuple(out)


def height1_gamma(p, N, f, kmax, ext=None):
    """The height-1 bialgebra W<psi> / (psi a = a^sigma psi), weight-truncated.

    Gamma[k] is free of rank 1 on psi^k; eps(psi^k) = 1 and
    Delta(psi^k) = psi^k (x) psi^k.  Left multiplication by a in W on psi^k is
    right multiplication by sigma^k(a); the sign of the twist exponent is
    fixed so that the canonical module structure on W reduces to the p-th
    power map mod p, as the dual category scheme requires.
    """
    if f < 1 or kmax < 0:
        raise ValueError(f"height-1 bialgebra needs f >= 1 and kmax >= 0, "
                         f"got f={f}, kmax={kmax}")
    if ext is None and f > 1:
        ext = find_irreducible(p, f)
    W = WittCoefRing(p, N, ext)
    basis = {k: (f"psi^{k}" if k else "1",) for k in range(kmax + 1)}
    mu = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            mu[(k, l)] = {(0, 0): (W.one(),)}
    eps = {k: (W.one(),) for k in range(kmax + 1)}
    delta = {k: {0: Mat(W, [[W.one()]])} for k in range(kmax + 1)}
    left_t = None
    if W.f > 1:
        t = W.gen()
        left_t = {k: Mat(W, [[W.frobenius(t, k)]]) for k in range(kmax + 1)}
    return TwistedBialgebra(ring=W, kmax=kmax, basis=basis, unit=(W.one(),),
                            mu=mu, eps=eps, delta=delta, left_t=left_t)


def find_irreducible(p, f):
    """Smallest monic irreducible of degree f over F_p, constant term slowest;
    at f > 1 a constant term 0 means the factor t, so the search starts at 1."""
    for tail in itertools.product(range(f > 1, p), *[range(p)] * (f - 1)):
        poly = list(tail) + [1]
        if _fp_irreducible(poly, p):
            return poly
    raise ValueError(f"no irreducible polynomial of degree {f} over F_{p}")


def verify_bialgebra(gamma):
    """Check the bialgebra axioms on all stored weights; witnesses on failure.

    Covers: associativity and unitality of mu (including eta-inserted triples,
    which pin down the left-action twist), eta multiplicative, the counit
    rules for eps, coassociativity / cocommutativity / counit / grading of
    Delta, and multiplicativity of Delta against mu.  Structure constants
    whose shapes do not match the ranks of their weights fail
    grading_structural, and then nothing else is checked.  This is the report
    of bialgebra_checks, which a verdict-only caller reads to its first failure.
    """
    # drawn here, not in from_checks, so a profile charges the checks to this module
    return CongruenceReport.from_checks(list(bialgebra_checks(gamma)),
                                        meta={"kmax": gamma.kmax})


def _check(name, ok, witness):
    """The CheckResult; witness() formats the witness, only when the check fails."""
    return CheckResult(name=name, passed=ok, witness=None if ok else witness())


def bialgebra_checks(G, touched=None):
    """Yield the CheckResults of verify_bialgebra in report order.

    touched, when given, names the one table in which G differs from a
    bialgebra whose full run passed: ("mu", k, l), ("eps", k), ("delta", k) or
    ("left_t", k).  Only the checks that read that table are then yielded,
    with grading_structural, which reads every shape.  A check is a function
    of the tables it reads, so every skipped check passes as it did in the
    full run (weak mutation; Howden, IEEE TSE SE-8(4), 1982).  The read sets
    follow from the weight indices: mul_elems(k, x, l, y) reads mu[k,l] and
    left_t[l], eta reads left_t[0], eps_elem(k) and counit_right(k) read
    eps[k], counit_left(k) reads eps[k] and left_t[k], and delta_elem(k) and
    _delta_leg(k) read delta[k].
    """
    R = G.ring
    kmax = G.kmax
    G.check_weights()
    bad = _grading_violation(G)
    if bad is not None:
        yield CheckResult("grading_structural", False, bad)
        return

    def reads(*tables):
        return touched is None or touched in tables

    def mul(k, l):
        return ("mu", k, l), ("left_t", l)

    eta = ("left_t", 0)

    # mu unital
    for k in range(kmax + 1):
        for a in range(G.rank(k)):
            if not reads(*mul(0, k), *mul(k, 0)):
                continue
            v = G.basis_vec(k, a)
            left = G.mul_elems(0, G.unit, k, v)
            right = G.mul_elems(k, v, 0, G.unit)
            yield _check(f"mu_unital[{k},{a}]",
                         left == v and right == v,
                         lambda: f"1*g={left} g*1={right} g={v}")

    # mu associative on basis triples
    for k, l, m in _weight_triples(kmax):
        if not reads(*mul(k, l), *mul(k + l, m), *mul(l, m), *mul(k, l + m)):
            continue
        for a, b, c in itertools.product(range(G.rank(k)), range(G.rank(l)),
                                         range(G.rank(m))):
            x, y, z = G.basis_vec(k, a), G.basis_vec(l, b), G.basis_vec(m, c)
            lhs = G.mul_elems(k + l, G.mul_elems(k, x, l, y), m, z)
            rhs = G.mul_elems(k, x, l + m, G.mul_elems(l, y, m, z))
            yield _check(f"mu_assoc[{k},{l},{m};{a},{b},{c}]", lhs == rhs,
                         lambda: f"(xy)z={lhs} x(yz)={rhs}")

    # associativity with an eta-element inserted on the left:
    # (eta(r) g) h = eta(r) (g h) ties the left-action matrices across weights
    for r in G.ring_generators() or [R.one()]:
        er = G.eta(r)
        for k in range(kmax + 1):
            for l in range(kmax + 1 - k):
                if not reads(eta, *mul(0, k), *mul(k, l), *mul(0, k + l)):
                    continue
                for a, b in itertools.product(range(G.rank(k)), range(G.rank(l))):
                    x, y = G.basis_vec(k, a), G.basis_vec(l, b)
                    lhs = G.mul_elems(k, G.mul_elems(0, er, k, x), l, y)
                    rhs = G.mul_elems(0, er, k + l, G.mul_elems(k, x, l, y))
                    yield _check(f"mu_assoc_eta[{r!r};{k},{l};{a},{b}]",
                                 lhs == rhs, lambda: f"lhs={lhs} rhs={rhs}")

    # eta is a ring homomorphism
    gens = G.ring_generators()
    if reads(eta, *mul(0, 0)):
        for r, s in itertools.product(gens + [R.one()], repeat=2):
            lhs = G.mul_elems(0, G.eta(r), 0, G.eta(s))
            rhs = G.eta(R.mul(r, s))
            yield _check(f"eta_mult[{r!r},{s!r}]", lhs == rhs,
                         lambda: f"eta(r)eta(s)={lhs} eta(rs)={rhs}")
    if reads(eta):
        yield _check("eta_unit", G.eta(R.one()) == G.unit, lambda: "eta(1) != 1")

    # eps axioms: eps(eta(r)) = r and eps(xy) = eps(eta(eps(x)) y)
    if reads(eta, ("eps", 0)):
        for r in gens + [R.one()]:
            val = G.eps_elem(0, G.eta(r))
            yield _check(f"eps_eta[{r!r}]", R.eq(val, r), lambda: f"eps(eta({r!r}))={val!r}")
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if not reads(*mul(k, l), ("eps", k + l), ("eps", k), eta, *mul(0, l),
                         ("eps", l)):
                continue
            for a, b in itertools.product(range(G.rank(k)), range(G.rank(l))):
                x, y = G.basis_vec(k, a), G.basis_vec(l, b)
                lhs = G.eps_elem(k + l, G.mul_elems(k, x, l, y))
                rhs = G.eps_elem(l, G.mul_elems(0, G.eta(G.eps_elem(k, x)), l, y))
                yield _check(f"eps_mu[{k},{l};{a},{b}]", R.eq(lhs, rhs),
                             lambda: f"eps(xy)={lhs!r} eps(eta(eps(x))y)={rhs!r}")

    # Delta: counit, cocommutativity, coassociativity; all four read D = Delta(v)
    for k in range(kmax + 1):
        if not reads(("delta", k), ("eps", k), ("left_t", k)):
            continue
        for a in range(G.rank(k)):
            v = G.basis_vec(k, a)
            D = G.delta_elem(k, v)
            left = G.counit_left(k, D)
            yield _check(f"delta_counit_left[{k},{a}]", left == v,
                         lambda: f"(eps x id)Delta={left} want {v}")
            if reads(("delta", k), ("eps", k)):
                right = G.counit_right(k, D)
                yield _check(f"delta_counit_right[{k},{a}]", right == v,
                             lambda: f"(id x eps)Delta={right} want {v}")
            if reads(("delta", k)):
                yield _check(f"delta_cocomm[{k},{a}]", D == D.transpose(),
                             lambda: f"Delta not symmetric: {D.to_json()}")
                terms = _delta_leg(G, k, {(a,): R.one()}, 0)  # the terms of D
                lhs3 = _delta_leg(G, k, terms, 0)
                rhs3 = _delta_leg(G, k, terms, 1)
                yield _check(f"delta_coassoc[{k},{a}]", lhs3 == rhs3,
                             lambda: "iterated comultiplications differ")

    # Delta multiplicative against mu
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if not reads(*mul(k, l), ("delta", k + l), ("delta", k), ("delta", l)):
                continue
            for a, b in itertools.product(range(G.rank(k)), range(G.rank(l))):
                x, y = G.basis_vec(k, a), G.basis_vec(l, b)
                lhs = G.delta_elem(k + l, G.mul_elems(k, x, l, y))
                rhs = G.tensor_mul(k, G.delta_elem(k, x), l, G.delta_elem(l, y))
                yield _check(f"delta_mu[{k},{l};{a},{b}]", lhs == rhs,
                             lambda: f"Delta(xy)={lhs.to_json()} "
                                     f"Delta(x)Delta(y)={rhs.to_json()}")

    # the shapes were checked first: mu lands in k+l, eta in weight 0, Delta in (k,k)
    yield CheckResult("grading_structural", True)


def _grading_violation(G):
    """Describe the first mu or delta table whose keys, or the first structure
    constant whose shape, does not match the ranks of its weights, or return None."""
    def rank(k):
        return len(G.basis.get(k, ()))

    keyed = [(f"mu[{k},{l}]", tbl, set(itertools.product(range(rank(k)), range(rank(l)))))
             for (k, l), tbl in sorted(G.mu.items())]
    keyed += [(f"delta[{k}]", tbl, set(range(rank(k)))) for k, tbl in sorted(G.delta.items())]
    for name, tbl, want in keyed:
        odd = sorted(set(tbl) ^ want)
        if odd:
            return (f"{name} lacks the key {odd[0]}" if odd[0] in want else
                    f"{name} has the key {odd[0]}, which names no basis element")
    vecs = [(f"mu[{k},{l}][{i},{j}]", k + l, vec) for (k, l), tbl in sorted(G.mu.items())
            for (i, j), vec in sorted(tbl.items())]
    vecs += [("unit", 0, G.unit)] + [(f"eps[{k}]", k, v) for k, v in sorted(G.eps.items())]
    for name, k, vec in vecs:
        if len(vec) != rank(k):
            return f"{name} has {len(vec)} entries, rank({k}) = {rank(k)}"
    mats = [(f"delta[{k}][{a}]", k, m) for k, tbl in sorted(G.delta.items())
            for a, m in sorted(tbl.items())]
    mats += [(f"left_t[{k}]", k, m) for k, m in sorted((G.left_t or {}).items())]
    for name, k, m in mats:
        if m.shape != (rank(k), rank(k)):
            return f"{name} is {m.nrows}x{m.ncols}, rank({k}) = {rank(k)}"
    return None


def _weight_triples(kmax):
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            for m in range(kmax + 1 - k - l):
                yield k, l, m


def _delta_leg(G, k, terms, pos):
    """Delta applied to one leg of {(c_1, ..., c_d): coefficient}: index pos,
    the basis element c of Gamma[k], becomes the pair (u, v) of each term of
    Delta(gamma_c), and zero coefficients are dropped."""
    R = G.ring
    out = {}
    for key, coeff in terms.items():
        D = G.delta[k][key[pos]]
        for u in range(G.rank(k)):
            for v in range(G.rank(k)):
                cc = D.rows[u][v]
                if R.is_zero(cc):
                    continue
                nk = key[:pos] + (u, v) + key[pos + 1:]
                out[nk] = R.add(out.get(nk, R.zero()), R.mul(coeff, cc))
    return {key: x for key, x in out.items() if not R.is_zero(x)}


# ---------------------------------------------------------------------------
# Gamma-algebras


class GammaAlgebra(FiniteAlgebra):
    """A commutative algebra over Gamma: a FiniteAlgebra with one action
    matrix per basis operation of Gamma, and named generators."""

    def __init__(self, gamma, basis, mult, unit, action, gens):
        super().__init__(gamma.ring, basis, mult, unit)
        self.gamma = gamma
        self.action = action  # (weight, basis index) -> Mat on coordinates
        self.gens = gens      # name -> coordinate vector

    def act(self, k, gcoords, v):
        """v . (sum gamma_a g_a), with scalars twisting through the left action."""
        def column(i, j):
            if (k, j) not in self.action:
                raise IncompleteAction(f"no action stored for gamma[{k}] #{j}")
            return self.action[(k, j)].col(i)
        return twisted_sum(self.gamma, k, gcoords, v, len(self.basis), column)


def trivial_algebra(gamma):
    """R as a Gamma-algebra, with x . gamma = eps(eta(x) gamma)."""
    act = {(k, a): Mat(gamma.ring, [[gamma.eps[k][a]]])
           for k in range(gamma.kmax + 1) for a in range(gamma.rank(k))}
    return _algebra_on_r(gamma, act)


def algebra_on_w(gamma, psi_matrices):
    """A rank-1 algebra on W with caller-supplied action matrices per weight.

    psi_matrices maps weight k to the 1x1 matrix of the basis operation; used
    for perturbed instances in congruence tests.
    """
    return _algebra_on_r(gamma, {(k, 0): m for k, m in psi_matrices.items()})


def _algebra_on_r(gamma, act):
    """R with its own product, acted on through the rank-1 matrices act."""
    one = (gamma.ring.one(),)
    return GammaAlgebra(gamma, ("1",), {(0, 0): one}, one, act, {"1": one})


# ---------------------------------------------------------------------------
# dualization: graded affine category schemes


@dataclass
class CategorySchemeData:
    """The dual category scheme.  A[k] is the right-linear dual of Gamma[k] in
    the dual basis with the "source" scalar structure, whose unit is eps."""

    gamma: TwistedBialgebra
    A: dict          # weight -> FiniteAlgebra
    c_star: dict     # (k, l) -> {a: Mat lambda_uv}
    report: CongruenceReport
    t_star_sigma_power: int = None  # height-1 diagnostic, see dualize()

    def s_star(self, k, r):
        """s*: R -> A[k], the source scalar r, eps_k r."""
        R = self.gamma.ring
        return tuple(R.mul(e, r) for e in self.gamma.eps[k])

    def t_star(self, k, r):
        """t*: R -> A[k], the target scalar r, gamma -> eps(eta(r) gamma)."""
        G = self.gamma
        return tuple(G.eps_elem(k, G.left_mul(k, r, G.basis_vec(k, a)))
                     for a in range(G.rank(k)))

    def i_star(self, fvec):
        """A[0] -> R, f -> f(eta(1)); an isomorphism for a unital bialgebra."""
        R = self.gamma.ring
        acc = R.zero()
        for c, u in zip(fvec, self.gamma.unit):
            acc = R.add(acc, R.mul(c, u))
        return acc


def dualize(gamma):
    """Dual category-scheme data: A[k] with mult dual to Delta, s*, t*, i*, c*.

    c*(f) = sum f' (x) f'' is pinned by sum f''(f'(x) y) = f(x y); the lambda
    coordinates solve that identity exactly (a linear system in the Witt
    coordinates when the left action is twisted).
    """
    G = gamma
    R = G.ring
    checks = []
    A = {}
    for k in range(G.kmax + 1):
        n = G.rank(k)
        basis = tuple(f"{name}^" for name in G.basis[k])
        mult = {}
        for u in range(n):
            for v in range(n):
                mult[(u, v)] = tuple(G.delta[k][a].rows[u][v] for a in range(n))
        Ak = FiniteAlgebra(ring=R, basis=basis, mult=mult, unit=tuple(G.eps[k]))
        A[k] = Ak
        comm = all(mult[(u, v)] == mult[(v, u)] for u in range(n) for v in range(n))
        checks.append(CheckResult(f"dual_mult_commutative[{k}]", comm))
        e = [unit_vector(R, n, u) for u in range(n)]
        assoc = all(Ak.mul(Ak.mul(e[u], e[v]), e[w]) == Ak.mul(e[u], Ak.mul(e[v], e[w]))
                    for u, v, w in itertools.product(range(n), repeat=3))
        checks.append(CheckResult(f"dual_mult_associative[{k}]", assoc))
        unit_ok = all(Ak.mul(Ak.unit, e[u]) == e[u] for u in range(n))
        checks.append(CheckResult(f"dual_unit_is_eps[{k}]", unit_ok))
    scheme = CategorySchemeData(gamma=G, A=A, c_star={}, report=None)

    # i* is an isomorphism iff evaluating at eta(1) is invertible on A[0]
    checks.append(CheckResult("i_star_isomorphism", _square_invertible(R, G)))

    for k in range(G.kmax + 1):
        for l in range(G.kmax + 1 - k):
            scheme.c_star[(k, l)] = _solve_c_star(G, k, l)
            resid_ok = _check_c_star(G, k, l, scheme.c_star[(k, l)])
            checks.append(CheckResult(f"c_star_defining[{k},{l}]", resid_ok))

    if R.f > 1 and 1 in G.basis and G.rank(1) == 1:
        # report which power of sigma t* realizes on A[1] (paper leaves the
        # direction implicit; we compute it)
        t = R.gen()
        val = scheme.t_star(1, t)[0]
        scheme.t_star_sigma_power = next(
            (j for j in range(R.f) if R.eq(val, R.frobenius(t, j))), None)
    scheme.report = CongruenceReport.from_checks(checks, meta={"kmax": G.kmax})
    return scheme


def _square_invertible(R, G):
    n = G.rank(0)
    M = Mat(R, [[R.mul(G.eps[0][a], G.unit[b]) for b in range(n)] for a in range(n)])
    snf = smith_normal_form(M)
    return snf.rank == n and all(v == 0 for v in snf.pivots)


def _solve_c_star(G, k, l):
    """lambda matrices of c*: A[k+l] -> A[k] (x) A[l] from the defining identity."""
    R = G.ring
    nk, nl = G.rank(k), G.rank(l)
    out = {}
    if R.f == 1:
        for a in range(G.rank(k + l)):
            rows = [[G.mu[(k, l)][(u, v)][a] for v in range(nl)] for u in range(nk)]
            out[a] = Mat(R, rows)
        return out
    # twisted case: solve sum_z [L_l(lambda_uz) e_v]_z = mu[(u,v)]_a in Witt coords
    Zp = R.ground_ring()
    f = R.f
    Lpow = G.left_powers(l)
    for a in range(G.rank(k + l)):
        rows = []
        for u in range(nk):
            # unknowns: lambda^i_{z} (z < nl, i < f); equations indexed by (v, coord)
            ncols = nl * f
            eqrows = []
            rhs = []
            for v in range(nl):
                coeffs = [[Zp.zero()] * ncols for _ in range(f)]
                for z in range(nl):
                    for i in range(f):
                        w = Lpow[i].col(v)[z]
                        for c in range(f):
                            coeffs[c][z * f + i] = Zp.from_int(w.coeffs[c])
                m = G.mu[(k, l)][(u, v)][a]
                for c in range(f):
                    eqrows.append(coeffs[c])
                    rhs.append(Zp.from_int(m.coeffs[c]))
            sol = solve(Mat(Zp, eqrows), tuple(rhs))
            if sol is None:
                raise IdentityFailed("c* system inconsistent; bialgebra data invalid")
            lam = [R.elem(tuple(sol[z * f + i].coeffs[0] for i in range(f)))
                   for z in range(nl)]
            rows.append(lam)
        out[a] = Mat(R, rows)
    return out


def _check_c_star(G, k, l, lam):
    """Residual of the defining identity of c* on all basis pairs."""
    R = G.ring
    for a, m in lam.items():
        for u in range(G.rank(k)):
            for v in range(G.rank(l)):
                acc = R.zero()
                for z in range(G.rank(l)):
                    w = G.left_mul(l, m.rows[u][z], G.basis_vec(l, v))
                    acc = R.add(acc, w[z])
                if not R.eq(acc, G.mu[(k, l)][(u, v)][a]):
                    return False
    return True


# ---------------------------------------------------------------------------
# finite points of the dual scheme


def presentation_of_coefficients(W):
    """W itself as a rank-1 FiniteAlgebra, whose ring maps are the objects."""
    return FiniteAlgebra(ring=W, basis=("1",), mult={(0, 0): (W.one(),)},
                         unit=(W.one(),))


def _evaluate(Rp, images, int_coords):
    """The additive map sending generator i to images[i], at integer coordinates."""
    acc = Rp.zero()
    for c, im in zip(int_coords, images):
        if c:
            acc = Rp.add(acc, Rp.scalar(c, im))
    return acc


def _int_coords(vec):
    """Coordinates of a W-vector over the additive Z/p^N generators t^j e_i."""
    return [c for x in vec for c in x.coeffs]


def ring_maps(alg, Rp):
    """All unital ring homomorphisms from a FiniteAlgebra into a finite ring Rp.

    Brute force over images of the additive generators t^j e_i; additivity
    needs each image killed by p^N, and multiplicativity is checked on
    generator pairs (integer bilinearity extends it to everything).
    """
    W = alg.ring
    gens = [alg.scale(W.pow(W.gen(), j), unit_vector(W, len(alg.basis), i))
            for i in range(len(alg.basis)) for j in range(W.f)]
    n = len(gens)
    if Rp.size() ** n > RING_MAPS_LIMIT:
        raise SizeLimit(f"{Rp.size()}^{n} candidate maps")
    elems = list(Rp.elements())
    pN = W.modulus
    ok_images = [x for x in elems if Rp.is_zero(Rp.scalar(pN, x))]
    unit_coords = _int_coords(alg.unit)
    gen_products = {(m, nn): _int_coords(alg.mul(gens[m], gens[nn]))
                    for m in range(n) for nn in range(n)}
    maps = []
    for images in itertools.product(ok_images, repeat=n):
        if not Rp.eq(_evaluate(Rp, images, unit_coords), Rp.one()):
            continue
        good = True
        for m in range(n):
            for nn in range(m, n):
                lhs = _evaluate(Rp, images, gen_products[(m, nn)])
                rhs = Rp.mul(images[m], images[nn])
                if not Rp.eq(lhs, rhs):
                    good = False
                    break
            if not good:
                break
        if good:
            maps.append(images)
    return maps


@dataclass
class PointsCategory:
    objects: list
    morphisms: dict  # degree -> list of image tuples
    report: CongruenceReport


def points_category(scheme, Rp):
    """Enumerate the graded category of Rp-points and verify the axioms.

    Objects are ring maps R -> Rp; degree-k morphisms are ring maps
    A[k] -> Rp; source/target/identity/composition come from s*, t*, i*, c*.
    Associativity, unit laws, degree additivity and source/target of
    composites are checked exhaustively.
    """
    G = scheme.gamma
    R = G.ring
    try:
        size = Rp.size()
    except NotImplementedError:
        raise SizeLimit("points ring must be finite")
    if size > POINTS_MAX_RING_SIZE:
        raise SizeLimit(f"|R'| = {size} > {POINTS_MAX_RING_SIZE}")
    if any(len(scheme.A[k].basis) > POINTS_MAX_RANK for k in scheme.A):
        raise SizeLimit("dual algebra rank exceeds the enumeration guard")

    tpow = [R.pow(R.gen(), j) for j in range(R.f)]  # the additive generators of R
    objects = ring_maps(presentation_of_coefficients(R), Rp)
    morphisms = {k: ring_maps(scheme.A[k], Rp) for k in scheme.A}
    checks = []

    def ev(k, images, wvec):
        return _evaluate(Rp, images, _int_coords(wvec))

    @functools.cache
    def src(k, alpha):
        return tuple(ev(k, alpha, scheme.s_star(k, t)) for t in tpow)

    @functools.cache
    def tgt(k, alpha):
        return tuple(ev(k, alpha, scheme.t_star(k, t)) for t in tpow)

    def identity_of(obj):
        # id_o = o . i*, evaluated on the additive generators t^j e_a of A[0]
        n0 = len(scheme.A[0].basis)
        return tuple(
            _evaluate(Rp, obj, R.mul(t, scheme.i_star(unit_vector(R, n0, a))).coeffs)
            for a in range(n0) for t in tpow)

    @functools.cache
    def composite_terms(k, l):
        """Per coordinate (a, j) of a composite of degrees k and l, the pairs
        (u, w) with (alpha o beta)(a, j) = sum alpha(e_u) beta(w); w needs neither."""
        lam = scheme.c_star[(k, l)]
        nk, Al = len(scheme.A[k].basis), scheme.A[l]
        nl = len(Al.basis)
        out = []
        for a in range(len(scheme.A[k + l].basis)):
            for t in tpow:
                sr = scheme.s_star(l, t)
                terms = []
                for u in range(nk):
                    for z in range(nl):
                        w = Al.mul(scheme.t_star(l, lam[a].rows[u][z]), unit_vector(R, nl, z))
                        terms.append((u, _int_coords(Al.mul(w, sr))))
                out.append(terms)
        return out

    @functools.cache
    def compose(k, alpha, l, beta):
        """alpha o beta (beta first); src(alpha) must equal tgt(beta)."""
        nk = len(scheme.A[k].basis)
        au = [ev(k, alpha, unit_vector(R, nk, u)) for u in range(nk)]
        out = []
        for terms in composite_terms(k, l):
            acc = Rp.zero()
            for u, w in terms:
                acc = Rp.add(acc, Rp.mul(au[u], _evaluate(Rp, beta, w)))
            out.append(acc)
        return tuple(out)

    # identities are degree-0 morphisms and behave as units
    for o in objects:
        ido = identity_of(o)
        checks.append(CheckResult(f"identity_enumerated[{o}]", ido in morphisms[0],
                                  None if ido in morphisms[0] else str(ido)))
        checks.append(CheckResult(
            f"identity_endpoints[{o}]",
            src(0, ido) == o and tgt(0, ido) == o))

    kmax = G.kmax
    for k in sorted(morphisms):
        for alpha in morphisms[k]:
            sa, ta = src(k, alpha), tgt(k, alpha)
            ida = identity_of(sa)
            idt = identity_of(ta)
            left = compose(0, idt, k, alpha)
            right = compose(k, alpha, 0, ida)
            checks.append(CheckResult(f"unit_law[{k},{alpha}]",
                                      left == alpha and right == alpha,
                                      f"id.a={left} a.id={right} a={alpha}"))

    for k in sorted(morphisms):
        for l in sorted(morphisms):
            if k + l > kmax:
                continue
            for alpha in morphisms[k]:
                for beta in morphisms[l]:
                    if src(k, alpha) != tgt(l, beta):
                        continue
                    comp = compose(k, alpha, l, beta)
                    ok = comp in morphisms[k + l]
                    checks.append(CheckResult(
                        f"closure[{k},{l},{alpha},{beta}]", ok, str(comp)))
                    checks.append(CheckResult(
                        f"endpoints[{k},{l},{alpha},{beta}]",
                        src(k + l, comp) == src(l, beta)
                        and tgt(k + l, comp) == tgt(k, alpha)))

    for k, l, m in _weight_triples(kmax):
        for alpha in morphisms.get(k, []):
            for beta in morphisms.get(l, []):
                if src(k, alpha) != tgt(l, beta):
                    continue
                for gammap in morphisms.get(m, []):
                    if src(l, beta) != tgt(m, gammap):
                        continue
                    lhs = compose(k + l, compose(k, alpha, l, beta), m, gammap)
                    rhs = compose(k, alpha, l + m, compose(l, beta, m, gammap))
                    checks.append(CheckResult(
                        f"assoc[{k},{l},{m},{alpha},{beta},{gammap}]",
                        lhs == rhs, f"lhs={lhs} rhs={rhs}"))

    rep = CongruenceReport.from_checks(
        checks, meta={"objects": len(objects),
                      "morphisms": {k: len(v) for k, v in morphisms.items()}})
    return PointsCategory(objects=objects, morphisms=morphisms, report=rep)
