"""Exact linear algebra over the library's coefficient rings.

Matrices are small and dense.  Smith normal form is implemented for chain
rings (Z/p^N, truncated Witt rings, and their residue fields), where every
nonzero element factors as unit * p^v; that is all the structure the pivoting
needs.  Ranks and kernels over residue fields share one reduced row echelon
form.  FiniteAlgebra is the one finite free commutative algebra over a
coefficient ring, multiplied through its structure constants.

A matrix keeps its column count even when it has no rows, so 0 x n and
n x 0 matrices have the shapes they were built with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import IdentityFailed, Ring, json_typed, json_vec


class ShapeMismatch(ValueError):
    """Matrix or graded-map shapes that do not fit together."""


class Mat:
    """Dense matrix over a Ring; rows is a tuple of tuples of ring elements.

    The column count comes from the rows; ncols gives it when there are none.
    """

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows, ncols=0):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else ncols
        if any(len(r) != self.ncols for r in self.rows):
            raise ShapeMismatch(f"ragged rows of lengths {[len(r) for r in self.rows]}")

    @staticmethod
    def from_int_rows(ring, rows):
        return Mat(ring, [[ring.from_int(c) for c in r] for r in rows])

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero(), ring.one()
        return Mat(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(ring, m, n):
        z = ring.zero()
        return Mat(ring, [[z] * n for _ in range(m)], n)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        R = self.ring
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = R.zero()
                for k in range(self.ncols):
                    acc = R.add(acc, R.mul(self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return Mat(R, out, other.ncols)

    def __add__(self, other):
        R = self.ring
        return Mat(R, [[R.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def scale(self, c):
        R = self.ring
        return Mat(R, [[R.mul(c, a) for a in r] for r in self.rows], self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.rows == other.rows

    def __hash__(self):
        raise TypeError("Mat is unhashable")

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        return Mat(self.ring, zip(*self.rows) if self.rows else [()] * self.ncols,
                   self.nrows)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ShapeMismatch(f"hstack of {self.shape} and {other.shape}")
        return Mat(self.ring, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                   self.ncols + other.ncols)

    def kron(self, other):
        """Kronecker product, row-major block layout."""
        R = self.ring
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append([R.mul(a, b) for a in r1 for b in r2])
        return Mat(R, out, self.ncols * other.ncols)

    def map(self, fn, ring=None):
        return Mat(ring or self.ring, [[fn(a) for a in r] for r in self.rows],
                   self.ncols)

    def apply(self, vec):
        """Matrix times a column vector given as a tuple."""
        R = self.ring
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"{self.shape} applied to a vector of length {len(vec)}")
        out = []
        for r in self.rows:
            acc = R.zero()
            for a, v in zip(r, vec):
                acc = R.add(acc, R.mul(a, v))
            out.append(acc)
        return tuple(out)

    def __repr__(self):
        return "Mat(%s)" % "; ".join(" ".join(repr(a) for a in r) for r in self.rows)

    def to_json(self):
        enc = self.ring.encode
        return [[enc(a) for a in r] for r in self.rows]

    @staticmethod
    def from_json(ring, data, what):
        """The matrix to_json wrote: a list of rows of encoded elements."""
        return Mat(ring, [json_vec(ring, r, f"a row of {what}")
                          for r in json_typed(data, list, what)])


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V invertible and D diagonal with p-power entries."""

    U: Mat
    D: Mat
    V: Mat
    pivots: list  # valuations of the diagonal entries, in order

    @property
    def rank(self):
        return len(self.pivots)


def smith_normal_form(A):
    """Smith normal form over a chain ring (val_unit available).

    Pivots are chosen of minimal valuation, so the diagonal valuations come
    out sorted.  Works over Z/p^N, truncated Witt rings and finite fields.
    """
    R = A.ring
    n, m = A.nrows, A.ncols
    a = [list(r) for r in A.rows]
    U = [list(r) for r in Mat.identity(R, n).rows]
    V = [list(r) for r in Mat.identity(R, m).rows]

    def row_op(i, j, c):  # row_i -= c * row_j
        for k in range(m):
            a[i][k] = R.sub(a[i][k], R.mul(c, a[j][k]))
        for k in range(n):
            U[i][k] = R.sub(U[i][k], R.mul(c, U[j][k]))

    def col_op(i, j, c):  # col_i -= c * col_j
        for k in range(n):
            a[k][i] = R.sub(a[k][i], R.mul(c, a[k][j]))
        for k in range(m):
            V[k][i] = R.sub(V[k][i], R.mul(c, V[k][j]))

    pivots = []
    s = 0
    while s < min(n, m):
        best = None
        for i in range(s, n):
            for j in range(s, m):
                vu = R.val_unit(a[i][j])
                if vu[0] is None:
                    continue
                if best is None or vu[0] < best[0]:
                    best = (vu[0], i, j, vu[1])
        if best is None:
            break
        v, bi, bj, unit = best
        if bi != s:
            a[s], a[bi] = a[bi], a[s]
            U[s], U[bi] = U[bi], U[s]
        if bj != s:
            for k in range(n):
                a[k][s], a[k][bj] = a[k][bj], a[k][s]
            for k in range(m):
                V[k][s], V[k][bj] = V[k][bj], V[k][s]
        # normalize pivot to p^v
        uinv = R.inv(unit)
        for k in range(m):
            a[s][k] = R.mul(uinv, a[s][k])
        for k in range(n):
            U[s][k] = R.mul(uinv, U[s][k])
        piv = a[s][s]
        for i in range(s + 1, n):
            if R.is_zero(a[i][s]):
                continue
            row_op(i, s, _chain_quot(R, a[i][s], piv, v))
        for j in range(s + 1, m):
            if R.is_zero(a[s][j]):
                continue
            col_op(j, s, _chain_quot(R, a[s][j], piv, v))
        pivots.append(v)
        s += 1
    return SmithForm(Mat(R, U, n), Mat(R, a, m), Mat(R, V, m), pivots)


def _chain_quot(R, x, piv, piv_val):
    """x / piv in a chain ring, given val(x) >= val(piv) and piv = p^v."""
    vx, ux = R.val_unit(x)
    if vx is None or vx < piv_val:
        raise IdentityFailed(f"val({x!r}) = {vx} is below the minimal pivot "
                             f"valuation {piv_val}")
    return R.mul(ux, R.from_int(_char_power(R, vx - piv_val)))


def _char_power(R, k):
    return getattr(R, "p", 0) ** k if k else 1


def solve(A, b):
    """One solution x of A x = b over a chain ring, or None if none exists."""
    R = A.ring
    snf = smith_normal_form(A)
    c = snf.U.apply(b)
    y = [R.zero()] * A.ncols
    for i in range(A.nrows):
        if i < len(snf.pivots):
            di = snf.D.rows[i][i]
            vi = snf.pivots[i]
            vc, uc = R.val_unit(c[i])
            if vc is None:
                continue
            if vc < vi:
                return None
            y[i] = R.mul(uc, R.from_int(getattr(R, "p") ** (vc - vi)))
            # check: di * y[i] == c[i]
            if not R.eq(R.mul(di, y[i]), c[i]):
                return None
        else:
            if not R.is_zero(c[i]):
                return None
    return snf.V.apply(tuple(y))


def solve_matrix(A, B):
    """Solve A X = B columnwise; returns Mat or None."""
    cols = []
    for j in range(B.ncols):
        x = solve(A, B.col(j))
        if x is None:
            return None
        cols.append(x)
    return Mat(A.ring, cols, A.ncols).transpose()


def residue_rank(A):
    """Rank of A over the residue field of its (local) ring."""
    R = A.ring
    return len(_field_rref(A.map(R.residue, ring=R.residue_ring()))[1])


def field_left_kernel_vector(A):
    """A nonzero row vector y with y A = 0 over a field, or None if full row rank."""
    cols = field_kernel_basis(A.transpose())
    return cols[0] if cols else None


def field_kernel_basis(A):
    """Kernel basis over a field, read off the reduced row echelon form."""
    R = A.ring
    a, pivots = _field_rref(A)
    basis = []
    for j in range(A.ncols):
        if j in pivots:
            continue
        vec = [R.zero()] * A.ncols
        vec[j] = R.one()
        for r, pj in enumerate(pivots):
            vec[pj] = R.neg(a[r][j])
        basis.append(tuple(vec))
    return basis


def _field_rref(A):
    """Reduced row echelon form over a field: (rows, pivot columns)."""
    R = A.ring
    a = [list(r) for r in A.rows]
    n, m = A.nrows, A.ncols
    pivots = []
    for j in range(m):
        rank = len(pivots)
        piv = None
        for i in range(rank, n):
            if not R.is_zero(a[i][j]):
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = R.inv(a[rank][j])
        a[rank] = [R.mul(inv, x) for x in a[rank]]
        for i in range(n):
            if i != rank and not R.is_zero(a[i][j]):
                c = a[i][j]
                a[i] = [R.sub(x, R.mul(c, y)) for x, y in zip(a[i], a[rank])]
        pivots.append(j)
        if len(pivots) == n:
            break
    return a, pivots


def unit_vector(R, n, i):
    """The i-th standard basis vector of R^n, as a tuple."""
    return tuple(R.one() if j == i else R.zero() for j in range(n))


class FiniteAlgebra(Ring):
    """A finite free commutative algebra over a coefficient ring, by structure
    constants.

    Elements are coordinate tuples over the basis; mult[(i, j)] is the product
    of basis elements i and j, and unit the coordinates of 1.  The table may
    come from a user file, so it is not assumed associative: pow multiplies
    from the left, starting at the unit.
    """

    def __init__(self, ring, basis, mult, unit):
        self.ring = ring
        self.basis = tuple(basis)
        self.mult = mult
        self.unit = unit

    @staticmethod
    def monic_quotient(R, var, m):
        """R[x]/(m) on 1, x^1, ..., x^(d-1), x named var and m monic of degree
        d given low to high; x^d reduces to -(m_0 + ... + m_(d-1) x^(d-1))."""
        d = len(m) - 1
        if d < 1:
            raise ValueError("a monic relation needs degree at least 1")
        if m[-1] != R.one():
            raise ValueError(f"the relation's leading coefficient is {m[-1]!r}, not 1")
        pows = [unit_vector(R, d, i) for i in range(d)]
        while len(pows) < 2 * d - 1:
            last = pows[-1]
            pows.append(tuple(R.sub(s, R.mul(last[-1], c))
                              for s, c in zip((R.zero(),) + last[:-1], m)))
        basis = ("1",) + tuple(f"{var}^{i}" for i in range(1, d))
        mult = {(i, j): pows[i + j] for i in range(d) for j in range(d)}
        return FiniteAlgebra(R, basis, mult, pows[0])

    def lowered(self):
        """The same algebra one precision digit down, its table reduced entry by entry."""
        R, Rl = self.ring, self.ring.lower()

        def down(v):
            return tuple(R.truncate_to(Rl, c) for c in v)
        return FiniteAlgebra(Rl, self.basis, {k: down(v) for k, v in self.mult.items()},
                             down(self.unit))

    def zero(self):
        return (self.ring.zero(),) * len(self.basis)

    def one(self):
        return self.unit

    def add(self, a, b):
        R = self.ring
        return tuple(R.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.ring.neg(x) for x in a)

    def mul(self, v, w):
        R = self.ring
        out = [R.zero()] * len(v)
        for i, a in enumerate(v):
            if R.is_zero(a):
                continue
            for j, b in enumerate(w):
                if R.is_zero(b):
                    continue
                c = R.mul(a, b)
                for r, m in enumerate(self.mult[(i, j)]):
                    out[r] = R.add(out[r], R.mul(c, m))
        return tuple(out)

    def is_zero(self, a):
        return all(self.ring.is_zero(x) for x in a)

    def scale(self, c, a):
        """c * a for c in the coefficient ring."""
        R = self.ring
        return tuple(R.mul(c, x) for x in a)

    def pow(self, a, n):
        if n < 0:  # there is no inv to go through
            raise ValueError(f"a finite algebra has no power a^{n} with n < 0")
        out = self.unit
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def terms(self, a):
        return enumerate(a)

    def map_coeffs(self, a, fn):
        return tuple(fn(c) for c in a)

    def rand(self, rng):
        return tuple(self.ring.rand(rng) for _ in self.basis)

    def repr_elem(self, a):
        bits = [f"{c!r}*{n}" for c, n in zip(a, self.basis) if not self.ring.is_zero(c)]
        return " + ".join(bits) if bits else "0"
