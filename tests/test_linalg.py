import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck.exact_arith import WittCoefRing
from fglcheck.linalg import (FiniteAlgebra, Mat, ShapeMismatch,
                             field_kernel_basis, field_left_kernel_vector,
                             residue_rank, smith_normal_form, unit_vector)

Z8 = WittCoefRing(2, 3)
F2 = WittCoefRing(2, 1)
F3 = WittCoefRing(3, 1)


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_zeros_keeps_its_shape(m, n):
    assert Mat.zeros(Z8, m, n).shape == (m, n)


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_transpose_keeps_its_shape(m, n):
    A = Mat.zeros(Z8, m, n)
    assert A.transpose().shape == (n, m)
    assert A.transpose().transpose() == A


@pytest.mark.parametrize("a, b", [((0, 3), (2, 2)), ((3, 0), (2, 2)),
                                  ((2, 2), (0, 3)), ((2, 2), (3, 0)),
                                  ((1, 2), (2, 1))])
def test_kron_keeps_its_shape(a, b):
    K = Mat.zeros(Z8, *a).kron(Mat.zeros(Z8, *b))
    assert K.shape == (a[0] * b[0], a[1] * b[1])


def test_empty_shapes_survive_products_and_stacking():
    A = Mat.zeros(Z8, 0, 3)
    assert (A @ Mat.identity(Z8, 3)).shape == (0, 3)
    assert (Mat.zeros(Z8, 2, 0) @ A).shape == (2, 3)
    assert Mat.zeros(Z8, 2, 0).hstack(Mat.zeros(Z8, 2, 0)).shape == (2, 0)
    assert A.map(Z8.neg).shape == (0, 3)
    # the even blocks of the zero maps between rank 1|0 and 0|0
    zero, back = Mat.zeros(Z8, 0, 1), Mat.zeros(Z8, 1, 0)
    assert zero.shape == (0, 1)
    assert (zero @ Mat.identity(Z8, 1)).shape == (0, 1)
    assert back @ zero == Mat.zeros(Z8, 1, 1)


def test_shape_errors_are_named():
    with pytest.raises(ShapeMismatch):
        Mat(Z8, [[Z8.one()], []])
    with pytest.raises(ShapeMismatch):
        Mat.identity(Z8, 2) @ Mat.identity(Z8, 3)
    with pytest.raises(ShapeMismatch):
        Mat.identity(Z8, 2).hstack(Mat.identity(Z8, 3))
    with pytest.raises(ShapeMismatch):
        Mat.identity(Z8, 2).apply((Z8.one(),))


def test_ragged_matrix_raises_under_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("from fglcheck.exact_arith import WittCoefRing\n"
            "from fglcheck.linalg import Mat, ShapeMismatch\n"
            "R = WittCoefRing(2, 3)\n"
            "try:\n"
            "    Mat(R, [[R.one(), R.one()], [R.one()]])\n"
            "except ShapeMismatch:\n"
            "    print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_field_rank_and_kernel_agree():
    A = Mat.from_int_rows(F3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 1]])
    rank = residue_rank(A)
    kernel = field_kernel_basis(A)
    assert rank == 2 and len(kernel) == A.ncols - rank
    for vec in kernel:
        assert all(F3.is_zero(x) for x in A.apply(vec))


def test_left_kernel_vector():
    A = Mat.from_int_rows(F2, [[1, 0], [0, 1], [1, 1]])
    y = field_left_kernel_vector(A)
    assert y is not None
    assert all(F2.is_zero(x) for x in A.transpose().apply(y))
    assert field_left_kernel_vector(Mat.identity(F2, 2)) is None


def test_residue_rank_over_z8():
    A = Mat.from_int_rows(Z8, [[2, 4], [1, 3]])
    assert residue_rank(A) == 1


def test_unit_vector_is_a_tuple():
    assert unit_vector(Z8, 3, 1) == (Z8.zero(), Z8.one(), Z8.zero())


QUOTIENT_RINGS = [Z8, WittCoefRing(3, 2), WittCoefRing(2, 2, ext=[1, 1, 1])]


def _schoolbook_mod(R, a, b, m):
    """a * b as polynomials, reduced by long division by the monic m."""
    prod = [R.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = R.add(prod[i + j], R.mul(x, y))
    d = len(m) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for i, mi in enumerate(m):
            prod[k - d + i] = R.sub(prod[k - d + i], R.mul(c, mi))
    return tuple(prod[:d])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_monic_quotient_matches_schoolbook_product(data):
    R = data.draw(st.sampled_from(QUOTIENT_RINGS), label="ring")
    d = data.draw(st.integers(1, 4), label="degree")
    coeff = st.tuples(*[st.integers(0, R.modulus - 1)] * R.f).map(R.elem)
    m = tuple(data.draw(st.lists(coeff, min_size=d, max_size=d), label="m")) + (R.one(),)
    a, b = (tuple(data.draw(st.lists(coeff, min_size=d, max_size=d))) for _ in "ab")
    A = FiniteAlgebra.monic_quotient(R, "x", m)
    assert A.basis == ("1",) + tuple(f"x^{i}" for i in range(1, d))
    assert A.mul(a, b) == _schoolbook_mod(R, a, b, m)
    n = data.draw(st.integers(0, 4), label="n")
    power = A.unit
    for _ in range(n):
        power = _schoolbook_mod(R, power, a, m)
    assert A.pow(a, n) == power


def test_finite_algebra_refuses_a_negative_power():
    # pow multiplies in from the unit and has no inv: a^-1 used to be the unit
    R = WittCoefRing(2, 3)
    A = FiniteAlgebra.monic_quotient(R, "x", (R.one(), R.zero(), R.one()))
    x = (R.zero(), R.one())
    assert A.pow(x, 0) == A.unit
    with pytest.raises(ValueError, match="n < 0"):
        A.pow(x, -1)


# metamorphic: truncation Z/p^N -> Z/p^(N-1) caps the elementary divisors'
# valuations at N - 1, over Z/p^N and W(F_4)
SMITH_RINGS = [WittCoefRing(2, 4), WittCoefRing(3, 3), WittCoefRing(2, 3, ext=[1, 1, 1])]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_truncation_caps_smith_valuations(data):
    R = data.draw(st.sampled_from(SMITH_RINGS), label="ring")
    m, n = data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(1, 4), label="n")
    unit = st.tuples(*[st.integers(0, R.modulus - 1)] * R.f).map(R.elem)
    entry = st.builds(lambda k, u: R.scalar(R.p ** k, u), st.integers(0, R.N), unit)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m,
                              max_size=m), label="rows")
    Rl = R.lower()
    low = Mat(Rl, [[R.truncate_to(Rl, a) for a in r] for r in rows])
    pivots = smith_normal_form(Mat(R, rows)).pivots
    assert smith_normal_form(low).pivots == [v for v in pivots if v < R.N - 1]
