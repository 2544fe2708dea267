import functools
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck import exact_arith
from fglcheck.cli import run
from fglcheck.exact_arith import (MalformedElement, NotDivisible, WittCoefRing, WittElem,
                                  is_prime, ring_from_descriptor)


def test_zmod_products():
    Z16 = WittCoefRing(2, 4)
    assert Z16.mul(Z16.from_int(3), Z16.from_int(5)) == Z16.from_int(15)
    assert Z16.add(Z16.from_int(8), Z16.from_int(8)) == Z16.zero()
    assert Z16.scalar(5, Z16.from_int(3)) == Z16.from_int(15)
    assert Z16.mul(Z16.from_int(5), Z16.from_int(3)) == Z16.add(Z16.from_int(15), Z16.zero())


def test_witt_f4_product():
    W = WittCoefRing(2, 2, ext=[1, 1, 1])
    t = W.gen()
    assert W.mul(t, t) == W.elem((3, 3))  # -t - 1 mod 4


def test_invalid_rings():
    with pytest.raises(ValueError):
        WittCoefRing(4, 2)
    with pytest.raises(ValueError):
        WittCoefRing(2, 0)
    with pytest.raises(ValueError):
        WittCoefRing(2, 2, ext=[1, 0, 1])  # t^2 + 1 = (t+1)^2 mod 2
    with pytest.raises(ValueError):
        WittCoefRing(3, 2, ext=[1, 1, 1])  # t^2 + t + 1 has the root 1 mod 3


def _irreducible_by_trial_division(poly, p):
    """Irreducibility over F_p by trying every monic divisor of degree <= f/2:
    the brute force that Ben-Or's test replaced, kept as the oracle."""
    poly = [c % p for c in poly]
    f = len(poly) - 1
    if f < 1 or poly[-1] != 1:
        return False
    for d in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not exact_arith._fp_poly_divmod(poly, list(tail) + [1], p)[1]:
                return False
    return True


@pytest.mark.parametrize("p, fmax", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_irreducibility_matches_trial_division(p, fmax):
    for f in range(fmax + 1):
        for tail in itertools.product(range(p), repeat=f):
            for poly in (list(tail) + [1], list(tail) + [p - 1], list(tail) + [p + 1]):
                assert (exact_arith._fp_irreducible(poly, p)
                        == _irreducible_by_trial_division(poly, p)), poly


@pytest.mark.parametrize("p, fmax", [(2, 8), (3, 4), (5, 3), (7, 2)])
def test_find_irreducible_is_the_first_irreducible(p, fmax):
    # the first in the order of the full search, constant terms 0 included
    from fglcheck.twisted_bialgebra import find_irreducible
    for f in range(1, fmax + 1):
        first = next(list(tail) + [1] for tail in itertools.product(range(p), repeat=f)
                     if _irreducible_by_trial_division(list(tail) + [1], p))
        assert find_irreducible(p, f) == first


def test_irreducibility_matches_sympy_to_degree_40():
    from sympy import Poly, Symbol

    from fglcheck.twisted_bialgebra import find_irreducible
    x = Symbol("x")
    rng = random.Random(0)

    def monic(p, f):
        return [rng.randrange(p) for _ in range(f)] + [1]

    def product(a, b, p):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    cases = [(p, find_irreducible(p, f)) for p, fmax in ((2, 40), (3, 24)) for f in
             range(1, fmax + 1)]
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7, 11))
        f = rng.randint(1, 40)
        cases.append((p, monic(p, f)))
        g = rng.randint(1, 20)
        cases.append((p, product(monic(p, g), monic(p, rng.randint(1, 40 - g)), p)))
    assert 40 < sum(exact_arith._fp_irreducible(m, p) for p, m in cases) < len(cases)
    for p, m in cases:
        assert exact_arith._fp_irreducible(m, p) == Poly(m[::-1], x, modulus=p).is_irreducible


def test_frobenius_identity_when_f1():
    W = WittCoefRing(2, 5)
    for x in [W.from_int(n) for n in (0, 1, 7, 19)]:
        assert W.frobenius(x) == x


def test_frobenius_f4():
    W = WittCoefRing(2, 3, ext=[1, 1, 1])
    s = W.frobenius
    t = W.gen()
    # sigma(t) is the Hensel root congruent to t^2 mod 2
    assert W.in_max_ideal(W.sub(s(t), W.mul(t, t)))
    from fglcheck.exact_arith import _poly_eval
    assert W.is_zero(_poly_eval(W, W.lift, s(t)))
    assert s(s(t)) == t


@pytest.mark.parametrize("W", [WittCoefRing(2, 1), WittCoefRing(3, 2), WittCoefRing(2, 5),
                               WittCoefRing(2, 1, ext=[1, 1, 1]),
                               WittCoefRing(3, 2, ext=[2, 2, 1]),
                               WittCoefRing(2, 1, ext=[1, 1, 0, 1]),
                               WittCoefRing(2, 2, ext=[1, 1, 0, 1])], ids=repr)
def test_elements_count_in_product_order(W):
    expected = itertools.product(range(W.modulus), repeat=W.f)
    assert [x.coeffs for x in W.elements()] == list(expected)
    assert sum(1 for _ in W.elements()) == W.size()


def test_elements_of_a_huge_ring_start_at_once():
    W = WittCoefRing(2, 100)
    assert [x.coeffs for x in itertools.islice(W.elements(), 3)] == [(0,), (1,), (2,)]


def test_frobenius_postconditions_exhaustive():
    W = WittCoefRing(2, 3, ext=[1, 1, 1])
    s = W.frobenius
    elems = list(W.elements())
    for x in elems:
        assert W.in_max_ideal(W.sub(s(x), W.mul(x, x)))
        assert s(s(x)) == x
    for x in elems[::5]:
        for y in elems[::7]:
            assert s(W.mul(x, y)) == W.mul(s(x), s(y))
            assert s(W.add(x, y)) == W.add(s(x), s(y))


def test_frobenius_order_f3():
    W = WittCoefRing(2, 2, ext=[1, 1, 0, 1])  # t^3 + t + 1 irreducible mod 2
    s = W.frobenius
    t = W.gen()
    assert s(s(s(t))) == t
    assert s(t) != t
    assert W.in_max_ideal(W.sub(s(t), W.mul(t, t)))


def test_divide_by_p():
    Z16 = WittCoefRing(2, 4)
    q = Z16.divide_by_p(Z16.from_int(6))
    assert q.ring.N == 3 and q == q.ring.from_int(3)
    with pytest.raises(NotDivisible) as e:
        Z16.divide_by_p(Z16.from_int(3))
    assert e.value.witness == 1
    W = WittCoefRing(2, 3, ext=[1, 1, 1])
    t = W.gen()
    q = W.divide_by_p(W.add(W.scalar(2, t), W.from_int(2)))
    assert q == q.ring.add(q.ring.gen(), q.ring.one())


def test_divide_by_p_of_multiple_is_truncation():
    W = WittCoefRing(3, 3)
    low = W.lower()
    for x in W.elements():
        assert W.divide_by_p(W.scalar(3, x)) == W.truncate_to(low, x)


def test_val_unit_and_inverse():
    W = WittCoefRing(2, 4, ext=[1, 1, 1])
    t = W.gen()
    x = W.add(W.scalar(4, t), W.from_int(8))
    v, u = W.val_unit(x)
    assert v == 2 and W.is_unit(u)
    assert W.mul(W.from_int(4), u) == x
    for x in (t, W.add(t, W.one()), W.from_int(3), W.add(W.scalar(5, t), W.from_int(2))):
        assert W.mul(x, W.inv(x)) == W.one()
    with pytest.raises(ZeroDivisionError):
        W.inv(W.from_int(2))


def test_descriptor_roundtrip():
    for W in (WittCoefRing(2, 4), WittCoefRing(3, 2, ext=[1, 0, 1])):
        W2 = ring_from_descriptor(W.descriptor())
        assert W.same_ring(W2)
        x = W.from_int(5) if W.f == 1 else W.add(W.gen(), W.from_int(2))
        assert W.decode(W.encode(x)) == x


@settings(max_examples=50, deadline=None)
@given(st.integers(), st.integers(), st.integers())
def test_ring_axioms_z27(a, b, c):
    W = WittCoefRing(3, 3)
    x, y, z = W.from_int(a), W.from_int(b), W.from_int(c)
    assert W.mul(W.add(x, y), z) == W.add(W.mul(x, z), W.mul(y, z))
    assert W.mul(x, W.mul(y, z)) == W.mul(W.mul(x, y), z)
    assert W.mul(x, y) == W.mul(y, x)
    assert W.add(x, W.neg(x)) == W.zero()


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.tuples(st.integers(0, 7), st.integers(0, 7)))
def test_ring_axioms_witt(a, b, c):
    W = WittCoefRing(2, 3, ext=[1, 1, 1])
    x, y, z = W.elem(a), W.elem(b), W.elem(c)
    assert W.mul(x, W.mul(y, z)) == W.mul(W.mul(x, y), z)
    assert W.mul(x, W.add(y, z)) == W.add(W.mul(x, y), W.mul(x, z))
    assert W.mul(x, y) == W.mul(y, x)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_primes_answer_fast():
    import time
    t0 = time.perf_counter()
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    assert not is_prime((2 ** 61 - 1) * (2 ** 13 - 1))
    assert time.perf_counter() - t0 < 1.0


def test_is_prime_refuses_beyond_exact_range():
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        WittCoefRing(10 ** 30 + 57, 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [2, 2, 1])]),
       st.integers(2, 4), st.data())
def test_lower_keeps_the_lift(ext_case, N, data):
    p, ext = ext_case
    q = p ** N
    lift = [c + p * data.draw(st.integers(0, q // p - 1)) for c in ext[:-1]] + [1]
    W = WittCoefRing(p, N, ext, lift)
    low = W.lower()
    coeffs = st.lists(st.integers(0, q - 1), min_size=W.f, max_size=W.f)
    a, b = W.elem(tuple(data.draw(coeffs))), W.elem(tuple(data.draw(coeffs)))
    down = lambda x: W.truncate_to(low, x)
    assert down(W.mul(a, b)) == low.mul(down(a), down(b))
    assert down(W.add(a, b)) == low.add(down(a), down(b))
    assert down(W.one()) == low.one()


def test_lower_of_custom_lift_f4():
    W = WittCoefRing(2, 3, [1, 1, 1], [3, 1, 1])
    low = W.lower()
    t, t_low = W.gen(), W.truncate_to(low, W.gen())
    assert W.truncate_to(low, W.mul(t, t)) == low.mul(t_low, t_low)
    assert low.mul(t_low, t_low) == low.add(low.from_int(1), low.scalar(3, low.gen()))


# Oracle for the coefficient core: the same operations on plain integer tuples,
# (Z/q)[t] reduced by the monic lift, with no WittElem in between.
ORACLE_RINGS = [WittCoefRing(2, 3), WittCoefRing(3, 4), WittCoefRing(2, 2, ext=[1, 1, 1]),
                WittCoefRing(2, 3, ext=[1, 1, 0, 1], lift=[3, 1, 4, 1])]


def _plain_mul(W, a, b):
    q, f = W.modulus, W.f
    lift = W.lift or (0, 1)
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, f - 1, -1):  # t^f = -(lift_0 + ... + lift_{f-1} t^{f-1})
        c, prod[k] = prod[k], 0
        for j in range(f):
            prod[k - f + j] -= c * lift[j]
    return tuple(c % q for c in prod[:f])


def _plain_pow(W, a, n):
    out = (1,) + (0,) * (W.f - 1)
    for _ in range(n):
        out = _plain_mul(W, out, a)
    return out


def _plain_inv(W, a):
    one = (1,) + (0,) * (W.f - 1)
    return [x.coeffs for x in W.elements() if _plain_mul(W, a, x.coeffs) == one]


def _canonical(W, x):
    assert x == W.elem(x.coeffs) and x.ring is W
    assert len(x.coeffs) == W.f
    assert all(type(c) is int and 0 <= c < W.modulus for c in x.coeffs)
    return x.coeffs


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ORACLE_RINGS), st.data())
def test_core_agrees_with_plain_tuples(W, data):
    q, f = W.modulus, W.f
    coeffs = st.tuples(*[st.integers(0, q - 1)] * f)
    a, b = data.draw(coeffs), data.draw(coeffs)
    n = data.draw(st.integers(-3 * q, 3 * q))
    e = data.draw(st.integers(0, 9))
    x, y = W.elem(a), W.elem(b)
    assert _canonical(W, W.add(x, y)) == tuple((u + v) % q for u, v in zip(a, b))
    assert _canonical(W, W.neg(x)) == tuple(-u % q for u in a)
    assert _canonical(W, W.mul(x, y)) == _plain_mul(W, a, b)
    assert _canonical(W, W.pow(x, e)) == _plain_pow(W, a, e)
    assert _canonical(W, W.from_int(n)) == (n % q,) + (0,) * (f - 1)
    assert _canonical(W, W.elem(n)) == (n % q,) + (0,) * (f - 1)
    if W.is_unit(x):
        assert [_canonical(W, W.inv(x))] == _plain_inv(W, a)
    else:
        assert _plain_inv(W, a) == []


def test_derived_rings_are_built_once():
    for W in ORACLE_RINGS:
        assert W.residue_ring() is W.residue_ring()
        assert W.lower() is W.lower()
        assert W.ground_ring() is W.ground_ring()
        assert W.ground_ring().descriptor() == {"p": W.p, "N": W.N}
        assert W.f > 1 or W.ground_ring() is W
        assert W.lower().lift == (None if W.lift is None else
                                  tuple(c % W.p ** (W.N - 1) for c in W.lift))


def _ring_builds(monkeypatch):
    """Count WittCoefRing constructions per descriptor from here on."""
    built = {}
    init = WittCoefRing.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        key = json.dumps(self.descriptor(), sort_keys=True)
        built[key] = built.get(key, 0) + 1

    monkeypatch.setattr(WittCoefRing, "__init__", counting_init)
    return built


def test_residue_and_division_build_no_ring_per_call(monkeypatch):
    rings = [WittCoefRing(2, 4), WittCoefRing(2, 3, ext=[1, 1, 1])]
    built = _ring_builds(monkeypatch)
    for W in rings:
        a = W.elem((3,) + (1,) * (W.f - 1))
        for _ in range(100):
            W.residue(a)
            W.divide_by_p(W.scalar(W.p, a))
    assert built and max(built.values()) == 1, built


def test_dualize_builds_each_ring_once(monkeypatch, capsys):
    # _solve_c_star solves over Z/p^N once per weight pair, on one ring
    built = _ring_builds(monkeypatch)
    assert run(["bialg", "--height1", "2,3,2,3", "--dualize"]) == 0
    assert built == {'{"N": 3, "ext": [1, 1, 1], "p": 2}': 1, '{"N": 3, "p": 2}': 1}


@st.composite
def lifted_rings(draw):
    """W(F_4) or W(F_8) at N = 2..3 with a random monic lift of its polynomial."""
    ext = draw(st.sampled_from([[1, 1, 1], [1, 1, 0, 1]]))
    N = draw(st.integers(2, 3))
    lift = [c + 2 * draw(st.integers(0, 2 ** (N - 1) - 1)) for c in ext[:-1]] + [1]
    return _lifted_ring(tuple(ext), N, tuple(lift))


@functools.lru_cache(maxsize=None)
def _lifted_ring(ext, N, lift):
    return WittCoefRing(2, N, ext=list(ext), lift=list(lift))


@settings(max_examples=60, deadline=None)
@given(lifted_rings(), st.data())
def test_residue_and_frobenius_are_ring_maps(W, data):
    a, b = (W.elem(data.draw(st.tuples(*[st.integers(0, W.modulus - 1)] * W.f)))
            for _ in range(2))
    k, sigma = W.residue_ring(), W.frobenius
    for phi, T in ((W.residue, k), (sigma, W)):
        assert T.eq(phi(W.one()), T.one())
        assert T.eq(phi(W.add(a, b)), T.add(phi(a), phi(b)))
        assert T.eq(phi(W.mul(a, b)), T.mul(phi(a), phi(b)))
    # sigma^k is k mod f applications of sigma, and the identity when f = 1
    n = data.draw(st.integers(-W.f, 2 * W.f), label="k")
    iterate = a
    for _ in range(n % W.f):
        iterate = sigma(iterate)
    assert W.frobenius(a, n) == iterate
    Zp = W.ground_ring()
    x = Zp.elem(a.coeffs[:1])
    assert Zp.frobenius(x, n) is x and Zp.frobenius(x) is x


@pytest.mark.parametrize("n", range(1, 18))
def test_pow_squares_only_what_it_uses(n):
    # square-and-multiply: one product per set bit, one squaring per bit after
    # the lowest; no squaring after the last bit
    W = WittCoefRing(2, 8, ext=[1, 1, 1])
    a = W.elem((3, 5))
    calls = []
    mul = W.mul
    W.mul = lambda x, y: calls.append(1) or mul(x, y)
    r = W.pow(a, n)
    assert len(calls) == bin(n).count("1") + n.bit_length() - 1
    del W.mul
    expected = W.one()
    for _ in range(n):
        expected = W.mul(expected, a)
    assert r == expected


def _poly_mul_mod(a, b, lift, q):
    """Multiply coefficient tuples a, b mod (m, q) for the monic lift m: the
    product-then-reduce loop the ring's structure constants replaced."""
    f = len(lift) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % q
    # reduce by the monic polynomial: x^f = -(lift[0] + ... + lift[f-1] x^{f-1})
    for k in range(len(prod) - 1, f - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for j in range(f):
            prod[k - f + j] = (prod[k - f + j] - c * lift[j]) % q
    prod = prod[:f] + [0] * (f - len(prod))
    return tuple(c % q for c in prod[:f])


# W(F_4), W(F_8), W(F_9) and W(F_16) by their polynomials mod p
UNRAMIFIED = [(2, (1, 1, 1)), (2, (1, 1, 0, 1)), (3, (1, 0, 1)), (2, (1, 1, 0, 0, 1))]


@st.composite
def unramified_rings(draw, with_f1=False):
    """An extension from UNRAMIFIED at N = 1..4 with a random monic lift, or
    (with_f1) also Z/p^N."""
    p, ext = draw(st.sampled_from(UNRAMIFIED + ([(3, None)] if with_f1 else [])))
    N = draw(st.integers(1, 4))
    if ext is None:
        return _unramified_ring(p, N, None, None)
    lift = tuple(c + p * draw(st.integers(0, p ** (N - 1) - 1)) for c in ext[:-1]) + (1,)
    return _unramified_ring(p, N, ext, lift)


@functools.lru_cache(maxsize=None)
def _unramified_ring(p, N, ext, lift):
    if ext is None:
        return WittCoefRing(p, N)
    return WittCoefRing(p, N, ext=list(ext), lift=list(lift))


def _coords(W):
    return st.tuples(*[st.integers(0, W.modulus - 1)] * W.f)


@settings(max_examples=150, deadline=None)
@given(unramified_rings(), st.data())
def test_mul_matches_the_reduction_loop(W, data):
    a, b = data.draw(_coords(W)), data.draw(_coords(W))
    assert W.mul(W.elem(a), W.elem(b)).coeffs == _poly_mul_mod(a, b, W.lift, W.modulus)


def test_a_long_multiplication_row_compiles():
    # a coordinate of mul written as one +-chain of 3,699 products exceeded the
    # compiler's recursion limit
    from fglcheck.twisted_bialgebra import find_irreducible
    W = WittCoefRing(2, 2, find_irreducible(2, 100))
    assert max(map(len, exact_arith._structure_constants(W.lift, W.modulus))) > 3000
    rng = random.Random(0)
    for _ in range(5):
        a, b = W.rand(rng), W.rand(rng)
        assert W.mul(a, b).coeffs == _poly_mul_mod(a.coeffs, b.coeffs, W.lift, W.modulus)


@settings(max_examples=100, deadline=None)
@given(unramified_rings(with_f1=True), st.data())
def test_scalar_matches_product_with_from_int(W, data):
    q = W.modulus
    a = W.elem(data.draw(_coords(W)))
    n = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=q),
                            st.integers(0, q - 1)))
    assert _canonical(W, W.scalar(n, a)) == W.mul(W.from_int(n), a).coeffs


@settings(max_examples=100, deadline=None)
@given(unramified_rings(with_f1=True), st.data())
def test_add_sub_neg_are_coordinatewise_mod_q(W, data):
    q = W.modulus
    a, b = data.draw(_coords(W)), data.draw(_coords(W))
    x, y = W.elem(a), W.elem(b)
    assert _canonical(W, W.add(x, y)) == tuple((u + v) % q for u, v in zip(a, b))
    assert _canonical(W, W.sub(x, y)) == tuple((u - v) % q for u, v in zip(a, b))
    assert _canonical(W, W.neg(x)) == tuple(-u % q for u in a)
    assert W.sub(x, y) == W.add(x, W.neg(y))


def _compiles(monkeypatch):
    """Record (f, q, source) for each shape compiled from here on, from an empty cache."""
    compiled = []
    source = exact_arith._kernel_source

    def recording(q, table):
        compiled.append((len(table), q, source(q, table)))
        return compiled[-1][2]

    monkeypatch.setattr(exact_arith, "_KERNELS", {})
    monkeypatch.setattr(exact_arith, "_kernel_source", recording)
    return compiled


def test_rings_of_one_shape_share_one_kernel(monkeypatch):
    compiled = _compiles(monkeypatch)
    first = WittCoefRing(2, 3, [1, 1, 1])
    first.lower()
    assert [c[:2] for c in compiled] == [(2, 8), (2, 4)]
    W = WittCoefRing(2, 3, [1, 1, 1])
    W.lower()
    assert len(compiled) == 2
    assert W._mul is first._mul and W.lower()._sub is first.lower()._sub
    WittCoefRing(2, 3, [1, 1, 1], lift=[3, 1, 1])  # another lift, another table
    assert [c[:2] for c in compiled[2:]] == [(2, 8)]


class _Loud(int):
    """An int whose text is not its digits."""

    def __repr__(self):
        return "__import__('os')"

    __str__ = __repr__

    def __format__(self, spec):
        return repr(self)


def test_kernel_source_holds_no_text_from_the_inputs(monkeypatch):
    table = exact_arith._structure_constants((3, 1, 4, 1), 8)
    loud = tuple(tuple(tuple(_Loud(x) for x in triple) for triple in row) for row in table)
    assert exact_arith._kernel_source(_Loud(8), loud) == exact_arith._kernel_source(8, table)
    compiled = _compiles(monkeypatch)
    WittCoefRing(_Loud(2), _Loud(3), [_Loud(c) for c in (1, 1, 0, 1)],
                 lift=[_Loud(c) for c in (3, 1, 4, 1)])
    WittCoefRing(_Loud(3), _Loud(2))
    template = {"def", "return", "add", "sub", "neg", "mul", "scalar", "W", "a", "b",
                "n", "e", "coeffs", "_new", "WittElem", "_set_ring", "_set_coeffs"}
    assert len(compiled) == 2
    for _, _, text in compiled:
        assert "import" not in text
        assert set(re.findall(r"[A-Za-z_]\w*", re.sub(r"\b[abc]\d+\b", "", text))) <= template
        assert re.fullmatch(r"[\w\s().,:=%*+-]*", text)


@settings(max_examples=60, deadline=None)
@given(unramified_rings(with_f1=True), st.integers())
def test_ring_made_constants_equal_checked_elements(W, n):
    tail = (0,) * (W.f - 1)
    assert W.zero() == W.elem((0,) + tail) and W.zero() is W.zero()
    assert W.one() == W.elem((1,) + tail) and W.one() is W.one()
    assert _canonical(W, W.from_int(n)) == W.elem((n,) + tail).coeffs
    assert W.elem(n) == W.elem((n,) + tail)


@pytest.mark.parametrize("W", [_unramified_ring(p, 2, ext, ext) for p, ext in UNRAMIFIED]
                         + [WittCoefRing(3, 2)], ids=repr)
def test_is_zero_on_one_nonzero_coordinate(W):
    assert W.is_zero(W.elem((0,) * W.f))
    for j in range(W.f):
        for v in (1, W.p, W.modulus - 1):
            a = W.elem(tuple(v if i == j else 0 for i in range(W.f)))
            assert not W.is_zero(a)
            assert W.is_zero(W.sub(a, a))


def _validations(monkeypatch):
    """Count WittElem.__post_init__ calls from here on."""
    calls = []
    check = WittElem.__post_init__

    def counting(self):
        calls.append(self.coeffs)
        check(self)

    monkeypatch.setattr(WittElem, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("ext", [[1, 1, 1], [1, 1, 0, 1]])
def test_ring_made_elements_are_not_validated_again(monkeypatch, ext):
    W = WittCoefRing(2, 3, ext=ext)
    a = W.elem((3, 5) + (0,) * (W.f - 2))
    b = W.elem((7,) * W.f)
    calls = _validations(monkeypatch)
    W.zero(), W.one(), W.from_int(-9), W.elem(12)
    W.add(a, b), W.mul(a, b), W.scalar(-3, a), W.scalar(W.modulus + 1, b)
    W.sub(a, b), W.neg(a)
    assert calls == []
    # input still enters through the checks
    assert W.elem((1, 2)).coeffs == (1, 2) + (0,) * (W.f - 2)
    assert W.decode([str(c) for c in b.coeffs]) == b
    assert len(calls) == 2
    with pytest.raises(MalformedElement):
        W.elem((1,) * (W.f + 1))
    with pytest.raises(MalformedElement):
        W.elem((1.5,) + (0,) * (W.f - 1))
    with pytest.raises(MalformedElement):
        W.decode(["1"] * (W.f + 1))
    with pytest.raises(MalformedElement):
        W.decode([1] * W.f)
    with pytest.raises(MalformedElement):
        WittElem(W, (W.modulus,) + (0,) * (W.f - 1))
    with pytest.raises(MalformedElement):
        WittElem(W, (-1,) + (0,) * (W.f - 1))
    with pytest.raises(MalformedElement):
        WittElem(W, (0,) * (W.f - 1))


@pytest.mark.parametrize("W", [WittCoefRing(2, 3), WittCoefRing(2, 3, ext=[1, 1, 1]),
                               WittCoefRing(2, 3, ext=[1, 1, 0, 1])], ids=repr)
def test_val_unit_rand_truncate_and_gen_are_not_validated(monkeypatch, W):
    q, f, low = W.modulus, W.f, W.lower()
    rng = random.Random(f)
    xs = [W.elem(tuple(rng.randrange(q) for _ in range(f))) for _ in range(40)]
    xs += [W.zero(), W.from_int(4), W.scalar(2, xs[0])]
    calls = _validations(monkeypatch)
    t = W.gen()
    split = [W.val_unit(x) for x in xs]
    lowered = [W.truncate_to(low, x) for x in xs]
    drawn = [W.rand(random.Random(seed)) for seed in range(40)]
    assert calls == []
    # each equals the element the checked constructor builds
    assert _canonical(W, t) == ((0, 1) + (0,) * (f - 2) if f > 1 else (1,))
    for x, (v, u), y in zip(xs, split, lowered):
        assert _canonical(low, y) == low.elem(tuple(c % low.modulus for c in x.coeffs)).coeffs
        if v is None:
            assert W.is_zero(x) and u == x
            continue
        assert _canonical(W, u) == W.elem(tuple(c // W.p ** v for c in x.coeffs)).coeffs
        assert W.is_unit(u) and W.scalar(W.p ** v, u) == x
    for seed, a in enumerate(drawn):
        r = random.Random(seed)
        assert _canonical(W, a) == W.elem(tuple(r.randrange(q) for _ in range(f))).coeffs
