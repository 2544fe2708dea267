from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck import series
from fglcheck.exact_arith import WittCoefRing
from fglcheck.series import (ContextMismatch, NonUnitLinearCoefficient,
                             NonzeroConstantTerm, PolyTruncRing, ResidueZero,
                             TruncSeries, inverse, reversion, substitute,
                             weierstrass_prepare)

Z8 = WittCoefRing(2, 3)
Z4 = WittCoefRing(2, 2)


def xy(ring, bound):
    return (TruncSeries.var(ring, ("x", "y"), bound, "x"),
            TruncSeries.var(ring, ("x", "y"), bound, "y"))


def test_difference_of_squares():
    x, y = xy(Z8, 2)
    assert (x + y) * (x - y) == x * x - y * y


def test_one_plus_x_squared_mod4():
    x = TruncSeries.var(Z4, ("x",), 5, "x")
    one = TruncSeries.one(Z4, ("x",), 5)
    f = (one + x) * (one + x)
    assert f == TruncSeries.from_int_terms(Z4, ("x",), 5, {(0,): 1, (1,): 2, (2,): 1})


def test_truncation_at_bound():
    x = TruncSeries.var(Z8, ("x",), 4, "x")
    assert (x * x * x * x) * x == TruncSeries.zero(Z8, ("x",), 4)


def test_substitute_square_of_sum():
    f = TruncSeries.from_int_terms(Z8, ("u",), 3, {(2,): 1})
    x, y = xy(Z8, 3)
    out = substitute(f, [x + y])
    assert out == TruncSeries.from_int_terms(Z8, ("x", "y"), 3,
                                             {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_substitute_identity():
    x, y = xy(Z8, 4)
    f = x * y + x * x + y.scalar(Z8.from_int(3))
    assert substitute(f, [x, y]) == f


def test_substitute_self_composition_oracle():
    # independent oracle: expand f(f) = (x + x^2) + (x + x^2)^2 term by term,
    # the packed kernel against the dict loop of f * f
    x = TruncSeries.var(Z8, ("x",), 4, "x")
    f = x + x * x
    composed = substitute(f, [f])
    oracle = f + f * f
    assert composed == oracle
    assert composed == TruncSeries.from_int_terms(
        Z8, ("x",), 4, {(1,): 1, (2,): 2, (3,): 2, (4,): 1})


def test_substitute_rejects_constant_terms():
    x, _ = xy(Z8, 3)
    f = TruncSeries.var(Z8, ("u",), 3, "u")
    with pytest.raises(NonzeroConstantTerm) as e:
        substitute(f, [x + TruncSeries.one(Z8, ("x", "y"), 3)])
    assert e.value.index == 0


def test_context_mismatch():
    x4 = TruncSeries.var(Z8, ("x",), 4, "x")
    x5 = TruncSeries.var(Z8, ("x",), 5, "x")
    with pytest.raises(ContextMismatch):
        x4 + x5


def test_reversion_identity():
    x = TruncSeries.var(Z8, ("x",), 5, "x")
    assert reversion(x) == x


def test_reversion_frozen_value():
    x = TruncSeries.var(Z8, ("x",), 5, "x")
    r = reversion(x + x * x)
    assert r == TruncSeries.from_int_terms(
        Z8, ("x",), 5, {(1,): 1, (2,): 7, (3,): 2, (4,): 3, (5,): 6})
    assert substitute(x + x * x, [r]) == x
    assert substitute(r, [x + x * x]) == x


def test_reversion_rejects_nonunit():
    x = TruncSeries.var(Z8, ("x",), 5, "x")
    with pytest.raises(NonUnitLinearCoefficient):
        reversion(x.scalar(Z8.from_int(2)))


def test_weierstrass_2x_plus_x2():
    x = TruncSeries.var(Z4, ("x",), 5, "x")
    f = x.scalar(Z4.from_int(2)) + x * x
    w = weierstrass_prepare(f)
    assert w.degree == 2
    assert w.unit == TruncSeries.one(Z4, ("x",), 5)
    assert w.distinguished == TruncSeries.from_int_terms(Z4, ("x",), 5,
                                                         {(1,): 2, (2,): 1})
    assert w.unit * w.distinguished == f


def test_weierstrass_pure_power_over_field():
    F2 = WittCoefRing(2, 1)
    x = TruncSeries.var(F2, ("x",), 5, "x")
    w = weierstrass_prepare(x * x * x)
    assert w.degree == 3 and w.unit == TruncSeries.one(F2, ("x",), 5)
    assert w.distinguished == x * x * x


def test_weierstrass_unit_case():
    x = TruncSeries.var(Z8, ("x",), 4, "x")
    f = TruncSeries.one(Z8, ("x",), 4) + x.scalar(Z8.from_int(2)) + x * x
    w = weierstrass_prepare(f)
    assert w.degree == 0
    assert w.distinguished == TruncSeries.one(Z8, ("x",), 4)
    assert w.unit == f


def test_weierstrass_residue_zero():
    x = TruncSeries.var(Z4, ("x",), 4, "x")
    with pytest.raises(ResidueZero):
        weierstrass_prepare(x.scalar(Z4.from_int(2)))


def test_weierstrass_recomposition_random():
    import random
    rng = random.Random(5)
    x = TruncSeries.var(Z8, ("x",), 6, "x")
    for _ in range(25):
        d = rng.randrange(0, 4)
        terms = {(d,): Z8.from_int(rng.choice([1, 3, 5, 7]))}
        for k in range(6):
            if rng.random() < 0.5:
                c = Z8.from_int(2 * rng.randrange(4)) if k < d \
                    else Z8.rand(rng)
                terms[(k,)] = Z8.add(terms.get((k,), Z8.zero()), c)
        f = TruncSeries(Z8, ("x",), 6, terms)
        if f.map_coefficients(Z8.residue, ring=Z8.residue_ring()).is_zero():
            continue
        w = weierstrass_prepare(f)
        assert w.unit * w.distinguished == f
        assert Z8.is_unit(w.unit.constant_term())
        assert all(Z8.in_max_ideal(w.distinguished.coefficient((j,)))
                   for j in range(w.degree))


def test_series_inverse():
    x = TruncSeries.var(Z8, ("x",), 6, "x")
    f = TruncSeries.one(Z8, ("x",), 6) + x.scalar(Z8.from_int(3)) + x * x
    assert inverse(f) * f == TruncSeries.one(Z8, ("x",), 6)


def test_poly_trunc_ring():
    L = PolyTruncRing(Z8, ("u",), 2)
    u = L.var("u")
    x = L.add(L.one(), u)
    assert L.mul(x, L.inv(x)) == L.one()
    assert L.in_max_ideal(L.add(u, L.from_int(2)))
    assert not L.in_max_ideal(x)
    k = L.residue_ring()
    assert k.is_zero(L.residue(u)) and not k.is_zero(L.residue(x))


def test_json_roundtrip():
    x, y = xy(Z8, 8)
    f = x + y + (x * y).scalar(Z8.from_int(3)) + (x * x * x * x * x).scalar(Z8.from_int(7))
    data = f.to_json()
    assert TruncSeries.from_json(Z8, data) == f


series_strategy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 4),
    st.integers(0, 7), max_size=5)


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_mul_associative_commutative(a, b, c):
    f = TruncSeries.from_int_terms(Z8, ("x", "y"), 4, a)
    g = TruncSeries.from_int_terms(Z8, ("x", "y"), 4, b)
    h = TruncSeries.from_int_terms(Z8, ("x", "y"), 4, c)
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(2, 5), st.integers(0, 7), max_size=4),
       st.sampled_from([1, 3, 5, 7]))
def test_reversion_involution(tail, unit):
    terms = {(1,): unit}
    terms.update({(k,): v for k, v in tail.items()})
    f = TruncSeries.from_int_terms(Z8, ("x",), 5, terms)
    r = reversion(f)
    x = TruncSeries.var(Z8, ("x",), 5, "x")
    assert substitute(f, [r]) == x
    assert substitute(r, [f]) == x


def test_negative_power_raises():
    L = PolyTruncRing(Z8, ("x",), 4)
    with pytest.raises(ValueError):
        L.pow(L.var("x"), -1)


# ---------------------------------------------------------------------------
# the packed kernel against the dict loop it replaces

# Z/5^30 needs slots wider than a machine word
KERNEL_RINGS = [Z8, WittCoefRing(3, 4), PolyTruncRing(Z8, ("u1",), 4),
                PolyTruncRing(Z8, ("u1", "u2"), 2), WittCoefRing(5, 30),
                PolyTruncRing(Z8, tuple(f"u{i}" for i in range(1, 7)), 2),
                PolyTruncRing(WittCoefRing(3, 2), tuple(f"u{i}" for i in range(1, 17)), 2)]
VARS = ("x", "y", "z")


def dict_loop():
    """Route every product and composition through the reference dict loop."""
    return mock.patch.object(series, "_kernel", lambda ring, vars, bound: None)


def packed_mul(a, b):
    """a * b on the packed kernel: the per-degree product of the two series' parts."""
    make = series._kernel(a.ring, a.vars, a.bound)
    assert make is not None
    U = a.ring.ubound if isinstance(a.ring, PolyTruncRing) else 0
    k = make(range(len(a.vars)), series._u_exponents([*a.terms.values(), *b.terms.values()]),
             U, 1)
    parts = k.mul(k.parts(a), k.parts(b))
    return k.series({((0,) * len(a.vars), d): x for d, x in parts.items()})


def exponents(n, bound):
    """Exponent tuples of n variables within the bound, scaled down when over."""
    return st.lists(st.integers(0, bound), min_size=n, max_size=n).map(
        lambda e: tuple(x * bound // max(bound, sum(e), 1) for x in e))


@st.composite
def coefficients(draw, R):
    if isinstance(R, PolyTruncRing):
        terms = draw(st.dictionaries(exponents(len(R.vars), R.ubound),
                                     st.integers(0, R.ring.modulus - 1), max_size=4))
        return TruncSeries.from_int_terms(R.ring, R.vars, R.ubound, terms).terms
    return R.from_int(draw(st.integers(0, R.modulus - 1)))


@st.composite
def series_over(draw, R, vars, bound, constant=True, max_terms=24):
    exps = exponents(len(vars), bound)
    if not constant:
        exps = exps.filter(any)
    keys = draw(st.lists(exps, max_size=max_terms, unique=True))
    return TruncSeries(R, vars, bound, {e: draw(coefficients(R)) for e in keys})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_mul_matches_dict_loop(data):
    R = data.draw(st.sampled_from(KERNEL_RINGS))
    vars = VARS[:data.draw(st.integers(1, 3))]
    D = data.draw(st.integers(0, 16))
    a = data.draw(series_over(R, vars, D))
    b = data.draw(series_over(R, vars, D))
    with dict_loop():
        ref = a * b
    assert packed_mul(a, b) == ref
    assert a * b == ref


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_substitute_matches_dict_loop(data):
    R = data.draw(st.sampled_from(KERNEL_RINGS))
    vars = VARS[:data.draw(st.integers(1, 3))]
    D = data.draw(st.integers(1, 16))
    fvars = ("s", "t", "w")[:data.draw(st.integers(1, 3))]
    f = data.draw(series_over(R, fvars, data.draw(st.integers(0, 8)), max_terms=10))
    gs = [data.draw(series_over(R, vars, D, constant=False, max_terms=12))
          for _ in fvars]
    with dict_loop():
        ref = substitute(f, gs)
    assert substitute(f, gs) == ref


def _part(s, d):
    """The homogeneous part of degree d of s."""
    return TruncSeries(s.ring, s.vars, s.bound, {e: c for e, c in s.terms.items() if sum(e) == d})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_per_degree_product_and_sum_match_the_per_pair_dict_loop(data):
    # one int per homogeneous part: degree d of a * b, of a * a (each pair once,
    # doubled), and of sum c_i * a_i * b_i, each summed and unpacked once
    R = data.draw(st.sampled_from(KERNEL_RINGS))
    vars = VARS[:data.draw(st.integers(1, 3))]
    D = data.draw(st.integers(0, 12))
    n = data.draw(st.integers(1, 3))
    pairs = [(data.draw(series_over(R, vars, D)), data.draw(series_over(R, vars, D)))
             for _ in range(n)]
    cs = [data.draw(coefficients(R)) for _ in range(n)]
    U = R.ubound if isinstance(R, PolyTruncRing) else 0
    ues = series._u_exponents([*cs, *(c for ab in pairs for s in ab for c in s.terms.values())])
    k = series._kernel(R, vars, D)(range(len(vars)), ues, U, n)
    (a, b), parts = pairs[0], [(k.parts(a), k.parts(b)) for a, b in pairs]
    A, B = parts[0]
    zero = (0,) * len(vars)
    with dict_loop():
        ab, aa = a * b, a * a
        total = TruncSeries.zero(R, vars, D)
        for c, (x, y) in zip(cs, pairs):
            total = total + (x * y).scalar(c)
    for d in range(D + 1):
        assert k.series({(zero, d): k.part(A, B, d)}) == _part(ab, d)
        assert k.series({(zero, d): k.part(A, A, d)}) == _part(aa, d)
        acc = sum(k.coefficient(c) * k.part(X, Y, d) for c, (X, Y) in zip(cs, parts))
        assert k.series({(zero, d): acc}) == _part(total, d)


@st.composite
def monomial_over(draw, R, vars, bound):
    """c * x^e, e nonzero; the zero series when c is drawn 0."""
    e = draw(exponents(len(vars), bound).filter(any))
    return TruncSeries(R, vars, bound, {e: draw(coefficients(R))})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_shapes_match_dict_loop(data):
    # one general argument with a monomial, a zero series or another general
    # one (the FglHom shape), in 2 or 3 varying variables; and f in one variable
    R = data.draw(st.sampled_from(KERNEL_RINGS))
    vars = VARS[:data.draw(st.integers(2, 3))]
    D = data.draw(st.integers(1, 12))
    general = series_over(R, vars, D, constant=False, max_terms=12)
    other = data.draw(st.sampled_from([monomial_over(R, vars, D), general,
                                       st.just(TruncSeries.zero(R, vars, D)), None]))
    gs = [data.draw(general)] + ([] if other is None else [data.draw(other)])
    gs = data.draw(st.permutations(gs))
    f = data.draw(series_over(R, ("s", "t")[:len(gs)], data.draw(st.integers(0, 8)),
                              max_terms=10))
    with dict_loop():
        ref = substitute(f, gs)
    assert substitute(f, gs) == ref


@pytest.mark.parametrize("R", KERNEL_RINGS, ids=repr)
@pytest.mark.parametrize("shift", ["x", "z"])
def test_substitute_into_three_varying_variables(R, shift):
    # g in x, y and z packs with two head digits; the monomial x shifts a part's
    # heads, the monomial z only its degree
    D = 6
    g = _dense(R, VARS, D, lambda e: R.from_int(sum(e) + e[0] + 2 * e[2]))
    m = TruncSeries.var(R, VARS, D, shift)
    f = _dense(R, ("s", "t"), D, lambda e: R.from_int(e[0] + 2 * e[1] + 1))
    with mock.patch.object(series._Packed, "__init__", autospec=True,
                           side_effect=series._Packed.__init__) as init:
        got = substitute(f, [g, m])
    assert list(init.call_args.args[4]) == [0, 1, 2]
    with dict_loop():
        assert got == substitute(f, [g, m])


def _dense(R, vars, bound, coeff):
    """Every monomial within the bound, with coeff(exponent) as its coefficient."""
    import itertools
    terms = {e: coeff(e) for e in itertools.product(range(bound + 1), repeat=len(vars))
             if 0 < sum(e) <= bound}
    return TruncSeries(R, vars, bound, terms)


@pytest.mark.parametrize("R", KERNEL_RINGS, ids=repr)
def test_packed_kernel_edge_cases(R):
    D = 6
    one = R.one()
    zero = TruncSeries.zero(R, VARS, D)
    xs = _dense(R, ("x",), D, lambda e: R.from_int(e[0] + 3))

    def embed(f, v):
        return TruncSeries(R, VARS, D, {tuple(e[0] if w == v else 0 for w in VARS): c
                                        for e, c in f.terms.items()})

    x_only, y_only = embed(xs, "x"), embed(xs, "y")
    full = _dense(R, VARS, D, lambda e: R.from_int(-1))  # largest slot sums
    cases = [(zero, x_only), (x_only, zero), (x_only, y_only), (full, full),
             (x_only, _dense(R, VARS, D, lambda e: one))]
    for a, b in cases:
        with dict_loop():
            ref = a * b
        assert packed_mul(a, b) == ref
    assert packed_mul(x_only, y_only).coefficient((1, 1, 0)) == R.from_int(16)
    f = TruncSeries(R, ("s", "t"), D, {(0, 0): one, (1, 0): one, (1, 1): R.from_int(3),
                                      (0, 3): R.from_int(5)})
    empty = TruncSeries.zero(R, ("s", "t"), D)
    # an empty f; f with a constant term; a zero g; g in two variables
    for f_, gs in [(empty, [x_only, y_only]), (f, [x_only, y_only]),
                   (f, [zero, x_only]), (f, [x_only + y_only, y_only])]:
        with dict_loop():
            ref = substitute(f_, gs)
        assert substitute(f_, gs) == ref
    assert substitute(f, [x_only, y_only]).constant_term() == one


def test_packed_kernel_drops_inner_degree_beyond_u_bound():
    # over (Z/8)[u1,u2]<=2 the product of u-degree 2 coefficients has u-degree 4:
    # those terms vanish, and must not spill into the next outer slot
    L = PolyTruncRing(Z8, ("u1", "u2"), 2)
    u1, u2 = L.var("u1"), L.var("u2")
    top = [L.mul(u1, u1), L.mul(u1, u2), L.mul(u2, u2)]
    a = _dense(L, ("x", "y"), 5, lambda e: L.add(top[e[0] % 3], L.from_int(e[1])))
    b = _dense(L, ("x", "y"), 5, lambda e: L.add(top[e[1] % 3], u1))
    with dict_loop():
        ref = a * b
        comp = substitute(a, [b, a])
    assert packed_mul(a, b) == ref
    assert substitute(a, [b, a]) == comp
    high = _dense(L, ("x",), 5, lambda e: top[e[0] % 3])
    assert packed_mul(high, high).is_zero()


@pytest.mark.parametrize("L", [PolyTruncRing(Z8, ("u1", "u2"), 2),
                               PolyTruncRing(WittCoefRing(3, 2), ("u1", "u2"), 2)], ids=repr)
def test_powers_past_the_u_bound_are_cut_before_the_next_product(L):
    # g^2 reaches u-degree 4; left in its part, g^3 = g^2 * g would reach past
    # the u-block of its head into the next one
    u1, u2 = L.var("u1"), L.var("u2")
    top = [L.mul(u1, u1), L.mul(u1, u2), L.mul(u2, u2)]
    g = _dense(L, ("x", "y"), 8, lambda e: L.add(top[sum(e) % 3], L.from_int(e[0])))
    f = _dense(L, ("s",), 8, lambda e: L.one())
    with dict_loop():
        ref = substitute(f, [g])
    assert substitute(f, [g]) == ref


# ---------------------------------------------------------------------------
# one-term operands: products on the kernel, and shifts as arguments of substitute

def _packs():
    """Spy on the series the kernel packs into homogeneous parts."""
    return mock.patch.object(series._Packed, "parts", autospec=True,
                             side_effect=series._Packed.parts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_term_products_match_dict_loop(data):
    R = data.draw(st.sampled_from(KERNEL_RINGS))
    vars = VARS[:data.draw(st.integers(1, 3))]
    D = data.draw(st.integers(0, 12))
    e = data.draw(exponents(len(vars), D))
    mono = TruncSeries(R, vars, D, {e: data.draw(coefficients(R))})
    other = data.draw(series_over(R, vars, D))
    for a, b in ((mono, other), (other, mono)):
        with dict_loop():
            ref = a * b
        assert packed_mul(a, b) == ref


def _compose_with(f, gs):
    """substitute(f, gs) and the dict loop's, with every series the kernel packed."""
    with dict_loop():
        ref = substitute(f, gs)
    with _packs() as pack:
        got = substitute(f, gs)
    assert got == ref
    return got, [call.args[1] for call in pack.call_args_list]


@pytest.mark.parametrize("R", KERNEL_RINGS, ids=repr)
def test_one_term_scalar_operand_is_a_shift(R):
    # an argument c * x^e of substitute scales f's terms by powers of c and
    # shifts their exponents; only the other arguments are packed
    D = 6
    base = R.ring if isinstance(R, PolyTruncRing) else R
    p, q = base.p, base.modulus
    unit = R.add(R.one(), R.var(R.vars[0])) if isinstance(R, PolyTruncRing) else R.one()
    other = _dense(R, VARS, D, lambda e: R.mul(R.from_int(p * (sum(e) + 1)), unit))
    zero = TruncSeries.zero(R, VARS, D)
    f = TruncSeries(R, ("s", "t"), D, {(1, 1): R.one(), (2, 1): R.from_int(3),
                                      (0, 2): R.one()})
    st_ = TruncSeries(R, ("s", "t"), D, {(1, 1): R.one()})

    def mono(e, n):
        return TruncSeries(R, VARS, D, {e: R.from_int(n)})

    # (one-term argument, what other * it must be, or None for the dict loop's word)
    cases = [(mono((1, 0, 2), 1), None),
             (mono((0, 1, 0), 3), None),
             (mono((0, 1, 0), q // p), zero),  # p^(N-1) times multiples of p
             (mono((2, 2, 2), 5), zero)]  # degree D pushes every term past D
    for m, expect in cases:
        for gs in ([other, m], [m, other]):
            got, packed = _compose_with(f, gs)
            assert packed and all(s is other for s in packed)
            prod, _ = _compose_with(st_, gs)
            assert expect is None or prod == expect
    # both arguments one-term: nothing is packed but the sum of f's coefficients
    got, packed = _compose_with(f, [mono((1, 0, 0), 1), mono((0, 0, 1), 3)])
    assert packed == [] and got.coefficient((1, 0, 1)) == R.from_int(3)


@pytest.mark.parametrize("L", [R for R in KERNEL_RINGS if isinstance(R, PolyTruncRing)],
                         ids=repr)
def test_one_term_operand_in_u_is_a_shift(L):
    # (u1^U + 1) * y^2 is one x-term with two u-terms, and u1^U * x one term
    # with one: both are monomial arguments, never packed
    U = L.ubound
    u1 = L.var("u1")
    top = L.pow(u1, U)
    b = _dense(L, ("x", "y"), 5, lambda e: L.add(u1, L.from_int(e[0] + 1)))
    f = TruncSeries(L, ("s", "t"), 5, {(1, 1): L.one(), (1, 2): u1})
    for m in (TruncSeries(L, ("x", "y"), 5, {(1, 0): top}),
              TruncSeries(L, ("x", "y"), 5, {(0, 2): L.add(top, L.one())})):
        for gs in ([m, b], [b, m]):
            got, packed = _compose_with(f, gs)
            assert all(s is b for s in packed)
            # u1^U * u1 has u-degree U + 1 and is dropped
            assert all(sum(ue) <= U for c in got.terms.values() for ue in c)
            assert any(sum(ue) == U for c in got.terms.values() for ue in c)


@pytest.mark.parametrize("n", range(1, 18))
def test_series_pow_squares_only_what_it_uses(n):
    # Ring.pow, which WittCoefRing keeps, squares; PolyTruncRing.pow multiplies
    # in from the left, for the order of its terms
    W = WittCoefRing(3, 4)
    a = W.from_int(5)
    expected = W.one()
    for _ in range(n):
        expected = W.mul(expected, a)
    with mock.patch.object(WittCoefRing, "mul", autospec=True,
                           side_effect=WittCoefRing.mul) as mul:
        r = W.pow(a, n)
    assert mul.call_count == bin(n).count("1") + n.bit_length() - 1
    assert r == expected
