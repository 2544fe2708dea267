import copy
import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck.acceptance import _mutate_one_constant
from fglcheck.exact_arith import IdentityFailed, WittCoefRing
from fglcheck.linalg import Mat
from fglcheck.twisted_bialgebra import (CategorySchemeData, IncompleteAction,
                                        IncompleteData, SizeLimit,
                                        TwistedBialgebra, _square_invertible,
                                        algebra_on_w, bialgebra_checks,
                                        dualize, height1_gamma,
                                        points_category, ring_maps,
                                        presentation_of_coefficients,
                                        trivial_algebra, twisted_sum,
                                        verify_bialgebra)

G23 = height1_gamma(2, 3, 2, 3)
W = G23.ring


def test_height1_axioms_pass():
    assert verify_bialgebra(G23).verdict


def test_trivial_bialgebra_kmax0():
    G = height1_gamma(3, 2, 1, 0)
    assert verify_bialgebra(G).verdict


def test_height1_grouplike_data():
    one = W.one()
    assert G23.eps[2] == (one,)
    assert G23.delta[2][0] == Mat(W, [[one]])


def test_psi2_commutes_with_coefficients_when_f2():
    t = W.gen()
    lhs = G23.mul_elems(2, G23.basis_vec(2, 0), 0, G23.eta(t))
    rhs = G23.mul_elems(0, G23.eta(t), 2, G23.basis_vec(2, 0))
    assert lhs == rhs


def test_psi_relation_direction():
    # psi a = a^sigma psi under the implemented twist: the action of psi on
    # the trivial algebra W is exactly the Frobenius lift
    triv = trivial_algebra(G23)
    for a in (W.gen(), W.from_int(3), W.add(W.gen(), W.one())):
        out = triv.act(1, G23.basis_vec(1, 0), (a,))[0]
        assert out == W.frobenius(a)


def test_delta_mutation_detected():
    H = copy.deepcopy(G23)
    H.delta[1][0] = Mat(W, [[W.from_int(3)]])
    rep = verify_bialgebra(H)
    assert not rep.verdict
    assert any(name.startswith("delta") for name, _ in rep.witnesses)


def test_mu_mutation_detected_via_eps_axiom():
    H = copy.deepcopy(G23)
    H.mu[(2, 1)][(0, 0)] = (W.zero(),)
    rep = verify_bialgebra(H)
    assert not rep.verdict
    assert any(name.startswith("eps_mu") for name, _ in rep.witnesses)


def test_top_weight_left_twist_mutation_detected():
    H = copy.deepcopy(G23)
    t = W.gen()
    # at f = 2 the correct twist at weight 3 is sigma^3 = sigma; plant sigma^0
    H.left_t[3] = Mat(W, [[t]])
    rep = verify_bialgebra(H)
    assert not rep.verdict
    assert any(name.startswith("mu_assoc_eta") for name, _ in rep.witnesses)


MUTATION_BASES = {1: height1_gamma(2, 3, 1, 3), 2: G23}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 2), st.randoms(use_true_random=False))
def test_stopping_verdict_matches_full_report_on_mutants(f, mutations, rnd):
    H = MUTATION_BASES[f]
    for _ in range(mutations):
        H, _, _ = _mutate_one_constant(H, rnd)
    assert all(c.passed for c in bialgebra_checks(H)) == verify_bialgebra(H).verdict


def _monoid_gamma(p, N, f, kmax):
    """The twisted monoid algebra of N x Z/2: Gamma[k] has the group-like basis
    psi^k, psi^k s with s^2 = 1, so every weight has rank 2."""
    H = height1_gamma(p, N, f, kmax)
    R = H.ring
    o, z = R.one(), R.zero()
    basis = {k: (f"psi^{k}", f"psi^{k}s") for k in range(kmax + 1)}
    mu = {kl: {(i, j): ((o, z), (z, o))[(i + j) % 2] for i in range(2) for j in range(2)}
          for kl in H.mu}
    delta = {k: {a: Mat(R, [[o if u == v == a else z for v in range(2)] for u in range(2)])
                 for a in range(2)} for k in range(kmax + 1)}
    left_t = H.left_t and {k: Mat(R, [[m.rows[0][0], z], [z, m.rows[0][0]]])
                           for k, m in H.left_t.items()}
    return TwistedBialgebra(ring=R, kmax=kmax, basis=basis, unit=(o, z), mu=mu,
                            eps={k: (o, o) for k in range(kmax + 1)}, delta=delta,
                            left_t=left_t)


def test_tensor_mul_forms_each_first_leg_once(monkeypatch):
    # mu(gamma_u gamma_w) does not depend on v: one per nonzero row u of S and
    # each w, where it was one per nonzero S[u][v] and each w
    G = _monoid_gamma(2, 2, 2, 2)
    R = G.ring
    S = Mat(R, [[R.one(), R.gen()], [R.zero(), R.zero()]])
    T = Mat(R, [[R.one(), R.one()], [R.gen(), R.one()]])
    calls = []
    mul_elems = TwistedBialgebra.mul_elems
    monkeypatch.setattr(TwistedBialgebra, "mul_elems",
                        lambda H, *args: calls.append(args) or mul_elems(H, *args))
    G.tensor_mul(1, S, 1, T)
    assert len(calls) == 1 * 2 + 2 * 4


def _filter_agrees_with_full_run(H, touched):
    """The filtered verdict is the full verdict, and every check that fails in the
    full run (not stopped at its first failure) is one the filter yields."""
    full = list(bialgebra_checks(H))
    kept = list(bialgebra_checks(H, touched))
    assert all(c.passed for c in kept) == all(c.passed for c in full)
    assert {c.name for c in full if not c.passed} <= {c.name for c in kept}
    assert [c for c in full if c.name in {k.name for k in kept}] == kept


def test_filtered_checks_agree_on_every_criterion_5_mutant():
    from fglcheck.acceptance import SEED
    rng = random.Random(SEED)
    for _ in range(50):
        H, _, touched = _mutate_one_constant(G23, rng)
        _filter_agrees_with_full_run(H, touched)


FILTER_BASES = {"f=1": height1_gamma(2, 3, 1, 3), "f=2": G23,
                "f=3": height1_gamma(2, 2, 3, 2), "rank 2": _monoid_gamma(2, 2, 2, 2)}


def test_filter_bases_pass():
    assert all(verify_bialgebra(G).verdict for G in FILTER_BASES.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FILTER_BASES)), st.integers(0, 2 ** 32 - 1))
def test_filtered_checks_agree_on_drawn_mutants(shape, seed):
    H, _, touched = _mutate_one_constant(FILTER_BASES[shape], random.Random(seed))
    _filter_agrees_with_full_run(H, touched)


def test_incomplete_data():
    H = copy.deepcopy(G23)
    del H.eps[3]
    with pytest.raises(IncompleteData):
        verify_bialgebra(H)


def test_gamma_one_acts_as_identity():
    triv = trivial_algebra(G23)
    assert triv.act(0, G23.unit, (W.gen(),)) == (W.gen(),)


def test_trivial_algebra_acts_by_every_basis_operation():
    triv = trivial_algebra(G23)
    assert set(triv.action) == {(k, a) for k in range(G23.kmax + 1)
                                for a in range(G23.rank(k))}
    for (k, a), m in triv.action.items():
        assert m == Mat(W, [[G23.eps[k][a]]])


def test_missing_action_matrix_raises():
    alg = algebra_on_w(G23, {0: Mat(W, [[W.one()]])})
    assert alg.act(0, G23.unit, (W.gen(),)) == (W.gen(),)
    with pytest.raises(IncompleteAction):
        alg.act(1, G23.basis_vec(1, 0), (W.one(),))


def test_dualize_height1():
    scheme = dualize(G23)
    assert scheme.report.verdict
    # s* is coefficientwise, t* twists by sigma on weight 1
    t = W.gen()
    assert scheme.s_star(1, t) == (t,)
    assert scheme.t_star(1, t) == (W.frobenius(t),)
    assert scheme.t_star_sigma_power == 1
    # i* is evaluation at eta(1) and is an isomorphism here
    assert scheme.i_star((W.from_int(5),)) == W.from_int(5)
    # c* at f=1 is the plain structure-constant transpose
    s1 = dualize(height1_gamma(2, 3, 1, 3))
    assert s1.c_star[(1, 2)][0] == Mat(s1.gamma.ring, [[s1.gamma.ring.one()]])


@pytest.mark.parametrize("f", [1, 2])
def test_square_invertible_agrees_with_i_star_on_rank_1(f):
    # dualize decides i* through _square_invertible for every rank(0); on
    # rank-1 data a unit test of i*(eps) is its oracle: a 1x1 Smith form has
    # rank 1 and valuation 0 iff eps_0 * u_0 is a unit
    G = height1_gamma(2, 3, f, 1)
    R = G.ring
    for eps0 in (R.one(), R.from_int(3), R.gen(), R.from_int(2), R.from_int(4),
                 R.zero()):
        H = dataclasses.replace(G, eps={**G.eps, 0: (eps0,)})
        scheme = CategorySchemeData(gamma=H, A={}, c_star={}, report=None)
        expected = R.is_unit(scheme.i_star(H.eps[0]))
        assert expected == R.is_unit(eps0)
        assert _square_invertible(R, H) == expected


def test_points_category_f1():
    s1 = dualize(height1_gamma(2, 3, 1, 3))
    for Rp in (WittCoefRing(2, 1), WittCoefRing(2, 2)):
        pc = points_category(s1, Rp)
        assert pc.report.verdict
        assert len(pc.objects) == 1
        assert all(len(v) == 1 for v in pc.morphisms.values())


def test_points_category_kmax0():
    s0 = dualize(height1_gamma(2, 2, 1, 0))
    pc = points_category(s0, WittCoefRing(2, 1))
    assert pc.report.verdict
    assert list(pc.morphisms) == [0]


def test_points_size_limit():
    s1 = dualize(height1_gamma(2, 3, 1, 1))
    with pytest.raises(SizeLimit):
        points_category(s1, WittCoefRing(2, 5))


def test_ring_maps_unit_and_multiplicativity():
    pres = presentation_of_coefficients(WittCoefRing(2, 2))
    maps = ring_maps(pres, WittCoefRing(2, 1))
    assert len(maps) == 1  # only the reduction


def test_bialgebra_json_roundtrip():
    data = G23.to_json()
    G2 = TwistedBialgebra.from_json(data)
    assert verify_bialgebra(G2).verdict
    assert G2.to_json() == data


def test_from_json_validates_completeness():
    data = G23.to_json()
    del data["eps"]["3"]
    with pytest.raises(IncompleteData):
        TwistedBialgebra.from_json(data)


def test_points_category_f2_over_f4():
    # W(F_4)-based scheme over F_4: two objects (the two roots of t^2+t+1),
    # odd-degree morphisms swap them, composition is genuinely non-trivial
    scheme = dualize(G23)
    F4 = WittCoefRing(2, 1, ext=[1, 1, 1])
    pc = points_category(scheme, F4)
    assert pc.report.verdict
    assert len(pc.objects) == 2
    assert all(len(v) == 2 for v in pc.morphisms.values())


@pytest.mark.parametrize("f, kmax", [(0, 1), (-2, 1), (1, -1)])
def test_height1_gamma_rejects_empty_parameters(f, kmax):
    with pytest.raises(ValueError):
        height1_gamma(2, 3, f, kmax)


# The matrix-power path that left_powers replaced, kept as the oracle: L_r is
# rebuilt from powers of left_t[k] for every scalar r.
def _left_action_by_matmul(G, k, r):
    R = G.ring
    n = G.rank(k)
    out = Mat.zeros(R, n, n)
    power = Mat.identity(R, n)
    for i, c in enumerate(r.coeffs):
        if i > 0:
            power = power @ G.left_t[k]
        if c:
            out = out + power.scale(R.from_int(c))
    return out


def _twisted_sum_by_matmul(G, k, g, vec, n, column):
    R = G.ring
    out = [R.zero()] * n
    for i, c in enumerate(vec):
        for j, w in enumerate(_left_action_by_matmul(G, k, c).apply(g)):
            col = column(i, j)
            for r in range(n):
                out[r] = R.add(out[r], R.mul(w, col[r]))
    return tuple(out)


def _random_left_t_gamma(W, rng):
    """Only the left actions of this Gamma are read: random 1..3 square
    matrices at weights 0 and 1, so L_t has entries off the diagonal."""
    ranks = {k: rng.randint(1, 3) for k in (0, 1)}
    return TwistedBialgebra(
        ring=W, kmax=1, basis={k: tuple(f"g{i}" for i in range(n)) for k, n in ranks.items()},
        unit=(), mu={}, eps={}, delta={},
        left_t={k: Mat(W, [[W.rand(rng) for _ in range(n)] for _ in range(n)])
                for k, n in ranks.items()})


@pytest.mark.parametrize("seed", range(6))
def test_left_powers_agree_with_matrix_powers(seed):
    rng = random.Random(seed)
    ext = [1, 1, 1] if seed % 2 == 0 else [1, 1, 0, 1]   # W(F_4), W(F_8)
    N = rng.randint(1, 3)
    W8 = WittCoefRing(2, N, ext)
    for G in (height1_gamma(2, N, len(ext) - 1, rng.randint(1, 3), ext=ext),
              _random_left_t_gamma(W8, rng)):
        R = G.ring
        for k in G.left_t:
            n = G.rank(k)
            for _ in range(5):
                r = R.rand(rng)
                L = _left_action_by_matmul(G, k, r)
                for g in [tuple(R.rand(rng) for _ in range(n))] + [
                        G.basis_vec(k, a) for a in range(n)]:
                    assert G.left_mul(k, r, g) == L.apply(g)
            g = tuple(R.rand(rng) for _ in range(n))
            vec = tuple(R.rand(rng) if rng.random() < 0.7 else R.zero() for _ in range(3))
            cols = {(i, j): tuple(R.rand(rng) for _ in range(2))
                    for i in range(3) for j in range(n)}
            assert (twisted_sum(G, k, g, vec, 2, lambda i, j: cols[(i, j)])
                    == _twisted_sum_by_matmul(G, k, g, vec, 2, lambda i, j: cols[(i, j)]))
        for (k, l), consts in G.mu.items():
            x = tuple(R.rand(rng) for _ in range(G.rank(k)))
            y = tuple(R.rand(rng) for _ in range(G.rank(l)))
            assert G.mul_elems(k, x, l, y) == _twisted_sum_by_matmul(
                G, l, y, x, G.rank(k + l), lambda i, j: consts[(i, j)])


def test_left_powers_follow_a_replaced_left_t():
    G = height1_gamma(2, 3, 2, 2)
    t = G.ring.gen()
    e = G.basis_vec(1, 0)
    before = G.left_mul(1, t, e)           # fills the cache of G
    H = copy.deepcopy(G)
    t1 = G.ring.add(t, G.ring.one())
    H.left_t[1] = Mat(G.ring, [[t1]])
    assert H.left_mul(1, t, e) == _left_action_by_matmul(H, 1, t).apply(e) == (t1,)
    assert H.left_powers(1)[1] == H.left_t[1]
    assert G.left_mul(1, t, e) == before == G.left_t[1].apply(e)


# The block-row formula that counit_left replaced, kept as the oracle:
# sum_uv eta(eps_u) gamma_v c_uv is [L(eps_0) ... L(eps_n-1)] applied to the
# rows of D laid end to end.
def _counit_left_by_hstack(G, k, D):
    blocks = [_left_action_by_matmul(G, k, e) for e in G.eps[k]]
    return functools.reduce(Mat.hstack, blocks).apply(sum(D.rows, ()))


@pytest.mark.parametrize("seed", range(6))
def test_counit_left_agrees_with_the_block_row(seed):
    rng = random.Random(seed)
    N = rng.randint(1, 3)
    W = (WittCoefRing(3, N), WittCoefRing(2, N, [1, 1, 1]),
         WittCoefRing(2, N, [1, 1, 0, 1]))[seed % 3]
    G = _random_left_t_gamma(W, rng)
    for k in G.left_t:
        n = G.rank(k)
        for _ in range(3):
            H = dataclasses.replace(G, eps={k: tuple(W.rand(rng) for _ in range(n))})
            D = Mat(W, [[W.rand(rng) for _ in range(n)] for _ in range(n)])
            assert H.counit_left(k, D) == _counit_left_by_hstack(H, k, D)


def test_twisted_sum_applies_integer_scalars_without_products():
    # each Witt coordinate of a scalar acts through R.scalar; the ring products
    # left are L_t^i applied to g and the ones with the column entries
    k, n = 1, 3
    g = (W.elem((5, 3)),)
    vec = (W.elem((3, 5)), W.zero(), W.elem((0, 7)), W.elem((6, 0)))
    cols = {(i, j): tuple(W.elem((i + r + 1, j + 2 * r)) for r in range(n))
            for i in range(len(vec)) for j in range(len(g))}
    operands = {id(x) for x in g} | {id(x) for col in cols.values() for x in col}
    calls = []

    def mul(a, b):
        calls.append(b)
        return WittCoefRing.mul(W, a, b)

    W.mul = mul
    try:
        out = twisted_sum(G23, k, g, vec, n, lambda i, j: cols[(i, j)])
    finally:
        del W.mul
    assert calls and all(id(b) in operands for b in calls)
    assert out == _twisted_sum_by_matmul(G23, k, g, vec, n, lambda i, j: cols[(i, j)])


def test_passing_checks_format_no_witness_and_apply_each_counit_once(monkeypatch):
    calls = []
    for cls, name in ((Mat, "to_json"), (TwistedBialgebra, "counit_right")):
        fn = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*args))
    assert verify_bialgebra(G23).verdict
    assert calls == ["counit_right"] * sum(G23.rank(k) for k in range(G23.kmax + 1))


def _truncated(G):
    """G reduced mod p^(N-1) through its JSON document, the lift included."""
    R = G.ring
    q = R.p ** (R.N - 1)

    def mod_q(x):  # every element encoding in x, a decimal string, mod q
        if isinstance(x, list):
            return [mod_q(y) for y in x]
        if isinstance(x, dict):
            return {key: mod_q(y) for key, y in x.items()}
        return str(int(x) % q)

    doc = G.to_json()
    doc["ring"] = {**doc["ring"], "N": R.N - 1}
    if "lift" in doc["ring"]:
        doc["ring"]["lift"] = [c % q for c in doc["ring"]["lift"]]
    for key in ("unit", "mu", "eps", "delta", "left_t"):
        if doc[key] is not None:
            doc[key] = mod_q(doc[key])
    return TwistedBialgebra.from_json(doc)


def _dual_passes(G):
    try:
        return dualize(G).report.verdict
    except IdentityFailed:  # a mutant whose c* system has no solution
        return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.sampled_from([1, 2, 3]),
       st.integers(1, 2), st.booleans(), st.randoms(use_true_random=False))
def test_a_pass_survives_truncation(p, N, f, kmax, mutate, rnd):
    # reduction mod p^(N-1) is a ring map, so every identity checked at N holds
    # at N - 1; left_mul commutes with it
    G = height1_gamma(p, N, f, kmax)
    if mutate:
        G, _, _ = _mutate_one_constant(G, rnd)
    H = _truncated(G)
    R, S = G.ring, H.ring
    if verify_bialgebra(G).verdict:
        assert verify_bialgebra(H).verdict
    if _dual_passes(G):
        assert _dual_passes(H)

    def lower(v):
        return tuple(R.truncate_to(S, c) for c in v)

    for k in range(G.kmax + 1):
        r = R.rand(rnd)
        g = tuple(R.rand(rnd) for _ in range(G.rank(k)))
        assert lower(G.left_mul(k, r, g)) == H.left_mul(k, R.truncate_to(S, r), lower(g))
