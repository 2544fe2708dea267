import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcheck import acceptance, graded2
from fglcheck.acceptance import standard_graded_objects
from fglcheck.exact_arith import WittCoefRing
from fglcheck.graded2 import (COHERENCE_MAX_OBJECTS, COHERENCE_MAX_RANK,
                              GradedMap, GradedObj, ShapeMismatch, SignedPerm,
                              SizeLimit, associator, coherence_checks,
                              flip_sign, interchange,
                              left_unitor, omega_obj, omega_sqrt, right_unitor,
                              tensor_map, twisted_tensor, unit_obj,
                              verify_coherence)
from fglcheck.linalg import Mat

Z8 = WittCoefRing(2, 3)
F2 = WittCoefRing(2, 1)


def test_tensor_ranks():
    M = GradedObj(Z8, ("m0",), ("m1",))
    N = GradedObj(Z8, ("n0",), ("n1",))
    T = twisted_tensor(M, N)
    assert T.ranks() == (2, 2)
    big = GradedObj(Z8, ("p", "q"), ("r",))
    T2 = twisted_tensor(big, N)
    assert T2.ranks() == (2 * 1 + 1 * 1, 2 * 1 + 1 * 1)


def test_omega_sqrt_squares_to_omega():
    h = omega_sqrt(Z8)
    hh = twisted_tensor(h, h)
    assert hh.ranks() == omega_obj(Z8).ranks() == (1, 0)


def test_unit_tensor_is_isomorphic():
    M = GradedObj(Z8, ("a", "b"), ("c",))
    lu = left_unitor(M)
    ru = right_unitor(M)
    assert lu.m0.to_mat() == Mat.identity(Z8, 2)
    assert lu.m1.to_mat() == Mat.identity(Z8, 1)
    assert ru.m0.to_mat() == Mat.identity(Z8, 2)
    assert ru.m1.to_mat() == Mat.identity(Z8, 1)


def test_interchange_even_is_plain_swap():
    M = GradedObj(Z8, ("a", "b"), ())
    N = GradedObj(Z8, ("c",), ())
    t = interchange(M, N)
    one, zero = Z8.one(), Z8.zero()
    # (a,c),(b,c) -> (c,a),(c,b)
    assert t.m0.to_mat() == Mat(Z8, [[one, zero], [zero, one]])
    assert t.m1.shape == (0, 0)


def test_interchange_omega_sqrt_sign():
    h = omega_sqrt(Z8)
    t = interchange(h, h)
    assert t.m0.to_mat() == Mat.identity(Z8, 1).scale(Z8.from_int(-1))


def test_interchange_involution_random_ranks():
    rng = random.Random(4)
    names = iter(f"e{i}" for i in range(100))
    for _ in range(6):
        M = GradedObj(Z8, tuple(next(names) for _ in range(rng.randrange(3))),
                      tuple(next(names) for _ in range(rng.randrange(3))))
        N = GradedObj(Z8, tuple(next(names) for _ in range(rng.randrange(3))),
                      tuple(next(names) for _ in range(rng.randrange(3))))
        pair = interchange(N, M).compose(interchange(M, N))
        assert pair == GradedMap.identity(pair.source)


def test_associator_even_is_identity_permutation():
    M = GradedObj(Z8, ("a", "b"), ())
    N = GradedObj(Z8, ("c",), ())
    P = GradedObj(Z8, ("d",), ())
    al = associator(M, N, P)
    assert al.m0.to_mat() == Mat.identity(Z8, 2)


def test_associator_omega_sqrt_triple():
    h = omega_sqrt(Z8)
    al = associator(h, h, h)
    # ((h@h)@h)^1 and (h@(h@h))^1 are both rank 1; the associator is the
    # 1x1 identity block and is invertible
    assert al.m1.to_mat() == Mat.identity(Z8, 1)
    assert al.m0.shape == (0, 0)


def test_pentagon_on_omega_sqrt_quadruple():
    h = omega_sqrt(Z8)
    lhs = associator(h, h, twisted_tensor(h, h)).compose(
        associator(twisted_tensor(h, h), h, h))
    rhs = tensor_map(GradedMap.identity(h), associator(h, h, h)).compose(
        associator(h, twisted_tensor(h, h), h)).compose(
        tensor_map(associator(h, h, h), GradedMap.identity(h)))
    assert lhs == rhs


def test_coherence_standard_set():
    rep = verify_coherence(Z8, standard_graded_objects(Z8))
    assert rep.verdict
    names = {c.name.split("[")[0] for c in rep.checks}
    assert {"pentagon", "triangle", "symmetry", "hexagon",
            "odd_square_sign"} <= names


def test_coherence_detects_sign_flip():
    objs = standard_graded_objects(Z8)
    h = objs[2]

    def tau_fn(X, Y):
        m = interchange(X, Y)
        if X is h and Y is h:
            return flip_sign(m, 0, 0, 0)
        return m

    rep = verify_coherence(Z8, objs, interchange_fn=tau_fn)
    assert not rep.verdict


# sha256 of the sorted-key JSON of the report below: the failing checks and
# their witness bytes
FLIPPED_WITNESS_DIGEST = \
    "4fa634a50155720befd16de5331c25247fa4a75cda324b684cd988ec15e8b820"


def test_coherence_witness_bytes_of_two_sign_flips():
    # one flip in each degree: tau(h, h) in degree 0, tau(a|b, h) in degree 1
    objs = standard_graded_objects(Z8)
    h, ab = objs[2], objs[3]

    def tau_fn(X, Y):
        m = interchange(X, Y)
        if X is h and Y is h:
            return flip_sign(m, 0, 0, 0)
        if X is ab and Y is h:
            return flip_sign(m, 1, 0, 0)
        return m

    rep = verify_coherence(Z8, objs, interchange_fn=tau_fn)
    assert not rep.verdict
    assert "odd_square_sign[2]" in dict(rep.witnesses)  # the degree-0 flip
    assert any("lhs1=[['7']]" in w for _, w in rep.witnesses)  # the degree-1 flip
    blob = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLIPPED_WITNESS_DIGEST


def test_coherence_size_limit():
    wide = [GradedObj(Z8, tuple(f"x{i}" for i in range(COHERENCE_MAX_RANK + 1)),
                      ())]
    with pytest.raises(SizeLimit):
        verify_coherence(Z8, wide)
    many = [GradedObj(Z8, (f"y{i}",), ()) for i in range(COHERENCE_MAX_OBJECTS + 1)]
    with pytest.raises(SizeLimit):
        verify_coherence(Z8, many)


def monoidal_verdict(ring, objs):
    rep = verify_coherence(ring, objs)
    return all(c.passed for c in rep.checks
               if c.name.startswith(("triangle", "pentagon")))


FLIP_RINGS = {}  # p -> (Z/p^3, its standard objects, their monoidal verdict)


def flip_setting(p):
    if p not in FLIP_RINGS:
        ring = WittCoefRing(p, 3)
        objs = standard_graded_objects(ring)
        FLIP_RINGS[p] = (ring, objs, monoidal_verdict(ring, objs))
    return FLIP_RINGS[p]


def test_criterion_4_mutant_verdicts_match_full_coherence(monkeypatch):
    ring = WittCoefRing(2, 3)
    honest_monoidal = monoidal_verdict(ring, standard_graded_objects(ring))
    verdicts = []

    def spy(ring, objs, tau_fn, monoidal=True):
        # verify_coherence draws its checks through here too; record only the
        # braided-half runs that criterion 4 makes for its mutants
        if not monoidal:
            fast = all(c.passed for c in coherence_checks(ring, objs, tau_fn,
                                                          monoidal=False))
            full = verify_coherence(ring, objs, interchange_fn=tau_fn).verdict
            verdicts.append((honest_monoidal and fast, full))
        return coherence_checks(ring, objs, tau_fn, monoidal)

    monkeypatch.setattr(graded2, "coherence_checks", spy)
    rep = acceptance.criterion_4_coherence()
    assert rep.verdict
    assert len(verdicts) == 20
    assert all(fast == full for fast, full in verdicts)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 2), st.randoms(use_true_random=False))
def test_braiding_verdict_matches_full_verdict_under_sign_flips(p, flips, rnd):
    ring, objs, monoidal = flip_setting(p)  # Z/8 and Z/27
    mutated = {}
    for _ in range(flips):
        A, B = rnd.choice(objs), rnd.choice(objs)
        m = mutated.get((id(A), id(B))) or interchange(A, B)
        entries = [(d, i, j) for d, b in enumerate((m.m0, m.m1))
                   for j, i in enumerate(b.perm)]
        if entries:
            mutated[(id(A), id(B))] = flip_sign(m, *rnd.choice(entries))

    def tau_fn(X, Y):
        return mutated.get((id(X), id(Y))) or interchange(X, Y)

    full = verify_coherence(ring, objs, interchange_fn=tau_fn).verdict
    fast = all(c.passed for c in coherence_checks(ring, objs, tau_fn, monoidal=False))
    assert (monoidal and fast) == full


def test_monoidal_diagrams_never_call_the_interchange():
    objs = standard_graded_objects(Z8)
    calls = [0]

    def counting_tau(X, Y):
        calls[0] += 1
        return interchange(X, Y)

    made = {}
    before = 0
    for c in coherence_checks(Z8, objs, counting_tau):
        made[c.name] = calls[0] - before
        before = calls[0]
    monoidal = {n: c for n, c in made.items()
                if n.startswith(("triangle", "pentagon"))}
    assert len(monoidal) == 16 + 256 and set(monoidal.values()) == {0}
    braided = [n for n in made if n not in monoidal]
    assert all(made[n] > 0 for n in braided)
    assert [c.name for c in coherence_checks(Z8, objs, interchange, monoidal=False)] \
        == braided


def test_tensor_map_functorial():
    rng = random.Random(6)
    A = GradedObj(Z8, ("a0", "a0'"), ("a1",))
    B = GradedObj(Z8, ("b0",), ("b1", "b1'", "b1''"))

    def rand_perm(n):
        perm = list(range(n))
        rng.shuffle(perm)
        return SignedPerm(Z8, perm, [rng.choice((1, -1)) for _ in perm])

    def rand_endo(X):
        return GradedMap(X, X, rand_perm(X.rank0), rand_perm(X.rank1))

    for _ in range(5):
        f, g = rand_endo(A), rand_endo(A)
        h, k = rand_endo(B), rand_endo(B)
        lhs = tensor_map(f.compose(g), h.compose(k))
        rhs = tensor_map(f, h).compose(tensor_map(g, k))
        assert lhs == rhs


def test_graded_map_shape_checks():
    M = GradedObj(Z8, ("a",), ("b",))
    N = GradedObj(Z8, ("c", "d"), ())
    with pytest.raises(ShapeMismatch):
        GradedMap(M, M, SignedPerm.identity(Z8, 2), SignedPerm.identity(Z8, 1))
    with pytest.raises(ShapeMismatch):
        GradedMap.identity(M).compose(GradedMap.identity(N))


def test_associator_on_labels_that_flatten_alike():
    # ("t", ("t", "a", "b"), ("t", "c", "d")) and
    # ("t", "a", ("t", ("t", "b", "c"), "d")) both flatten to a, b, c, d; the
    # associator reads degrees, not flattened labels
    M = GradedObj(Z8, (("t", "a", "b"), "a"), ())
    N = GradedObj(Z8, ("c", ("t", "b", "c")), ())
    P = GradedObj(Z8, ("d",), ())
    assert_matches(associator(M, N, P), degree_associator(M, N, P))
    assert verify_coherence(Z8, [M, N, P]).verdict


def test_structural_maps_are_built_once():
    M = GradedObj(Z8, ("a",), ("b",))
    N = omega_sqrt(Z8)
    assert twisted_tensor(M, N) is twisted_tensor(M, N)
    assert interchange(M, N) is interchange(M, N)
    assert associator(M, unit_obj(Z8), N) is associator(M, unit_obj(Z8), N)
    assert GradedMap.identity(M) is GradedMap.identity(M)
    assert left_unitor(N) is left_unitor(N)


# Dense reference constructions: every structural map as a Mat, built from
# the basis labels, and Mat arithmetic for tensor products and composites.

def dense_perm(ring, src_basis, tgt_basis, image, sign=lambda lbl: 1):
    z, one = ring.zero(), ring.one()
    idx = {lbl: i for i, lbl in enumerate(tgt_basis)}
    rows = [[z] * len(src_basis) for _ in tgt_basis]
    for j, lbl in enumerate(src_basis):
        rows[idx[image(lbl)]][j] = one if sign(lbl) > 0 else ring.neg(one)
    return Mat(ring, rows)


def dense_interchange(M, N):
    src, tgt = twisted_tensor(M, N), twisted_tensor(N, M)
    swap = lambda lbl: (lbl[0], lbl[2], lbl[1])
    return (dense_perm(M.ring, src.basis0, tgt.basis0, swap,
                       lambda lbl: -1 if lbl[0] == "tw" else 1),
            dense_perm(M.ring, src.basis1, tgt.basis1, swap))


def flatten(lbl):
    if isinstance(lbl, tuple) and len(lbl) == 3 and lbl[0] in ("t", "tw"):
        a, b = flatten(lbl[1]), flatten(lbl[2])
        return a[0] + b[0], a[1] + b[1] + (lbl[0] == "tw")
    return (lbl,), 0


def dense_associator(M, N, P):
    src = twisted_tensor(twisted_tensor(M, N), P)
    tgt = twisted_tensor(M, twisted_tensor(N, P))
    blocks = []
    for s, t in ((src.basis0, tgt.basis0), (src.basis1, tgt.basis1)):
        by_flat = {flatten(lbl): lbl for lbl in t}
        blocks.append(dense_perm(M.ring, s, t, lambda lbl: by_flat[flatten(lbl)]))
    return tuple(blocks)


def degree_associator(M, N, P):
    """The associator built outward from atom triples and their degrees."""
    def kind(*odd):
        return "tw" if all(odd) else "t"

    images = {}
    for (a, da), (b, db), (c, dc) in itertools.product(
            *([(x, 0) for x in X.basis0] + [(x, 1) for x in X.basis1]
              for X in (M, N, P))):
        src = (kind(da ^ db, dc), (kind(da, db), a, b), c)
        images[src] = (kind(da, db ^ dc), a, (kind(db, dc), b, c))
    src = twisted_tensor(twisted_tensor(M, N), P)
    tgt = twisted_tensor(M, twisted_tensor(N, P))
    return tuple(dense_perm(M.ring, s, t, images.__getitem__)
                 for s, t in ((src.basis0, tgt.basis0), (src.basis1, tgt.basis1)))


def dense_unitor(M, left):
    unit = unit_obj(M.ring)
    src = twisted_tensor(unit, M) if left else twisted_tensor(M, unit)
    image = (lambda lbl: lbl[2]) if left else (lambda lbl: lbl[1])
    return (dense_perm(M.ring, src.basis0, M.basis0, image),
            dense_perm(M.ring, src.basis1, M.basis1, image))


def dense_block_diag(ring, a, b):
    n, m = a.nrows + b.nrows, a.ncols + b.ncols
    rows = [[ring.zero()] * m for _ in range(n)]
    for i, row in enumerate(a.rows):
        rows[i][:a.ncols] = row
    for i, row in enumerate(b.rows):
        rows[a.nrows + i][a.ncols:] = row
    return Mat(ring, rows)


def dense_tensor(ring, f, g):
    (f0, f1), (g0, g1) = f, g
    return (dense_block_diag(ring, f0.kron(g0), f1.kron(g1)),
            dense_block_diag(ring, f0.kron(g1), f1.kron(g0)))


def as_dense(gmap):
    return tuple(b.to_mat() for b in (gmap.m0, gmap.m1))


def assert_matches(gmap, reference):
    assert isinstance(gmap.m0, SignedPerm) and isinstance(gmap.m1, SignedPerm)
    assert as_dense(gmap) == reference


@st.composite
def graded_objects(draw, count):
    ring = draw(st.sampled_from([Z8, F2]))
    objs = []
    for k in range(count):
        r0, r1 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        objs.append(GradedObj(ring, tuple(f"e{k}_{i}" for i in range(r0)),
                              tuple(f"o{k}_{i}" for i in range(r1))))
    return objs


@settings(max_examples=60, deadline=None)
@given(graded_objects(3), st.randoms(use_true_random=False))
def test_signed_permutations_match_dense_reference(objs, rnd):
    M, N, P = objs
    R = M.ring
    tau, tau_ref = interchange(M, N), dense_interchange(M, N)
    alpha, alpha_ref = associator(M, N, P), dense_associator(M, N, P)
    lu, lu_ref = left_unitor(P), dense_unitor(P, True)
    assert_matches(tau, tau_ref)
    assert_matches(alpha, alpha_ref)
    assert_matches(alpha, degree_associator(M, N, P))
    assert_matches(lu, lu_ref)
    assert_matches(right_unitor(P), dense_unitor(P, False))
    assert_matches(tensor_map(tau, lu), dense_tensor(R, tau_ref, lu_ref))
    back = interchange(N, M)
    assert_matches(back.compose(tau), tuple(
        a @ b for a, b in zip(as_dense(back), tau_ref)))
    assert back.compose(tau) == GradedMap.identity(tau.source)
    entries = [(d, i, j) for d, m in enumerate(tau_ref)
               for i in range(m.nrows) for j in range(m.ncols)]
    if entries:
        d, i, j = rnd.choice(entries)
        flipped = flip_sign(tau, d, i, j)
        ref = list(tau_ref)
        rows = [list(r) for r in ref[d].rows]
        rows[i][j] = R.neg(rows[i][j])
        ref[d] = Mat(R, rows)
        assert_matches(flipped, tuple(ref))
        # signs compare in the ring: a flip is invisible exactly when -1 = 1
        assert (flipped == tau) == (ref[d] == tau_ref[d])
