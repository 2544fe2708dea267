"""Seeded job lists for the three benchmark workloads.

A job is one ``fglcheck`` command line plus the input files it reads.  Its
expected exit code is known by construction: inputs built to satisfy the
checked identities must exit 0, inputs broken on purpose (psi(x) = x, a
mutated bialgebra structure constant, a non-surjective epi family, psi = id
on W(F_4)) must exit 1.

argv uses two placeholders that the runner fills in per slot: ``{input}`` is
the job's input file and ``{json}`` the ``--json`` report it writes.  A job's
``key`` hashes argv (placeholders unexpanded) and the input bytes, so the
committed reference digest of a job is found by content, whatever the seed.

``batch-verify`` draws its jobs from a finite pool: a fixed list of strata
(kind and size class), each with VARIANTS variants built from their own
seeded RNG.  The workload seed picks one variant per slot and shuffles the
slots, so every seed runs the same amount of work per stratum and every job
it can draw has a committed reference digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("selftest", "fgl-deep", "batch-verify")

VARIANTS = 8


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    expect: int
    input: bytes = None
    ring: str = None  # fglcheck's own descriptor of the job's coefficient ring

    @property
    def key(self):
        doc = {"argv": list(self.argv),
               "input": hashlib.sha256(self.input).hexdigest() if self.input else None}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _dump(doc):
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _ring_key(desc):
    """The descriptor fglcheck gives the ring, so equal rings compare equal across job kinds."""
    from fglcheck.exact_arith import ring_from_descriptor
    from fglcheck.series import PolyTruncRing
    if "poly_over" in desc:
        ring = PolyTruncRing(ring_from_descriptor(desc["poly_over"]), desc["vars"],
                             desc["ubound"])
    else:
        ring = ring_from_descriptor(desc)
    return json.dumps(ring.descriptor(), sort_keys=True)


def _json_opt():
    return ("--json", "{json}")


# ---------------------------------------------------------------------------
# selftest and fgl-deep: fixed job lists


def selftest_jobs(seed):
    """The acceptance battery; it has no inputs, so the seed changes nothing."""
    return [Job("selftest", ("selftest",) + _json_opt(), 0)]


def _honda_file_law():
    from fglcheck.formal_groups import fgl_honda
    return _dump(fgl_honda(2, 2, 6, 24).to_json())


def fgl_deep_jobs(seed):
    """Five high-degree FGL jobs; the seed fixes their order."""
    def lt_ring(p, n, N, u):
        return {"poly_over": {"p": p, "N": N},
                "vars": [f"u{i}" for i in range(1, n)], "ubound": u}

    def builtin(kind, p, n, N, D, u=None):
        argv = ("fgl", "--builtin", kind, "--p", str(p), "--n", str(n),
                "--precision", str(N), "--degree-bound", str(D))
        if u is not None:
            argv += ("--u-bound", str(u))
        return argv + _json_opt()

    jobs = [
        Job("honda(2,2,6,D=32)", builtin("honda", 2, 2, 6, 32), 0,
            ring=_ring_key({"p": 2, "N": 6})),
        Job("lubin-tate(2,2,3,u=4,D=16)", builtin("lubin-tate", 2, 2, 3, 16, 4), 0,
            ring=_ring_key(lt_ring(2, 2, 3, 4))),
        Job("lubin-tate(2,3,3,u=2,D=16)", builtin("lubin-tate", 2, 3, 3, 16, 2), 0,
            ring=_ring_key(lt_ring(2, 3, 3, 2))),
        Job("honda(3,2,4,D=30)", builtin("honda", 3, 2, 4, 30), 0,
            ring=_ring_key({"p": 3, "N": 4})),
        Job("file:honda(2,2,6,D=24)", ("fgl", "--file", "{input}") + _json_opt(), 0,
            input=_honda_file_law(), ring=_ring_key({"p": 2, "N": 6})),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# batch-verify: generators, one per job kind


def _add_to_encoded(c, e, q):
    """Add the integer e to an encoded ring element (str for f=1, list for f>1)."""
    if isinstance(c, str):
        return str((int(c) + e) % q)
    return [str((int(c[0]) + e) % q)] + list(c[1:])


def _bialg(rng, p, N, f, kmax, mutate):
    from fglcheck.twisted_bialgebra import height1_gamma
    G = height1_gamma(p, N, f, kmax)
    doc = G.to_json()
    q = p ** N
    if mutate:
        # one structure constant moves by a nonzero amount: exit 1
        e = rng.randrange(1, q)
        if rng.random() < 0.5:
            kl = rng.choice(sorted(doc["mu"]))
            ij = rng.choice(sorted(doc["mu"][kl]))
            vec = doc["mu"][kl][ij]
        else:
            vec = doc["eps"][rng.choice(sorted(doc["eps"]))]
        a = rng.randrange(len(vec))
        vec[a] = _add_to_encoded(vec[a], e, q)
    argv = ("bialg", "--file", "{input}", "--dualize")
    points = {2: [None, {"p": 2, "N": 1}, {"p": 2, "N": 2}],
              3: [None, {"p": 3, "N": 1}, {"p": 3, "N": 2}]}[p]
    if f == 1 and p == 2:
        points.append({"p": 2, "N": 1, "ext": [1, 1, 1]})
    pt = rng.choice(points)
    if pt is not None:
        argv += ("--points", json.dumps(pt, sort_keys=True))
    return argv, _dump(doc), doc["ring"]


def _poly_image(images, q):
    return [[[k], str(c % q)] for k, c in sorted(images.items()) if c % q]


def _theta(rng, ring, good):
    """psi(x) = x^p + p*g(x) (good) or x + p*g(x) (bad) on W[x]."""
    p, N = ring["p"], ring["N"]
    q = p ** N
    f = len(ring["ext"]) - 1 if "ext" in ring else 1
    lead = p if good else 1
    if f == 1:
        img = {lead: 1}
        for k in rng.sample(range(1, 2 * p + 1), 2):
            img[k] = img.get(k, 0) + p * rng.randrange(q)
        image = _poly_image(img, q)
        psi_on_coeffs = "id"
    else:
        # the coefficient t must go to sigma(t); "id" breaks it (exit 1)
        k = rng.randrange(1, 2 * p + 1)
        c = [p * rng.randrange(q) % q for _ in range(f)]
        img = {lead: [1] + [0] * (f - 1)}
        prev = img.get(k, [0] * f)
        img[k] = [(a + b) % q for a, b in zip(prev, c)]
        image = [[[e], [str(x) for x in v]] for e, v in sorted(img.items())
                 if any(v)]
        psi_on_coeffs = "sigma"
        if not good:
            image = [[[p], ["1"] + ["0"] * (f - 1)]]
            psi_on_coeffs = "id"
    doc = {"ring": ring, "shape": {"kind": "poly", "vars": ["x"]},
           "psi_on_coeffs": psi_on_coeffs, "psi_gen_images": {"x": image}}
    argv = ("theta", "check", "--file", "{input}", "--samples", "12",
            "--seed", str(rng.randrange(1000)))
    return argv, _dump(doc), ring


def _epi(rng, ring, r, good):
    """Maps into R^r; good families contain a map that is invertible mod p."""
    p, N = ring["p"], ring["N"]
    q = p ** N
    f = len(ring["ext"]) - 1 if "ext" in ring else 1

    def elem(c):
        if f == 1:
            return str(c[0] % q)
        return [str(x % q) for x in c]

    def rand_elem(scale=1):
        return [scale * rng.randrange(q) for _ in range(f)]

    maps = []
    for _ in range(rng.randrange(1, 3)):
        cols = rng.randrange(1, 3)
        maps.append([[rand_elem() for _ in range(cols)] for _ in range(r)])
    if good:
        unimod = [[[1 if i == j else 0] + [0] * (f - 1) for j in range(r)]
                  for i in range(r)]
        for i in range(r):
            for j in range(r):
                if i != j:
                    unimod[i][j] = rand_elem(scale=p)
        maps.insert(rng.randrange(len(maps) + 1), unimod)
    else:
        # first coordinate of every map lies in pR: the image misses e_1 mod p
        for m in maps:
            m[0] = [[p * x for x in c] for c in m[0]]
    doc = {"ring": ring, "target_rank": r,
           "maps": [[[elem(c) for c in row] for row in m] for m in maps]}
    return ("weights", "epi", "--file", "{input}"), _dump(doc), ring


def _fgl_conjugate(rng, ext, N, D, base):
    """phi(F(phi^-1 x, phi^-1 y)) over W(F_{2^f}): a law with t in its coefficients."""
    from fglcheck.exact_arith import WittCoefRing
    from fglcheck.formal_groups import (FormalGroupLaw, fgl_honda,
                                        fgl_multiplicative)
    from fglcheck.series import TruncSeries, reversion, substitute
    W = WittCoefRing(2, N, ext)
    if base == "multiplicative":
        F = fgl_multiplicative(W, D).F
    else:
        H = fgl_honda(2, 2, N, D).F
        F = H.map_coefficients(lambda c: W.elem(c.coeffs[0]), ring=W)
    terms = {(1,): W.one()}
    for k in range(2, 5):
        terms[(k,)] = W.rand(rng)
    phi = TruncSeries(W, ("x",), D, terms)
    phinv = reversion(phi)
    xy = ("x", "y")
    px = substitute(phinv, [TruncSeries.var(W, xy, D, "x")])
    py = substitute(phinv, [TruncSeries.var(W, xy, D, "y")])
    G = FormalGroupLaw(ring=W, bound=D, F=substitute(phi, [substitute(F, [px, py])]))
    return ("fgl", "--file", "{input}"), _dump(G.to_json()), W.descriptor()


def _congruence(rng, height1, squares):
    from fglcheck.twisted_bialgebra import find_irreducible
    argv = ("congruence", "--height1", height1, "--squares", squares,
            "--seed", str(rng.randrange(1000)))
    p, N, f, _ = (int(x) for x in height1.split(","))
    ring = {"p": p, "N": N}
    if f > 1:  # the extension height1_gamma picks
        ring["ext"] = list(find_irreducible(p, f))
    return argv, None, ring


F4 = [1, 1, 1]
F8 = [1, 1, 0, 1]

# (stratum name, slots per pass, expected exit, generator(rng) -> (argv, input, ring))
STRATA = [
    ("bialg(2,2,1,2)", 5, 0, lambda r: _bialg(r, 2, 2, 1, 2, False)),
    ("bialg(2,3,1,3)", 5, 0, lambda r: _bialg(r, 2, 3, 1, 3, False)),
    ("bialg(3,2,1,2)", 5, 0, lambda r: _bialg(r, 3, 2, 1, 2, False)),
    ("bialg(2,3,2,3)", 5, 0, lambda r: _bialg(r, 2, 3, 2, 3, False)),
    ("bialg(3,2,2,2)", 5, 0, lambda r: _bialg(r, 3, 2, 2, 2, False)),
    ("bialg(2,2,3,2)", 5, 0, lambda r: _bialg(r, 2, 2, 3, 2, False)),
    ("bialg-mutated(2,2,1,2)", 2, 1, lambda r: _bialg(r, 2, 2, 1, 2, True)),
    ("bialg-mutated(2,3,1,3)", 2, 1, lambda r: _bialg(r, 2, 3, 1, 3, True)),
    ("bialg-mutated(3,2,1,2)", 2, 1, lambda r: _bialg(r, 3, 2, 1, 2, True)),
    ("bialg-mutated(2,3,2,3)", 2, 1, lambda r: _bialg(r, 2, 3, 2, 3, True)),
    ("bialg-mutated(3,2,2,2)", 2, 1, lambda r: _bialg(r, 3, 2, 2, 2, True)),
    ("theta(Z/2^5)", 3, 0, lambda r: _theta(r, {"p": 2, "N": 5}, True)),
    ("theta(Z/3^3)", 3, 0, lambda r: _theta(r, {"p": 3, "N": 3}, True)),
    ("theta(W(F_4),4)", 3, 0, lambda r: _theta(r, {"p": 2, "N": 4, "ext": F4}, True)),
    ("theta(W(F_8),3)", 3, 0, lambda r: _theta(r, {"p": 2, "N": 3, "ext": F8}, True)),
    ("theta-bad(Z/2^5)", 3, 1, lambda r: _theta(r, {"p": 2, "N": 5}, False)),
    ("theta-bad(W(F_4),4)", 2, 1, lambda r: _theta(r, {"p": 2, "N": 4, "ext": F4}, False)),
    ("congruence(2,3,2,3|2,4)", 5, 0, lambda r: _congruence(r, "2,3,2,3", "2,4")),
    ("congruence(2,2,1,2|2,3)", 5, 0, lambda r: _congruence(r, "2,2,1,2", "2,3")),
    ("congruence(3,2,1,2|3,2)", 5, 0, lambda r: _congruence(r, "3,2,1,2", "3,2")),
    ("congruence(2,3,1,3|3,3)", 5, 0, lambda r: _congruence(r, "2,3,1,3", "3,3")),
    ("congruence(3,2,2,2|2,3)", 5, 0, lambda r: _congruence(r, "3,2,2,2", "2,3")),
    ("epi(Z/8)", 5, 0, lambda r: _epi(r, {"p": 2, "N": 3}, r.choice([2, 3]), True)),
    ("epi(Z/9)", 5, 0, lambda r: _epi(r, {"p": 3, "N": 2}, r.choice([2, 3]), True)),
    ("epi(W(F_4),2)", 5, 0, lambda r: _epi(r, {"p": 2, "N": 2, "ext": F4}, r.choice([2, 3]), True)),
    ("epi-bad(Z/8)", 3, 1, lambda r: _epi(r, {"p": 2, "N": 3}, r.choice([2, 3]), False)),
    ("epi-bad(Z/9)", 3, 1, lambda r: _epi(r, {"p": 3, "N": 2}, r.choice([2, 3]), False)),
    ("epi-bad(W(F_4),2)", 2, 1, lambda r: _epi(r, {"p": 2, "N": 2, "ext": F4}, r.choice([2, 3]), False)),
    ("fgl(W(F_4),3,D=6,mult)", 3, 0, lambda r: _fgl_conjugate(r, F4, 3, 6, "multiplicative")),
    ("fgl(W(F_4),4,D=8,mult)", 3, 0, lambda r: _fgl_conjugate(r, F4, 4, 8, "multiplicative")),
    ("fgl(W(F_8),3,D=6,mult)", 3, 0, lambda r: _fgl_conjugate(r, F8, 3, 6, "multiplicative")),
    ("fgl(W(F_8),3,D=8,honda)", 3, 0, lambda r: _fgl_conjugate(r, F8, 3, 8, "honda")),
]


def batch_variant(stratum, variant):
    """The job for one (stratum, variant) pair of the batch-verify pool."""
    name, _, expect, gen = stratum
    argv, data, ring = gen(random.Random(f"{name}#{variant}"))
    return Job(f"{name}#{variant}", tuple(argv) + _json_opt(), expect,
               input=data, ring=_ring_key(ring))


def batch_verify_jobs(seed):
    rng = random.Random(seed)
    cache = {}
    jobs = []
    for stratum in STRATA:
        for _ in range(stratum[1]):
            v = rng.randrange(VARIANTS)
            if (stratum[0], v) not in cache:
                cache[(stratum[0], v)] = batch_variant(stratum, v)
            jobs.append(cache[(stratum[0], v)])
    rng.shuffle(jobs)
    return jobs


def batch_pool():
    """Every job batch-verify can draw, for building the reference."""
    return [batch_variant(s, v) for s in STRATA for v in range(VARIANTS)]


GENERATORS = {"selftest": selftest_jobs, "fgl-deep": fgl_deep_jobs,
              "batch-verify": batch_verify_jobs}


def jobs_for(workload, seed):
    return GENERATORS[workload](seed)
