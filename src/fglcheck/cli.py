"""Batch-verification command line: deterministic reports, JSON on request.

Exit codes: 0 all checks pass, 1 a check fails (witness printed), 2 usage or
data errors, including arithmetic the input makes impossible (an inexact
division, a Hensel lift or iteration that does not converge).  The machine
JSON is byte-identical across runs on identical inputs (the seed is echoed;
wall-clock timings only go to stdout).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from . import formal_groups as fg
from . import graded2, weights
from .acceptance import CRITERIA, standard_graded_objects
from .exact_arith import (MalformedData, WittCoefRing, is_prime, json_names, json_typed,
                          ring_from_descriptor)
from .linalg import Mat
from .report import CheckResult, CongruenceReport
from .series import PolyTruncRing
from .theta_congruence import (FrobeniusClassSpec, L1Data, PsiRingPresentation,
                               derive_theta, frobenius_congruence_comodule,
                               gamma_congruence_check, theta_consistency,
                               verify_weight_p_squares, wilkerson_check)
from .twisted_bialgebra import (TwistedBialgebra, dualize, height1_gamma,
                                points_category, trivial_algebra,
                                verify_bialgebra)


# argparse types: argparse turns their ValueError into "invalid <name> value"
# and exit 2, before any work starts
def prime(text):
    """argparse type: a prime p >= 2."""
    p = int(text)
    if not is_prime(p):
        raise ValueError(text)
    return p


def at_least(bound, name):
    """argparse type: an integer >= bound, refused as "invalid <name> value"."""
    def parse(text):
        n = int(text)
        if n < bound:
            raise ValueError(text)
        return n
    parse.__name__ = name
    return parse


positive = at_least(1, "positive")
nonnegative = at_least(0, "nonnegative")
at_least_two = at_least(2, "at_least_two")


def height1_spec(text):
    """argparse type: "p,N,f,kmax" with p prime, N >= 1, f >= 1 and kmax >= 0."""
    p, N, f, kmax = (int(x) for x in text.split(","))
    if not is_prime(p) or N < 1 or f < 1 or kmax < 0:
        raise ValueError(text)
    return text


def squares_spec(text):
    """argparse type: "p,N" with p prime and N >= 2."""
    p, N = (int(x) for x in text.split(","))
    if not is_prime(p) or N < 2:
        raise ValueError(text)
    return text


def _digest(payload):
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _emit(report, args, subcommand, digest):
    print(report.summary())
    if args.json:
        doc = {"subcommand": subcommand, "inputs_digest": digest,
               "seed": getattr(args, "seed", 0), "report": report.to_json()}
        with open(args.json, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"json report written to {args.json}")
    return 0 if report.verdict else 1


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_fgl(args):
    if args.file:
        raw = _load_json(args.file)
        G = fg.FormalGroupLaw.from_json(raw)
        digest = _digest(json.dumps(raw, sort_keys=True))
    else:
        D = args.degree_bound
        if args.builtin == "multiplicative":
            G = fg.fgl_multiplicative(WittCoefRing(args.p, args.precision), D)
        elif args.builtin == "additive":
            G = fg.fgl_additive(WittCoefRing(args.p, args.precision), D)
        elif args.builtin == "honda":
            G = fg.fgl_honda(args.p, args.n, args.precision, D)
        elif args.builtin == "lubin-tate":
            G = fg.lubin_tate_deformation(args.p, args.n, args.precision,
                                          args.u_bound, D)
        else:
            raise ValueError(f"unknown builtin {args.builtin}")
        digest = _digest(f"{args.builtin},{args.p},{args.n},{args.precision},"
                         f"{args.u_bound},{D}")
    checks = list(G.axiom_checks())
    p = fg.residue_char(G.ring)
    pser = fg.n_series(G, p)
    print(f"[{p}](x) = {pser!r}")
    try:
        h = fg.height(G)
        print(f"height: {h!r}")
        checks.append(CheckResult("height_detected", True, details={"height": h}))
    except fg.MalformedPSeries as e:
        checks.append(CheckResult("height_detected", False, str(e)))
    rep = CongruenceReport.from_checks(checks, meta={"D": G.bound})
    return _emit(rep, args, "fgl", digest)


def cmd_graded(args):
    ring = WittCoefRing(args.p, args.precision)
    rep = graded2.verify_coherence(ring, standard_graded_objects(ring))
    return _emit(rep, args, "graded", _digest(f"{args.p},{args.precision}"))


def _height1_args(spec):
    p, N, f, kmax = (int(x) for x in spec.split(","))
    return height1_gamma(p, N, f, kmax)


def cmd_bialg(args):
    if args.file:
        raw = _load_json(args.file)
        G = TwistedBialgebra.from_json(raw)
        digest = _digest(json.dumps(raw, sort_keys=True))
    else:
        G = _height1_args(args.height1)
        digest = _digest(args.height1)
    rep = verify_bialgebra(G)
    if (args.dualize or args.points) and rep.verdict:
        scheme = dualize(G)
        rep.checks += scheme.report.checks
        if scheme.t_star_sigma_power is not None:
            rep.meta["t_star_sigma_power"] = scheme.t_star_sigma_power
        if args.points:
            Rp = ring_from_descriptor(json.loads(args.points))
            rep.checks += points_category(scheme, Rp).report.checks
    return _emit(rep, args, "bialg", digest)


def cmd_theta(args):
    raw = _load_json(args.file)
    pres = PsiRingPresentation.from_json(raw)
    digest = _digest(json.dumps(raw, sort_keys=True))
    rep = wilkerson_check(pres, sample_bound=args.samples, seed=args.seed)
    if rep.verdict and pres.W.N == 1:
        rep.meta["theta"] = ("skipped: theta = (psi - x^p)/p lands at precision "
                             "N - 1 = 0, the zero ring")
        print(f"theta {rep.meta['theta']}")
    elif rep.verdict:
        td = derive_theta(pres)
        for g, v in sorted(td.theta_gens.items()):
            print(f"theta({g}) = {td.lowered.repr_elem(v)}  (precision {td.lowered.ring.N})")
        rep.checks += theta_consistency(pres, samples=args.samples, seed=args.seed).checks
    return _emit(rep, args, "theta", digest)


def cmd_congruence(args):
    merged = CongruenceReport()
    digest_src = []
    if args.height1:
        G = _height1_args(args.height1)
        digest_src.append(args.height1)
        sigma = FrobeniusClassSpec(gamma=G, coords=(G.ring.one(),))
        rep = gamma_congruence_check(sigma, trivial_algebra(G), seed=args.seed)
        merged.checks += rep.checks
        if "theorem_a" in rep.meta:
            merged.meta["theorem_a"] = rep.meta["theorem_a"]
    if args.squares:
        p, N = (int(x) for x in args.squares.split(","))
        digest_src.append(args.squares)
        rep = verify_weight_p_squares(p, N, seed=args.seed)
        merged.checks += rep.checks
        merged.meta["pullback_basis"] = rep.meta["pullback_basis"]
    if args.comodule_file:
        raw = json_typed(_load_json(args.comodule_file), dict, "comodule data")
        digest_src.append(json.dumps(raw, sort_keys=True))
        base = ring_from_descriptor(raw["base"])
        A = PolyTruncRing(base, json_names(raw["vars"], "vars"), math.inf)
        l1raw = json_typed(raw["l1"], dict, "l1")
        l1W = ring_from_descriptor(l1raw["ring"])
        l1 = L1Data(W=l1W, can_power=json_typed(l1raw.get("can_power", 0), int,
                                                "l1 can_power"))
        psi1 = {}
        for g, terms in json_typed(raw["psi1"], dict, "psi1").items():
            psi1[g] = []
            for t in json_typed(terms, list, f"psi1[{g}]"):
                if not (isinstance(t, list) and len(t) == 2):
                    raise MalformedData(f"a psi1[{g}] term is [scalar, polynomial], "
                                        f"not {t!r:.60}")
                psi1[g].append((l1W.decode(t[0]), A.decode(t[1], f"psi1[{g}]")))
        merged.checks += frobenius_congruence_comodule(l1, A, psi1, seed=args.seed).checks
    if not digest_src:
        raise ValueError("nothing to check: pass --height1, --squares or "
                         "--comodule-file")
    return _emit(merged, args, "congruence", _digest("|".join(digest_src)))


def cmd_weights(args):
    if args.weights_cmd == "gcd":
        checks = []
        for m in range(2, args.max + 1):
            g = weights.binomial_gcd(m)
            print(f"m={m:4d}  gcd binom = {g}")
            checks.append(CheckResult(f"gcd[{m}]", True, details={"gcd": g}))
        rep = CongruenceReport.from_checks(checks)
        return _emit(rep, args, "weights gcd", _digest(str(args.max)))
    if args.weights_cmd == "certify":
        c = weights.regularity_certificate(args.m, args.p)
        print(c)
        rep = CongruenceReport.from_checks(
            [CheckResult("certificate", True, details={"certificate": c})],
            meta={"tag": c.tag})
        return _emit(rep, args, "weights certify", _digest(f"{args.m},{args.p}"))
    raw = json_typed(_load_json(args.file), dict, "an epi family")
    ring = ring_from_descriptor(raw["ring"])
    maps = [Mat.from_json(ring, m, "a map") for m in json_typed(raw["maps"], list, "maps")]
    fam = weights.EpiFamily(ring=ring, maps=maps,
                            target_rank=json_typed(raw["target_rank"], int, "target_rank"))
    r = weights.epi_family_check(fam)
    print(f"surjective: {r.surjective}  residue rank: {r.residue_rank}")
    if r.witness_functional is not None:
        print(f"cokernel functional: {[repr(c) for c in r.witness_functional]}")
    rep = CongruenceReport.from_checks(
        [CheckResult("epi_family", r.surjective,
                     None if r.surjective else str(r.to_json()))])
    return _emit(rep, args, "weights epi",
                 _digest(json.dumps(raw, sort_keys=True)))


def cmd_selftest(args):
    t0 = time.time()
    checks = []
    for name, fn in CRITERIA:
        rep = fn()
        print(f"[{'PASS' if rep.verdict else 'FAIL'}] criterion {name}")
        for wname, w in rep.witnesses[:3]:
            print(f"         witness {wname}: {w}")
        checks.append(rep.as_check(f"criterion {name}"))
    rep = CongruenceReport.from_checks(checks)
    print(f"elapsed: {time.time() - t0:.1f}s")
    return _emit(rep, args, "selftest", _digest("selftest"))


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="fglcheck",
        description="Exact verification of formal-group, bialgebra and "
                    "congruence structure at finite precision.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(s):
        s.add_argument("--json", help="write the machine-readable report here")

    s = sub.add_parser("fgl", help="construct or load a formal group law and check it")
    s.add_argument("--builtin", default="multiplicative",
                   choices=["multiplicative", "additive", "honda", "lubin-tate"])
    s.add_argument("--file", help="FGL JSON file")
    s.add_argument("--p", type=prime, default=2)
    s.add_argument("--n", type=positive, default=1, help="height parameter")
    s.add_argument("--precision", type=positive, default=4)
    s.add_argument("--u-bound", type=nonnegative, default=2, dest="u_bound")
    s.add_argument("--degree-bound", type=positive, default=6, dest="degree_bound")
    common(s)

    s = sub.add_parser("graded", help="coherence suite for the twisted Z/2 category")
    s.add_argument("--p", type=prime, default=2)
    s.add_argument("--precision", type=positive, default=3)
    common(s)

    s = sub.add_parser("bialg", help="verify twisted bialgebra axioms")
    s.add_argument("--file", help="bialgebra JSON (structure constants)")
    s.add_argument("--height1", type=height1_spec, default="2,3,2,3",
                   help="p,N,f,kmax for the built-in height-1 bialgebra")
    s.add_argument("--dualize", action="store_true",
                   help="also build and check the dual category scheme")
    s.add_argument("--points", help="ring descriptor JSON for point enumeration "
                                    "(implies --dualize)")
    common(s)

    s = sub.add_parser("theta", help="Wilkerson congruence and theta derivation")
    s.add_argument("action", choices=["check"])
    s.add_argument("--file", required=True, help="psi-ring presentation JSON")
    s.add_argument("--samples", type=nonnegative, default=25)
    s.add_argument("--seed", type=int, default=0)
    common(s)

    s = sub.add_parser("congruence", help="congruence checks and weight-p squares")
    s.add_argument("--height1", type=height1_spec,
                   help="p,N,f,kmax: canonical algebra congruence")
    s.add_argument("--squares", type=squares_spec,
                   help="p,N: verify the weight-p module squares")
    s.add_argument("--comodule-file", help="comodule congruence data JSON")
    s.add_argument("--seed", type=int, default=0)
    common(s)

    s = sub.add_parser("weights", help="critical-weight arithmetic")
    ws = s.add_subparsers(dest="weights_cmd", required=True)
    g = ws.add_parser("gcd")
    g.add_argument("--max", type=at_least_two, default=100)
    common(g)
    c = ws.add_parser("certify")
    c.add_argument("--m", type=nonnegative, required=True)
    c.add_argument("--p", type=prime, required=True)
    common(c)
    e = ws.add_parser("epi")
    e.add_argument("--file", required=True)
    common(e)

    s = sub.add_parser("selftest", help="run the full acceptance battery")
    common(s)
    return ap


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        # the command is looked up on the module at each call, not kept in the
        # shared parser, so a command wrapped or replaced later is the one that runs
        return globals()[f"cmd_{args.cmd}"](args)
    except (OSError, ValueError, KeyError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # printed once the handler has ended: until then its traceback keeps the
    # failed command's frames, and the memory they hold, alive
    print("error: memory ran out", file=sys.stderr)
    return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
