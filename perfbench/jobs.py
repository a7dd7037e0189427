"""Seeded job lists of the three workloads.

A job is a plain dict: what to call, on which inputs, and for the catalogue
algebras the answer known from how they are built.  Nothing here imports
affpi0, so the checker process can rebuild the same list from the same seed
without touching the code under test.  Every list has the same length and
the same kinds of job for every seed; the seed only changes coefficients,
roots and exponents inside a fixed shape.
"""

from __future__ import annotations

import itertools
import random

P = 32003          # the prime of the F_p engine jobs
P_SMALL = 5        # the prime of the F_5 catalogue algebras


# ---------------------------------------------------------------------------
# classic systems


def cyclic(n: int) -> tuple[list[str], list[str]]:
    xs = [f"x{i}" for i in range(n)]
    eqs = []
    for k in range(1, n):
        eqs.append(" + ".join("*".join(xs[(i + j) % n] for j in range(k))
                              for i in range(n)))
    eqs.append("*".join(xs) + " - 1")
    return xs, eqs


def katsura(n: int) -> tuple[list[str], list[str]]:
    us = [f"u{i}" for i in range(n + 1)]

    def u(i: int) -> str | None:
        return us[abs(i)] if abs(i) <= n else None

    eqs = []
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1)
                 if u(l) and u(m - l)]
        eqs.append(" + ".join(terms) + f" - {us[m]}")
    eqs.append(" + ".join([us[0]] + [f"2*{v}" for v in us[1:]]) + " - 1")
    return us, eqs


# ---------------------------------------------------------------------------
# helpers for seeded polynomials


def _coeff(rng: random.Random, bound: int = 9) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _monomial(xs: list[str], exps: tuple[int, ...]) -> str:
    parts = [x if e == 1 else f"{x}^{e}" for x, e in zip(xs, exps) if e]
    return "*".join(parts) if parts else "1"


def _poly(terms: list[tuple[int, tuple[int, ...]]], xs: list[str]) -> str:
    out = ""
    for c, exps in terms:
        mono = _monomial(xs, exps)
        if mono == "1":
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += (" + " if c > 0 else " - ") + body
    return out


def _random_exponents(rng: random.Random, arity: int, maxdeg: int
                      ) -> tuple[int, ...]:
    deg = rng.randint(1, maxdeg)
    exps = [0] * arity
    for _ in range(deg):
        exps[rng.randrange(arity)] += 1
    return tuple(exps)


def monomials(arity: int, degrees) -> list[tuple[int, ...]]:
    """Exponent tuples of the given total degrees, higher degrees first."""
    out = []
    for deg in degrees:
        out += sorted((m for m in itertools.product(range(deg + 1),
                                                    repeat=arity)
                       if sum(m) == deg), reverse=True)
    return out


def dense_polynomial(rng: random.Random, xs: list[str], degrees,
                     bound: int = 9) -> str:
    """Every monomial of the given degrees, each with a random coefficient:
    the support is fixed, so the cost hardly depends on the seed."""
    return _poly([(_coeff(rng, bound), m)
                  for m in monomials(len(xs), degrees)], xs)


def long_polynomial(rng: random.Random, xs: list[str], nterms: int,
                    maxdeg: int) -> str:
    """`nterms` distinct random terms of degree 1..maxdeg."""
    seen: set = set()
    terms = []
    while len(terms) < nterms:
        exps = _random_exponents(rng, len(xs), maxdeg)
        if exps not in seen:
            seen.add(exps)
            terms.append((_coeff(rng), exps))
    return _poly(terms, xs)


def _field_tag(p: int | None) -> str:
    return "Q" if p is None else f"F{p}"


# ---------------------------------------------------------------------------
# gb-systems


def gb_systems(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for name, (xs, eqs), order in (("cyclic5", cyclic(5), "degrevlex"),
                                   ("katsura4", katsura(4), "degrevlex"),
                                   ("katsura3", katsura(3), "lex"),
                                   ("cyclic4", cyclic(4), "lex")):
        for p in (None, P):
            jobs.append({"name": f"groebner/{name}/{order}/{_field_tag(p)}",
                         "kind": "groebner", "field": p, "vars": xs,
                         "polys": eqs, "order": order})
    for k in range(2):
        # three dense quadrics in three variables: zero-dimensional, with
        # the same staircase for every seed
        xs = ["z0", "z1", "z2"]
        eqs = [dense_polynomial(rng, xs, (2, 1, 0), 5) for _ in xs]
        for p in (None, P):
            jobs.append({"name": f"groebner/dense{k}/degrevlex/{_field_tag(p)}",
                         "kind": "groebner", "field": p, "vars": xs,
                         "polys": eqs, "order": "degrevlex"})
    us, keqs = katsura(3)
    for k in range(2):
        poly = dense_polynomial(rng, us, (6,))
        for p in (None, P):
            jobs.append({"name": f"normal_form/long{k}/{_field_tag(p)}",
                         "kind": "normal_form", "field": p, "vars": us,
                         "basis": keqs, "poly": poly})
    xs = ["t", "x", "y", "z"]
    for k in range(2):
        # the curve t -> (f2(t), f3(t), f4(t)), f_d monic of degree d with
        # random lower coefficients
        eqs = [_poly([(1, tuple(int(i == v) for i in range(4))),
                      (-1, (d, 0, 0, 0))]
                     + [(_coeff(rng, 5), (e, 0, 0, 0))
                        for e in range(d - 1, -1, -1)], xs)
               for v, d in ((1, 2), (2, 3), (3, 4))]
        for p in (None, P):
            jobs.append({"name": f"elimination/curve{k}/{_field_tag(p)}",
                         "kind": "elimination", "field": p, "vars": xs,
                         "polys": eqs, "eliminate": [0]})
    return jobs


# ---------------------------------------------------------------------------
# pi0-routes


def _algebra(p: int | None, xs: list[str], rels: list[str]) -> dict:
    return {"field": "Q" if p is None else {"p": p}, "vars": xs,
            "relations": rels}


def etale_relation(rng: random.Random, linear: int, quadratic: int,
                   p: int | None) -> str:
    """A squarefree univariate f: `linear` distinct linear factors times
    `quadratic` distinct irreducible factors x^2 - q."""
    if p is None:
        roots = rng.sample(range(-6, 7), linear)
        qs = rng.sample([2, 3, 5, 6, 7, -1, -2, -3], quadratic)
    else:
        assert p == P_SMALL
        roots = rng.sample(range(p), linear)
        qs = rng.sample([2, 3], quadratic)      # the non-squares mod 5
    factors = []
    for r in roots:
        factors.append("x" if r == 0 else
                       (f"(x - {r})" if r > 0 else f"(x + {-r})"))
    for q in qs:
        factors.append(f"(x^2 - {q})" if q > 0 else f"(x^2 + {-q})")
    return "*".join(factors)


# (name, variables, relations, H^0 dimension, component count)
CATALOGUE = (
    ("circle", ["x", "y"], ["x^2 + y^2 - 1"], 1, 1),
    ("node", ["x", "y"], ["y^2 - x^2 - x^3"], 1, 1),
    ("cusp", ["x", "y"], ["y^2 - x^3"], 1, 1),
    ("dual", ["e"], ["e^2"], 1, 1),
    ("lines", ["x", "y"], ["y^2 - y"], 2, 2),
)

# shapes (linear factors, quadratic factors) of the seeded finite étale
# algebras.  Over Q no shape has dimension 4: there the lex solver of the
# idempotent route takes from 0.06 s to over 8 s depending on the roots, which
# would swamp every other job; the cliff is timed on the circle at degree 4.
ETALE_Q = ((1, 1), (3, 0), (2, 0), (0, 1))
ETALE_F5 = ((2, 1), (1, 1), (3, 0))


def _route_jobs(name: str, alg: dict, degree: int, h0: int, comps: int
                ) -> list[dict]:
    """All six routes on one algebra over Q whose slice at `degree` holds
    the whole degree-0 cohomology."""
    base = {"algebra": alg, "degree": degree}
    expect = {"h0": h0, "components": comps}
    return [
        {"name": f"derham_h0/{name}", "kind": "derham_h0", **base,
         "expect": expect},
        {"name": f"equalizer/{name}", "kind": "equalizer", "tower": 2,
         **base, "expect": expect},
        {"name": f"idempotent/{name}", "kind": "idempotent", **base,
         "expect": expect},
        {"name": f"pi0/{name}", "kind": "pi0", "tower": 2, **base,
         "expect": expect},
        {"name": f"sing_h0/{name}", "kind": "sing_h0", "tower": 2, **base,
         "expect": expect},
        {"name": f"moore/{name}", "kind": "moore", "tower": 1, "levels": 2,
         **base, "expect": expect},
    ]


def pi0_routes(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for name, xs, rels, h0, comps in CATALOGUE:
        jobs.extend(_route_jobs(name, _algebra(None, xs, rels), 2, h0, comps))
    for k, (lin, quad) in enumerate(ETALE_Q):
        n = lin + 2 * quad
        alg = _algebra(None, ["x"], [etale_relation(rng, lin, quad, None)])
        # the slice at degree n - 1 is the whole algebra, so it holds every
        # idempotent, and at degree n the kernel is stabilized
        jobs.extend(_route_jobs(f"etale{k}", alg, n, n, lin + quad))
    for k, (lin, quad) in enumerate(ETALE_F5):
        n = lin + 2 * quad
        alg = _algebra(P_SMALL, ["x"],
                       [etale_relation(rng, lin, quad, P_SMALL)])
        expect = {"h0": n, "components": lin + quad}
        jobs.append({"name": f"equalizer/f5etale{k}", "kind": "equalizer",
                     "algebra": alg, "degree": n, "tower": 2,
                     "expect": expect})
        jobs.append({"name": f"idempotent/f5etale{k}", "kind": "idempotent",
                     "algebra": alg, "degree": n, "expect": expect})
    circle = _algebra(None, ["x", "y"], ["x^2 + y^2 - 1"])
    one = {"h0": 1, "components": 1}
    # the two heavy jobs: the idempotent cliff of the lex solver at degree 4,
    # and the map-space level Gröbner basis at tower 3
    jobs.append({"name": "idempotent/circle/deg4", "kind": "idempotent",
                 "algebra": circle, "degree": 4, "expect": one})
    jobs.append({"name": "equalizer/circle/tower3", "kind": "equalizer",
                 "algebra": circle, "degree": 2, "tower": 3, "expect": one})
    # known fault: on slices too small to hold the idempotents the count is
    # still emitted, as 1, with the search marked complete
    cubic = _algebra(None, ["x"], ["x^3 - x"])
    for d in (0, 1):
        jobs.append({"name": f"pi0/three_points/deg{d}", "kind": "pi0",
                     "algebra": cubic, "degree": d, "tower": 2,
                     "expect": {"h0": d + 1, "components": 3},
                     "known_fault": "component count 1 on a slice that "
                                    "misses the idempotents"})
    return jobs


# ---------------------------------------------------------------------------
# cli-requests


def cli_requests(seed: int) -> tuple[dict[str, dict], list[dict]]:
    """Documents to write, and the requests that use them.

    A request's `argv` names documents by file name; the worker rewrites them
    into paths inside its working directory.
    """
    rng = random.Random(seed)
    a, b, c = (_coeff(rng, 5) for _ in range(3))
    sys_rels = [_poly([(1, (2, 0)), (a, (0, 1)), (b, (0, 0))], ["x", "y"]),
                _poly([(1, (0, 2)), (c, (1, 0)), (_coeff(rng, 5), (0, 0))],
                      ["x", "y"])]
    nf_poly = long_polynomial(rng, ["x", "y"], 8, 5)
    fp_rels = [long_polynomial(rng, ["x", "y"], 3, 2) + " - 1"]
    u, v = rng.choice([1, 4]), rng.choice([1, 4])
    idem_images = ["x^2", "1/2*x^2 + 1/2*x", "1/2*x^2 - 1/2*x", "1 - x^2"]
    two_points = etale_relation(rng, 2, 0, None)
    scale = rng.randint(2, 9)
    docs = {
        "sys.json": _algebra(None, ["x", "y"], sys_rels),
        "fp.json": _algebra(7, ["x", "y"], fp_rels),
        "f3s.json": _algebra(3, ["t"], [f"t^2 - {u % 3}"]),
        "f3t.json": _algebra(3, ["s"], [f"s^2 - {v % 3}"]),
        "idem.json": _algebra(None, ["t"], ["t^2 - t"]),
        "cubic.json": _algebra(None, ["x"], ["x^3 - x"]),
        "two_points.json": _algebra(None, ["x"], [two_points]),
        "circle.json": _algebra(None, ["x", "y"], ["x^2 + y^2 - 1"]),
        "freet.json": _algebra(None, ["t"], []),
        "freeu.json": _algebra(None, ["u"], []),
        "idem_map.json": {"source": "idem.json", "target": "cubic.json",
                          "images": [rng.choice(idem_images)]},
        "f.json": {"source": "freet.json", "target": "freeu.json",
                   "images": ["0"]},
        "g.json": {"source": "freet.json", "target": "freeu.json",
                   "images": [f"{scale}*u"]},
        "h.json": {"source": "freet.json",
                   "target": _algebra(None, ["u", "x"], []),
                   "images": [f"{scale}*u*x"]},
        "nosource.json": {"target": "cubic.json", "images": ["x"]},
        "numrel.json": {"field": "Q", "vars": ["x"], "relations": [5]},
        "badpoly.json": _algebra(None, ["x"], ["x^2 +* 1"]),
    }
    reqs = [
        ("alg/gb", ["alg", "gb", "sys.json"]),
        ("alg/nf", ["alg", "nf", "sys.json", "--poly", nf_poly]),
        ("alg/points", ["alg", "points", "fp.json"]),
        ("hom/check", ["hom", "check", "idem_map.json"]),
        ("hom/enum", ["hom", "enum", "f3s.json", "f3t.json", "--deg", "1"]),
        ("map/present", ["map", "present", "f3s.json", "f3t.json",
                         "--trunc", "1", "-o", "present_out.json"]),
        ("map/points", ["map", "points", "f3s.json", "f3t.json",
                        "--trunc", "1"]),
        ("homotopy/verify", ["homotopy", "verify", "f.json", "g.json",
                             "h.json"]),
        ("homotopy/search", ["homotopy", "search", "f.json", "g.json",
                             "--xdeg", "1", "--bdeg", "1",
                             "-o", "search_out.json"]),
        ("pi0/all", ["pi0", "two_points.json", "--method", "all",
                     "--deg", "1", "--tower", "1"]),
        ("derham/h0", ["derham", "h0", "circle.json", "--deg", "3"]),
        ("derham/check-integration", ["derham", "check-integration",
                                      "idem.json"]),
        ("sing/h0", ["sing", "h0", "idem.json", "--tower", "2", "--deg", "2"]),
        ("sing/complex", ["sing", "complex", "idem.json", "--levels", "2",
                          "--trunc", "1", "--deg", "2"]),
        ("verify/lemmas", ["verify", "lemmas", "--only", "rotation"]),
        ("verify/law/exp", ["verify", "law", "exp"]),
        ("verify/law/tensor", ["verify", "law", "tensor"]),
        ("verify/law/dsum", ["verify", "law", "dsum"]),
        ("malformed/missing-file", ["alg", "gb", "missing.json"]),
        ("malformed/bad-polynomial", ["alg", "gb", "badpoly.json"]),
    ]
    jobs = [{"name": name, "kind": "cli", "argv": argv} for name, argv in reqs]
    jobs += [
        {"name": "fault/negative-degree", "kind": "cli",
         "argv": ["derham", "h0", "circle.json", "--deg", "-1"],
         "known_fault": "negative --deg accepted with exit 0"},
        {"name": "fault/morphism-without-source", "kind": "cli",
         "argv": ["hom", "check", "nosource.json"],
         "known_fault": "KeyError escapes cli.run"},
        {"name": "fault/numeric-relation", "kind": "cli",
         "argv": ["alg", "gb", "numrel.json"],
         "known_fault": "AttributeError escapes cli.run"},
    ]
    return docs, jobs


def job_list(workload: str, seed: int) -> tuple[dict[str, dict], list[dict]]:
    """(documents to write, jobs) of one workload."""
    if workload == "gb-systems":
        return {}, gb_systems(seed)
    if workload == "pi0-routes":
        return {}, pi0_routes(seed)
    if workload == "cli-requests":
        return cli_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("gb-systems", "pi0-routes", "cli-requests")
