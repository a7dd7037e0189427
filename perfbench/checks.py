"""Answer checks made without affpi0.

Reduced Gröbner bases, remainders and elimination ideals come from sympy;
the reduced basis is unique, so equality is exact.  Points, homomorphisms
and idempotents over small prime fields are counted by brute force over
plain integers.  The catalogue algebras carry their H^0 dimension and
component count from how they were built.  CLI requests are checked on exit
code and report fields, and on the mathematics behind the fields where it
can be recomputed.

`check(job, answer)` returns None for a correct answer, else the reason.
`self_check(jobs, answers)` plants a wrong answer of every kind it can
find among the correct ones and returns the plants a checker accepted.
"""

from __future__ import annotations

import copy
import itertools
import json
from fractions import Fraction

import sympy

# ---------------------------------------------------------------------------
# sympy helpers


def _gens(xs):
    return sympy.symbols(xs) if xs else ()


def _expr(text, gens):
    if not isinstance(text, str):
        raise ValueError(f"not a polynomial string: {text!r}")
    return sympy.sympify(text.replace("^", "**"),
                         locals={str(g): g for g in gens})


def _poly(text, gens, p):
    expr = _expr(text, gens) if isinstance(text, str) else text
    if p is None:
        return sympy.Poly(expr, *gens, domain="QQ")
    return sympy.Poly(expr, *gens, modulus=p)


def _canon(poly, p, monic=False):
    if monic and not poly.is_zero:
        poly = poly.monic()
    out = []
    for m, c in poly.as_dict().items():
        if p is None:
            c = sympy.Rational(c)
            out.append((m, Fraction(int(c.p), int(c.q))))
        else:
            out.append((m, int(c) % p))
    return frozenset(out)


def _canon_set(polys, p):
    return frozenset(_canon(q, p, monic=True) for q in polys)


def _field_p(doc_field):
    return None if doc_field == "Q" else doc_field["p"]


def _sympy_gb(polys, gens, p, order):
    kw = {"domain": "QQ"} if p is None else {"modulus": p}
    return sympy.groebner([_expr(s, gens) for s in polys], *gens,
                          order=order, **kw)


def _same_basis(answer, expected_polys, gens, p):
    if not isinstance(answer, list):
        return f"no basis: {answer!r:.200}"
    got = [_poly(s, gens, p) for s in answer]
    if len(got) != len(expected_polys):
        return f"basis has {len(got)} elements, sympy {len(expected_polys)}"
    if _canon_set(got, p) != _canon_set(expected_polys, p):
        return "basis differs from sympy's reduced basis"
    return None


# ---------------------------------------------------------------------------
# brute force over small prime fields


def _int_terms(text, xs, p):
    """Polynomial as [(exponents, coefficient mod p)] with plain integers."""
    gens = _gens(xs)
    return [(m, int(c) % p) for m, c in _poly(text, gens, p).as_dict().items()]


def _evaluate(terms, point, p):
    total = 0
    for m, c in terms:
        v = c
        for x, e in zip(point, m):
            v = v * pow(x, e, p) % p
        total += v
    return total % p


def brute_points(rels, xs, p):
    polys = [_int_terms(r, xs, p) for r in rels]
    return sorted(pt for pt in itertools.product(range(p), repeat=len(xs))
                  if all(_evaluate(t, pt, p) == 0 for t in polys))


def _mulmod(a, b, f, p):
    """Product of coefficient lists (low degree first) modulo monic f."""
    n = len(f) - 1
    prod = [0] * (2 * n)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for j in range(n + 1):
                prod[k - n + j] = (prod[k - n + j] - c * f[j]) % p
    return prod[:n]


def _monic_coeffs(rel, var, p):
    coeffs = [int(c) % p for c in
              reversed(_poly(rel, (sympy.Symbol(var),), p).all_coeffs())]
    inv = pow(coeffs[-1], -1, p)
    return [c * inv % p for c in coeffs]


def brute_idempotents(rel, var, p):
    """Idempotents of F_p[var]/(rel) as coefficient tuples."""
    f = _monic_coeffs(rel, var, p)
    n = len(f) - 1
    return [e for e in itertools.product(range(p), repeat=n)
            if _mulmod(list(e), list(e), f, p) == list(e)]


def brute_homs(src_rel, tgt_rel, tgt_var, p):
    """Morphisms F_p[t]/(src) -> F_p[s]/(tgt) sending t to c0 + c1*s."""
    f = _monic_coeffs(tgt_rel, tgt_var, p)
    src = [int(c) % p for c in reversed(_poly(
        src_rel, (sympy.Symbol("t"),), p).all_coeffs())]
    count = 0
    for c0, c1 in itertools.product(range(p), repeat=2):
        image = [c0, c1] + [0] * (len(f) - 3)
        acc, power = [0] * (len(f) - 1), [1] + [0] * (len(f) - 2)
        for c in src:
            acc = [(a + c * b) % p for a, b in zip(acc, power)]
            power = _mulmod(power, image, f, p)
        count += not any(acc)
    return count


# ---------------------------------------------------------------------------
# per-kind checks


class Checker:
    def __init__(self, docs=None):
        self.docs = docs or {}
        self._memo: dict = {}

    def _memoized(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def check(self, job, answer):
        if isinstance(answer, dict) and answer.get("error") and \
                job["kind"] != "cli":
            return f"raised {answer['error']}"
        try:
            return getattr(self, "_" + job["kind"])(job, answer)
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError, sympy.SympifyError,
                sympy.polys.polyerrors.PolynomialError) as exc:
            return f"malformed answer ({type(exc).__name__}: {exc})"

    # -- engine ---------------------------------------------------------------

    def _groebner(self, job, answer):
        gens, p = _gens(job["vars"]), job["field"]
        order = "grevlex" if job["order"] == "degrevlex" else "lex"
        gb = self._memoized(job["name"], lambda: _sympy_gb(
            job["polys"], gens, p, order).polys)
        return _same_basis(answer, gb, gens, p)

    def _normal_form(self, job, answer):
        gens, p = _gens(job["vars"]), job["field"]

        def expected():
            gb = _sympy_gb(job["basis"], gens, p, "grevlex")
            return _canon(_poly(gb.reduce(_expr(job["poly"], gens))[1],
                                gens, p), p)
        if _canon(_poly(answer, gens, p), p) != \
                self._memoized(job["name"], expected):
            return "remainder differs from sympy's"
        return None

    def _elimination(self, job, answer):
        xs, p = job["vars"], job["field"]
        gens = _gens(xs)
        kept = [g for i, g in enumerate(gens) if i not in job["eliminate"]]
        dropped = {gens[i] for i in job["eliminate"]}

        def expected():
            lex = _sympy_gb(job["polys"], gens, p, "lex")
            free = [q for q in lex.exprs if not (q.free_symbols & dropped)]
            kw = {"domain": "QQ"} if p is None else {"modulus": p}
            return sympy.groebner(free, *kept, order="grevlex", **kw).polys
        return _same_basis(answer, self._memoized(job["name"], expected),
                           tuple(kept), p)

    # -- invariant routes -----------------------------------------------------

    def _dimension(self, job, got, what):
        want = job["expect"]["h0"]
        return None if got == want else f"{what} {got}, expected {want}"

    def _derham_h0(self, job, answer):
        return self._dimension(job, answer["dimension"], "H^0 dimension")

    def _equalizer(self, job, answer):
        return self._dimension(job, answer["dimension"], "equalizer dimension")

    def _sing_h0(self, job, answer):
        want = [job["expect"]["h0"]] * job["tower"]
        return None if answer["dims"] == want else \
            f"singular H^0 dimensions {answer['dims']}, expected {want}"

    def _moore(self, job, answer):
        if answer["dd_zero"] is not True:
            return "d∘d is not zero"
        return self._dimension(job, answer["h0"], "Moore H^0 dimension")

    def _pi0(self, job, answer):
        bad = self._dimension(job, answer["dimension"], "pi0 dimension")
        if bad:
            return bad
        want = job["expect"]["components"]
        got = answer["component_count"]
        if got == want or (got is None and "known_fault" in job):
            return None
        return f"component count {got}, expected {want}"

    def _idempotent(self, job, answer):
        alg = job["algebra"]
        p = _field_p(alg["field"])
        want = 2 ** job["expect"]["components"]
        if answer["count"] != want or answer["complete"] is not True:
            return (f"{answer['count']} idempotents (complete="
                    f"{answer['complete']}), expected {want}, complete")
        elems = answer["idempotents"]
        if len(elems) != answer["count"]:
            return "count disagrees with the list"
        gens = _gens(alg["vars"])
        gb = self._memoized(("ideal", json.dumps(alg)), lambda: _sympy_gb(
            alg["relations"], gens, p, "grevlex"))
        forms = set()
        for text in elems:
            e = _expr(text, gens)
            if not _poly(gb.reduce(sympy.expand(e * e - e))[1], gens,
                         p).is_zero:
                return f"{text} is not idempotent"
            forms.add(_canon(_poly(gb.reduce(e)[1], gens, p), p))
        if len(forms) != len(elems):
            return "two listed idempotents are equal in the algebra"
        if p is not None:
            brute = self._memoized(("brute", json.dumps(alg)), lambda: len(
                brute_idempotents(alg["relations"][0], alg["vars"][0], p)))
            if brute != answer["count"]:
                return f"brute force finds {brute} idempotents"
        return None

    # -- CLI --------------------------------------------------------------------

    def _cli(self, job, answer):
        name = job["name"]
        if name.startswith(("fault/", "malformed/")):
            if answer.get("exit") == 2 and \
                    answer["report"].get("kind") == "input":
                return None
            if name == "fault/negative-degree" and answer.get("exit") == 0 \
                    and answer["report"]["result"].get("dimension") is None:
                return None
            return (f"expected exit 2, got "
                    f"{answer.get('exit', answer.get('error'))}")
        if answer.get("exit") != 0:
            return f"exit {answer.get('exit', answer.get('error'))}"
        report = answer["report"]
        if report.get("schema") != 1 or \
                report.get("command") != job["argv"][0]:
            return "report schema or command field wrong"
        return getattr(self, "_cli_" + name.replace("/", "_")
                       .replace("-", "_"))(job, report["result"], answer)

    def _sys_gb(self):
        doc = self.docs["sys.json"]
        gens = _gens(doc["vars"])
        return gens, self._memoized("cli:sys", lambda: _sympy_gb(
            doc["relations"], gens, None, "grevlex"))

    def _cli_alg_gb(self, job, res, answer):
        gens, gb = self._sys_gb()
        if res["zero_algebra"] or res["cached"]:
            return "zero_algebra or cached flag set"
        return _same_basis(res["basis"], gb.polys, gens, None)

    def _cli_alg_nf(self, job, res, answer):
        gens, gb = self._sys_gb()
        want = _canon(_poly(gb.reduce(_expr(job["argv"][4], gens))[1],
                            gens, None), None)
        if _canon(_poly(res["normal_form"], gens, None), None) != want:
            return "remainder differs from sympy's"
        return None

    def _cli_alg_points(self, job, res, answer):
        doc = self.docs["fp.json"]
        pts = brute_points(doc["relations"], doc["vars"], doc["field"]["p"])
        got = sorted(tuple(int(c) for c in pt) for pt in res["points"])
        if res["count"] != len(pts) or got != pts:
            return f"{res['count']} points, brute force finds {len(pts)}"
        return None

    def _cli_hom_check(self, job, res, answer):
        doc = self.docs["idem_map.json"]
        x = sympy.Symbol("x")
        image = _expr(res["images"][0], (x,))
        cubic = x ** 3 - x
        if not res["valid"] or sympy.rem(sympy.expand(image ** 2 - image),
                                         cubic, x) != 0:
            return "image is not idempotent"
        if sympy.rem(sympy.expand(image - _expr(doc["images"][0], (x,))),
                     cubic, x) != 0:
            return "image is not the document's image"
        return None

    def _hom_count(self):
        s, t = self.docs["f3s.json"], self.docs["f3t.json"]
        return brute_homs(s["relations"][0], t["relations"][0], "s", 3)

    def _cli_hom_enum(self, job, res, answer):
        want = self._hom_count()
        if res["count"] != want or len(res["morphisms"]) != want:
            return f"{res['count']} morphisms, brute force finds {want}"
        return None

    def _cli_map_present(self, job, res, answer):
        pres = res["presentation"]
        if answer["files"].get("present_out.json") != pres:
            return "written presentation differs from the report"
        if res["relation_count"] != len(pres["relations"]) or \
                len(res["zvars"]) != len(pres["vars"]):
            return "relation or coordinate count wrong"
        points = brute_points(pres["relations"], pres["vars"], 3)
        if len(points) != self._hom_count():
            return (f"{len(points)} points of the level, "
                    f"{self._hom_count()} morphisms")
        return None

    def _cli_map_points(self, job, res, answer):
        want = self._hom_count()
        if res["hom_count"] != want or res["point_count"] != want:
            return f"counts {res['hom_count']}/{res['point_count']}, want {want}"
        return None

    def _endpoints(self, image):
        u, x = sympy.symbols("u x")
        h = _expr(image, (u, x))
        want = _expr(self.docs["g.json"]["images"][0], (u,))
        if sympy.expand(h.subs(x, 0)) != 0 or \
                sympy.expand(h.subs(x, 1) - want) != 0:
            return f"homotopy {image} has the wrong endpoints"
        return None

    def _cli_homotopy_verify(self, job, res, answer):
        if res["verified"] is not True:
            return "not verified"
        return self._endpoints(res["homotopy"][0])

    def _cli_homotopy_search(self, job, res, answer):
        if res["status"] != "found":
            return f"status {res['status']}"
        if answer["files"].get("search_out.json") != res["certificate"]:
            return "written certificate differs from the report"
        return self._endpoints(res["certificate"]["images"][0])

    def _cli_pi0_all(self, job, res, answer):
        got = (res["derham"]["dimension"], res["derham"]["component_count"],
               res["equalizer"]["dimension"], res["idempotent"]["count"],
               res["idempotent"]["primitive_count"],
               res["idempotent"]["complete"])
        return None if got == (2, 2, 2, 4, 2, True) else f"pi0 report {got}"

    def _cli_derham_h0(self, job, res, answer):
        # the circle is connected: H^0 is the constants
        if res["dimension"] != 1 or len(res["basis"]) != 1 or \
                not _expr(res["basis"][0], ()).is_nonzero:
            return f"H^0 {res['basis']} is not the constants"
        return None

    def _cli_derham_check_integration(self, job, res, answer):
        return None if res["ok"] is True else "integration check failed"

    def _cli_sing_h0(self, job, res, answer):
        dims = [lvl["dimension"] for lvl in res["levels"]]
        return None if dims == [2, 2] else f"dimensions {dims}"

    def _cli_sing_complex(self, job, res, answer):
        got = (res["dd_zero"], res["cosimplicial_identities"],
               res["h0_dimension"])
        return None if got == (True, True, 2) else f"complex report {got}"

    def _ok(self, job, res, answer):
        return None if res.get("ok") is True else "ok is not true"

    _cli_verify_lemmas = _ok
    _cli_verify_law_exp = _ok
    _cli_verify_law_tensor = _ok

    def _cli_verify_law_dsum(self, job, res, answer):
        counts = res.get("f3_point_counts", {})
        if counts.get("sum_side") != counts.get("product_side"):
            return "direct-sum point counts differ"
        return self._ok(job, res, answer)


def cross_route(jobs, answers, good):
    """de Rham, equalizer, singular and Moore H^0 agree on every algebra."""
    dims: dict[str, set] = {}
    for job in jobs:
        if job["kind"] not in ("derham_h0", "equalizer", "sing_h0", "moore"):
            continue
        for text in answers[job["name"]]:
            if not good(job, text):
                continue
            a = json.loads(text)
            dim = {"derham_h0": a.get("dimension"), "equalizer":
                   a.get("dimension"), "sing_h0": (a.get("dims") or [None])[-1],
                   "moore": a.get("h0")}[job["kind"]]
            dims.setdefault(json.dumps(job["algebra"]), set()).add(dim)
    return [alg for alg, values in dims.items() if len(values) > 1]


# ---------------------------------------------------------------------------
# self-check of the checks


def _plants(job, answer):
    """Wrong answers derived from a correct one: (what, planted answer)."""
    kind = job["kind"]
    if kind in ("groebner", "elimination") and answer:
        yield "basis without its last element", answer[:-1]
        yield "basis with a shifted constant", answer[:-1] + \
            [answer[-1] + " + 1"]
    elif kind == "normal_form":
        yield "remainder plus one", answer + " + 1"
    elif kind == "idempotent":
        yield "count plus one", dict(answer, count=answer["count"] + 1)
    elif kind in ("derham_h0", "equalizer"):
        yield "dimension plus one", dict(answer,
                                         dimension=answer["dimension"] + 1)
    elif kind == "pi0" and answer["component_count"] is not None:
        yield "component count plus one", dict(
            answer, component_count=answer["component_count"] + 1)
    elif kind == "cli" and "exit" in answer:
        wrong = copy.deepcopy(answer)
        wrong["exit"] = 1 if answer["exit"] != 1 else 0
        yield "exit code changed", wrong
        res = answer["report"].get("result", {})
        for key in ("count", "dimension", "hom_count"):
            if isinstance(res.get(key), int):
                wrong = copy.deepcopy(answer)
                wrong["report"]["result"][key] += 1
                yield f"{key} plus one", wrong
        if answer["report"].get("command") == "alg" and res.get("basis"):
            wrong = copy.deepcopy(answer)
            wrong["report"]["result"]["basis"][0] += " + 1"
            yield "basis element changed", wrong
        if isinstance(res.get("normal_form"), str):
            wrong = copy.deepcopy(answer)
            wrong["report"]["result"]["normal_form"] += " + 1"
            yield "remainder plus one", wrong


def self_check(checker, jobs, answers):
    """Plant wrong answers next to correct ones; returns those accepted.

    Also returns how many plants were tried, so a caller can tell an empty
    self-check from a passing one.
    """
    accepted, tried = [], 0
    for job in jobs:
        for text in answers[job["name"]]:
            answer = json.loads(text)
            if checker.check(job, answer) is not None:
                continue
            for what, wrong in _plants(job, answer):
                tried += 1
                if checker.check(job, wrong) is None:
                    accepted.append(f"{job['name']}: {what}")
    return accepted, tried
