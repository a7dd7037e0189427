"""Layer spans timed from outside the package.

`plan` wraps the public functions of the affpi0 modules, and a few hot
methods, in wrappers that keep a stack of open spans; `install` and
`uninstall` swap them in and out, so traced and untraced passes can
alternate in one process.  A span's self
time is its duration minus the durations of the spans opened directly under
it.  A function that another module imported by name is replaced at that
binding too, and so are the values of module-level dicts such as the CLI's
handler table.  Spans are folded into per-name totals as they close, since
the engine opens millions of them; nothing is written while a job runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("polyring", "linalg", "solve", "algebra", "mapspace", "derham",
           "pi0", "simplicial", "homotopy", "matrix_homotopy", "cli")

# Tuple helpers called once per term inside normal_form: a span around each
# would cost more than the work it times.  `monomials_up_to` is a generator,
# so a span would close before the work.  The CLI's parser construction and
# report assembly stay inside `cli.run`'s self time.
SKIP = {"polyring": {"monomial_mul", "monomial_divides", "monomial_div",
                     "monomial_lcm", "monomials_up_to"},
        "cli": {"build_parser", "make_report", "main"}}

ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale",
         "mul_monomial", "substitute", "derivative", "evaluate")

# groups whose time is the union of their outermost spans
GROUPS = {
    "pi0.equalizer": {"pi0.equalizer_subspace", "pi0.equalizer_membership"},
    "algebra.load": {"algebra.load_algebra", "algebra.load_morphism"},
    "algebra.enumerate": {"algebra.enumerate_points", "algebra.enumerate_hom"},
    "mapspace.laws": {"mapspace.verify_exponential_law",
                      "mapspace.verify_tensor_law",
                      "mapspace.verify_directsum_law",
                      "mapspace.verify_natural_isomorphism"},
}


def _setitem(mapping, key, value):
    mapping[key] = value


class Tracer:
    def __init__(self):
        self.stack: list[list] = []            # open spans: [child_s, name]
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.groups: dict[str, list] = {}      # group -> [depth, total_s]
        self.counts: dict[str, float] = {}
        # (setter, holder, key, original, wrapper) for every traced binding
        self.swaps: list[tuple] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, groups=(), before=None, after=None):
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        gstate = [self.groups.setdefault(g, [0, 0.0]) for g in groups]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            for g in gstate:
                g[0] += 1
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                for g in gstate:
                    g[0] -= 1
                    if g[0] == 0:
                        g[1] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return traced

    # -- per-function hooks ---------------------------------------------------

    def _hooks(self, name: str):
        if name == "solve.solve_system":
            return (lambda args: self.count("solve.unknowns", args[1])), None
        if name.startswith("linalg."):
            def entries(args):
                rows = args[0] if args else None
                if isinstance(rows, list) and rows and isinstance(rows[0], list):
                    self.count("linalg.entries", len(rows) * len(rows[0]))
            return entries, None
        if name == "polyring.normal_form":
            def useful(args, result, dt):
                if self.stack and self.stack[-1][1] == "polyring.groebner":
                    self.count("nf_in_groebner")
                    if not result.is_zero:
                        self.count("nf_in_groebner_nonzero")
            return None, useful
        if name == "polyring.groebner":
            def by_field(args, result, dt):
                rational = result.polys[0].field.is_rational if result.polys \
                    else True
                self.count("groebner_q_s" if rational else "groebner_fp_s", dt)
            return None, by_field
        return None, None

    def _groups(self, name: str, module: str) -> tuple[str, ...]:
        out = [g for g, members in GROUPS.items() if name in members]
        if module == "simplicial":
            out.append(module)
        return tuple(out)

    def plan(self, package: str = "affpi0") -> int:
        """Build the wrappers and find every binding to swap; returns how
        many callables are traced.  Nothing is swapped until `install`."""
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or attr in SKIP.get(short, ())):
                    continue
                name = f"{short}.{attr}"
                before, after = self._hooks(name)
                replaced[id(obj)] = self.wrap(obj, name,
                                              self._groups(name, short),
                                              before, after)
        poly_cls = sys.modules[f"{package}.polyring"].Polynomial
        for attr in ARITH:
            orig = getattr(poly_cls, attr)
            self.swaps.append((setattr, poly_cls, attr, orig, self.wrap(
                orig, f"polyring.Polynomial.{attr}",
                ("polyring.Polynomial.arith",))))
        ms_cls = sys.modules[f"{package}.mapspace"].MapSpacePresentation
        self.swaps.append((setattr, ms_cls, "upsilon_poly", ms_cls.upsilon_poly,
                           self.wrap(ms_cls.upsilon_poly,
                                     "mapspace.upsilon_poly")))
        # every module-level binding, including re-exports and dispatch tables
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self.swaps.append((setattr, module, attr, obj,
                                       replaced[id(obj)]))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in replaced:
                            self.swaps.append((_setitem, obj, key, value,
                                               replaced[id(value)]))
        return len(replaced) + len(ARITH) + 1

    def install(self) -> None:
        for setter, holder, key, _, wrapper in self.swaps:
            setter(holder, key, wrapper)

    def uninstall(self) -> None:
        for setter, holder, key, original, _ in self.swaps:
            setter(holder, key, original)

    # -- report -----------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer figures (ms, counts) and the in-groebner ratio."""
        def stat(name, field):
            return self.stats.get(name, [0, 0.0, 0.0])[field]

        def group_ms(group):
            return self.groups.get(group, [0, 0.0])[1] * 1000 / passes

        attempts = self.counts.get("nf_in_groebner", 0)
        useful = self.counts.get("nf_in_groebner_nonzero", 0)
        linalg_self = sum(v[2] for k, v in self.stats.items()
                          if k.startswith("linalg."))
        per = {
            "polyring.normal_form.calls": stat("polyring.normal_form", 0),
            "polyring.normal_form.self_ms":
                stat("polyring.normal_form", 2) * 1000,
            "polyring.groebner.calls": stat("polyring.groebner", 0),
            "polyring.groebner.self_ms": stat("polyring.groebner", 2) * 1000,
            "polyring.groebner.q_ms": self.counts.get("groebner_q_s", 0) * 1000,
            "polyring.groebner.fp_ms":
                self.counts.get("groebner_fp_s", 0) * 1000,
            "solve.solve_system.unknowns": self.counts.get("solve.unknowns", 0),
            "solve.solve_system.ms": stat("solve.solve_system", 1) * 1000,
            "pi0.idempotent_search.ms": stat("pi0.idempotent_search", 1) * 1000,
            "mapspace.mapspace_presentation.calls":
                stat("mapspace.mapspace_presentation", 0),
            "mapspace.mapspace_presentation.ms":
                stat("mapspace.mapspace_presentation", 1) * 1000,
            "mapspace.upsilon_poly.calls": stat("mapspace.upsilon_poly", 0),
            "derham.form_is_zero.calls": stat("derham.form_is_zero", 0),
            "derham.derham_h0.ms": stat("derham.derham_h0", 1) * 1000,
            "polyring.elimination_ideal.ms":
                stat("polyring.elimination_ideal", 1) * 1000,
            "polyring.standard_monomials.ms":
                stat("polyring.standard_monomials", 1) * 1000,
            "linalg.self_ms": linalg_self * 1000,
            "linalg.entries": self.counts.get("linalg.entries", 0),
            "cli.run.self_ms": stat("cli.run", 2) * 1000,
            "cli.emit.ms": stat("cli.emit", 1) * 1000,
            "homotopy.search.ms": stat("homotopy.homotopy_search", 1) * 1000,
            "matrix_homotopy.verify_all.ms":
                stat("matrix_homotopy.verify_all", 1) * 1000,
        }
        per = {k: v / passes for k, v in per.items()}
        for group in ("pi0.equalizer", "algebra.load", "algebra.enumerate",
                      "mapspace.laws", "simplicial"):
            per[f"{group}.ms"] = group_ms(group)
        per["polyring.Polynomial.arith_ms"] = group_ms(
            "polyring.Polynomial.arith")
        per["polyring.normal_form.nonzero_ratio"] = (
            useful / attempts if attempts else 0.0)
        return per

    def table(self) -> list[dict]:
        """Every traced name with calls, inclusive and self milliseconds."""
        return [{"name": k, "calls": v[0], "total_ms": round(v[1] * 1000, 3),
                 "self_ms": round(v[2] * 1000, 3)}
                for k, v in sorted(self.stats.items(),
                                   key=lambda kv: -kv[1][2])]
