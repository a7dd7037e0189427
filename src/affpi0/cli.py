"""Command-line front end: file I/O, dispatch, machine-readable reports.

Exit codes: 0 success, 1 property violated, 2 input error, 3 resource limit,
4 internal error (an exception the package does not raise on purpose).
Reports are schema-versioned JSON with sorted keys; two runs with the same
inputs and flags are byte-identical apart from the timing field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import matrix_homotopy, pi0 as pi0_mod, simplicial
from .algebra import (AlgebraPresentation, direct_sum, enumerate_hom,
                      enumerate_points, field_algebra, load_algebra,
                      load_morphism, polynomial_extension)
from .derham import (DifferentialForm, derham_h0, integration_homotopy_check)
from .errors import (HypothesisError, MorphismError, ParseError,
                     PropertyViolationError, ResourceLimitError,
                     RingMismatchError, TruncationError,
                     UnsupportedFieldError)
from .homotopy import SearchBounds, homotopy_search, homotopy_verify
from .mapspace import (mapspace_presentation, points_crosscheck,
                       verify_directsum_law, verify_exponential_law,
                       verify_tensor_law)
from .polyring import GF, QQ, Polynomial, ResourceLimits, set_limits

SCHEMA = 1

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# reports


def _digest(paths: list[str], extra: str = "") -> str:
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(path.encode())
    h.update(extra.encode())
    return h.hexdigest()[:16]


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
        return
    for key, value in sorted(report.items()):
        if key in ("schema", "timing_ms"):
            continue
        print(f"{key}: {value}")


def make_report(command: str, digest: str, result: dict, bounds: dict,
                started: float) -> dict:
    return {"schema": SCHEMA, "command": command, "inputs_digest": digest,
            "bounds": bounds, "result": result,
            "timing_ms": round((time.monotonic() - started) * 1000, 3)}


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_alg(args) -> dict:
    a = load_algebra(args.algebra)
    if args.action == "gb":
        return {"basis": [g.to_string(a.vars) for g in a.gb()],
                "cached": False,
                "zero_algebra": a.is_zero_algebra()}
    if args.action == "nf":
        p = a.parse(args.poly)
        return {"normal_form": a.nf(p).to_string(a.vars)}
    if args.action == "points":
        pts = enumerate_points(a)
        return {"count": len(pts),
                "points": [[str(im.constant_term()) for im in p.images]
                           for p in pts]}
    raise ParseError(f"unknown alg action {args.action}")


def cmd_hom(args) -> dict:
    if args.action == "check":
        if len(args.files) != 1:
            raise ParseError("hom check takes one morphism file")
        f = load_morphism(args.files[0])
        return {"valid": True,
                "images": [im.to_string(f.target.vars) for im in f.images]}
    if args.action == "enum":
        if len(args.files) != 2:
            raise ParseError("hom enum takes source and target algebra files")
        a = load_algebra(args.files[0])
        b = load_algebra(args.files[1])
        homs = enumerate_hom(a, b, args.deg)
        return {"count": len(homs),
                "morphisms": [[im.to_string(b.vars) for im in h.images]
                              for h in homs]}
    raise ParseError(f"unknown hom action {args.action}")


def cmd_map(args) -> dict:
    a = load_algebra(args.algebra)
    b = load_algebra(args.target)
    if args.action == "present":
        m = mapspace_presentation(a, b, args.trunc)
        doc = m.algebra.to_json()
        sidecar = [{"name": name, "generator": a.vars[gi],
                    "monomial": list(v)}
                   for name, (gi, v) in zip(m.z_names, m.zvars)]
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
            side_path = args.output.removesuffix(".json") + ".zvars.json"
            with open(side_path, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, sort_keys=True, indent=2)
        return {"presentation": doc, "zvars": sidecar,
                "relation_count": len(m.algebra.relations)}
    if args.action == "points":
        return points_crosscheck(a, b, args.trunc)
    raise ParseError(f"unknown map action {args.action}")


def cmd_homotopy(args) -> dict:
    f = load_morphism(args.f)
    g = load_morphism(args.g)
    if args.action == "verify":
        if args.h is None:
            raise ParseError("homotopy verify needs the homotopy "
                             "certificate file h")
        h = load_morphism(args.h)
        cert = homotopy_verify(f, g, h)
        return {"verified": True,
                "homotopy": [im.to_string(cert.ext.algebra.vars)
                             for im in cert.h.images]}
    if args.action == "search":
        res = homotopy_search(f, g, SearchBounds(args.xdeg, args.bdeg))
        out = {"status": res.status, "detail": res.detail}
        if res.certificate is not None:
            cert_doc = res.certificate.h.to_json()
            out["certificate"] = cert_doc
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    json.dump(cert_doc, fh, sort_keys=True, indent=2)
        return out
    raise ParseError(f"unknown homotopy action {args.action}")


def cmd_pi0(args) -> dict:
    a = load_algebra(args.algebra)
    out: dict = {"method": args.method, "degree": args.deg,
                 "tower": args.tower}
    rep = None
    if args.method == "all" and not a.field.is_rational:
        out["note"] = ("derham route skipped over a prime field; "
                       "equalizer and idempotent outputs are pi0-candidates")
    elif args.method in ("derham", "all"):
        res = pi0_mod.pi0_presentation(a, args.deg, args.tower)
        out["derham"] = {
            "dimension": res.dimension,
            "basis": [e.to_string() for e in res.basis],
            "presentation": res.presentation.to_json(),
            "component_count": res.component_count,
        }
        rep = res.idempotents
        out["idempotents"] = {"count": rep.count, "complete": rep.complete}
    if args.method in ("equalizer", "all"):
        eq = pi0_mod.equalizer_subspace(a, args.deg, args.tower)
        out["equalizer"] = {"dimension": eq.dimension,
                            "basis": [e.to_string() for e in eq.basis],
                            "label": ("pi0" if a.field.is_rational
                                      else "pi0-candidate")}
        # both bases are canonical, and equal in characteristic 0
        if "derham" in out and eq.basis != res.basis:
            raise PropertyViolationError(
                "equalizer and derham bases differ",
                witness=(out["derham"]["basis"], out["equalizer"]["basis"]))
    if args.method in ("idempotent", "all"):
        if rep is None:
            rep = pi0_mod.idempotent_search(a, args.deg)
        prims = pi0_mod.primitive_idempotents(rep)
        out["idempotent"] = {
            "count": rep.count,
            "complete": rep.complete,
            "primitive_count": len(prims),
            "idempotents": sorted(e.to_string() for e in rep.idempotents),
            "label": "pi0" if a.field.is_rational else "pi0-candidate",
        }
    return out


def cmd_derham(args) -> dict:
    a = load_algebra(args.algebra)
    if args.action == "h0":
        kernel = derham_h0(a, args.deg)
        return {"dimension": kernel.dimension,
                "basis": [e.to_string() for e in kernel.basis],
                "stabilized": kernel.stabilized,
                "interpretation": ("pi0" if kernel.char_zero
                                   else "kernel only (not pi0 in char p)")}
    if args.action == "check-integration":
        ext = polynomial_extension(a)
        samples = []
        for mono in a.standard_monomials(min(args.deg, 3)):
            for k in range(5):
                lifted = Polynomial.monomial(tuple(mono) + (k,), a.field)
                samples.append(ext.algebra.element(lifted))
        forms = []
        if a.arity >= 1:
            coeff = ext.algebra.parse(f"{a.vars[0]}*{ext.x_name}")
            forms.append(DifferentialForm(ext.algebra, 1, {(0,): coeff}))
        rep = integration_homotopy_check(a, samples, forms, ext)
        if not rep["ok"]:
            raise PropertyViolationError("integration homotopy failed",
                                         witness=rep["failures"][0])
        return {"ok": rep["ok"], "degree0_samples": rep["degree0_samples"],
                "degree1_samples": rep["degree1_samples"]}
    raise ParseError(f"unknown derham action {args.action}")


def cmd_sing(args) -> dict:
    a = load_algebra(args.algebra)
    if args.action == "h0":
        res = simplicial.sing_h0(a, args.tower, args.deg)
        return {"levels": [{"tower": lvl.tower, "dimension": lvl.dimension,
                            "basis": [e.to_string() for e in lvl.basis]}
                           for lvl in res.levels],
                "note": res.note}
    if args.action == "complex":
        cx = simplicial.moore_complex(a, args.trunc, args.deg, args.levels)
        idents = simplicial.check_cosimplicial_identities(cx.space)
        if not (idents["ok"] and cx.dd_zero):
            raise PropertyViolationError(
                "cosimplicial complex check failed",
                witness={"identity_failures": idents["failures"],
                         "dd_zero": cx.dd_zero})
        return {"level_dimensions": [lvl.dimension
                                     for lvl in cx.space.levels],
                "normalized_dimensions": cx.normalized_dimensions,
                "dd_zero": cx.dd_zero,
                "h0_dimension": cx.h0_dimension,
                "h1_dimension": cx.h1_dimension,
                "cosimplicial_identities": idents["ok"],
                "label": "truncation report — no pro-limit claim"}
    raise ParseError(f"unknown sing action {args.action}")


def cmd_verify(args) -> dict:
    if args.action == "lemmas":
        rep = matrix_homotopy.verify_all(args.only)
        if not rep["ok"]:
            raise PropertyViolationError("matrix lemma suite failed",
                                         witness=rep)
        return rep
    if args.action == "law":
        if args.law == "exp":
            a = AlgebraPresentation(QQ, ["t"], ["t^2"])
            b = AlgebraPresentation(QQ, ["e1"], ["e1^2"])
            b2 = AlgebraPresentation(QQ, ["e2"], ["e2^2"])
            return verify_exponential_law(a, b, b2, 1, 1)
        if args.law == "tensor":
            f2 = GF(2)
            a = AlgebraPresentation(f2, ["t"], ["t^2 - t"])
            a2 = AlgebraPresentation(f2, ["s"], ["s^2 - s"])
            return verify_tensor_law(a, a2, field_algebra(f2), 0)
        if args.law == "dsum":
            a = AlgebraPresentation(QQ, ["t"], ["t^2 - 1"])
            rep = verify_directsum_law(a, field_algebra(QQ), field_algebra(QQ))
            f3 = GF(3)
            a3 = AlgebraPresentation(f3, ["t"], ["t^2 - 1"])
            ds, _, _ = direct_sum(field_algebra(f3), field_algebra(f3))
            m_ds = mapspace_presentation(a3, ds, 1)
            m1 = mapspace_presentation(a3, field_algebra(f3), 0)
            n_sum = len(enumerate_points(m_ds.algebra))
            n_one = len(enumerate_points(m1.algebra))
            rep["f3_point_counts"] = {"sum_side": n_sum,
                                      "product_side": n_one * n_one}
            if n_sum != n_one * n_one:
                raise PropertyViolationError("direct-sum point counts differ",
                                             witness=rep)
            return rep
        raise ParseError(f"unknown law {args.law}")
    raise ParseError(f"unknown verify action {args.action}")


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use and reused.

    Reuse is safe because ``parse_args`` never mutates the parser: it fills
    a fresh ``Namespace`` from immutable defaults (``str``/``int``/``None``),
    and ``nargs="+"`` builds a new list on every call.  Do not mutate the
    returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="affpi0",
        description="Exact homotopy invariants of affine schemes")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("alg", help="presentation-level operations")
    alg.add_argument("action", choices=("gb", "nf", "points"))
    alg.add_argument("algebra")
    alg.add_argument("--poly", default="0", help="polynomial for nf")

    hom = sub.add_parser("hom", help="morphism checking and enumeration")
    hom.add_argument("action", choices=("check", "enum"))
    hom.add_argument("files", nargs="+",
                     help="morphism file (check) or source+target (enum)")
    hom.add_argument("--deg", type=int, default=1)

    mp = sub.add_parser("map", help="truncated map-space presentations")
    mp.add_argument("action", choices=("present", "points"))
    mp.add_argument("algebra")
    mp.add_argument("target")
    mp.add_argument("--trunc", type=int, default=1)
    mp.add_argument("-o", "--output")

    ht = sub.add_parser("homotopy", help="elementary homotopy verify/search")
    ht.add_argument("action", choices=("verify", "search"))
    ht.add_argument("f")
    ht.add_argument("g")
    ht.add_argument("h", nargs="?", help="homotopy certificate for verify")
    ht.add_argument("--xdeg", type=int, default=2)
    ht.add_argument("--bdeg", type=int, default=2)
    ht.add_argument("-o", "--output")

    p0 = sub.add_parser("pi0", help="path-component subalgebra and scheme")
    p0.add_argument("algebra")
    p0.add_argument("--method", default="all",
                    choices=("derham", "equalizer", "idempotent", "all"))
    p0.add_argument("--deg", type=int, default=3)
    p0.add_argument("--tower", type=int, default=2)

    dr = sub.add_parser("derham", help="degree-0 de Rham computations")
    dr.add_argument("action", choices=("h0", "check-integration"))
    dr.add_argument("algebra")
    dr.add_argument("--deg", type=int, default=4)

    sg = sub.add_parser("sing", help="intrinsic singular cohomology slices")
    sg.add_argument("action", choices=("h0", "complex"))
    sg.add_argument("algebra")
    sg.add_argument("--tower", type=int, default=2)
    sg.add_argument("--trunc", type=int, default=1)
    sg.add_argument("--deg", type=int, default=2)
    sg.add_argument("--levels", type=int, default=2)

    vf = sub.add_parser("verify", help="symbolic lemma and law witnesses")
    vf.add_argument("action", choices=("lemmas", "law"))
    vf.add_argument("law", nargs="?", choices=("exp", "tensor", "dsum"))
    vf.add_argument("--only", choices=("rotation", "conjugation", "blocks",
                                       "permutation", "gamma"))
    return parser


def _apply_env_limits() -> None:
    def read(name):
        value = os.environ.get(name)
        if not value:
            return None
        try:
            limit = int(value)
            if limit >= 0:
                return limit
        except ValueError:
            pass
        raise ParseError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")

    # a guard whose variable is unset has its default, whatever ran before
    set_limits(**vars(ResourceLimits()))
    set_limits(max_basis=read("AFFPI0_MAX_BASIS"),
               max_degree=read("AFFPI0_MAX_DEGREE"),
               max_terms=read("AFFPI0_MAX_TERMS"))


HANDLERS = {"alg": cmd_alg, "hom": cmd_hom, "map": cmd_map,
            "homotopy": cmd_homotopy, "pi0": cmd_pi0, "derham": cmd_derham,
            "sing": cmd_sing, "verify": cmd_verify}


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    inputs = ("algebra", "target", "f", "g", "h")
    paths = [getattr(args, name) for name in inputs
             if getattr(args, name, None)]
    paths.extend(getattr(args, "files", None) or [])
    # files are hashed by content, not by how their paths are spelled
    flags = json.dumps({k: v for k, v in vars(args).items()
                        if k not in ("format", "files", "output", *inputs)},
                       sort_keys=True, default=str)
    digest = _digest(paths, flags)
    bounds = {k: getattr(args, k) for k in
              ("deg", "tower", "trunc", "levels", "xdeg", "bdeg")
              if getattr(args, k, None) is not None}
    try:
        _apply_env_limits()
        for name, value in bounds.items():
            if value < 0:
                raise ParseError(f"--{name} must be non-negative, got {value}")
        result = HANDLERS[args.command](args)
    except (ParseError, MorphismError, RingMismatchError,
            UnsupportedFieldError, HypothesisError, TruncationError,
            OSError, json.JSONDecodeError) as exc:
        emit({"schema": SCHEMA, "error": str(exc), "kind": "input"},
             args.format)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        emit({"schema": SCHEMA, "error": str(exc), "kind": "resource-limit"},
             args.format)
        return EXIT_RESOURCE
    except PropertyViolationError as exc:
        emit({"schema": SCHEMA, "error": str(exc), "kind": "property",
              "witness": str(exc.witness)}, args.format)
        return EXIT_PROPERTY
    except Exception as exc:     # a fault of the package, not of the request
        emit({"schema": SCHEMA, "error": f"{type(exc).__name__}: {exc}",
              "kind": "internal"}, args.format)
        return EXIT_INTERNAL
    report = make_report(args.command, digest, result, bounds, started)
    emit(report, args.format)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
