"""One workload in one fresh process: a closed loop with a single client.

Run by `run.py`, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S
        [--trace 0|1] [--setup-only] --workdir DIR

The worker imports affpi0 from the checkout's `src`, builds the seeded job
list, prints `ready` and then repeats whole passes over the job list, one
job at a time, until the time is up.  Each job is timed alone; turning its
result into a comparable answer happens after the clock stops.  The last line
of standard output is one JSON document with the timings, the distinct
answers of every job and, in a traced run, the layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# ---------------------------------------------------------------------------
# building jobs (needs affpi0)


def _field(p):
    from affpi0 import polyring
    return polyring.QQ if p is None else polyring.GF(p)


def _parse_all(polys, xs, field):
    from affpi0 import polyring
    return [polyring.poly_parse(s, xs, field) for s in polys]


def _cli_job(job, workdir):
    from affpi0 import cli

    argv = ["--format", "json"]
    outputs = []
    for arg in job["argv"]:
        if arg.endswith(".json"):
            path = os.path.join(workdir, arg)
            if arg.endswith("_out.json"):
                outputs.append(path)
            arg = path
        argv.append(arg)

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.run(argv)
            except SystemExit as exc:      # argparse rejects a request
                code = exc.code
        return code, buf.getvalue()

    def answer(out):
        code, text = out
        try:
            report = json.loads(text)
        except ValueError:
            report = {"unparsed": text}
        report.pop("timing_ms", None)
        files = {}
        for path in outputs:
            with open(path, encoding="utf-8") as fh:
                files[os.path.basename(path)] = json.load(fh)
            os.remove(path)
        return {"exit": code, "report": report, "files": files}

    return call, answer


def build(job: dict, workdir: str):
    """(call, answer): the timed call, and its result as plain data."""
    from affpi0 import derham, pi0, polyring, simplicial
    from affpi0.algebra import AlgebraPresentation

    kind = job["kind"]
    if kind == "cli":
        return _cli_job(job, workdir)
    if kind in ("groebner", "normal_form", "elimination"):
        field = _field(job["field"])
        xs = job["vars"]
        gens = _parse_all(job.get("polys", []), xs, field)
        if kind == "groebner":
            order = polyring.LEX if job["order"] == "lex" else polyring.DEGREVLEX
            return (lambda: polyring.groebner(gens, order),
                    lambda gb: [g.to_string(xs) for g in gb])
        if kind == "normal_form":
            basis = polyring.groebner(_parse_all(job["basis"], xs, field),
                                      polyring.DEGREVLEX)
            p = polyring.poly_parse(job["poly"], xs, field)
            return (lambda: polyring.normal_form(p, basis),
                    lambda r: r.to_string(xs))
        kept = [x for i, x in enumerate(xs) if i not in job["eliminate"]]
        return (lambda: polyring.elimination_ideal(gens, job["eliminate"]),
                lambda out: [g.to_string(kept) for g in out])

    doc, degree = job["algebra"], job["degree"]

    # a fresh presentation per call, so no pass reuses a cached basis
    def alg():
        return AlgebraPresentation.from_json(doc)

    def strings(elems):
        return [e.to_string() for e in elems]

    if kind == "derham_h0":
        return (lambda: derham.derham_h0(alg(), degree),
                lambda k: {"dimension": k.dimension, "basis": strings(k.basis)})
    if kind == "equalizer":
        return (lambda: pi0.equalizer_subspace(alg(), degree, job["tower"]),
                lambda e: {"dimension": e.dimension, "basis": strings(e.basis)})
    if kind == "idempotent":
        return (lambda: pi0.idempotent_search(alg(), degree),
                lambda r: {"count": r.count, "complete": r.complete,
                           "idempotents": sorted(strings(r.idempotents))})
    if kind == "pi0":
        return (lambda: pi0.pi0_presentation(alg(), degree, job["tower"]),
                lambda r: {"dimension": r.dimension,
                           "component_count": r.component_count,
                           "complete": r.idempotents.complete})
    if kind == "sing_h0":
        return (lambda: simplicial.sing_h0(alg(), job["tower"], degree),
                lambda r: {"dims": [lvl.dimension for lvl in r.levels]})
    if kind == "moore":
        return (lambda: simplicial.moore_complex(alg(), job["tower"], degree,
                                                 job["levels"]),
                lambda c: {"dd_zero": c.dd_zero, "h0": c.h0_dimension})
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# the loop


class Loop:
    def __init__(self, built):
        self.built = built
        # per job, the (start, end) clock readings of each execution
        self.spans: list[list[tuple[float, float]]] = [[] for _ in built]
        self.answers: list[dict[str, int]] = [{} for _ in built]
        self.pass_s: list[float] = []       # wall time of each pass's jobs

    def one_pass(self) -> None:
        gc.collect()
        busy = 0.0
        clock = time.perf_counter
        for k, (call, answer) in enumerate(self.built):
            t0 = clock()
            try:
                out = call()
                error = None
            except Exception as exc:       # counted, reported, never hidden
                error = type(exc).__name__
            t1 = clock()
            busy += t1 - t0
            self.spans[k].append((t0, t1))
            got = {"error": error} if error else answer(out)
            key = json.dumps(got, sort_keys=True, default=str)
            self.answers[k][key] = self.answers[k].get(key, 0) + 1
        self.pass_s.append(busy)

    def run_for(self, seconds: float) -> None:
        """Whole passes until `seconds` of wall time have gone; at least one."""
        start = time.perf_counter()
        while not self.pass_s or time.perf_counter() - start < seconds:
            self.one_pass()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import affpi0
    from affpi0 import cli  # noqa: F401  (every layer, the CLI included)
    import_ms = (time.perf_counter() - t0) * 1000
    if not os.path.abspath(affpi0.__file__).startswith(src + os.sep):
        print(f"affpi0 imported from {affpi0.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import jobs as joblists
    docs, jobs = joblists.job_list(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    for name, doc in docs.items():
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    built = [build(job, args.workdir) for job in jobs]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(built)
    out = {}
    if args.trace:
        # traced and untraced passes alternate, so the overhead compares
        # passes made under the same load on the machine; times stay plain
        # wall times, since the speed samples would land inside the spans
        from tracer import Tracer
        tracer = Tracer()
        tracer.plan()
        start = time.perf_counter()
        while len(loop.pass_s) < 2 or time.perf_counter() - start < args.seconds:
            traced = len(loop.pass_s) % 2 == 1
            if traced:
                tracer.install()
            loop.one_pass()
            if traced:
                tracer.uninstall()
        plain, with_trace = loop.pass_s[0::2], loop.pass_s[1::2]
        layers = tracer.metrics(len(with_trace))
        layers["affpi0.import_ms"] = import_ms
        layers["trace.overhead_pct"] = (statistics.median(with_trace)
                                        / statistics.median(plain) - 1) * 100
        out.update(layers=layers, table=tracer.table())
        out["job_net_s"] = {job["name"]: [t1 - t0 for t0, t1 in spans]
                            for job, spans in zip(jobs, loop.spans)}
        out["pass_net_s"] = loop.pass_s
    else:
        from speed import Speedometer
        meter = Speedometer()
        meter.start()
        try:
            loop.run_for(args.seconds)
        finally:
            meter.stop()
        timed = [[meter.times(t0, t1) for t0, t1 in spans]
                 for spans in loop.spans]
        for key, field in (("net", 0), ("scaled", 1)):
            out[f"job_{key}_s"] = {job["name"]: [t[field] for t in ts]
                                   for job, ts in zip(jobs, timed)}
            out[f"pass_{key}_s"] = [sum(ts[p][field] for ts in timed)
                                    for p in range(len(loop.pass_s))]
    out["answers"] = {job["name"]: a for job, a in zip(jobs, loop.answers)}
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
