"""The affpi0 benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload gb-systems|pi0-routes|cli-requests \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The workload runs in a fresh worker
process (`worker.py`) as a closed loop with one client; this process only
starts it, times its set-up, and checks every distinct answer it returns
against sympy, brute force over small prime fields, or values known from how
the inputs were built (`checks.py`).  The checks run after the worker has
exited, so they are in no timing and in no memory figure.

With `--trace 0` the last line holds the end-to-end metrics: `setup_s`,
`jobs_per_s`, `job_geomean_ms` and `peak_rss_mb`, the two time metrics from
job times scaled to a fixed machine speed (`speed.py`).  With `--trace 1` it
holds the per-layer metrics of a traced run instead (`tracer.py`).  Each run
also writes its result, the same figures from plain wall times, per-job
medians, failure reasons and the traced call table under `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

# fresh processes whose set-up is timed in an untraced run, besides the
# measured worker itself; set-up is a fraction of a second, so its median
# needs several
SETUP_PROBES = 10
# a worker still running this long after the start is stopped, which leaves
# time for the checks within three minutes
DEADLINE_S = 150

sys.path.insert(0, HERE)
import jobs as joblists  # noqa: E402


def _worker_cmd(args, workdir, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    return cmd + ["--setup-only"] if setup_only else cmd


def _env():
    # the Gröbner cache and the guard overrides stay at their defaults
    return {k: v for k, v in os.environ.items() if not k.startswith("AFFPI0_")}


def _start(cmd, deadline):
    """Start a worker; returns (process, seconds until it printed `ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    if time.monotonic() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError("deadline passed during set-up")
    return proc, setup


def measure(args, workdir, deadline):
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _start(_worker_cmd(args, workdir, True), deadline)
            proc.communicate(timeout=max(1, deadline - time.monotonic()))
            setups.append(setup)
    proc, setup = _start(_worker_cmd(args, workdir), deadline)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setups.append(setup)
    return result, setups


def grade(docs, jobs, answers):
    """(failed executions, unexpected failures, self-check problems)."""
    import checks

    checker = checks.Checker(docs)
    failed, unexpected, verdicts = 0, [], {}
    for job in jobs:
        for text, count in answers[job["name"]].items():
            why = checker.check(job, json.loads(text))
            verdicts[(job["name"], text)] = why
            if why is None:
                continue
            failed += count
            if "known_fault" not in job:
                unexpected.append(f"{job['name']}: {why}")
    accepted, tried = checks.self_check(checker, jobs, answers)
    problems = [f"self-check accepted a planted answer: {a}" for a in accepted]
    if tried == 0:
        problems.append("self-check found no correct answer to plant beside")
    bad = checks.cross_route(jobs, answers,
                             lambda job, text: verdicts[(job["name"], text)]
                             is None)
    problems += [f"routes disagree on {alg}" for alg in bad]
    return failed, unexpected, problems


def loop_figures(job_s, pass_s):
    """jobs_per_s and job_geomean_ms of one kind of job time, and the median
    milliseconds of each job."""
    median_ms = {name: statistics.median(t) * 1000 for name, t in job_s.items()}
    figures = {"jobs_per_s": statistics.median(len(job_s) / s for s in pass_s),
               "job_geomean_ms": math.exp(statistics.fmean(
                   math.log(t) for t in median_ms.values()))}
    return figures, median_ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "affpi0", "__init__.py")):
        print(f"no affpi0 sources under {ROOT}/src", file=sys.stderr)
        return 2

    docs, jobs = joblists.job_list(args.workload, args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        result, setups = measure(args, workdir, deadline)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, unexpected, problems = grade(docs, jobs, result["answers"])
    passes = len(result["pass_net_s"])
    extra = {"passes": passes, "setups_s": setups}
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": "%" if name == "trace.overhead_pct" else
                          "ratio" if name.endswith("_ratio") else
                          "ms" if name.endswith("ms") else "count"}
                   for name, value in result["layers"].items()}
    else:
        scaled, scaled_ms = loop_figures(result["job_scaled_s"],
                                         result["pass_scaled_s"])
        net, net_ms = loop_figures(result["job_net_s"], result["pass_net_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": scaled["jobs_per_s"], "unit": "1/s"},
            "job_geomean_ms": {"value": scaled["job_geomean_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        extra.update(net_wall_time=net, scaled_job_median_ms=scaled_ms,
                     net_job_median_ms=net_ms)
    final = {"correct": not unexpected and not problems,
             "attempted": passes * len(jobs), "failed": failed,
             "metrics": metrics}

    for line in unexpected + problems:
        print(f"INCORRECT {line}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": final, **extra,
                   "incorrect": unexpected + problems,
                   "table": result.get("table", [])}, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
