"""The names and calls that the benchmark in perfbench/ binds still work.

perfbench/ is read and never written: its modules are loaded without
bytecode caches.  A change that deletes a function, method or module the
benchmark calls or traces, or changes the signature of a call it makes,
fails here instead of in a benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        modules = {name: _load(name) for name in ("checks", "jobs", "tracer",
                                               "worker")}
    finally:
        sys.dont_write_bytecode = saved
    for short in modules["tracer"].MODULES:
        importlib.import_module(f"affpi0.{short}")
    return modules


def test_tracer_plan_wraps_every_traced_statistic(bench):
    tracer = bench["tracer"].Tracer()
    assert tracer.plan() > 0
    source = (PERFBENCH / "tracer.py").read_text(encoding="utf-8")
    wanted = set(re.findall(r'stat\("([^"]+)"', source))
    assert wanted
    assert wanted <= set(tracer.stats), sorted(wanted - set(tracer.stats))


@pytest.mark.parametrize("workload", ["gb-systems", "pi0-routes",
                                      "cli-requests"])
def test_worker_builds_every_seed_one_job(bench, workload, tmp_path):
    _, jobs = bench["jobs"].job_list(workload, 1)
    assert jobs
    for job in jobs:
        call, answer = bench["worker"].build(job, str(tmp_path))
        assert callable(call) and callable(answer), job["name"]


@pytest.mark.parametrize("workload", ["gb-systems", "pi0-routes"])
def test_worker_answers_the_first_seed_one_job_of_each_kind(bench, workload,
                                                            tmp_path):
    _, jobs = bench["jobs"].job_list(workload, 1)
    first = {}
    for job in jobs:
        first.setdefault(job["kind"], job)
    checker = bench["checks"].Checker()
    for job in first.values():
        call, answer = bench["worker"].build(job, str(tmp_path))
        assert checker.check(job, answer(call())) is None, job["name"]


def test_worker_answers_every_seed_one_pi0_route_job(bench, tmp_path):
    """Every job of `pi0-routes` passes the benchmark's own check, so an
    answer it would count as wrong fails here first."""
    _, jobs = bench["jobs"].job_list("pi0-routes", 1)
    checker = bench["checks"].Checker()
    assert len(jobs) == 64
    for job in jobs:
        call, answer = bench["worker"].build(job, str(tmp_path))
        assert checker.check(job, answer(call())) is None, job["name"]


def test_worker_answers_every_seed_one_cli_request(bench, tmp_path):
    """Every request of `cli-requests` passes the benchmark's own check, so a
    report change it would count as a wrong answer fails here first."""
    docs, jobs = bench["jobs"].job_list("cli-requests", 1)
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    checker = bench["checks"].Checker(docs)
    assert len(jobs) == 23
    for job in jobs:
        call, answer = bench["worker"].build(job, str(tmp_path))
        assert checker.check(job, answer(call())) is None, job["name"]
