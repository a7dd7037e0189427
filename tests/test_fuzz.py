"""Fuzz the parser and the CLI: malformed input is an input error or a
tripped guard (exit 2 or 3), never an internal error or a traceback.

Hypothesis runs derandomized with a bounded example count, so the suite
sees the same inputs on every run.  The resource guards are lowered while
these tests run: a guard is checked after each product, so at the default
degree bound a short expression such as (x+y+z+1)^60 would expand for
minutes before tripping it.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import cli
from affpi0.errors import ParseError, ResourceLimitError
from affpi0.polyring import GF, LIMITS, QQ, Polynomial, poly_parse, set_limits

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

NAMES = ["x", "y", "z"]

# raw strings over the token alphabet of the expression grammar
raw_text = st.text(alphabet="xyz_a019+-*^/() ", max_size=24)


def _grammatical(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map("".join),
        children.map(lambda e: f"({e})"),
        children.map(lambda e: f"-{e}"),
        st.tuples(children, st.integers(0, 5)).map(
            lambda t: f"({t[0]})^{t[1]}"))


def _mangle(case):
    text, i, drop = case
    return text[:i] + text[i + 1:] if drop else text[:i + 1] + text[i:]


# expressions of the grammar, and the same with one character dropped or
# repeated
grammatical = st.recursive(
    st.sampled_from(["x", "y", "z", "0", "1", "2", "1/2", "3/0", "w"]),
    _grammatical, max_leaves=6)
mangled = st.tuples(grammatical, st.integers(0, 30), st.booleans()).map(
    _mangle)
expressions = st.one_of(raw_text, grammatical, mangled)

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 40),
                         st.floats(allow_nan=False, width=16),
                         st.sampled_from(["", "Q", "x", "x^2 - 1", "x*y"]))
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["p", "field", "vars"]), children,
                        max_size=2)),
    max_leaves=6)

fields = st.one_of(st.sampled_from(["Q", {"p": 2}, {"p": 3}, {"p": 4},
                                    {"p": "3"}, {"p": 3.0}, {}, "F3"]),
                   json_values)
variables = st.one_of(
    st.lists(st.sampled_from(NAMES + ["x*y", "1x", "", "_t", "x y"]),
             max_size=3),
    json_values)
relations = st.one_of(st.lists(expressions, max_size=2), json_values)
algebra_docs = st.one_of(
    st.fixed_dictionaries({"field": fields, "vars": variables,
                           "relations": relations}),
    st.fixed_dictionaries({"field": fields, "vars": variables}),
    json_values)
morphism_docs = st.one_of(
    st.fixed_dictionaries({
        "source": st.one_of(st.just("line.json"), st.just("missing.json"),
                            algebra_docs),
        "target": st.one_of(st.just("plane.json"), algebra_docs),
        "images": st.one_of(st.lists(expressions, max_size=2), json_values)}),
    json_values)


@pytest.fixture(autouse=True)
def low_guards(monkeypatch):
    """Low guards for the library calls and, through the environment (each
    CLI run sets its guards from there), for the CLI requests."""
    low = {"max_basis": 200, "max_degree": 12, "max_terms": 2000}
    for name, value in low.items():
        monkeypatch.setenv(f"AFFPI0_{name.upper()}", str(value))
    saved = (LIMITS.max_basis, LIMITS.max_degree, LIMITS.max_terms)
    set_limits(**low)
    yield
    set_limits(*saved)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "line.json").write_text(json.dumps(
        {"field": "Q", "vars": ["x"], "relations": []}))
    (path / "plane.json").write_text(json.dumps(
        {"field": "Q", "vars": ["x", "y"], "relations": ["x*y - 1"]}))
    return path


def run_cli(argv: list[str]) -> None:
    """One request: exit 0, 2 or 3, with one JSON document as its report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["--format", "json"] + argv)
    report = json.loads(buf.getvalue())
    assert code in (0, 2, 3), report


@FUZZ
@given(text=expressions, field=st.sampled_from([QQ, GF(3)]))
def test_parser_accepts_or_raises_a_parse_error(text, field):
    try:
        p = poly_parse(text, NAMES, field)
    except (ParseError, ResourceLimitError):
        return
    assert isinstance(p, Polynomial)
    assert poly_parse(p.to_string(NAMES), NAMES, field) == p


@FUZZ
@given(text=expressions)
def test_normal_form_request_never_fails_internally(workdir, text):
    run_cli(["alg", "nf", str(workdir / "plane.json"), f"--poly={text}"])


@FUZZ
@given(doc=algebra_docs, action=st.sampled_from(["gb", "points"]))
def test_algebra_documents_never_fail_internally(workdir, doc, action):
    path = workdir / "algebra.json"
    path.write_text(json.dumps(doc))
    run_cli(["alg", action, str(path)])


@FUZZ
@given(doc=morphism_docs)
def test_morphism_documents_never_fail_internally(workdir, doc):
    path = workdir / "morphism.json"
    path.write_text(json.dumps(doc))
    run_cli(["hom", "check", str(path)])
