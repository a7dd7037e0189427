"""End-to-end tests for the command-line interface and its report contract."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from affpi0 import cli, matrix_homotopy, polyring
from affpi0.cli import run
from harnesses import reversed_entry_products


@pytest.fixture()
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    cubic = write("cubic.json", {"field": "Q", "vars": ["x"],
                                 "relations": ["x^3 - x"]})
    idem = write("idem.json", {"field": "Q", "vars": ["t"],
                               "relations": ["t^2 - t"]})
    f3t = write("f3t.json", {"field": {"p": 3}, "vars": ["t"],
                             "relations": ["t^2 - 1"]})
    f3x = write("f3x.json", {"field": {"p": 3}, "vars": ["x"],
                             "relations": ["x^2 - 1"]})
    circle = write("circle.json", {"field": "Q", "vars": ["x", "y"],
                                   "relations": ["x^2 + y^2 - 1"]})
    rat = write("rat.json", {"field": "Q", "vars": []})
    f0 = write("f0.json", {"source": "idem.json", "target": "rat.json",
                           "images": ["0"]})
    g1 = write("g1.json", {"source": "idem.json", "target": "rat.json",
                           "images": ["1"]})
    return {"tmp": tmp_path, "cubic": cubic, "idem": idem, "circle": circle,
            "f3t": f3t, "f3x": f3x, "f0": f0, "g1": g1}


def run_json(argv, capsys):
    code = run(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_alg_gb_and_nf(files, capsys):
    code, rep = run_json(["alg", "gb", files["cubic"]], capsys)
    assert code == 0
    assert rep["result"]["basis"] == ["x^3 - x"]
    code, rep = run_json(["alg", "nf", files["cubic"], "--poly", "x^4"], capsys)
    assert code == 0 and rep["result"]["normal_form"] == "x^2"


def test_alg_points_and_input_error(files, capsys):
    code, rep = run_json(["alg", "points", files["f3t"]], capsys)
    assert code == 0 and rep["result"]["count"] == 2
    bad = files["tmp"] / "bad.json"
    bad.write_text("{not json")
    code, rep = run_json(["alg", "gb", str(bad)], capsys)
    assert code == 2


def test_hom_check_and_enum(files, capsys):
    code, rep = run_json(["hom", "check", files["f0"]], capsys)
    assert code == 0 and rep["result"]["valid"]
    code, rep = run_json(["hom", "enum", files["f3t"], files["f3x"],
                          "--deg", "1"], capsys)
    assert code == 0 and rep["result"]["count"] == 4


def test_map_present_with_sidecar(files, capsys):
    out = str(files["tmp"] / "m.json")
    code, rep = run_json(["map", "present", files["f3t"], files["f3x"],
                          "--trunc", "1", "-o", out], capsys)
    assert code == 0
    assert rep["result"]["relation_count"] == 2
    assert os.path.exists(out)
    assert os.path.exists(str(files["tmp"] / "m.zvars.json"))
    sidecar = json.loads((files["tmp"] / "m.zvars.json").read_text())
    assert {entry["generator"] for entry in sidecar} == {"t"}


@pytest.mark.parametrize("output, side", [
    ("a.json.d/out.json", "a.json.d/out.zvars.json"),
    ("P", "P.zvars.json"),
])
def test_map_present_sidecar_replaces_only_a_trailing_json(files, capsys,
                                                          output, side):
    (files["tmp"] / "a.json.d").mkdir()
    code, rep = run_json(["map", "present", files["f3t"], files["f3x"],
                          "-o", str(files["tmp"] / output)], capsys)
    assert code == 0
    assert (files["tmp"] / output).exists()
    sidecar = json.loads((files["tmp"] / side).read_text())
    assert sidecar == rep["result"]["zvars"]


def test_map_points_crosscheck(files, capsys):
    code, rep = run_json(["map", "points", files["f3t"], files["f3x"],
                          "--trunc", "1"], capsys)
    assert code == 0
    assert rep["result"]["hom_count"] == rep["result"]["point_count"] == 4


@pytest.mark.parametrize("relations,count", [(["1"], 0), ([], 1)],
                         ids=["zero-algebra", "ground-field"])
def test_source_without_variables(files, capsys, relations, count):
    src = files["tmp"] / "novars.json"
    src.write_text(json.dumps({"field": {"p": 3}, "vars": [],
                               "relations": relations}))
    code, rep = run_json(["hom", "enum", str(src), files["f3t"]], capsys)
    assert code == 0 and rep["result"]["count"] == count
    code, rep = run_json(["map", "points", str(src), files["f3t"]], capsys)
    assert code == 0
    assert rep["result"]["hom_count"] == rep["result"]["point_count"] == count


def test_homotopy_search_negative(files, capsys):
    code, rep = run_json(["homotopy", "search", files["f0"], files["g1"],
                          "--xdeg", "3", "--bdeg", "3"], capsys)
    assert code == 0
    assert rep["result"]["status"] == "none-within-bounds"


def test_homotopy_search_found_writes_certificate(files, capsys, tmp_path):
    free_t = tmp_path / "freet.json"
    free_t.write_text(json.dumps({"field": "Q", "vars": ["t"],
                                  "relations": []}))
    free_u = tmp_path / "freeu.json"
    free_u.write_text(json.dumps({"field": "Q", "vars": ["u"],
                                  "relations": []}))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"source": "freet.json", "target": "freeu.json",
                             "images": ["0"]}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"source": "freet.json", "target": "freeu.json",
                             "images": ["u"]}))
    cert = tmp_path / "cert.json"
    code, rep = run_json(["homotopy", "search", str(f), str(g),
                          "--xdeg", "1", "--bdeg", "1", "-o", str(cert)],
                         capsys)
    assert code == 0 and rep["result"]["status"] == "found"
    doc = json.loads(cert.read_text())
    assert doc["images"] == ["u*x"]
    code, rep = run_json(["homotopy", "verify", str(f), str(g), str(cert)],
                         capsys)
    assert code == 0 and rep["result"]["verified"]


def test_pi0_all_methods(files, capsys):
    code, rep = run_json(["pi0", files["cubic"], "--method", "all",
                          "--deg", "2", "--tower", "2"], capsys)
    assert code == 0
    res = rep["result"]
    assert res["derham"]["dimension"] == 3
    assert res["derham"]["component_count"] == 3
    assert res["equalizer"]["dimension"] == 3
    assert res["idempotent"]["count"] == 8
    assert res["idempotent"]["primitive_count"] == 3


def test_derham_h0_and_integration(files, capsys):
    code, rep = run_json(["derham", "h0", files["cubic"], "--deg", "2"],
                         capsys)
    assert code == 0 and rep["result"]["dimension"] == 3
    code, rep = run_json(["derham", "check-integration", files["idem"]],
                         capsys)
    assert code == 0 and rep["result"]["ok"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_derham_integration_over_a_prime_field(files, capsys, p):
    """The CLI's samples reach x^4: over F_2 and F_3 the formal integral
    lacks 1/2 and 1/3, which is bad input, not a failed identity."""
    path = files["tmp"] / f"unit_f{p}.json"
    path.write_text(json.dumps({"field": {"p": p}, "vars": ["x", "y"],
                                "relations": ["x*y - 1"]}))
    code, rep = run_json(["derham", "check-integration", str(path)], capsys)
    if p <= 3:
        assert code == 2 and rep["kind"] == "input"
        assert rep["error"] == (f"characteristic divides {p}: the formal "
                                f"integral needs 1/{p}")
    else:
        assert code == 0 and rep["result"]["ok"]


def test_derham_h0_over_a_prime_field_is_only_a_kernel(files, capsys):
    """In characteristic p the kernel of d holds every p-th power, so it is
    reported without the pi0 reading."""
    code, rep = run_json(["derham", "h0", files["f3t"]], capsys)
    assert code == 0
    assert rep["result"]["interpretation"] == "kernel only (not pi0 in char p)"
    assert rep["result"]["basis"] == ["1", "t"]


def test_sing_h0_and_complex(files, capsys):
    code, rep = run_json(["sing", "h0", files["idem"], "--tower", "2",
                          "--deg", "2"], capsys)
    assert code == 0
    assert [lvl["dimension"] for lvl in rep["result"]["levels"]] == [2, 2]
    code, rep = run_json(["sing", "complex", files["idem"], "--levels", "2",
                          "--trunc", "1", "--deg", "2"], capsys)
    assert code == 0
    res = rep["result"]
    assert res["dd_zero"] and res["cosimplicial_identities"]
    assert res["h0_dimension"] == 2 and res["h1_dimension"] == 0


def test_sing_h0_of_the_f3_cusp_shrinks_with_the_tower(files, capsys):
    path = files["tmp"] / "f3cusp.json"
    path.write_text(json.dumps({"field": {"p": 3}, "vars": ["x", "y"],
                                "relations": ["y^2 - x^3"]}))
    code, rep = run_json(["sing", "h0", str(path), "--tower", "3",
                          "--deg", "3"], capsys)
    assert code == 0
    assert [(lvl["tower"], lvl["dimension"], lvl["basis"])
            for lvl in rep["result"]["levels"]] == [
        (1, 3, ["1", "y^2", "y^3"]), (2, 2, ["1", "y^3"]), (3, 1, ["1"])]
    assert rep["result"]["note"] == "tower level 0 is degenerate and excluded"


@pytest.mark.parametrize("argv", [
    ["sing", "complex", "{circle}", "--trunc", "0", "--deg", "2"],
    ["sing", "h0", "{circle}", "--tower", "0", "--deg", "2"],
])
def test_sing_at_truncation_level_zero_is_an_input_error(files, capsys,
                                                         argv):
    """Level 0 is degenerate: the complex would report the whole slice (5
    on the circle at degree 2) as H^0, and h0 would report no level."""
    code, rep = run_json([a.format(**files) for a in argv], capsys)
    assert code == 2 and rep["kind"] == "input"
    assert "tower >= 1" in rep["error"]


def test_sing_complex_without_a_differential_reports_no_h0(files, capsys):
    code, rep = run_json(["sing", "complex", files["circle"], "--levels", "0",
                          "--deg", "2"], capsys)
    assert code == 0
    assert rep["result"]["h0_dimension"] is None
    assert rep["result"]["h1_dimension"] is None


def sing_complex(path):
    return ["sing", "complex", path, "--levels", "2", "--trunc", "1",
            "--deg", "2"]


def test_sing_complex_failing_identities_exit_1(files, capsys, monkeypatch):
    monkeypatch.setattr(
        cli.simplicial, "check_cosimplicial_identities",
        lambda space: {"ok": False, "failures": [("dd", 1, 0, 1)]})
    code, rep = run_json(sing_complex(files["idem"]), capsys)
    assert code == 1 and rep["kind"] == "property"
    assert "('dd', 1, 0, 1)" in rep["witness"]


def test_sing_complex_failing_dd_zero_exit_1(files, capsys, monkeypatch):
    """Summing the cofaces without signs gives a d with d∘d != 0."""
    space_cls = cli.simplicial.CosimplicialSpace

    def unsigned(self, n):
        mats = [self.structure_matrix(cli.simplicial._face_alpha(i, n + 1),
                                      n + 1) for i in range(n + 2)]
        return [[sum(col) for col in zip(*rows)] for rows in zip(*mats)]

    monkeypatch.setattr(space_cls, "differential_matrix", unsigned)
    code, rep = run_json(sing_complex(files["idem"]), capsys)
    assert code == 1 and rep["kind"] == "property"
    assert "'dd_zero': False" in rep["witness"]


def test_verify_lemmas_and_only(files, capsys):
    code, rep = run_json(["verify", "lemmas"], capsys)
    assert code == 0 and rep["result"]["ok"]
    code, rep = run_json(["verify", "lemmas", "--only", "rotation"], capsys)
    assert code == 0


def test_verify_lemmas_with_a_wrong_rotation_exit_1(files, capsys,
                                                   monkeypatch):
    """[[1 - x^2, x^3 - 2x], [x, 1]] has determinant 1 + x^2 - x^4."""
    from affpi0 import matrix_homotopy

    monkeypatch.setattr(
        matrix_homotopy, "rotation", lambda ring: matrix_homotopy._matrix(
            ring, [["1 - x^2", "x^3 - 2*x"], ["x", "1"]]))
    code, rep = run_json(["verify", "lemmas", "--only", "rotation"], capsys)
    assert code == 1 and rep["kind"] == "property"


def flipped_inverse(rotation_inverse):
    """The rotation's inverse with the sign of its upper-right corner
    flipped."""
    return lambda ring: matrix_homotopy._matrix(
        ring, [["1 - x^2", "x^3 - 2*x"], ["-x", "1 - x^2"]])


@pytest.mark.parametrize("only, name, plant", [
    ("conjugation", "rotation_inverse", flipped_inverse),
    ("blocks", "rotation_inverse", flipped_inverse),
    ("permutation", "_permutation_matrix",
     lambda perm: lambda ring, sigma, sizes: matrix_homotopy._transpose(
         perm(ring, sigma, sizes))),
    ("gamma", "_block_diag",
     lambda diag: lambda ring, blocks, size: diag(ring, blocks[:1], size)),
    ("blocks", "mat_mul", reversed_entry_products),
])
def test_verify_lemmas_with_a_planted_fault_exit_1(files, capsys, monkeypatch,
                                                  only, name, plant):
    argv = ["verify", "lemmas", "--only", only]
    assert run_json(argv, capsys)[0] == 0
    monkeypatch.setattr(matrix_homotopy, name,
                        plant(getattr(matrix_homotopy, name)))
    code, rep = run_json(argv, capsys)
    assert code == 1 and rep["kind"] == "property"


def test_verify_laws(files, capsys):
    for law in ("exp", "tensor", "dsum"):
        code, rep = run_json(["verify", "law", law], capsys)
        assert code == 0 and rep["result"]["ok"], law


@pytest.mark.parametrize("law, wrong, failure", [
    ("exp", lambda mapping: [mapping[1], mapping[0], *mapping[2:]],
     "forward"),
    # a swap would pass here: the two idempotent factors are symmetric
    ("tensor", lambda mapping: [0] * len(mapping), "roundtrip"),
])
def test_verify_law_with_a_wrong_renaming_exit_1(files, capsys, monkeypatch,
                                                 law, wrong, failure):
    from affpi0 import mapspace
    check = mapspace._renaming_correspondence
    monkeypatch.setattr(
        mapspace, "_renaming_correspondence",
        lambda left, right, mapping: check(left, right, wrong(mapping)))
    code, rep = run_json(["verify", "law", law], capsys)
    assert code == 1 and rep["kind"] == "property"
    assert f"('{failure}'," in rep["witness"]


def test_reports_deterministic_and_schema(files, capsys):
    code1, rep1 = run_json(["pi0", files["idem"], "--deg", "2"], capsys)
    code2, rep2 = run_json(["pi0", files["idem"], "--deg", "2"], capsys)
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["schema"] == 1
    assert "deg" in rep1["bounds"] and "tower" in rep1["bounds"]


def test_gb_ignores_a_planted_cache_entry(files, capsys, monkeypatch,
                                          tmp_path):
    # the Gröbner cache is gone: an entry planted where it used to be read
    # (key of Q[x]/(x^3 - x) in degrevlex) must not reach the report
    cache = tmp_path / "cache"
    cache.mkdir()
    key_doc = json.dumps(["Q", ["x"], ["x^3 - x"], "degrevlex"],
                         sort_keys=True)
    key = hashlib.sha256(key_doc.encode()).hexdigest()
    (cache / f"gb-{key}.json").write_text(
        json.dumps({"schema": 99, "basis": ["x - 5"]}))
    monkeypatch.setenv("AFFPI0_CACHE", str(cache))
    code, rep = run_json(["alg", "gb", files["cubic"]], capsys)
    assert code == 0
    assert rep["result"]["basis"] == ["x^3 - x"]
    assert rep["result"]["cached"] is False


def test_morphism_without_source_is_an_input_error(files, capsys):
    path = files["tmp"] / "nosource.json"
    path.write_text(json.dumps({"target": "cubic.json", "images": ["x"]}))
    code, rep = run_json(["hom", "check", str(path)], capsys)
    assert code == 2 and rep["kind"] == "input"


@pytest.mark.parametrize("doc", [
    {"field": "Q", "vars": ["x"], "relations": [5]},
    {"field": "Q", "vars": "xy", "relations": ["x*y - 1"]},
    {"field": {"p": 3.7}, "vars": ["x"], "relations": ["x^3 - x"]},
    {"field": {"p": "7"}, "vars": ["x"], "relations": ["x^3 - x"]},
    {"field": {"p": True}, "vars": ["x"], "relations": ["x^3 - x"]},
    {"field": {"p": 3}, "vars": ["x*y"], "relations": []},
    {"field": {"p": 3}, "vars": ["1x"], "relations": []},
    {"field": {"p": 3}, "vars": [""], "relations": []},
    {"field": "Q", "vars": ["x"], "relations": ["(" * 3000 + "x" + ")" * 3000]},
])
def test_malformed_algebra_document_is_an_input_error(files, capsys, doc):
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(["alg", "gb", str(path)], capsys)
    assert code == 2 and rep["kind"] == "input"


def test_deeply_nested_polynomial_option_is_an_input_error(files, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, rep = run_json(["alg", "nf", files["cubic"], "--poly", deep], capsys)
    assert code == 2 and rep["kind"] == "input"


@pytest.mark.parametrize("content", [
    b'{"field": "Q", "vars": ["\xff"]}',
    b"[" * 100000 + b"]" * 100000,
    None,
], ids=["bad-utf8", "nested-json", "directory"])
def test_unreadable_document_is_an_input_error(files, capsys, content):
    path = files["tmp"] / "unreadable.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, rep = run_json(["alg", "gb", str(path)], capsys)
    assert code == 2 and rep["kind"] == "input"


@pytest.mark.parametrize("argv", [
    ["derham", "h0", "{cubic}", "--deg", "-1"],
    ["pi0", "{cubic}", "--tower", "-1"],
])
def test_negative_bounds_are_input_errors(files, capsys, argv):
    code, rep = run_json([a.format(**files) for a in argv], capsys)
    assert code == 2 and rep["kind"] == "input"


def test_pi0_equalizer_at_tower_zero_is_an_input_error(files, capsys):
    code, rep = run_json(["pi0", files["cubic"], "--method", "equalizer",
                          "--deg", "2", "--tower", "0"], capsys)
    assert code == 2 and rep["kind"] == "input"
    assert "tower >= 1" in rep["error"]


def test_pi0_derham_at_tower_zero_is_an_input_error(files, capsys):
    """The de Rham route's equalizer cross-check needs a level, too."""
    code, rep = run_json(["pi0", files["cubic"], "--method", "derham",
                          "--deg", "2", "--tower", "0"], capsys)
    assert code == 2 and rep["kind"] == "input"
    assert "tower >= 1" in rep["error"]


def test_homotopy_verify_into_a_target_without_variables(files, capsys):
    h = files["tmp"] / "h.json"
    h.write_text(json.dumps({"source": "idem.json", "target": "rat.json",
                             "images": ["0"]}))
    code, rep = run_json(["homotopy", "verify", files["f0"], files["g1"],
                          str(h)], capsys)
    assert code == 2 and rep["kind"] == "input"


def test_homotopy_verify_without_a_certificate_is_an_input_error(files,
                                                                 capsys):
    code, rep = run_json(["homotopy", "verify", files["f0"], files["g1"]],
                         capsys)
    assert code == 2 and rep["kind"] == "input"
    assert "certificate file h" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["verify", "law"],
    ["hom", "check", "{f0}", "{g1}"],
    ["hom", "enum", "{f3t}"],
])
def test_missing_or_extra_operands_are_input_errors(files, capsys, argv):
    code, rep = run_json([a.format(**files) for a in argv], capsys)
    assert code == 2 and rep["kind"] == "input"


def test_hom_enum_beyond_the_solver_guard_exit_3(files, capsys):
    """13 coefficients over F_3: 3^13 candidates exceed the 200000 guard."""
    f3s = files["tmp"] / "f3s.json"
    f3s.write_text(json.dumps({"field": {"p": 3}, "vars": ["s"]}))
    code, rep = run_json(["hom", "enum", files["f3t"], str(f3s),
                          "--deg", "12"], capsys)
    assert code == 3 and rep["kind"] == "resource-limit"


@pytest.mark.parametrize("limit, argv", [
    (("AFFPI0_MAX_TERMS", "5"),
     ["alg", "nf", "{plane}", "--poly", "(x+y+1)^6"]),
    (("AFFPI0_MAX_BASIS", "2"), ["alg", "gb", "{plane}"]),
])
def test_lowered_guards_exit_3(files, capsys, monkeypatch, limit, argv):
    """The basis of (x^2 + y^2 - 1, x*y - 1) has 3 elements."""
    plane = files["tmp"] / "plane.json"
    plane.write_text(json.dumps({"field": "Q", "vars": ["x", "y"],
                                 "relations": ["x^2 + y^2 - 1", "x*y - 1"]}))
    argv = [a.format(plane=plane) for a in argv]
    assert run_json(argv, capsys)[0] == 0
    monkeypatch.setenv(*limit)
    code, rep = run_json(argv, capsys)
    assert code == 3 and rep["kind"] == "resource-limit"
    monkeypatch.delenv(limit[0])      # the next run restores the defaults
    assert run_json(argv, capsys)[0] == 0


def test_max_basis_counts_the_generators(files, capsys, monkeypatch):
    """x − 1, y − 2, z − 3 are a basis of three elements with no S-pair to
    reduce: past a guard of 2 at the third generator, as x^2 − y, xy − 1
    are at their first S-pair."""
    doc = files["tmp"] / "point.json"
    argv = ["alg", "gb", str(doc)]
    for relations in (["x - 1", "y - 2", "z - 3"], ["x^2 - y", "x*y - 1"]):
        doc.write_text(json.dumps({"field": "Q", "vars": ["x", "y", "z"],
                                   "relations": relations}))
        code, rep = run_json(argv, capsys)
        assert code == 0 and len(rep["result"]["basis"]) == 3
        monkeypatch.setenv("AFFPI0_MAX_BASIS", "2")
        code, rep = run_json(argv, capsys)
        assert code == 3 and rep["kind"] == "resource-limit"
        assert "basis size exceeds guard 2" in rep["error"]
        monkeypatch.setenv("AFFPI0_MAX_BASIS", "3")
        assert run_json(argv, capsys)[0] == 0
        monkeypatch.delenv("AFFPI0_MAX_BASIS")


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_malformed_limit_in_the_environment_is_an_input_error(
        files, capsys, monkeypatch, value):
    monkeypatch.setenv("AFFPI0_MAX_DEGREE", value)
    code, rep = run_json(["alg", "gb", files["cubic"]], capsys)
    assert code == 2 and rep["kind"] == "input"
    assert "AFFPI0_MAX_DEGREE" in rep["error"]


def test_resource_guard_exit_code(files, capsys, monkeypatch):
    monkeypatch.setenv("AFFPI0_MAX_DEGREE", "2")
    try:
        code, rep = run_json(["alg", "nf", files["cubic"], "--poly",
                              "(x + 1)^9"], capsys)
        assert code == 3
        assert rep["kind"] == "resource-limit"
    finally:
        monkeypatch.delenv("AFFPI0_MAX_DEGREE")
        from affpi0.polyring import set_limits
        set_limits(max_degree=64)


def test_degree_past_the_packed_field_width_exit_3(files, capsys,
                                                   monkeypatch):
    """With the degree guard raised, a normal form of degree 2^(W-1) does
    not fit the W-bit fields of the reduction kernel, nor does the lcm of
    x^e and y^e for e = 2^(W-2) fit those of the pair update: exit 3, not
    an answer from wrapped exponents."""
    bound = 1 << (polyring._WIDTH - 1)
    doc = files["tmp"] / "xy.json"

    def alg(relations, action, *flags):
        doc.write_text(json.dumps({"field": "Q", "vars": ["x", "y"],
                                   "relations": relations}))
        return run_json(["alg", action, str(doc), *flags], capsys)

    monkeypatch.setenv("AFFPI0_MAX_DEGREE", str(4 * bound))
    try:
        code, rep = alg(["x^2 - 1"], "nf", "--poly", f"y^{bound - 1}")
        assert (code, rep["result"]["normal_form"]) == (0, f"y^{bound - 1}")
        e = bound // 2
        code, rep = alg([f"x^{e - 1} - 1", f"y^{e} - 1"], "gb")
        assert code == 0 and len(rep["result"]["basis"]) == 2
        for code, rep in (alg(["x^2 - 1"], "nf", "--poly", f"y^{bound}"),
                          alg([f"x^{e} - 1", f"y^{e} - 1"], "gb")):
            assert code == 3 and rep["kind"] == "resource-limit"
            assert f"{polyring._WIDTH}-bit" in rep["error"]
    finally:
        monkeypatch.delenv("AFFPI0_MAX_DEGREE")
        polyring.set_limits(**vars(polyring.ResourceLimits()))


def test_unset_limit_goes_back_to_its_default(files, capsys, monkeypatch):
    """A guard set through the environment lasts one run, not the process."""
    doc = files["tmp"] / "quintic.json"
    doc.write_text(json.dumps({"field": "Q", "vars": ["x"],
                               "relations": ["x^5 - 1"]}))
    monkeypatch.setenv("AFFPI0_MAX_DEGREE", "3")
    code, rep = run_json(["alg", "gb", str(doc)], capsys)
    assert code == 3 and rep["kind"] == "resource-limit"
    monkeypatch.delenv("AFFPI0_MAX_DEGREE")
    code, rep = run_json(["alg", "gb", str(doc)], capsys)
    assert code == 0 and rep["result"]["basis"] == ["x^5 - 1"]


def test_pi0_of_an_infinite_algebra_in_five_variables(files, capsys):
    """Finiteness is read off the leading monomials, so no standard
    monomials of high degree are counted."""
    doc = files["tmp"] / "five.json"
    doc.write_text(json.dumps({"field": "Q", "vars": list("abcde"),
                               "relations": ["a*b - c*d - e"]}))
    code, rep = run_json(["pi0", str(doc), "--method", "derham", "--deg", "1",
                          "--tower", "1"], capsys)
    assert code == 0
    assert rep["result"]["derham"]["component_count"] == 1


def test_large_constant_power_is_a_resource_limit(files, capsys):
    doc = files["tmp"] / "power.json"
    doc.write_text(json.dumps({"field": "Q", "vars": ["x"],
                               "relations": ["x - 3^100000000"]}))
    code, rep = run_json(["alg", "gb", str(doc)], capsys)
    assert code == 3 and rep["kind"] == "resource-limit"
    assert "max_degree" in rep["error"]


def test_pi0_all_runs_the_idempotent_search_once(files, capsys, monkeypatch):
    from affpi0 import pi0
    calls = []
    search = pi0._root_solutions

    def spy(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(pi0, "_root_solutions", spy)
    code, rep = run_json(["pi0", files["idem"], "--method", "all",
                          "--deg", "2", "--tower", "2"], capsys)
    assert code == 0 and len(calls) == 1
    code, alone = run_json(["pi0", files["idem"], "--method", "idempotent",
                            "--deg", "2"], capsys)
    assert code == 0
    assert rep["result"]["idempotent"] == alone["result"]["idempotent"]


def test_pi0_all_over_prime_field_runs_candidate_routes(files, capsys):
    code, rep = run_json(["pi0", files["f3t"], "--method", "all",
                          "--deg", "2", "--tower", "1"], capsys)
    assert code == 0
    res = rep["result"]
    assert "derham" not in res and "note" in res
    assert res["equalizer"]["label"] == "pi0-candidate"
    assert res["idempotent"]["label"] == "pi0-candidate"
    # t^2 = 1 over F3: idempotents are 0, 1, (1±t)/2 -> 4 of them
    assert res["idempotent"]["count"] == 4


def test_pi0_derham_explicitly_requested_over_prime_field_fails(files, capsys):
    code, rep = run_json(["pi0", files["f3t"], "--method", "derham"], capsys)
    assert code == 2


def test_text_format_output(files, capsys):
    code = run(["alg", "gb", files["cubic"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "basis" in out and "x^3 - x" in out
    assert "timing_ms" not in out  # text view drops volatile fields


def test_unexpected_exception_is_an_internal_report(files, capsys,
                                                    monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "alg", broken)
    code, rep = run_json(["alg", "gb", files["cubic"]], capsys)
    assert code == 4
    assert rep == {"schema": 1, "kind": "internal",
                   "error": "RuntimeError: boom"}


def test_derham_certificate_failure_exit_1(files, capsys, monkeypatch):
    """A kernel element whose differential does not reduce to zero in Ω¹ is
    a property failure.  A normal form shifted by a constant is affine, not
    linear: the slice monomials 1 and t of Q[t]/(t^2 - t) both reduce to 1,
    so the kernel holds t - 1, whose own normal form is then 1."""
    from affpi0 import derham
    from affpi0.polyring import Polynomial
    reduced = derham._reduced

    def shifted(omega, omega_gb):
        nf = reduced(omega, omega_gb)
        return nf + Polynomial.one(nf.arity, nf.field)

    monkeypatch.setattr(derham, "_reduced", shifted)
    code, rep = run_json(["derham", "h0", files["idem"]], capsys)
    assert code == 1 and rep["kind"] == "property"
    assert rep["error"] == "kernel element failed its certificate"


FOUR_PARABOLAS = {"field": "Q", "vars": ["x", "y"],
                  "relations": ["(y - x^2)*(y - x^2 - 1)*(y - x^2 - 2)"
                                "*(y - x^2 - 3)"]}


def test_derham_h0_of_four_parabolas_is_exact(files, capsys):
    """d(y - x^2) = 0, since f'(u) is a unit for u = y - x^2; the multiplier
    that shows it has degree 6."""
    doc = files["tmp"] / "four.json"
    doc.write_text(json.dumps(FOUR_PARABOLAS))
    code, rep = run_json(["derham", "h0", str(doc), "--deg", "2"], capsys)
    assert code == 0
    assert rep["result"]["dimension"] == 2
    assert rep["result"]["basis"] == ["1", "-x^2 + y"]
    code, rep = run_json(["pi0", str(doc), "--method", "all", "--deg", "2",
                          "--tower", "1"], capsys)
    assert code == 0
    res = rep["result"]
    assert res["derham"]["dimension"] == res["equalizer"]["dimension"] == 2
    # principal: the search at ⌊8²/4⌋ = 16 holds every idempotent
    assert res["derham"]["component_count"] == 4


def test_pi0_of_four_parabolas_at_the_defaults(files, capsys):
    """`--method all --tower 2` builds M_2(A, Q[t]), whose equalizer basis
    must equal the de Rham basis."""
    doc = files["tmp"] / "four.json"
    doc.write_text(json.dumps(FOUR_PARABOLAS))
    code, rep = run_json(["pi0", str(doc), "--deg", "2"], capsys)
    assert code == 0
    res = rep["result"]
    assert res["tower"] == 2
    assert res["derham"]["component_count"] == 4
    assert res["equalizer"]["basis"] == res["derham"]["basis"]


def test_pi0_of_two_cubics_counts_beyond_the_slice(files, capsys):
    """The degree-1 slice holds no idempotent but 0 and 1; the principal
    relation of degree 6 puts every idempotent in degree ⌊6²/4⌋ = 9."""
    doc = files["tmp"] / "two_cubics.json"
    doc.write_text(json.dumps({"field": "Q", "vars": ["x", "y"],
                               "relations": ["(y - x^3)*(y - x^3 - 1)"]}))
    code, rep = run_json(["pi0", str(doc), "--method", "derham", "--deg",
                          "1"], capsys)
    assert code == 0
    assert rep["result"]["derham"]["component_count"] == 2


def test_pi0_with_a_dropped_derham_element_exit_1(files, capsys,
                                                 monkeypatch):
    from affpi0 import pi0
    kernel = pi0.derham_h0

    def short(a, degree):
        k = kernel(a, degree)
        k.basis = k.basis[:-1]
        return k

    monkeypatch.setattr(pi0, "derham_h0", short)
    code, rep = run_json(["pi0", files["cubic"], "--deg", "2"], capsys)
    assert code == 1 and rep["kind"] == "property"
    assert "level-1 equalizer" in rep["error"]


def test_pi0_all_with_a_short_equalizer_basis_exit_1(files, capsys,
                                                    monkeypatch):
    """`--method all` compares the equalizer basis at the requested tower
    with the de Rham basis; both are canonical, so they must be equal."""
    from affpi0 import pi0
    subspace = pi0.equalizer_subspace

    def short(a, degree, tower):
        eq = subspace(a, degree, tower)
        eq.basis = eq.basis[:-1]
        return eq

    monkeypatch.setattr(pi0, "equalizer_subspace", short)
    code, rep = run_json(["pi0", files["cubic"], "--deg", "2"], capsys)
    assert code == 1 and rep["kind"] == "property"
    assert "equalizer and derham bases differ" in rep["error"]
    assert rep["witness"] == str((["1", "x", "x^2"], ["1", "x"]))


def test_derham_integration_with_a_doubled_phi1_exit_1(files, capsys,
                                                      monkeypatch):
    from affpi0 import derham
    argv = ["derham", "check-integration", files["idem"]]
    assert run_json(argv, capsys)[0] == 0
    phi1 = derham.integral_phi1
    monkeypatch.setattr(derham, "integral_phi1",
                        lambda omega, ext: phi1(omega, ext) + phi1(omega, ext))
    code, rep = run_json(argv, capsys)
    assert code == 1 and rep["kind"] == "property"
    assert rep["error"] == "integration homotopy failed"


def test_root_solver_non_solution_exit_1(files, capsys, monkeypatch):
    """A split that returns a non-idempotent (an atom tripled) is caught
    by the e² = e check."""
    from affpi0 import pi0
    split = pi0._split

    def planted(a, slice_monos, cut):
        support, atoms = split(a, slice_monos, cut)
        tripled = [a.field.mul(a.field.scalar(3), v) for v in atoms[0]]
        return support, [tripled] + atoms[1:]

    monkeypatch.setattr(pi0, "_split", planted)
    code, rep = run_json(["pi0", files["idem"], "--method", "idempotent",
                          "--deg", "2"], capsys)
    assert code == 1 and rep["kind"] == "property"
    assert rep["error"] == "solver returned a non-solution"


@pytest.mark.parametrize("relation, degree, count", [
    ("(x - 1)*(x + 2)*(x - 4)*(x + 5)", 3, 4),
    ("(x - 3)*x*(x^2 + 2)", 3, 3),
    ("x*(x - 1)*(x - 2)*(x - 3)*(x - 4)", 4, 5)])
def test_pi0_all_answers_the_etale_rows(files, capsys, relation, degree,
                                        count):
    """Searched whole, at the top degree of their standard monomials."""
    doc = files["tmp"] / "etale.json"
    doc.write_text(json.dumps({"field": "Q", "vars": ["x"],
                               "relations": [relation]}))
    code, rep = run_json(["pi0", str(doc), "--method", "all",
                          "--deg", str(degree)], capsys)
    assert code == 0
    res = rep["result"]
    assert res["derham"]["component_count"] == count
    assert res["idempotent"]["count"] == 2 ** count
    assert res["idempotent"]["primitive_count"] == count


@pytest.mark.parametrize("name, error", [
    ("roots_mod", "an element of the Berlekamp subspace has a minimal "
                  "polynomial that does not split"),
    ("_equal_degree", "root search over F_p returned a non-root")])
def test_f5_split_planted_root_faults_exit_1(files, capsys, monkeypatch,
                                             name, error):
    """A root search that drops a root, or a splitting step that shifts
    every linear factor, is caught by the F_5 split's checks."""
    from affpi0 import factor
    roots_mod, equal_degree = factor.roots_mod, factor._equal_degree
    planted = {
        "roots_mod": lambda f, p: roots_mod(f, p)[1:],
        "_equal_degree": lambda g, d, p, rng: [
            [(q[0] + 1) % p, 1] for q in equal_degree(g, d, p, rng)]}
    monkeypatch.setattr(factor, name, planted[name])
    doc = files["tmp"] / "f5.json"
    doc.write_text(json.dumps({"field": {"p": 5}, "vars": ["x"],
                               "relations": ["x^3 - x"]}))
    code, rep = run_json(["pi0", str(doc), "--method", "idempotent",
                          "--deg", "2"], capsys)
    assert code == 1 and rep["kind"] == "property"
    assert rep["error"] == error


# ---------------------------------------------------------------------------
# the parser is built once per process: nothing may leak between runs


def without_timing(report):
    return {k: v for k, v in report.items() if k != "timing_ms"}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_restores_defaults(files, capsys):
    code, rep = run_json(["pi0", files["idem"], "--deg", "1"], capsys)
    assert code == 0 and rep["result"]["degree"] == 1
    code, rep = run_json(["pi0", files["idem"]], capsys)
    assert code == 0
    assert rep["result"]["degree"] == 3
    assert rep["bounds"] == {"deg": 3, "tower": 2}


def test_reused_parser_does_not_accumulate_files(files, capsys):
    code, rep = run_json(["hom", "enum", files["f3t"], files["f3x"]], capsys)
    assert code == 0
    code, rep = run_json(["hom", "check", files["f0"]], capsys)
    # `hom check` takes exactly one file: a list kept from the run before
    # would be an input error
    assert code == 0 and rep["result"]["valid"]


def test_rejected_request_leaves_the_parser_usable(files, capsys):
    cli.build_parser.cache_clear()
    code, first = run_json(["pi0", files["idem"], "--deg", "2"], capsys)
    with pytest.raises(SystemExit) as exc:
        run(["pi0", files["idem"], "--method", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    code, again = run_json(["pi0", files["idem"], "--deg", "2"], capsys)
    assert code == 0
    assert without_timing(again) == without_timing(first)


def test_same_request_twice_gives_the_same_report(files, capsys):
    argv = ["hom", "enum", files["f3t"], files["f3x"], "--deg", "1"]
    code1, rep1 = run_json(argv, capsys)
    code2, rep2 = run_json(argv, capsys)
    assert code1 == code2 == 0
    assert rep1["inputs_digest"] == rep2["inputs_digest"]
    assert rep1["bounds"] == rep2["bounds"] == {"deg": 1}
    assert without_timing(rep1) == without_timing(rep2)


def test_digest_does_not_depend_on_how_a_path_is_spelled(files, capsys,
                                                        monkeypatch):
    def digest(*argv):
        code, rep = run_json(["hom", "enum", *argv], capsys)
        assert code == 0
        return rep["inputs_digest"]

    elsewhere = files["tmp"] / "elsewhere"
    elsewhere.mkdir()
    for name in ("f3t.json", "f3x.json"):
        shutil.copy(files["tmp"] / name, elsewhere / name)
    absolute = digest(files["f3t"], files["f3x"], "--deg", "1")
    monkeypatch.chdir(files["tmp"])
    assert digest("f3t.json", "f3x.json", "--deg", "1") == absolute
    assert digest("elsewhere/f3t.json", str(elsewhere / "f3x.json"),
                  "--deg", "1") == absolute
    assert digest("f3t.json", "f3t.json", "--deg", "1") != absolute
    assert digest("f3t.json", "f3x.json", "--deg", "2") != absolute
