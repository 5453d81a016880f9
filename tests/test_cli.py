"""Command-line interface: exit codes, JSON reports, determinism."""

import json
import re
import time
from pathlib import Path

import pytest

from conftest import flip_interior_sign
from stratabord import catalog, jsonio
from stratabord.classes import BUILTIN_NAMES
from stratabord.cli import parse_class_spec, run


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def sigma_t2_file(tmp_path):
    path = tmp_path / "sigma-t2.json"
    code = run(["catalog", "emit", "Sigma-T2", "--out", str(path)])
    assert code == 0
    return str(path)


def test_catalog_list(capsys):
    code, out = run_capture(capsys, ["catalog", "list"])
    assert code == 0
    assert "Sigma-T3" in out.split()


def test_catalog_emit_without_out_or_json_prints_the_filtration(capsys):
    code, out = run_capture(capsys, ["catalog", "emit", "S1"])
    assert code == 0
    assert out == jsonio.dumps(jsonio.filtration_to_json(catalog.get("S1").stratifications[0]))


def test_catalog_emit_unknown_name_is_usage_error():
    assert run(["catalog", "emit", "S99"]) == 2
    assert run(["catalog", "emit", "S2", "--stratification", "9"]) == 2


def test_validate_pass_and_report(capsys, sigma_t2_file):
    capsys.readouterr()  # drop fixture output
    code, out = run_capture(capsys, ["validate", sigma_t2_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["clause"] for c in doc["clauses"]] >= ["a", "b", "c"]


def test_validate_failure_exits_one(capsys, tmp_path):
    # trivially filtered suspension of a torus: not a valid stratification
    from stratabord.strat import trivial_filtration

    FX = trivial_filtration(catalog.get("Sigma-T2").complex)
    path = tmp_path / "bad.json"
    jsonio.write_file(str(path), jsonio.filtration_to_json(FX))
    assert run(["validate", str(path)]) == 1


def test_missing_file_is_usage_error():
    assert run(["validate", "/nonexistent/space.json"]) == 2


def test_homology_report(capsys):
    code, out = run_capture(capsys, ["homology", "catalog:T2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["table"][1] == {"degree": 1, "rank": 2, "torsion": []}
    assert doc["euler"] == 0


def test_ih_report(capsys):
    code, out = run_capture(
        capsys,
        ["ih", "catalog:Sigma-T2", "--perversity", "lower-middle", "--ring", "Q", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["table"][2] == {"degree": 2, "rank": 0, "torsion": []}


def test_classify_member_and_nonmember():
    assert run(["classify", "catalog:Sigma-T2", "--class", "euler2"]) == 0
    assert run(["classify", "catalog:Sigma-T2", "--class", "witt:Q"]) == 1
    assert (
        run(["classify", "catalog:Sigma-T2", "--class", "witt:Q", "--via", "both"]) == 1
    )


def test_classify_witness_in_json(capsys):
    code, out = run_capture(
        capsys,
        ["classify", "catalog:Sigma-T2", "--class", "witt:Q", "--witness", "--json"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["member"] is False
    assert any(v.get("witness") for v in doc["verdicts"].values())


def test_classify_siegel_spec():
    assert run(["classify", "catalog:S2", "--class", "siegel:witt:Q"]) == 0
    assert run(["classify", "catalog:T2", "--class", "siegel:witt:Q"]) == 1


def test_parse_class_spec_aliases():
    E, siegel = parse_class_spec("loc-orient")
    assert E.name == "locally_orientable" and not siegel
    E2, siegel2 = parse_class_spec("siegel:witt:Q")
    assert siegel2 and E2.name.startswith("witt")


def test_unknown_class_is_usage_error():
    assert run(["classify", "catalog:S2", "--class", "nope"]) == 2


@pytest.mark.parametrize("spec", ["witt:Z", "ip:Q", "euler2:F5", "all:Z"])
def test_coefficients_the_class_does_not_take_are_usage_error(spec, capsys):
    assert_usage_error(["classify", "catalog:S2", "--class", spec], capsys)


@pytest.mark.parametrize(
    "spec", ["witt:Q:junk", "euler2:F2:x", "siegel:", "siegel:witt:Q:x", ":Q", ""]
)
def test_malformed_class_spec_is_usage_error(spec, capsys):
    """A spec that is not [siegel:]NAME[:FIELD] with a nonempty NAME."""
    capsys.readouterr()
    assert run(["classify", "catalog:S2", "--class", spec]) == 2
    err = capsys.readouterr().err
    assert err == f"error: class spec {spec!r} is not [siegel:]NAME[:FIELD]\n", err


def test_only_the_commands_that_write_take_out(tmp_path, capsys):
    out = tmp_path / "out.json"
    for argv in (
        ["validate", "catalog:S2"],
        ["links", "catalog:S2"],
        ["homology", "catalog:S2"],
        ["ih", "catalog:S2"],
        ["classify", "catalog:S2", "--class", "ip"],
    ):
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()
    for argv in (["stratify", "catalog:S2"], ["catalog", "emit", "S2"]):
        assert run(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["type"] == "filtered_complex"
        out.unlink()


def test_modes_reject_the_arguments_they_would_ignore(tmp_path, capsys):
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    assert run(["bordism", "to-intrinsic", "catalog:Sigma-T2", "--out", str(cert)]) == 0
    for argv, message in (
        (["bordism", "verify", str(cert), "--out", str(out)], "bordism verify writes no file"),
        (["bordism", "verify", str(cert), str(cert)], "bordism verify takes one input"),
        (["bordism", "to-intrinsic", "catalog:S2", "catalog:S2"], "bordism to-intrinsic takes one input"),
        (["bordism", "cylinder", "catalog:S2", "catalog:S2"], "bordism cylinder takes one input"),
        (["catalog", "list", "--out", str(out)], "catalog list takes no name and writes no file"),
        (["catalog", "list", "S2"], "catalog list takes no name and writes no file"),
    ):
        assert_usage_error(argv, capsys)
        run(argv)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_stratify_and_links(capsys):
    code, out = run_capture(capsys, ["stratify", "catalog:Sigma-T2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["strata"]) == 3
    code, out = run_capture(capsys, ["links", "catalog:Sigma-T2", "--json"])
    assert code == 0
    assert len(json.loads(out)["links"]) == 2


def test_bordism_roundtrip_through_files(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(["bordism", "to-intrinsic", "catalog:Sigma-T2:1", "--out", str(cert_path)])
    assert code == 0
    capsys.readouterr()
    assert run(["bordism", "verify", str(cert_path)]) == 0


def test_bordism_verify_rejects_incoherent_carrier(tmp_path, capsys):
    cert_path, bad_path = tmp_path / "cert.json", tmp_path / "bad.json"
    assert run(["bordism", "to-intrinsic", "catalog:Sigma-T2", "--out", str(cert_path)]) == 0
    cert = jsonio.certificate_from_json(jsonio.loads(cert_path.read_text()))
    jsonio.write_file(str(bad_path), jsonio.certificate_to_json(flip_interior_sign(cert)))
    capsys.readouterr()
    code, out = run_capture(capsys, ["bordism", "verify", str(bad_path), "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"]["signs_match"] is False


S2_FACETS = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
S2_ORIENTATION = [[[0, 1, 2], 1], [[0, 1, 3], -1], [[0, 2, 3], 1], [[1, 2, 3], -1]]

MALFORMED = {
    "invalid_json": '{"type": "complex", "facets": [[0, 1, 2]',
    "top_level_list": S2_FACETS,
    "no_facets": {"type": "filtered_complex", "skeleta": [], "boundary": None},
    "no_type": {"facets": S2_FACETS},
    "string_vertices": {
        "type": "complex",
        "facets": [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
    },
    "bool_vertex": {"type": "complex", "facets": [[False, 1, 2], [0, 1, 3]]},
    "repeated_vertex": {"type": "complex", "facets": [[0, 0, 1], [0, 1, 2]]},
    "empty_simplex": {"type": "complex", "facets": [[]]},
    "sign_seven": {
        "type": "filtered_complex",
        "facets": S2_FACETS,
        "skeleta": [[], []],
        "boundary": None,
        "orientation": [[[0, 1, 2], 7], [[0, 1, 3], -1], [[0, 2, 3], 1], [[1, 2, 3], -1]],
        "classical": True,
        "heuristic": False,
    },
    "classical_string": {"type": "filtered_complex", "facets": S2_FACETS, "classical": "no"},
    "heuristic_list": {"type": "filtered_complex", "facets": S2_FACETS, "heuristic": [1]},
    "skeleta_int": {"type": "filtered_complex", "facets": S2_FACETS, "skeleta": 5},
    "orientation_signs_a_non_facet": {
        "type": "filtered_complex",
        "facets": S2_FACETS,
        "orientation": S2_ORIENTATION + [[[0, 1], 1]],
    },
    "orientation_signs_a_facet_twice": {
        "type": "filtered_complex",
        "facets": S2_FACETS,
        "orientation": S2_ORIENTATION + [[[0, 1, 2], -1]],
    },
    "top_skeleton_not_the_carrier": {
        "type": "filtered_complex",
        "facets": S2_FACETS,
        "skeleta": [[[0]], [[0, 1]], [[0, 1, 2]]],
    },
}


def assert_usage_error(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_is_usage_error(name, tmp_path, capsys):
    doc = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for command in ("validate", "stratify", "homology"):
        assert_usage_error([command, str(path)], capsys)


def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"type": "complex", "facets": [[0, 1]], "name": "é"}'.encode("latin-1"))
    assert_usage_error(["validate", str(path)], capsys)


@pytest.fixture()
def cylinder_doc(tmp_path):
    path = tmp_path / "cylinder.json"
    assert run(["bordism", "cylinder", "catalog:S2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_orientation_missing_a_facet_is_usage_error(cylinder_doc, tmp_path, capsys):
    del cylinder_doc["carrier"]["orientation"][0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cylinder_doc))
    assert_usage_error(["bordism", "verify", str(path)], capsys)


WRONG_TYPES = {
    "collars_list": lambda d: d.update({"collars": []}),
    "pieces_object": lambda d: d.update(pieces={}),
    "piece_not_object": lambda d: d.update(pieces=[1]),
    "iso_not_pairs": lambda d: d["pieces"][0].update(iso=[[0]]),
    "iso_string_vertex": lambda d: d["pieces"][0].update(iso=[["a", 1]]),
    "collar_data_not_pairs": lambda d: d["collars"]["plus"].update(data=[0, 1]),
    "sign_two": lambda d: d["pieces"][0].update(sign=2),
    "sign_true": lambda d: d["pieces"][0].update(sign=True),
    "iso_misses_a_vertex": lambda d: d["pieces"][0]["iso"].pop(0),
    "iso_repeats_a_vertex": lambda d: d["pieces"][0]["iso"][1].__setitem__(0, 0),
    "skeleton_off_carrier": lambda d: d["pieces"][0]["space"].update(skeleta=[[[999]], []]),
    "label_list": lambda d: d["pieces"][0].update(label=[1]),
    "label_repeated": lambda d: d["pieces"][1].update(label=d["pieces"][0]["label"]),
    "collar_kind_int": lambda d: d["collars"]["plus"].update(kind=5),
    "collar_kind_unknown": lambda d: d["collars"]["plus"].update(kind="twisted"),
    "provenance_list": lambda d: d.update(provenance=[1]),
    "orientation_signs_a_non_facet": lambda d: d["carrier"]["orientation"].append(
        [[0, 1, 2, 3, 4, 5], 1]
    ),
    "orientation_signs_a_facet_twice": lambda d: d["carrier"]["orientation"].append(
        [d["carrier"]["orientation"][0][0], -d["carrier"]["orientation"][0][1]]
    ),
    "top_skeleton_not_the_carrier": lambda d: d["carrier"]["skeleta"].append(
        d["carrier"]["skeleta"][0]
    ),
    "collar_vertex_off_carrier": lambda d: d["collars"]["plus"]["data"][0].__setitem__(0, 999),
    "iso_image_off_carrier": lambda d: d["pieces"][0]["iso"][0].__setitem__(1, 999),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_certificate_field_of_wrong_type_is_usage_error(name, cylinder_doc, tmp_path, capsys):
    WRONG_TYPES[name](cylinder_doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cylinder_doc))
    assert_usage_error(["bordism", "verify", str(path)], capsys)


@pytest.mark.parametrize(
    "modulus",
    ["1" * 400, "7" * 5000, "1000000000000000003", str(2**64 + 13)],
    ids=["400-ones", "5000-sevens", "prime-10^18+3", "2^64+13"],
)
def test_large_modulus_is_decided_at_once(modulus, capsys):
    """Primality is decided exactly and fast; a modulus of 2^64 or more, or a
    digit string too long for one, is a usage error."""
    prime = modulus == "1000000000000000003"
    for argv in (
        ["homology", "catalog:S2", "--ring", "F" + modulus],
        ["classify", "catalog:S2", "--class", "witt:F" + modulus],
    ):
        start = time.perf_counter()
        if prime:
            assert run(argv) == 0
        else:
            assert_usage_error(argv, capsys)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("ref", ["catalog:S2:x", "catalog:S2:1:2", "catalog:S2:"])
def test_malformed_catalog_reference_is_usage_error(ref, capsys):
    assert_usage_error(["validate", ref], capsys)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(jobs, capsys):
    assert_usage_error(["validate", "catalog:S2", "--jobs", jobs], capsys)


def test_glue_two_cylinders(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["bordism", "cylinder", "catalog:S2", "--out", str(a)]) == 0
    assert run(["bordism", "cylinder", "catalog:S2", "--out", str(b)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "g.json"
    code, out = run_capture(
        capsys,
        ["glue", str(a), str(b), "--along", "plus,minus", "--out", str(out_path), "--json"],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert run(["bordism", "verify", str(out_path)]) == 0


def test_reports_are_deterministic_and_jobs_independent(capsys):
    argv = ["ih", "catalog:Sigma-T2", "--ring", "Q", "--json"]
    _c, out1 = run_capture(capsys, argv)
    _c, out2 = run_capture(capsys, argv)
    _c, out8 = run_capture(capsys, argv + ["--jobs", "8"])
    assert out1 == out2
    assert json.loads(out1)["table"] == json.loads(out8)["table"]


def test_bad_subcommand_usage():
    assert run(["frobnicate"]) == 2
    assert run(["glue", "a.json", "b.json", "--along", "onlyone"]) == 2


@pytest.mark.parametrize("along", ["plus,nosuch", "plus,side"])
def test_glue_along_a_missing_piece_is_usage_error(along, tmp_path, capsys):
    path = str(tmp_path / "c.json")
    assert run(["bordism", "cylinder", "catalog:S2", "--out", path]) == 0
    assert_usage_error(["glue", path, path, "--along", along], capsys)
    capsys.readouterr()
    run(["glue", path, path, "--along", along])
    missing = along.split(",")[1]
    assert capsys.readouterr().err == f"error: certificate has no piece {missing!r}\n"


def test_bordism_between_non_classical_is_usage_error(tmp_path, capsys):
    path = tmp_path / "s2.json"
    assert run(["catalog", "emit", "S2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["classical"] = False
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["bordism", "between", str(path), str(path)]) == 2
    assert capsys.readouterr().err == "error: bordism construction needs a classical input\n"


@pytest.fixture()
def over_dimensioned_s2(tmp_path):
    """The oriented S² with skeleta [[01, 02, 12], [012]]: X⁰ has dimension 1,
    and the 1-stratum, the open triangle 012, has no edge."""
    path = tmp_path / "s2.json"
    assert run(["catalog", "emit", "S2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["skeleta"] = [[[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def unnested_s2(tmp_path):
    """∂Δ³ with skeleta [[3], [01]]: X⁰ is not contained in X¹."""
    path = tmp_path / "unnested.json"
    doc = {
        "type": "filtered_complex",
        "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "skeleta": [[[3]], [[0, 1]]],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_over_dimensioned_skeleton_is_usage_error(over_dimensioned_s2, unnested_s2, capsys):
    for path, detail in (
        (over_dimensioned_s2, "skeleton 0 has dimension 1"),
        (unnested_s2, "skeleton 0 not contained in skeleton 1"),
    ):
        for argv in (
            ["links"],
            ["classify", "--class", "witt:Q"],
            ["classify", "--class", "ip"],
            ["bordism", "to-intrinsic"],
            ["ih"],
            ["bordism", "cylinder"],
            ["stratify"],
        ):
            assert_usage_error(argv + [path], capsys)
        code, out = run_capture(capsys, ["validate", path, "--json"])
        assert code == 1
        assert json.loads(out)["clauses"][0] == {"clause": "a", "passed": False, "detail": detail}


def test_bordism_of_an_invalid_stratification_is_usage_error(tmp_path, capsys):
    from stratabord.strat import trivial_filtration

    FX = catalog.get("Sigma-T2").stratifications[0]
    path = tmp_path / "trivial.json"
    doc = jsonio.filtration_to_json(trivial_filtration(FX.complex, FX.orientation))
    jsonio.write_file(str(path), doc)
    assert_usage_error(["bordism", "to-intrinsic", str(path)], capsys)
    assert_usage_error(["bordism", "between", str(path), "catalog:Sigma-T2"], capsys)


@pytest.mark.parametrize("facets", [[[0]], [[0], [1], [2]], [[0], [1]]])
def test_points_validate_and_bound_their_cylinders(facets, tmp_path, capsys):
    # A 0-dimensional complex has no ridges, so none can lie in one facet.
    path, cert = tmp_path / "points.json", tmp_path / "cylinder.json"
    path.write_text(json.dumps({"type": "complex", "facets": facets}))
    assert run(["validate", str(path)]) == 0
    assert run(["validate", str(path), "--with-boundary"]) == 0
    assert run(["bordism", "cylinder", str(path), "--out", str(cert)]) == 0
    assert run(["bordism", "verify", str(cert)]) == 0


@pytest.mark.parametrize(
    "doc, failing",
    [
        ({"facets": [[2, 6, 7], [0, 2, 4], [0, 4, 7], [1, 3, 5], [1, 4, 6]]}, "['e', 'g']"),
        ({"facets": [[0, 1, 3, 4], [1, 4, 5, 6]]}, "['e', 'g']"),
        # An arc whose end points are 0-strata: no collar of the boundary.
        ({"facets": [[3, 5]], "skeleta": [[[3], [5]]], "classical": False}, "['g']"),
    ],
)
def test_cylinder_of_a_non_pseudomanifold_is_usage_error(doc, failing, tmp_path, capsys):
    path = tmp_path / "pinched.json"
    kind = "filtered_complex" if "skeleta" in doc else "complex"
    path.write_text(json.dumps({"type": kind, **doc}))
    assert_usage_error(["bordism", "cylinder", str(path)], capsys)
    run(["bordism", "cylinder", str(path)])
    assert capsys.readouterr().err == f"error: {path} fails clauses {failing}\n"


def test_links_of_an_impure_complex_is_usage_error(tmp_path, capsys):
    path = tmp_path / "impure.json"
    path.write_text(json.dumps({"type": "complex", "facets": [[0, 1, 2], [3, 4]]}))
    for argv in (
        ["links", "--all"],
        ["ih"],
        ["stratify"],
        ["bordism", "cylinder"],
        ["classify", "--class", "witt:Q", "--via", "stratified"],
        ["classify", "--class", "witt:Q", "--via", "polyhedral"],
        ["classify", "--class", "siegel:witt:Q"],
    ):
        capsys.readouterr()
        assert run(argv + [str(path)]) == 2, argv
        assert capsys.readouterr().err == "error: carrier is not pure\n", argv


def test_readme_class_specifiers_reach_every_builtin():
    """The README's "Class specifiers" paragraph parses, and names every built-in class."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Class specifiers:", 1)[1].split("\n\n", 1)[0]
    specs = re.findall(r"`([^`]+)`", paragraph)
    reached = set()
    for spec in specs:
        E, _siegel = parse_class_spec(spec.replace("<spec>", specs[0]))
        reached.add(E.name.split("(")[0])
    assert reached >= set(BUILTIN_NAMES), sorted(set(BUILTIN_NAMES) - reached)


def test_bordism_between_two_stratifications(capsys):
    code, out = run_capture(
        capsys, ["bordism", "between", "catalog:Sigma-T2:0", "catalog:Sigma-T2:1", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [(p["label"], p["sign"]) for p in report["pieces"]] == [("plus", 1), ("minus", -1)]


def test_an_empty_designated_boundary_is_no_boundary(tmp_path, capsys):
    path, cert = tmp_path / "s2.json", tmp_path / "cylinder.json"
    assert run(["catalog", "emit", "S2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["boundary"] = []
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out = run_capture(capsys, ["validate", str(path), "--with-boundary", "--json"])
    assert code == 0
    assert json.loads(out)["clauses"][-1] == {"clause": "g", "passed": True, "detail": ""}
    assert run(["bordism", "cylinder", str(path), "--out", str(cert)]) == 0
    assert run(["bordism", "verify", str(cert)]) == 0


def test_glue_of_a_certificate_that_fails_verification_is_usage_error(tmp_path, capsys):
    good, bad = tmp_path / "c.json", tmp_path / "bad.json"
    assert run(["bordism", "cylinder", "catalog:S1", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["carrier"]["orientation"][0][1] *= -1
    bad.write_text(json.dumps(doc))
    assert run(["bordism", "verify", str(bad)]) == 1
    for pair in ((bad, good), (good, bad)):
        argv = ["glue", *map(str, pair), "--along", "minus,plus"]
        assert_usage_error(argv, capsys)
        run(argv)
        assert capsys.readouterr().err == f"error: {bad} fails checks ['signs_match']\n"


def test_glue_of_empty_carriers_is_the_empty_bordism(tmp_path, capsys):
    empty = {"type": "filtered_complex", "facets": [], "skeleta": []}
    doc = {
        "type": "bordism_certificate",
        "carrier": empty,
        "provenance": "empty",
        "pieces": [
            {"label": label, "sign": sign, "space": empty, "iso": []}
            for label, sign in (("plus", 1), ("minus", -1))
        ],
        "collars": {label: {"kind": "product", "data": []} for label in ("plus", "minus")},
    }
    path, out = tmp_path / "empty.json", tmp_path / "glued.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["glue", str(path), str(path), "--along", "minus,plus", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert run(["bordism", "verify", str(out)]) == 0
