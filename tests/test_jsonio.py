"""Canonical JSON round-trips for complexes, filtrations and certificates."""

import pytest

from stratabord import catalog, jsonio
from stratabord.bordism import bordism_to_intrinsic, cylinder, verify_certificate
from stratabord.complexes import EMPTY, build_complex
from stratabord.errors import MalformedFiltration
from stratabord.strat import trivial_filtration, validate_stratified_pseudomanifold


def test_complex_roundtrip():
    K = catalog.get("T2").complex
    doc = jsonio.complex_to_json(K)
    assert jsonio.complex_from_json(doc).facets == K.facets


def test_empty_complex_roundtrip():
    doc = jsonio.complex_to_json(EMPTY)
    assert jsonio.complex_from_json(doc).is_empty()


def test_filtration_roundtrip_with_orientation():
    FX = catalog.get("Sigma-T2").stratifications[1]
    doc = jsonio.filtration_to_json(FX)
    back = jsonio.filtration_from_json(doc)
    assert back.same_filtration(FX)
    assert back.orientation.signs == FX.orientation.signs
    assert back.classical == FX.classical


def test_filtration_roundtrip_with_boundary():
    disk = build_complex([(0, 1, 2), (0, 2, 3)])
    from stratabord.strat import make_filtered

    FX = make_filtered(disk, {}, boundary=[(0, 1), (1, 2), (2, 3), (0, 3)])
    back = jsonio.filtration_from_json(jsonio.filtration_to_json(FX))
    assert back.boundary.facets == FX.boundary.facets



@pytest.mark.parametrize("facets", [[(0, 1), (1, 2)], [(0, 1, 2), (0, 2, 3)], [(0,), (1,)], []])
def test_omitted_skeleta_give_the_trivial_filtration(facets):
    K = build_complex(facets)
    doc = {"type": "filtered_complex", "facets": [list(f) for f in facets]}
    back = jsonio.filtration_from_json(doc)
    assert back.same_filtration(trivial_filtration(K))
    assert jsonio.filtration_to_json(back) == jsonio.filtration_to_json(trivial_filtration(K))
    clause_a = validate_stratified_pseudomanifold(back, "closed").clauses[0]
    assert clause_a.clause == "a" and clause_a.passed

def test_certificate_roundtrip_and_reverify():
    cert = bordism_to_intrinsic(catalog.get("Sigma-T2").stratifications[0])
    doc = jsonio.certificate_to_json(cert)
    back = jsonio.certificate_from_json(doc)
    assert verify_certificate(back).passed
    # canonical serialization: emitted → parsed → emitted is byte-identical
    assert jsonio.dumps(jsonio.certificate_to_json(back)) == jsonio.dumps(doc)


def test_dumps_is_canonical():
    a = jsonio.dumps({"b": 1, "a": [2, 3]})
    b = jsonio.dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_wrong_document_type_rejected():
    with pytest.raises(MalformedFiltration):
        jsonio.complex_from_json({"type": "filtered_complex", "facets": []})
    with pytest.raises(MalformedFiltration):
        jsonio.filtration_from_json({"type": "complex", "facets": []})
    with pytest.raises(MalformedFiltration):
        jsonio.certificate_from_json({"type": "complex"})


def test_write_and_read_file(tmp_path):
    doc = jsonio.complex_to_json(catalog.get("S2").complex)
    path = tmp_path / "s2.json"
    jsonio.write_file(str(path), doc)
    assert jsonio.loads(path.read_text()) == doc


def test_cylinder_certificate_roundtrip():
    cert = cylinder(catalog.get("T2").stratifications[0])
    doc = jsonio.certificate_to_json(cert)
    back = jsonio.certificate_from_json(doc)
    assert jsonio.dumps(jsonio.certificate_to_json(back)) == jsonio.dumps(doc)
    assert [p.collar for p in back.pieces] == [p.collar for p in cert.pieces]
