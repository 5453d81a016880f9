"""Catalog entries: naming, stratification pairs, and the check of the stored
data.  `catalog.get` builds and caches; the stored Euler characteristics,
homology tables and orientability, and every shipped stratification, are
checked here against what the library computes."""

import pytest

from conftest import empty_memo, record_raw_calls
from stratabord import catalog, strat
from stratabord.algebra import ZZ, homology
from stratabord.complexes import is_orientable
from stratabord.errors import UnknownName
from stratabord.strat import validate_stratified_pseudomanifold


def test_names_are_stable():
    names = catalog.names()
    assert names[:4] == ("S1", "S2", "S3", "S4")
    assert "T2" in names and "RP3" in names and "Sigma-T3" in names
    assert len(names) >= 12


def test_unknown_name_raises():
    with pytest.raises(UnknownName):
        catalog.get("S99")


def test_get_is_cached():
    assert catalog.get("S2") is catalog.get("S2")


@pytest.mark.parametrize("name", catalog.names())
def test_stored_data_matches_what_the_library_computes(name, entries):
    e = entries[name]
    K = e.complex
    assert K.euler_characteristic() == e.euler
    assert tuple((g.rank, g.torsion) for g in homology(K, ZZ)) == e.homology
    assert is_orientable(K) == e.orientable
    for k, FX in enumerate(e.stratifications):
        assert FX.complex.facets == K.facets, k
        rep = validate_stratified_pseudomanifold(FX)
        assert rep.passed, (k, rep.failing())


def test_a_cold_get_recognises_nothing(monkeypatch):
    """Building an entry runs no link recognition: the check of the stored
    data lives in the tests, not in every process."""
    monkeypatch.setattr(catalog, "_cache", {})
    calls = []
    for routine in (strat.sphere_like, strat.ball_like):
        empty_memo(monkeypatch, routine)
        calls.append(record_raw_calls(monkeypatch, routine))
    catalog.get("Sigma-T3")
    assert calls == [[], []]


def test_basic_entries(entries):
    assert entries["S2"].euler == 2
    assert [len(entries["T2"].complex.faces_of_dim(d)) for d in range(3)] == [7, 21, 14]
    assert entries["T2"].homology[1] == (2, ())
    assert entries["RP2"].homology[1] == (0, (2,))
    assert entries["RP3"].homology[1] == (0, (2,))
    assert not entries["RP2"].orientable
    assert entries["RP3"].orientable


def test_torus3_is_a_product_triangulation(entries):
    t3 = entries["T3"]
    assert len(t3.complex.vertices) == 27
    assert t3.complex.dim == 3
    assert t3.homology == ((1, ()), (3, ()), (3, ()), (1, ()))


def test_every_entry_ships_a_differing_pair(entries):
    for name, e in entries.items():
        assert len(e.stratifications) >= 1
        if len(e.stratifications) >= 2:
            a, b = e.stratifications[:2]
            assert not a.same_filtration(b), name
    # at least one entry must ship an actual pair
    assert any(len(e.stratifications) >= 2 for e in entries.values())


def test_all_stratifications_validate(entries):
    for name, e in entries.items():
        for k, FX in enumerate(e.stratifications):
            rep = validate_stratified_pseudomanifold(FX)
            assert rep.passed, (name, k, rep.failing())


def test_suspension_homology_tables_follow_the_suspension_rule(entries):
    for base in ("S1", "T2", "T3", "RP2", "RP3"):
        b = entries[base]
        s = entries["Sigma-" + base]
        assert s.homology[0] == (1, ())
        assert s.homology[1] == (b.homology[0][0] - 1, b.homology[0][1])
        for i in range(2, len(s.homology)):
            want = b.homology[i - 1] if i - 1 < len(b.homology) else (0, ())
            assert s.homology[i] == want, (base, i)


def test_circle_builder_validates_sizes():
    assert [len(catalog.circle(5).faces_of_dim(d)) for d in range(2)] == [5, 5]
    with pytest.raises(ValueError):
        catalog.circle(2)


def test_expected_class_verdicts_present(entries):
    for e in entries.values():
        assert set(e.expected_classes) == {
            "witt",
            "ip",
            "euler2",
            "locally_orientable",
        }
