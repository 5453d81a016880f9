"""Singularity classes: built-in predicates, the derived G/E/Siegel classes,
and the algebraic laws relating them.
"""

import itertools

import pytest

from conftest import empty_memo, record_raw_calls
from stratabord import catalog, ih
from stratabord.algebra import GF, QQ, ZZ
from stratabord.classes import (
    BUILTIN_NAMES,
    ClassVerdict,
    SingularityClass,
    builtin,
    e_of_g,
    f_membership,
    g_of_e,
    g_of_e_membership,
    _middle_ih,
    links_in_class,
    siegel,
    siegel_membership,
)
from stratabord.complexes import build_complex, suspension
from stratabord.errors import (
    InternalInvariantBreach,
    KindMismatch,
    StrataError,
    UnknownName,
    UnsupportedCoefficients,
)
from stratabord.strat import _Flag, intrinsic_stratification, strata, stratum_link

S1 = build_complex([(0, 1), (1, 2), (0, 2)])


def test_builtin_names_and_errors():
    for name in BUILTIN_NAMES:
        assert builtin(name).kind == "E"
    with pytest.raises(UnknownName):
        builtin("nope")
    with pytest.raises(UnsupportedCoefficients):
        builtin("witt", ZZ)
    with pytest.raises(UnsupportedCoefficients):
        builtin("ip", QQ)
    for name in BUILTIN_NAMES:
        if name in ("witt", "locally_orientable_witt"):
            assert builtin(name, GF(5)).name == f"{name}(F5)"
        elif name == "ip":
            assert builtin(name, ZZ).name == "ip"
        else:
            with pytest.raises(UnsupportedCoefficients, match="takes no coefficients"):
                builtin(name, GF(5))


def test_circle_belongs_to_every_builtin():
    for name in BUILTIN_NAMES:
        assert builtin(name).member(S1), name


def test_spheres_belong_to_every_builtin():
    for name in BUILTIN_NAMES:
        E = builtin(name)
        for sphere in ("S1", "S2", "S3"):
            assert E.member(catalog.get(sphere).complex), (name, sphere)


def test_suspension_closure_sampled():
    # E-classes are closed under suspension: membership of K implies
    # membership of SK, sampled over catalog members
    for name in ("euler2", "locally_orientable", "all_pseudomanifolds"):
        E = builtin(name)
        for space in ("S1", "S2", "T2", "RP2"):
            K = catalog.get(space).complex
            if E.member(K):
                assert E.member(suspension(K)), (name, space)


def test_witt_verdicts_on_links_and_spaces():
    E = builtin("witt")
    # the torus has nonzero middle rational IH, so it is a forbidden link
    v = E.member(catalog.get("T2").complex)
    assert not v and v.witness["rank"] == 2
    # ΣT² has the torus as a pole link: not a Witt space
    assert not links_in_class(catalog.get("Sigma-T2").stratifications[0], E)
    # ΣℝP² is Witt: IH_1(ℝP²; ℚ) = 0
    assert links_in_class(catalog.get("Sigma-RP2").stratifications[0], E)


def test_ip_torsion_witness():
    E = builtin("ip")
    v = links_in_class(catalog.get("Sigma-RP3").stratifications[0], E)
    assert not v
    assert v.witness["link"]["torsion"] == [2]


def test_euler2_witness():
    E = builtin("euler2")
    v = E.member(catalog.get("RP2").complex)
    assert not v
    assert v.witness["chi"] == 1
    assert not links_in_class(catalog.get("Sigma-RP2").stratifications[0], E)


def test_links_in_class_matches_expected_catalog_verdicts(entries):
    key = {
        "witt": builtin("witt"),
        "ip": builtin("ip"),
        "euler2": builtin("euler2"),
        "locally_orientable": builtin("locally_orientable"),
    }
    for name in ("S2", "T2", "RP2", "Sigma-S1", "Sigma-T2", "Sigma-RP2", "Sigma-RP3"):
        e = entries[name]
        for cname, E in key.items():
            want = e.expected_classes[cname]
            for FX in e.stratifications:
                got = bool(links_in_class(FX, E))
                assert got == want, (name, cname)


def test_g_of_e_on_spheres_and_suspensions():
    E = builtin("euler2")
    G = g_of_e(E)
    assert G.member(catalog.get("S2").complex)
    assert G.member(catalog.get("Sigma-T2").complex)  # core T2 has χ = 0
    assert not G.member(catalog.get("Sigma-RP2").complex)  # core RP2, χ = 1
    # a non-suspension space is its own core: membership reduces to E
    assert g_of_e_membership(catalog.get("T2").complex, E)  # χ(T2) even
    assert not g_of_e_membership(
        catalog.get("T2").complex, builtin("all_suspensions")
    )


def test_e_of_g_requires_g_class():
    with pytest.raises(KindMismatch):
        e_of_g(builtin("witt"))
    G = g_of_e(builtin("euler2"))
    E2 = e_of_g(G)
    assert E2.kind == "E"


def test_g_of_e_of_g_agrees_with_g():
    # 𝒢_{ℰ_𝒢} = 𝒢 on the catalog
    G = g_of_e(builtin("euler2"))
    G2 = g_of_e(e_of_g(G))
    for name in ("S1", "S2", "S3", "T2", "Sigma-T2", "Sigma-RP2", "Sigma-S1"):
        K = catalog.get(name).complex
        assert bool(G.member(K)) == bool(G2.member(K)), name


def test_e_of_g_of_e_contained_in_e():
    # ℰ_{𝒢_ℰ} ⊆ ℰ, with strict containment exhibited by the suspensions class
    E = builtin("all_suspensions")
    EG = e_of_g(g_of_e(E))
    strict = False
    for name in ("S1", "S2", "S3", "T2", "Sigma-T2", "Sigma-S1", "Sigma-RP2"):
        K = catalog.get(name).complex
        if EG.member(K):
            assert E.member(K), name
        if E.member(K) and not EG.member(K):
            strict = True
    assert strict  # e.g. ΣT² is a suspension whose core is not a sphere


def test_siegel_contained_in_g_of_e():
    # 𝒮_ℰ ⊆ 𝒢_ℰ over the catalog
    for cname in ("witt", "euler2"):
        E = builtin(cname)
        for name in ("S1", "S2", "S3", "T2", "RP2", "Sigma-T2", "Sigma-S1"):
            K = catalog.get(name).complex
            if siegel_membership(K, E):
                assert g_of_e_membership(K, E), (cname, name)


def test_siegel_class_member_is_siegel_membership():
    for cname in ("witt", "ip", "euler2"):
        E = builtin(cname)
        for name in catalog.names():
            K = catalog.get(name).complex
            assert siegel(E).member(K) == siegel_membership(K, E), (cname, name)


def test_siegel_clauses_witness():
    E = builtin("witt")
    # a sphere is itself an allowed link and has sphere links
    assert siegel_membership(catalog.get("S2").complex, E)
    # the torus fails the first-order condition (it is a forbidden link)
    v = siegel_membership(catalog.get("T2").complex, E)
    assert not v and v.witness["clauses"]["space_in_class"] is False


def test_f_membership_routes_agree():
    for name in ("Sigma-T2", "Sigma-RP2", "S2", "T2"):
        K = catalog.get(name).complex
        for cname in ("witt", "euler2", "locally_orientable"):
            E = builtin(cname)
            a = f_membership(K, E, "stratified")
            b = f_membership(K, E, "polyhedral")
            both = f_membership(K, E, "both")
            assert bool(a) == bool(b) == bool(both), (name, cname)


def test_f_membership_on_space_with_boundary():
    # a cone on T2 is a ∂-pseudomanifold; its interior contains the apex
    from stratabord.complexes import cone

    C = cone(catalog.get("T2").complex)
    assert not f_membership(C, builtin("witt"), "both")
    assert f_membership(C, builtin("euler2"), "both")


def test_repeated_membership_calls_return_equal_verdicts():
    E = builtin("euler2")
    K = catalog.get("Sigma-T2").complex
    assert E.member(K) == E.member(K)


def test_classes_that_share_a_name_keep_their_own_verdicts():
    yes = SingularityClass("x", "E", lambda K: ClassVerdict(True))
    no = SingularityClass("x", "E", lambda K: ClassVerdict(False))
    assert yes.member(S1).verdict is True
    assert no.member(S1).verdict is False


def test_s_duality_computes_middle_ih_once(monkeypatch):
    """An odd-dimensional member is tested in two degrees of one IH table."""
    calls = []
    original = ih.intersection_homology

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    empty_memo(monkeypatch, _middle_ih)
    monkeypatch.setattr(ih, "intersection_homology", counting)
    assert builtin("s_duality").member(catalog.get("S3").complex).verdict
    assert len(calls) == 1


def _middle_ih_or_error(compute, K, ring):
    flag = _Flag()
    try:
        return compute(K, flag, ring), flag.heuristic
    except StrataError as exc:
        return type(exc), str(exc)


def _singular_links(entries, sigma_t2_carriers, sigma_t3_carrier):
    """The distinct singular stratum links of the catalog and the carriers."""
    spaces = [FX for entry in entries.values() for FX in entry.stratifications]
    links = {}
    for FX in spaces + sigma_t2_carriers + [sigma_t3_carrier]:
        for S in strata(FX):
            if not S.regular:
                L = stratum_link(FX, S).complex
                links.setdefault(L.facets, L)
    return list(links.values())


def test_memoized_middle_ih_matches_the_raw_routine(
    entries, sigma_t2_carriers, sigma_t3_carrier
):
    links = _singular_links(entries, sigma_t2_carriers, sigma_t3_carrier)
    assert any(L.dim >= 3 for L in links)
    for L in links:
        for ring in (ZZ, QQ, GF(2)):
            raw = _middle_ih_or_error(_middle_ih.__wrapped__, L, ring)
            assert _middle_ih_or_error(_middle_ih, L, ring) == raw, sorted(L.facets)


def test_a_monotone_relabelling_makes_no_raw_ih_call(monkeypatch):
    # The vertex links of the 4-sphere are 3-spheres, recognised with the flag.
    S4 = build_complex(itertools.combinations(range(6), 5))
    empty_memo(monkeypatch, _middle_ih)
    first = _Flag()
    answer = _middle_ih(S4, first, QQ)
    assert first.heuristic
    calls = record_raw_calls(monkeypatch, _middle_ih)
    again = _Flag()
    moved = S4.relabel({v: 3 * v + 1000 for v in S4.vertices})
    assert _middle_ih(moved, again, QQ) == answer
    assert again.heuristic and calls == []
    # The ℚ entry was read from the ℤ one, which the same key now holds; a
    # field with its own computation is a miss.
    assert _middle_ih(moved, _Flag(), ZZ) and calls == []
    assert _middle_ih(moved, _Flag(), GF(2)) and calls == [(moved, GF(2))]


def _middle_ih_direct(K, flag, ring):
    """Middle IH computed over the ring itself, as `_middle_ih` did over ℚ
    before it read ℚ from the ℤ entry, kept as an oracle."""
    FX = intrinsic_stratification(K)
    flag.heuristic = FX.heuristic
    return tuple(ih.intersection_homology(FX, ih.lower_middle(max(K.dim, 2)), ring))


def test_middle_ih_over_q_is_the_free_part_of_the_z_entry(
    entries, sigma_t2_carriers, sigma_t3_carrier
):
    links = _singular_links(entries, sigma_t2_carriers, sigma_t3_carrier)
    assert any(any(g.torsion for g in _middle_ih(L, _Flag(), ZZ)) for L in links)
    for L in links:
        raw = _middle_ih_or_error(_middle_ih_direct, L, QQ)
        assert _middle_ih_or_error(_middle_ih.__wrapped__, L, QQ) == raw, sorted(L.facets)
