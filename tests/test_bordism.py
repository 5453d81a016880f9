"""Bordism constructions: the half-intrinsic suspension, the bordism to the
intrinsic stratification, cylinders, gluing and restratification, each with a
re-verifiable certificate.
"""

import dataclasses

import pytest

from conftest import cones_with_boundary, flip_interior_sign
from stratabord import bordism, catalog, jsonio, strat
from stratabord.algebra import ZZ, homology
from stratabord.cli import run
from stratabord.bordism import (
    _PATH3,
    _face_split,
    bordism_between_stratifications,
    bordism_to_intrinsic,
    cylinder,
    glue,
    half_intrinsic_suspension,
    restratify_bordism,
    reverse_certificate,
    stratified_isomorphism,
    verify_certificate,
)
from stratabord.complexes import (
    OrientationAssignment,
    boundary_subcomplex,
    build_complex,
    incidence,
    orient,
    product_with_map,
    suspension_poles,
)
from stratabord.iso import LabeledIsomorphism
from stratabord.errors import (
    DifferentCarrier,
    InternalInvariantBreach,
    NotClassical,
    NotClosed,
    SignClash,
)
from stratabord.strat import (
    intrinsic_stratification,
    make_filtered,
    strata,
    trivial_filtration,
    validate_stratified_pseudomanifold,
)


def test_bordism_to_intrinsic_small(entries):
    e = entries["Sigma-T2"]
    cert = bordism_to_intrinsic(e.stratifications[1])
    rep = verify_certificate(cert)
    assert rep.passed, rep.checks
    plus = cert.piece("plus")
    minus = cert.piece("minus")
    assert plus.sign == 1 and minus.sign == -1
    # the (+) piece is the input stratification, the (−) piece the intrinsic one
    assert plus.space.same_filtration(e.stratifications[1])
    # no codimension-one strata in the carrier
    n = cert.Y.dim
    assert cert.Y.skeleton(n - 1).faces == cert.Y.skeleton(n - 2).faces


def test_bordism_carrier_has_homology_of_the_space(entries):
    e = entries["Sigma-T2"]
    cert = bordism_to_intrinsic(e.stratifications[0])
    hY = [(g.rank, g.torsion) for g in homology(cert.Y.complex, ZZ)]
    hX = [(g.rank, g.torsion) for g in homology(e.complex, ZZ)]
    assert hY[: len(hX)] == hX
    assert all(r == 0 and not t for r, t in hY[len(hX) :])


def test_reverse_certificate_flips_signs(entries):
    cert = bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0])
    rev = reverse_certificate(cert)
    assert {p.label: p.sign for p in rev.pieces} == {
        p.label: -p.sign for p in cert.pieces
    }
    assert verify_certificate(rev).passed


def test_cylinder_of_closed_space(entries):
    cert = cylinder(entries["T2"].stratifications[0])
    rep = verify_certificate(cert)
    assert rep.passed
    assert {p.label for p in cert.pieces} == {"plus", "minus"}


def test_cylinder_of_space_with_boundary():
    # a 1-simplex: the cylinder is a square with a side piece and corners
    D1 = trivial_filtration(build_complex([(0, 1)]))
    cert = cylinder(
        dataclasses.replace(D1, boundary=build_complex([(0,), (1,)]))
    )
    rep = verify_certificate(cert)
    assert rep.passed
    assert {p.label for p in cert.pieces} == {"plus", "minus", "side"}
    assert cert.piece("side").collar.kind == "corner"


def test_glue_cancels_matching_boundary(entries):
    FX = entries["Sigma-T2"].stratifications[0]
    c1, c2 = cylinder(FX), cylinder(FX)
    g = glue(c1, c2, ("plus", "minus"))
    assert verify_certificate(g).passed
    assert {p.label for p in g.pieces} == {"minus", "plus"}
    assert g.Y.complex.euler_characteristic() == FX.complex.euler_characteristic()


def swap_two_smallest(FX):
    """FX with its two smallest vertices swapped, skeleta and orientation
    carried: an odd relabeling, which reverses the sorted order of facets."""
    a, b = sorted(FX.complex.vertices)[:2]
    vmap = {**{v: v for v in FX.complex.vertices}, a: b, b: a}
    skeleta = {
        j: [tuple(sorted(vmap[v] for v in f)) for f in FX.skeleton(j).facets]
        for j in range(FX.dim)
    }
    return vmap, make_filtered(
        FX.complex.relabel(vmap), skeleta, None, FX.orientation.relabel(vmap)
    )


def test_glue_along_an_odd_relabeling(entries):
    FX = entries["T2"].stratifications[0]
    _vmap, swapped = swap_two_smallest(FX)
    g = glue(cylinder(FX), cylinder(swapped), ("plus", "minus"))
    assert verify_certificate(g).passed
    assert {p.label for p in g.pieces} == {"minus", "plus"}


def test_glue_rejects_same_sign():
    FX = catalog.get("S2").stratifications[0]
    with pytest.raises(SignClash):
        glue(cylinder(FX), cylinder(FX), ("plus", "plus"))


def test_bordism_between_stratifications(entries):
    e = entries["Sigma-T2"]
    cert = bordism_between_stratifications(
        e.stratifications[0], e.stratifications[1]
    )
    assert verify_certificate(cert).passed
    assert cert.piece("plus").space.same_filtration(e.stratifications[0])
    assert cert.piece("minus").space.same_filtration(e.stratifications[1])


def test_bordism_between_requires_same_carrier(entries):
    with pytest.raises(DifferentCarrier):
        bordism_between_stratifications(
            entries["S2"].stratifications[0], entries["T2"].stratifications[0]
        )


def test_bordism_to_intrinsic_rejects_an_incoherent_or_non_classical_source(entries):
    FX = entries["Sigma-T2"].stratifications[1]
    signs = dict(FX.orientation.signs)
    facet = min(signs)
    signs[facet] = -signs[facet]
    with pytest.raises(NotClassical, match="does not extend"):
        bordism_to_intrinsic(dataclasses.replace(FX, orientation=OrientationAssignment(signs)))
    with pytest.raises(NotClassical, match="needs a classical input"):
        bordism_to_intrinsic(dataclasses.replace(FX, classical=False))


def test_intrinsic_stratification_is_computed_once_per_bordism_source(entries, monkeypatch):
    calls = []
    original = strat.intrinsic_stratification

    def counting(K):
        calls.append(K)
        return original(K)

    for module in (strat, bordism):
        monkeypatch.setattr(module, "intrinsic_stratification", counting)
    e = entries["Sigma-T2"]
    bordism_to_intrinsic(e.stratifications[0])
    assert len(calls) == 1
    bordism_between_stratifications(e.stratifications[0], e.stratifications[1])
    assert len(calls) == 3


def test_restratify_bordism(entries):
    e = entries["Sigma-T2"]
    base = cylinder(e.stratifications[0])
    out = restratify_bordism(base, e.stratifications[1], e.stratifications[0])
    assert verify_certificate(out).passed
    assert out.piece("plus").space.same_filtration(e.stratifications[1])
    assert out.piece("minus").space.same_filtration(e.stratifications[0])


def test_restratify_bordism_through_an_odd_relabeling(entries):
    e = entries["Sigma-T2"]
    vmap, X = swap_two_smallest(e.stratifications[1])
    base = cylinder(e.stratifications[0])
    out = restratify_bordism(base, X, e.stratifications[0], isoX=LabeledIsomorphism(vmap))
    assert verify_certificate(out).passed
    assert out.piece("plus").space.same_filtration(e.stratifications[1])


def test_half_intrinsic_suspension_figure_census():
    # S¹ with a marked point: one north pole, the marked point at level 0,
    # one singular 1-stratum, one regular 2-stratum — and no south pole
    S1 = build_complex([(0, 1), (1, 2), (0, 2)])
    FX = make_filtered(S1, {0: [(0,)]}, classical=False)
    SX = half_intrinsic_suspension(FX)
    rep = validate_stratified_pseudomanifold(SX)
    assert rep.passed, rep.failing()
    census = sorted((s.dim, s.regular) for s in strata(SX))
    assert census == [(0, False), (0, False), (1, False), (2, True)]


def test_half_intrinsic_suspension_of_sphere_has_single_pole():
    S1 = build_complex([(0, 1), (1, 2), (0, 2)])
    SX = half_intrinsic_suspension(trivial_filtration(S1))
    census = sorted((s.dim, s.regular) for s in strata(SX))
    assert census == [(0, False), (2, True)]


def test_half_intrinsic_suspension_of_torus_keeps_south_pole(entries):
    SX = half_intrinsic_suspension(entries["T2"].stratifications[0])
    zero = [s for s in strata(SX) if s.dim == 0]
    assert len(zero) == 2  # the base is not a sphere: both poles survive
    assert validate_stratified_pseudomanifold(SX).passed


def test_half_intrinsic_suspension_rejects_boundary():
    D1 = build_complex([(0, 1)])
    with pytest.raises(NotClosed):
        half_intrinsic_suspension(trivial_filtration(D1))


def test_tampered_certificate_fails_verification(entries):
    cert = bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0])
    bad = dataclasses.replace(
        cert,
        pieces=tuple(
            dataclasses.replace(p, sign=-p.sign) if p.label == "plus" else p
            for p in cert.pieces
        ),
    )
    rep = verify_certificate(bad)
    assert not rep.passed
    assert not rep.checks["signs_match"]


def test_incoherent_carrier_orientation_fails_verification(entries):
    cert = bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0])
    rep = verify_certificate(flip_interior_sign(cert))
    assert not rep.passed
    assert not rep.checks["signs_match"]
    assert all(v for k, v in rep.checks.items() if k != "signs_match")


def test_missing_collar_detected(entries):
    cert = cylinder(entries["S2"].stratifications[0])
    pieces = tuple(dataclasses.replace(p, collar=None) for p in cert.pieces)
    bad = dataclasses.replace(cert, pieces=pieces)
    rep = verify_certificate(bad)
    assert not rep.passed
    assert not rep.checks["collars_present"]


def _forge_plus_collar(cert, forge):
    """cert with the pairs of its plus piece's collar replaced by forge(cert)."""
    pieces = tuple(
        dataclasses.replace(p, collar=bordism.CollarCertificate("product", forge(cert)))
        if p.label == "plus"
        else p
        for p in cert.pieces
    )
    return dataclasses.replace(cert, pieces=pieces)


COLLAR_FORGERIES = {
    # every plus vertex paired with itself
    "self_pairs": lambda c: tuple((a, a) for a in c.piece("plus").iso.vertex_map.values()),
    # a vertex at level 2 paired with one at level 0: they span no edge
    "no_edge": lambda c: (
        (c.piece("plus").collar.data[0][0], min(c.piece("minus").iso.vertex_map.values())),
        *c.piece("plus").collar.data[1:],
    ),
    # the first vertex of the piece has no pair
    "misses_a_vertex": lambda c: c.piece("plus").collar.data[1:],
    # the second vertex shares the first one's partner, a carrier edge still
    "not_injective": lambda c: _not_injective(c.piece("plus").collar.data),
}


def _not_injective(data):
    (a0, b0), (a1, _b1), *rest = data
    return ((a0, b0), (a1, b0), *rest)


@pytest.mark.parametrize("name", sorted(COLLAR_FORGERIES))
def test_forged_collar_fails_verification(name, entries, tmp_path, capsys):
    cert = bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0])
    bad = _forge_plus_collar(cert, COLLAR_FORGERIES[name])
    rep = verify_certificate(bad)
    assert not rep.passed
    assert [k for k, ok in rep.checks.items() if not ok] == ["collars_present"]
    path = tmp_path / "forged.json"
    jsonio.write_file(str(path), jsonio.certificate_to_json(bad))
    assert run(["bordism", "verify", str(path)]) == 1
    assert "collars_present: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["S2", "T2", "Sigma-S1"])
def test_non_injective_product_collar_fails_on_cylinders(name, entries):
    cert = cylinder(entries[name].stratifications[0])
    bad = _forge_plus_collar(cert, COLLAR_FORGERIES["not_injective"])
    if name == "S2":
        assert bad.piece("plus").collar.data == ((1, 0), (3, 0), (5, 4), (7, 6))
    rep = verify_certificate(bad)
    assert [k for k, ok in rep.checks.items() if not ok] == ["collars_present"]
    # The forged pairs are still carrier edges: only the prisms tell.
    Yc = cert.Y.complex
    assert all((min(a, b), max(a, b)) in Yc.faces for a, b in bad.piece("plus").collar.data)


def _glued_with_sides(cert):
    """cert glued to itself along (plus, minus) and (minus, plus), and to its
    reverse along (plus, plus): each keeps both side pieces."""
    return [
        glue(cert, cert, ("plus", "minus")),
        glue(cert, cert, ("minus", "plus")),
        glue(cert, reverse_certificate(cert), ("plus", "plus")),
    ]


def test_glued_cylinders_keep_verified_side_pieces(entries):
    for FX in cones_with_boundary(entries):
        for g in _glued_with_sides(cylinder(FX)):
            rep = verify_certificate(g)
            assert rep.passed, (g.provenance, rep.checks)
            assert [p.label for p in g.pieces if p.collar.kind == "corner"] == ["side", "side'"]


def _remark_as_corner(cert):
    """cert with its plus and minus collars marked "corner": their pairs
    leave their pieces."""
    return dataclasses.replace(
        cert,
        pieces=tuple(
            dataclasses.replace(p, collar=dataclasses.replace(p.collar, kind="corner"))
            if p.label in ("plus", "minus")
            else p
            for p in cert.pieces
        ),
    )


def _repair_corner(cert, label, partners):
    """cert with the corner collar of piece label re-pairing the piece's own
    vertices as partners says.  Piece vertex 2i + t is (x_i, t), with x_0 and
    x_1 the first two boundary vertices, adjacent on every space used here."""
    piece = cert.piece(label)
    vm = piece.iso.vertex_map
    c = dict(piece.collar.data)
    c.update({vm[v]: vm[w] for v, w in partners.items()})
    collar = bordism.CollarCertificate("corner", tuple(sorted(c.items())))
    pieces = tuple(
        dataclasses.replace(p, collar=collar) if p.label == label else p for p in cert.pieces
    )
    return dataclasses.replace(cert, pieces=pieces)


# Each keeps every pair a carrier edge, so that only the corner check tells.
CORNER_REPAIRS = {
    # (x_0, 0) and (x_1, 1) swap partners: two level edges, no involution
    "swapped": {0: 2, 3: 1},
    # (x_1, 1) paired along the diagonal with (x_0, 0): no involution
    "diagonal": {3: 0},
}


SEGMENT = dataclasses.replace(
    trivial_filtration(build_complex([(0, 1), (1, 2)])), boundary=build_complex([(0,), (2,)])
)


def _corner_forgeries(entries):
    cones = cones_with_boundary(entries)[:3]
    sides = [(cylinder(FX), "side") for FX in cones] + [
        (g, label) for g in _glued_with_sides(cylinder(cones[0])) for label in ("side", "side'")
    ]
    return [
        ("remarked", _remark_as_corner(cylinder(SEGMENT))),
        ("remarked", _remark_as_corner(cylinder(cones[0]))),
        *(
            (name, _repair_corner(cert, label, partners))
            for name, partners in CORNER_REPAIRS.items()
            for cert, label in sides
        ),
    ]


def test_forged_corner_collar_fails_verification(entries, tmp_path, capsys):
    for name, bad in _corner_forgeries(entries):
        rep = verify_certificate(bad)
        assert [k for k, ok in rep.checks.items() if not ok] == ["corner_scheme_valid"], name
        Yc = bad.Y.complex
        assert all(
            (min(a, b), max(a, b)) in Yc.faces for p in bad.pieces for a, b in p.collar.data
        )
        path = tmp_path / "forged.json"
        jsonio.write_file(str(path), jsonio.certificate_to_json(bad))
        capsys.readouterr()
        assert run(["bordism", "verify", str(path)]) == 1
        assert "corner_scheme_valid: FAIL" in capsys.readouterr().out


def _old_bordism_skeleta(FX):
    """The X -> X* carrier's generators per skeleton, found as
    `bordism_to_intrinsic` found them with a loop over j, kept as an oracle."""
    FXstar = intrinsic_stratification(FX.complex)
    Yc, vmap = product_with_map(FX.complex, _PATH3)
    inv = {i: p for p, i in vmap.items()}
    n = FX.dim
    gens = {}
    for f in Yc.faces:
        xs, ts = _face_split(f, inv)
        for j in range(n + 1):
            if (
                (ts <= {1, 2} and xs in FX.skeleton(j - 1).faces)
                or (ts <= {0, 1} and xs in FXstar.skeleton(j - 1).faces)
                or (ts == {1} and xs in FX.skeleton(min(j, n - 1)).faces)
            ):
                gens.setdefault(j, []).append(f)
                break
    return make_filtered(Yc, gens).skeleta


def _old_cylinder_skeleta(FX):
    """The cylinder's and its side piece's generators per skeleton, found as
    `cylinder` found them with a loop over j, kept as an oracle."""
    n = FX.dim
    D1 = build_complex([(0, 1)])
    Yc, vmap = product_with_map(FX.complex, D1)
    inv = {i: p for p, i in vmap.items()}
    gens = {}
    for f in Yc.faces:
        xs, _ts = _face_split(f, inv)
        for j in range(n + 1):
            if xs in FX.skeleton(j - 1).faces:
                gens.setdefault(j, []).append(f)
                break
    B = FX.boundary if FX.boundary is not None else boundary_subcomplex(FX.complex)
    if B.is_empty():
        return make_filtered(Yc, gens).skeleta, None
    side_c, side_vmap = product_with_map(B, D1)
    side_inv = {i: p for p, i in side_vmap.items()}
    sgens = {}
    for f in side_c.faces:
        xs = tuple(sorted({side_inv[v][0] for v in f}))
        for j in range(n):
            if xs in B.faces and xs in FX.skeleton(j).faces:
                sgens.setdefault(j, []).append(f)
                break
    return make_filtered(Yc, gens).skeleta, make_filtered(side_c, sgens).skeleta


def test_bordism_and_cylinder_filtrations_match_the_old_loops(entries, sigma_t2_carriers):
    for name in ("S2", "T2", "Sigma-S1", "Sigma-T2"):
        for FX in entries[name].stratifications:
            assert bordism_to_intrinsic(FX).Y.skeleta == _old_bordism_skeleta(FX)
    names = ("S2", "RP2", "Sigma-T2")
    spaces = [FX for name in names for FX in entries[name].stratifications]
    for FX in spaces + sigma_t2_carriers + cones_with_boundary(entries):
        cert = cylinder(FX)
        skeleta, side = _old_cylinder_skeleta(FX)
        assert cert.Y.skeleta == skeleta
        if side is not None:
            assert cert.piece("side").space.skeleta == side


def test_trivialised_piece_filtration_fails_verification(entries):
    cert = bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0])
    for label in ("plus", "minus"):
        p = cert.piece(label)
        flat = trivial_filtration(p.space.complex, orientation=p.space.orientation)
        pieces = tuple(
            dataclasses.replace(q, space=flat) if q.label == label else q
            for q in cert.pieces
        )
        rep = verify_certificate(dataclasses.replace(cert, pieces=pieces))
        assert not rep.checks["induced_filtrations_match"], label
        assert all(v for k, v in rep.checks.items() if k != "induced_filtrations_match")


def test_stratified_isomorphism_respects_the_filtration(entries):
    FX, refined = entries["Sigma-T2"].stratifications
    _vmap, moved = swap_two_smallest(FX)
    m = stratified_isomorphism(FX, moved)
    assert m is not None
    assert all(moved.depth[m.apply(f)] == d for f, d in FX.depth.items())
    assert stratified_isomorphism(FX, refined) is None  # one more 0-stratum
    assert stratified_isomorphism(FX, trivial_filtration(FX.complex)) is None
    # Equal vertex depths, but the edge 01 lies in X^1 on one side only.
    K = entries["S2"].complex
    poles = make_filtered(K, {0: [(0,), (1,)]})
    edge = make_filtered(K, {0: [(0,), (1,)], 1: [(0, 1)]})
    assert stratified_isomorphism(poles, poles) is not None
    assert stratified_isomorphism(poles, edge) is None


def _orient_pinned_by_union_find(Yc, skip, pins):
    """`bordism._orient_pinned` as it was before it read the propagation
    components from `orient`'s own pass, kept as an oracle: `orient`, then the
    components found again by a union-find over the glued ridges."""
    base = orient(Yc, skip_ridges=skip)
    glued = (fs for r, fs in Yc.ridges.items() if len(fs) == 2 and r not in skip)
    parts = strat.components(sorted(Yc.facets), glued)
    comp = {f: cid for cid, part in enumerate(parts) for f in part}
    flip = {}
    for r, want in pins.items():
        fs = Yc.ridges.get(r, ())
        if len(fs) != 1:
            raise InternalInvariantBreach(f"pinned ridge {r} is not free")
        F = fs[0]
        fix = want * base.signs[F] * incidence(F, r)
        if flip.setdefault(comp[F], fix) != fix:
            raise InternalInvariantBreach("conflicting orientation pins within one component")
    if len(flip) != len(parts):
        raise InternalInvariantBreach("orientation component carries no pin")
    return OrientationAssignment({f: base.signs[f] * flip[comp[f]] for f in Yc.facets})


def test_pinned_orientation_matches_the_union_find_oracle(entries, monkeypatch):
    pinned, calls = bordism._orient_pinned, []

    def both(*args):
        got = pinned(*args)
        assert got.signs == _orient_pinned_by_union_find(*args).signs
        calls.append(args[0])
        return got

    monkeypatch.setattr(bordism, "_orient_pinned", both)
    spaces = [FX for entry in entries.values() for FX in entry.stratifications]
    for FX in spaces:
        if FX.orientation is not None:
            bordism_to_intrinsic(FX)
    for FX in spaces + cones_with_boundary(entries):
        cylinder(FX)
    assert len(calls) >= 45
