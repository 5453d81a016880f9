"""Complex constructions: links, joins, cones, suspensions, products,
subdivision and orientations.

Oracles: brute-force face counting, independent ridge-cancellation checks,
and homology invariance under subdivision.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from stratabord.algebra import ZZ, homology
from stratabord.bordism import bordism_to_intrinsic
from stratabord.complexes import (
    EMPTY,
    barycentric_subdivision,
    boundary_orientation,
    boundary_subcomplex,
    build_complex,
    collapses_to_point,
    cone,
    incidence,
    is_orientable,
    join,
    link,
    orient,
    product,
    product_with_map,
    star,
    suspension,
    suspension_poles,
    verify_orientation,
)
from stratabord.errors import NotOrientable, SimplexNotFound

from conftest import dunce_hat, random_complex

S2 = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
S1 = build_complex([(0, 1), (1, 2), (0, 2)])
TRIANGLE = build_complex([(0, 1, 2)])


def test_faces_and_f_vector():
    assert [len(S2.faces_of_dim(d)) for d in range(3)] == [4, 6, 4]
    assert S2.euler_characteristic() == 2
    assert (0, 1) in S2
    assert (0, 1, 2, 3) not in S2


def test_build_complex_keeps_exactly_the_maximal_faces():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 7)
        given = {tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(8)}
        # brute force: a face is kept unless it lies in another given face
        want = {f for f in given if not any(set(f) < set(g) for g in given)}
        assert build_complex(given).facets == want
    assert build_complex([()]).facets == {()}
    assert build_complex([(), (2, 0), (0,), (0, 2), (1,)]).facets == {(0, 2), (1,)}


def test_subcomplex_closure_and_missing_simplex():
    sub = S2.subcomplex([(0, 1, 2)])
    assert sub.faces == TRIANGLE.faces
    with pytest.raises(SimplexNotFound):
        S2.subcomplex([(0, 4)])


def test_link_and_star():
    assert link(S2, (0,)).facets == frozenset({(1, 2), (1, 3), (2, 3)})
    assert link(S2, (0, 1)).facets == frozenset({(2,), (3,)})
    assert star(S2, (0,)).facets == frozenset({(0, 1, 2), (0, 1, 3), (0, 2, 3)})
    assert link(S2, (0, 1, 2)) == EMPTY


def _link_oracle(K):
    """link(K, s) for every face s, from the definition: the faces t ∖ s for
    the faces t ⊋ s of K, reduced to the maximal ones."""
    faces = {s: set() for s in K.faces}
    for t in K.faces:
        for k in range(1, len(t)):
            for s in itertools.combinations(t, k):
                faces[s].add(tuple(v for v in t if v not in s))
    return {
        s: fs - {u[:i] + u[i + 1 :] for u in fs for i in range(len(u))}
        for s, fs in faces.items()
    }


def assert_link_and_star_match_oracle(K):
    for s, want in _link_oracle(K).items():
        L = link(K, s)
        assert L.facets == want, s
        assert (L == EMPTY) == (s in K.facets), s
        assert star(K, s).facets == ({tuple(sorted(s + u)) for u in want} or {s}), s
    fresh = (max(K.vertices) + 1,)
    non_face = tuple(K.vertices) if tuple(K.vertices) not in K.faces else fresh
    for s in (non_face, fresh, ()):
        with pytest.raises(SimplexNotFound):
            link(K, s)
        with pytest.raises(SimplexNotFound):
            star(K, s)


@st.composite
def mixed_complexes(draw):
    """Small complexes whose facets may differ in dimension."""
    nverts = draw(st.integers(1, 7))
    simplices = st.lists(st.integers(0, nverts - 1), min_size=1, max_size=4, unique=True)
    return build_complex(draw(st.lists(simplices, min_size=1, max_size=8)))


@given(mixed_complexes())
@settings(max_examples=150, deadline=None)
def test_link_and_star_match_the_definition_on_random_complexes(K):
    assert_link_and_star_match_oracle(K)


def test_link_and_star_match_the_definition_on_catalog_and_carrier(entries):
    for entry in entries.values():
        assert_link_and_star_match_oracle(entry.complex)
    carrier = bordism_to_intrinsic(entries["T3"].stratifications[0]).Y.complex
    assert len(carrier.faces) == 8802
    assert_link_and_star_match_oracle(carrier)


def acyclic(K):
    return all(g.rank == 0 and not g.torsion for g in homology(K, ZZ, reduced=True))


@given(mixed_complexes(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_a_collapse_to_a_point_proves_acyclicity(K, i):
    if collapses_to_point(K):
        assert acyclic(K)
    drop = sorted(K.facets)[i % len(K.facets)]
    if collapses_to_point(K, drop):
        assert acyclic(build_complex([f for f in K.faces if f != drop]))


def test_collapses_to_point_on_known_complexes(entries):
    assert collapses_to_point(build_complex([(0,)]))
    assert collapses_to_point(TRIANGLE)
    assert not collapses_to_point(build_complex([(0,), (1,)]))
    for K in (S1, S2, product(S1, S1)):
        assert collapses_to_point(cone(K))
        assert not collapses_to_point(K)
    for name in ("S1", "S2", "S3", "S4"):
        K = entries[name].complex
        assert not collapses_to_point(K)
        assert all(collapses_to_point(K, f) for f in sorted(K.facets)[:5]), name
    for name in ("T2", "RP2", "T3", "RP3"):
        K = entries[name].complex
        assert not collapses_to_point(K, min(K.facets)), name
    # The dunce hat is contractible, but it has no free edge.
    D = dunce_hat()
    assert D.euler_characteristic() == 1 and acyclic(D)
    assert not collapses_to_point(D)


def test_join_multiplies_reduced_euler():
    # χ̃(K * L) = −χ̃(K)·χ̃(L); verified by brute-force face counting
    rng = random.Random(3)
    for _ in range(10):
        K = random_complex(rng, 5, 3, 1)
        L = random_complex(rng, 4, 2, 1)
        J = join(K, L)
        red = lambda C: C.euler_characteristic() - 1
        assert red(J) == -red(K) * red(L)


def test_cone_is_contractible():
    for K in (S1, S2, TRIANGLE):
        C = cone(K)
        assert C.euler_characteristic() == 1
        h = homology(C, ZZ, reduced=True)
        assert all(g.rank == 0 and not g.torsion for g in h)


def test_suspension_euler_identity():
    rng = random.Random(5)
    for _ in range(10):
        K = random_complex(rng, 6, 4, 2)
        assert suspension(K).euler_characteristic() == 2 - K.euler_characteristic()


def test_suspension_poles_are_fresh_vertices():
    n, s = suspension_poles(S1)
    SK = suspension(S1)
    assert n not in S1.vertices and s not in S1.vertices
    assert (n,) in SK and (s,) in SK
    assert (n, s) not in SK


def test_product_euler_multiplicativity():
    rng = random.Random(7)
    for _ in range(8):
        K = random_complex(rng, 5, 3, 1)
        L = random_complex(rng, 4, 3, 1)
        P = product(K, L)
        assert P.euler_characteristic() == K.euler_characteristic() * L.euler_characteristic()


def test_product_of_circles_is_torus():
    T = product(S1, S1)
    assert [g.rank for g in homology(T, ZZ)] == [1, 2, 1]
    assert T.euler_characteristic() == 0
    assert is_orientable(T)


def test_product_with_map_projections_cover():
    P, vmap = product_with_map(S1, S1)
    inv = {i: p for p, i in vmap.items()}
    assert set(inv) == set(P.vertices)
    # every facet projects onto a facet or face in each factor
    for f in P.facets:
        xs = tuple(sorted({inv[v][0] for v in f}))
        ys = tuple(sorted({inv[v][1] for v in f}))
        assert xs in S1 and ys in S1


def test_barycentric_subdivision_preserves_euler_and_homology():
    for K in (S2, product(S1, S1)):
        B, prov = barycentric_subdivision(K)
        assert B.euler_characteristic() == K.euler_characteristic()
        assert [(g.rank, g.torsion) for g in homology(B, ZZ)] == [
            (g.rank, g.torsion) for g in homology(K, ZZ)
        ]
        # provenance maps every new vertex to a face of K
        assert set(prov) == set(B.vertices)
        assert all(f in K for f in prov.values())


def ridges_by_definition(K):
    """K.ridges from its definition: each codimension-one face of a facet, in
    the order first met over the sorted facets, mapped to the sorted facets of
    which it is a codimension-one face, read off its star."""
    out = {}
    for f in sorted(K.facets):
        # Lexicographic combinations drop the last vertex first; the index
        # drops the first vertex first.
        for r in reversed(list(itertools.combinations(f, len(f) - 1))):
            if r and r not in out:
                out[r] = tuple(sorted(g for g in star(K, r).facets if len(g) == len(r) + 1))
    return out


def assert_ridges_match_definition(K):
    assert list(K.ridges.items()) == list(ridges_by_definition(K).items())


@given(mixed_complexes())
@settings(max_examples=150, deadline=None)
def test_ridge_index_matches_its_definition_on_random_complexes(K):
    assert_ridges_match_definition(K)


def test_ridge_index_matches_its_definition(entries, sigma_t2_carriers, sigma_t3_carrier):
    assert set(S2.ridges) == set(S2.faces_of_dim(1))
    assert all(len(fs) == 2 for fs in S2.ridges.values())
    assert build_complex([(0,), (1,)]).ridges == {}
    for entry in entries.values():
        assert_ridges_match_definition(entry.complex)
    for FY in sigma_t2_carriers + [sigma_t3_carrier]:
        assert_ridges_match_definition(FY.complex)
    assert len(sigma_t3_carrier.complex.ridges) == 10044


def test_boundary_subcomplex_of_disk_and_sphere():
    disk = build_complex([(0, 1, 2), (0, 2, 3)])
    b = boundary_subcomplex(disk)
    assert b.facets == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert boundary_subcomplex(S2).is_empty()


def test_incidence_signs():
    assert incidence((0, 1, 2), (1, 2)) == 1
    assert incidence((0, 1, 2), (0, 2)) == -1
    assert incidence((0, 1, 2), (0, 1)) == 1


def test_orientation_verified_independently():
    # oracle: re-check every interior ridge cancellation by hand
    for K in (S2, product(S1, S1), suspension(product(S1, S1))):
        oa = orient(K)
        for ridge, fs in K.ridges.items():
            if len(fs) == 2:
                f, g = fs
                total = (
                    incidence(f, ridge) * oa.signs[f]
                    + incidence(g, ridge) * oa.signs[g]
                )
                assert total == 0
        assert verify_orientation(K, oa)


def test_orientation_relabel_stays_coherent():
    # Every permutation of the vertices of S², and a random one of the torus.
    for perm in itertools.permutations(range(4)):
        vmap = dict(enumerate(perm))
        assert verify_orientation(S2.relabel(vmap), orient(S2).relabel(vmap))
    T2 = product(S1, S1)
    verts = sorted(T2.vertices)
    shuffled = random.Random(3).sample(verts, len(verts))
    vmap = dict(zip(verts, shuffled))
    assert verify_orientation(T2.relabel(vmap), orient(T2).relabel(vmap))


def test_nonorientable_raises():
    rp2 = build_complex(
        [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        ]
    )
    assert not is_orientable(rp2)
    with pytest.raises(NotOrientable):
        orient(rp2)


def test_boundary_orientation_of_disk():
    disk = build_complex([(0, 1, 2), (0, 2, 3)])
    oa = orient(disk)
    boa = boundary_orientation(disk, oa)
    b = boundary_subcomplex(disk)
    assert set(boa.signs) == set(b.facets)
    # the induced boundary orientation is coherent on the boundary circle
    assert verify_orientation(b, boa)


def test_tampered_orientation_fails_verification():
    oa = orient(S2)
    f = min(oa.signs)
    bad = dict(oa.signs)
    bad[f] = -bad[f]
    from stratabord.complexes import OrientationAssignment

    assert not verify_orientation(S2, OrientationAssignment(bad))


def test_relabel_roundtrip():
    vmap = {v: v + 10 for v in S2.vertices}
    back = {v + 10: v for v in S2.vertices}
    assert S2.relabel(vmap).relabel(back).facets == S2.facets
