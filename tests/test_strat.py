"""Filtrations, strata, links, intrinsic stratification and the validator.

The validator's mutation tests live in the acceptance suite; here we cover
the constructive API plus structural properties (coarsening, link-of-link,
the circle-product law).
"""

import itertools
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import cones_with_boundary, dunce_hat, record_raw_calls, subdivide_filtered
from stratabord import catalog, strat
from stratabord.algebra import QQ, ZZ, HomologyGroup, homology
from stratabord.bordism import bordism_to_intrinsic, cylinder
from stratabord.complexes import (
    SimplicialComplex,
    boundary_subcomplex,
    build_complex,
    collapses_to_point,
    cone,
    join,
    link,
    product,
    suspension,
    suspension_poles,
)
from stratabord.errors import (
    DifferentCarrier,
    MalformedFiltration,
    NoTopSimplex,
    NotPseudomanifold,
)
from stratabord.ih import intersection_homology, lower_middle, upper_middle
from stratabord.iso import isomorphic
from stratabord.strat import (
    ClauseResult,
    FilteredComplex,
    _Flag,
    _restrict_to_skeleta,
    coarsens,
    complex_invariant,
    connected_components,
    germ_partition,
    intrinsic_stratification,
    is_circle,
    literal_desuspension,
    make_filtered,
    octahedral_sphere,
    polyhedral_link_decomposition,
    sphere_like,
    ball_like,
    strata,
    stratum_link,
    trivial_filtration,
    validate_stratified_pseudomanifold,
)


def sigma_t2():
    e = catalog.get("Sigma-T2")
    return e, e.stratifications[0]


def test_make_filtered_nesting_and_top_skeleton():
    e, FX = sigma_t2()
    n = FX.dim
    for j in range(n):
        assert FX.skeleton(j).faces <= FX.skeleton(j + 1).faces
    assert FX.skeleton(n).faces == FX.complex.faces
    assert FX.skeleton(-1).is_empty()


def test_strata_census_of_pole_filtration():
    _e, FX = sigma_t2()
    S = strata(FX)
    zero = [s for s in S if s.dim == 0]
    reg = [s for s in S if s.regular]
    assert len(zero) == 2 and len(reg) == 1
    assert all(not s.regular for s in zero)


def test_regular_stratum_has_empty_link():
    _e, FX = sigma_t2()
    reg = next(s for s in strata(FX) if s.regular)
    L = stratum_link(FX, reg)
    assert L.complex.is_empty()
    assert L.dim == -1


def test_pole_link_is_the_base_torus():
    e, FX = sigma_t2()
    pole = next(s for s in strata(FX) if s.dim == 0)
    L = stratum_link(FX, pole)
    assert L.dim == 2
    assert L.complex.euler_characteristic() == 0
    # the link of a suspension 0-stratum is the unsuspended base
    t2 = catalog.get("T2").complex
    assert len(L.complex.facets) == len(t2.facets)


def test_sphere_and_ball_recognition_small():
    S1 = build_complex([(0, 1), (1, 2), (0, 2)])
    S2 = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    path = build_complex([(0, 1), (1, 2)])
    disk = build_complex([(0, 1, 2), (0, 2, 3)])
    assert sphere_like(S1) and sphere_like(S2)
    assert not sphere_like(path) and not sphere_like(disk)
    assert ball_like(path) and ball_like(disk) and ball_like(cone(S1))
    assert not ball_like(S1)


def test_intrinsic_stratification_of_manifolds_is_trivial():
    for name in ("S2", "T2", "T3"):
        K = catalog.get(name).complex
        FX = intrinsic_stratification(K)
        assert all(s.regular for s in strata(FX))


def test_intrinsic_stratification_of_suspension_marks_poles():
    e = catalog.get("Sigma-T2")
    FX = intrinsic_stratification(e.complex)
    zero = [s for s in strata(FX) if not s.regular]
    assert len(zero) == 2
    assert all(s.dim == 0 for s in zero)
    # a suspension of a sphere has no singular strata at all
    FS = intrinsic_stratification(catalog.get("Sigma-S1").complex)
    assert all(s.regular for s in strata(FS))


def test_intrinsic_coarsens_every_shipped_stratification(entries):
    for name in ("S2", "T2", "Sigma-T2", "Sigma-RP2"):
        e = entries[name]
        FXstar = intrinsic_stratification(e.complex)
        for FX in e.stratifications:
            assert coarsens(FXstar, FX), name


def test_coarsens_requires_same_carrier():
    a = trivial_filtration(catalog.get("S2").complex)
    b = trivial_filtration(catalog.get("T2").complex)
    with pytest.raises(DifferentCarrier):
        coarsens(a, b)


def test_validator_passes_catalog_samples(entries):
    for name in ("S3", "T2", "RP2", "Sigma-T2", "Sigma-RP2"):
        for FX in entries[name].stratifications:
            rep = validate_stratified_pseudomanifold(FX)
            assert rep.passed, (name, rep.failing())


def _stratum_links(S):
    """Links inside the open stratum S, from one pass over its cofaces."""
    lk_map = {s: [] for s in S.simplices}
    for t in S.simplices:
        for k in range(1, len(t)):
            for sub in itertools.combinations(t, k):
                if sub in lk_map:
                    lk_map[sub].append(tuple(v for v in t if v not in sub))
    return {s: build_complex(fs, empty_ok=True) for s, fs in lk_map.items()}


def test_stratum_links_are_links_in_the_skeleton(entries):
    spaces = [FX for entry in entries.values() for FX in entry.stratifications]
    spaces.append(bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0]).Y)
    for FX in spaces:
        for S in strata(FX):
            for s, L in _stratum_links(S).items():
                assert link(FX.skeleton(S.dim), s) == L, (S.dim, s)


def test_validator_flags_links_left_unchecked_at_the_depth_limit(entries):
    FX = entries["Sigma-T2"].stratifications[0]
    checked = validate_stratified_pseudomanifold(FX)
    assert checked.passed and not checked.heuristic and checked.clause("f").detail == ""
    rep = validate_stratified_pseudomanifold(FX, _depth=12)
    assert rep.passed and rep.heuristic
    assert rep.clause("f").detail == "recursion depth limit: link condition not checked"
    # with no singular stratum there is nothing left unchecked
    manifold = validate_stratified_pseudomanifold(entries["T2"].stratifications[0], _depth=12)
    assert manifold.clause("f").detail == "" and not manifold.heuristic


def test_validator_names_broken_nesting():
    # skeleta out of order must fail clause (a); built directly to dodge
    # the constructor's nesting enforcement
    e = catalog.get("Sigma-T2")
    K = e.complex
    sk0 = K.subcomplex([(7,), (8,)])
    sk1 = K.subcomplex([(0,)])  # does not contain sk0
    FX = FilteredComplex(K, (sk0, sk1, sk1), None, None, True, False)
    rep = validate_stratified_pseudomanifold(FX)
    assert not rep.passed and "a" in rep.failing()


def test_validator_rejects_codimension_one_stratum():
    S2c = catalog.get("S2").complex
    FX = make_filtered(S2c, {1: [(0, 1)]})
    rep = validate_stratified_pseudomanifold(FX)
    assert not rep.passed
    assert "d" in rep.failing()


def test_nonclassical_codimension_one_is_allowed_when_flagged():
    S1 = build_complex([(0, 1), (1, 2), (0, 2)])
    FX = make_filtered(S1, {0: [(0,)]}, classical=False)
    rep = validate_stratified_pseudomanifold(FX)
    assert rep.passed


def test_validator_rejects_trivially_filtered_singular_space():
    K = catalog.get("Sigma-T2").complex
    rep = validate_stratified_pseudomanifold(trivial_filtration(K))
    assert not rep.passed and "e" in rep.failing()


def test_link_of_link_is_a_link():
    # stratified invariants of links of links appear among links of the space
    e = catalog.get("Sigma-T2")
    FX = e.stratifications[0]
    for S in strata(FX):
        if S.regular:
            continue
        LF = stratum_link(FX, S)
        rep = validate_stratified_pseudomanifold(LF)
        assert rep.passed
        for T in strata(LF):
            if T.regular:
                continue
            LL = stratum_link(LF, T)
            assert validate_stratified_pseudomanifold(LL).passed


def test_circle_product_law_intrinsic_skeleta():
    # ((0,1) × X)* = (0,1) × X*: the intrinsic stratification of S¹ × X has
    # singular set S¹ × (singular set of X*)
    from stratabord.complexes import product_with_map
    from stratabord.catalog import circle

    C = circle(3)
    X = catalog.get("Sigma-T2").complex
    P, vmap = product_with_map(C, X)
    inv = {i: p for p, i in vmap.items()}
    PX = intrinsic_stratification(P)
    Xstar = intrinsic_stratification(X)
    sing_X = {f for f in Xstar.singular_set.faces}
    sing_P = PX.singular_set.faces
    for f in sing_P:
        xs = tuple(sorted({inv[v][1] for v in f}))
        assert xs in sing_X
    # and every singular simplex of X* is hit by some product simplex
    hit = {tuple(sorted({inv[v][1] for v in f})) for f in sing_P}
    assert {s for s in sing_X} <= {
        face for f in hit for k in range(1, len(f) + 1)
        for face in __import__("itertools").combinations(f, k)
    } | hit


def test_literal_desuspension_counts():
    S1 = build_complex([(0, 1), (1, 2), (0, 2)])
    j, core = literal_desuspension(suspension(suspension(S1)))
    assert j >= 2
    t2 = catalog.get("T2").complex
    j2, core2 = literal_desuspension(suspension(t2))
    assert j2 == 1
    assert core2.facets == t2.facets


def test_polyhedral_link_decomposition_at_pole_and_regular_point():
    e = catalog.get("Sigma-T2")
    FX = e.stratifications[0]
    north, _south = suspension_poles(catalog.get("T2").complex)
    dec = polyhedral_link_decomposition(FX, north)
    assert dec.suspension_count == 0
    assert dec.core.complex.euler_characteristic() == 0  # the torus
    assert dec.reconstruction_checked
    regular_vertex = 0
    dec2 = polyhedral_link_decomposition(FX, regular_vertex)
    assert dec2.suspension_count == FX.dim
    assert dec2.core.complex.is_empty()


def test_intrinsic_rejects_codimension_one_pinch():
    # two triangles sharing exactly one edge... a valid manifold; instead take
    # three triangles sharing one edge: not a pseudomanifold at all
    K = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(NotPseudomanifold):
        intrinsic_stratification(K)


def _bfs_components(nodes, neighbours):
    """Connected components by breadth-first search."""
    seen, comps = set(), []
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        comp, queue = [], deque([root])
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in neighbours(x):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(frozenset(comp))
    return comps


def _strata_oracle(FX):
    out = []
    for j in range(FX.dim + 1):
        opens = FX.skeleton(j).faces - FX.skeleton(j - 1).faces

        def neighbours(s):
            down = (s[:i] + s[i + 1 :] for i in range(len(s)))
            up = (t for t in opens if len(t) == len(s) + 1 and set(s) <= set(t))
            return [t for t in itertools.chain(down, up) if t in opens]

        out += [(j, comp, j == FX.dim) for comp in _bfs_components(opens, neighbours)]
    return sorted(out, key=lambda t: (t[0], min(t[1])))


@st.composite
def filtered_complexes(draw):
    """A random complex with a random nested chain of subcomplexes."""
    nverts = draw(st.integers(1, 7))
    simplices = st.lists(st.integers(0, nverts - 1), min_size=1, max_size=4, unique=True)
    K = build_complex(draw(st.lists(simplices, min_size=1, max_size=8)))
    faces = sorted(K.faces)
    skeleta = {j: draw(st.lists(st.sampled_from(faces), max_size=4)) for j in range(K.dim)}
    return make_filtered(K, skeleta)


def _union_find_strata(FX):
    """The strata by a union-find over every open face, the routine that
    the minimal open faces replaced, kept here as an oracle."""
    strat._check_skeleta(FX)
    out = []
    for j in range(FX.dim + 1):
        opens = FX.skeleton(j).faces - FX.skeleton(j - 1).faces
        for comp in strat.components(opens, strat._face_edges(opens)):
            out.append(strat.Stratum(j, frozenset(comp), j == FX.dim))
    return tuple(sorted(out, key=lambda s: (s.dim, min(s.simplices))))


@given(filtered_complexes())
@settings(max_examples=150, deadline=None)
def test_strata_and_connected_components_match_a_bfs_oracle(FX):
    got = [(S.dim, S.simplices, S.regular) for S in strata(FX)]
    assert got == _strata_oracle(FX)
    assert FX.strata == _union_find_strata(FX)
    K = FX.complex

    def adjacent(v):
        return {w for f in K.facets if v in f for w in f if w != v}

    assert connected_components(K) == len(_bfs_components(K.vertices, adjacent))


def _old_germ_partition(K, flag, keep):
    """The germ loop and face-adjacency union-find as they stood before
    germ_partition took them over, kept here as an oracle."""
    classes = {}
    for f in sorted(K.faces, key=lambda f: (-len(f), f)):
        if not keep(f) or sphere_like(link(K, f), flag):
            continue
        L, d = link(K, f), len(f) - 1
        classes[f] = complex_invariant(L if d == 0 else join(octahedral_sphere(d), L), flag)
    parent = {s: s for s in classes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s in classes:
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            if f in classes and classes[f] == classes[s]:
                parent[find(s)] = find(f)
    comps = {}
    for s in classes:
        comps.setdefault(find(s), set()).add(s)
    return sorted((sorted(c), classes[next(iter(c))]) for c in comps.values())


def test_germ_partition_matches_the_old_loop_under_each_filter(entries):
    spaces = [entry.complex for entry in entries.values()]
    spaces.append(bordism_to_intrinsic(entries["Sigma-T2"].stratifications[0]).Y.complex)
    for K in spaces:
        rim = boundary_subcomplex(K).faces
        north, south = suspension_poles(K)
        SK = suspension(K, north, south)
        cases = [
            (K, None),  # the intrinsic stratification and complex_invariant
            (K, lambda f: f not in rim),  # interior links of a space with boundary
            (SK, lambda f: south in f),  # the south cone of the half-intrinsic suspension
        ]
        for L, keep in cases:
            old_flag, new_flag = _Flag(), _Flag()
            want = _old_germ_partition(L, old_flag, keep or (lambda f: True))
            got = germ_partition(L, new_flag, keep)
            assert sorted((sorted(faces), inv) for inv, faces in got) == want
            assert all(faces == sorted(faces, key=lambda f: (-len(f), f)) for _, faces in got)
            assert new_flag.heuristic == old_flag.heuristic


def test_memo_replays_the_heuristic_flag():
    # A 3-sphere is recognised, and given an invariant, above dimension 2:
    # the answer is heuristic, and so is every replay of it, on the same
    # labels and on others.  An earlier test may have recognised this shape
    # already, so the first call here may itself be a replay.
    S3 = build_complex(itertools.combinations(range(500, 505), 4))
    moved = S3.relabel({v: 2 * (504 - v) for v in S3.vertices})
    for recognise in (sphere_like, complex_invariant):
        first = _Flag()
        answer = recognise(S3, first)
        assert first.heuristic
        for K in (S3, moved):
            again = _Flag()
            assert recognise(K, again) == answer  # read from the memo
            assert again.heuristic
    assert sphere_like(S3) and complex_invariant(S3)[0] == "cx"


def _least_skeleton(FX, f):
    return next(j for j in range(FX.dim + 1) if f in FX.skeleton(j).faces)


def test_depth_is_the_least_skeleton_holding_the_face(entries, sigma_t2_carriers):
    spaces = [FX for entry in entries.values() for FX in entry.stratifications]
    for FX in spaces + sigma_t2_carriers:
        assert FX.depth == {f: _least_skeleton(FX, f) for f in FX.complex.faces}


def _old_link_filtration(FX, L, s):
    """The link filtration as `_restrict_to_skeleta` built it with a loop
    over the skeleta, kept here as an oracle."""
    base_dim = len(s) - 1
    skeleta = {}
    for t in range(FX.dim - base_dim - 1):
        sk = FX.skeleton(base_dim + 1 + t)
        gens = [f for f in L.faces if tuple(sorted(f + s)) in sk.faces]
        if gens:
            skeleta[t] = gens
    return make_filtered(L, skeleta, None, None, FX.classical, FX.heuristic)


def _old_boundary_filtration(FX):
    """Clause (g)'s boundary filtration B^i = X^{i+1} ∩ B as the validator
    built it with a loop over the skeleta, kept here as an oracle."""
    B = FX.boundary
    bsk = {}
    for i in range(FX.dim - 1):
        gens = [f for f in B.faces if f in FX.skeleton(i + 1).faces]
        if gens:
            bsk[i] = gens
    return make_filtered(B, bsk, None, None, FX.classical)


def test_link_and_boundary_filtrations_match_the_old_loops(
    entries, sigma_t2_carriers, monkeypatch
):
    spaces = [FX for entry in entries.values() for FX in entry.stratifications]
    with_boundary = sigma_t2_carriers + cones_with_boundary(entries)
    for FX in spaces + with_boundary:
        for s in FX.complex.faces:
            L = link(FX.complex, s)
            assert _restrict_to_skeleta(FX, L, s) == _old_link_filtration(FX, L, s)
    # The validator hands its boundary filtration to its last recursive call.
    validate = strat.validate_stratified_pseudomanifold
    seen = []

    def recording(FX, mode="closed", _depth=0):
        seen.append((FX, _depth))
        return validate(FX, mode, _depth)

    monkeypatch.setattr(strat, "validate_stratified_pseudomanifold", recording)
    cylinders = [cylinder(FX).Y for FX in spaces[:4]]  # over S¹, S² (twice) and S³
    for FX in cones_with_boundary(entries) + cylinders:
        seen.clear()
        assert validate(FX, "with-boundary").passed
        assert [F for F, d in seen if d == 1][-1] == _old_boundary_filtration(FX)


def test_subdivide_filtered_keeps_every_skeleton_and_the_boundary(sigma_t2_carriers):
    # The 3-dimensional cylinder over Σ S¹ has skeleta of dimension [-1, 1, 1]
    # and a 2-dimensional boundary.  A chain of faces lies in X^j, or in ∂X,
    # exactly when every face in it does.
    Y = cylinder(catalog.get("Sigma-S1").stratifications[0]).Y
    for FX in (Y, sigma_t2_carriers[0]):
        sub, prov = subdivide_filtered(FX)

        def chains_in(A):
            return {c for c in sub.complex.faces if all(prov[v] in A for v in c)}

        for j in range(FX.dim):
            assert sub.skeleton(j).faces == chains_in(FX.skeleton(j)), j
        assert sub.boundary.faces == chains_in(FX.boundary)
    sub, _prov = subdivide_filtered(Y)
    assert [sub.skeleton(j).dim for j in range(3)] == [-1, 1, 1]
    assert sub.boundary.dim == 2
    assert validate_stratified_pseudomanifold(Y, "with-boundary").passed
    assert validate_stratified_pseudomanifold(sub, "with-boundary").passed
    for p in (lower_middle(3), upper_middle(3)):
        assert intersection_homology(sub, p, QQ) == intersection_homology(Y, p, QQ)


# ---------------------------------------------------------------------------
# Collapse-first recognition against the homology-only routines


def _sphere_by_homology(K, flag):
    """`sphere_like` as it was before collapses, kept here as an oracle."""
    if K.is_empty():
        return True
    d = K.dim
    if d == 0:
        return len(K.vertices) == 2
    if d == 1:
        return strat.is_circle(K)
    if d == 2:
        return strat._surface_type(K) == (True, 2)
    if not strat._is_closed_pseudo(K) or connected_components(K) != 1:
        return False
    if K.euler_characteristic() != (2 if d % 2 == 0 else 0):
        return False
    flag.heuristic = True
    want = [HomologyGroup(1)] + [HomologyGroup(0)] * (d - 1) + [HomologyGroup(1)]
    return homology(K, ZZ) == want


def _ball_by_homology(K, flag):
    """`ball_like` as it was before collapses, kept here as an oracle."""
    if K.is_empty():
        return False
    if set(K.vertices).intersection(*map(set, K.facets)):
        return True
    if connected_components(K) != 1 or K.euler_characteristic() != 1:
        return False
    groups = homology(K, ZZ, reduced=True)
    if K.dim > 2:
        flag.heuristic = True
    return all(g == HomologyGroup(0) for g in groups)


def _distinct_links(K, faces):
    out = {}
    for f in faces:
        L = link(K, f)
        out.setdefault(L.facets, L)
    return list(out.values())


def _sigma_t3_pole_links():
    """Links of the faces on the pole arcs of the Σ T³ bordism carrier.  Among
    them are closed links (T³ and Σ T³) on which the greedy collapse gets
    stuck, so recognition falls back to homology."""
    Y = bordism_to_intrinsic(catalog.get("Sigma-T3").stratifications[0]).Y
    return _distinct_links(Y.complex, Y.skeleton(1).faces)


def test_recognition_matches_the_homology_only_routines(entries, sigma_t2_carriers):
    links = []
    for entry in entries.values():
        for FX in entry.stratifications:
            links += _distinct_links(FX.complex, FX.complex.faces)
            links += [stratum_link(FX, S).complex for S in strata(FX)]
    for Y in sigma_t2_carriers:
        links += _distinct_links(Y.complex, Y.complex.faces)
    pole_links = _sigma_t3_pole_links()
    stuck = [
        L for L in pole_links
        if strat._is_closed_pseudo(L) and not collapses_to_point(L, min(L.facets))
    ]
    assert stuck, "no link exercises the homology fallback"
    flagged = {"sphere": 0, "ball": 0}
    for L in links + pole_links:
        for name, fast, slow in (
            ("sphere", sphere_like, _sphere_by_homology),
            ("ball", ball_like, _ball_by_homology),
        ):
            got, want = _Flag(), _Flag()
            assert fast(L, got) == slow(L, want), (name, sorted(L.facets))
            assert got.heuristic == want.heuristic, (name, sorted(L.facets))
            flagged[name] += want.heuristic
    # Both routines met links above dimension 2, where the flag is set.
    assert flagged["sphere"] and flagged["ball"]


def test_sphere_like_settles_spheres_by_collapse(entries, monkeypatch):
    def no_homology(*args, **kwargs):
        raise AssertionError("homology was computed")

    monkeypatch.setattr(strat.algebra, "homology", no_homology)
    raw = sphere_like.__wrapped__  # past the memo
    for K in (entries["S3"].complex, entries["S4"].complex, octahedral_sphere(5)):
        flag = _Flag()
        assert raw(K, flag) and flag.heuristic
    # A stacked 3-ball: five tetrahedra in a row, with no common vertex.
    B3 = build_complex([tuple(range(i, i + 4)) for i in range(5)])
    flag = _Flag()
    assert ball_like.__wrapped__(B3, flag) and flag.heuristic


def test_dunce_hat_is_a_ball_by_the_homology_fallback(monkeypatch):
    """The dunce hat has no free edge, so `collapses_to_point` is False; it is
    contractible, so `ball_like` is True through the homology fallback, with
    the flag unset because it is 2-dimensional."""
    D = dunce_hat()
    assert not collapses_to_point(D)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return homology(*args, **kwargs)

    monkeypatch.setattr(strat.algebra, "homology", counting)
    flag = _Flag()
    assert ball_like.__wrapped__(D, flag)  # past the memo
    assert not flag.heuristic
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Recognition memoized per shape

RECOGNISERS = (sphere_like, ball_like, complex_invariant)


def _raw_answers(K):
    """The value and flag of each recogniser's raw routine on K."""
    out = []
    for recognise in RECOGNISERS:
        flag = _Flag()
        out.append((recognise.__wrapped__(K, flag), flag.heuristic))
    return out


def _relabelled(K, labels):
    """K with its vertices, in order, renamed to `labels`."""
    return K.relabel(dict(zip(K.vertices, labels)))


@st.composite
def relabelled_complexes(draw):
    nverts = draw(st.integers(1, 8))
    simplices = st.lists(st.integers(0, nverts - 1), min_size=1, max_size=5, unique=True)
    K = build_complex(draw(st.lists(simplices, min_size=1, max_size=10)))
    n = len(K.vertices)
    labels = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    return K, labels


@given(relabelled_complexes())
@settings(max_examples=150, deadline=None)
def test_raw_recognition_ignores_the_labels(case):
    K, labels = case
    assert _raw_answers(_relabelled(K, labels)) == _raw_answers(K)


def test_raw_recognition_of_catalog_links_ignores_the_labels(entries):
    rng = random.Random(10)
    links = {}
    for entry in entries.values():
        for FX in entry.stratifications:
            for L in _distinct_links(FX.complex, FX.complex.faces):
                links.setdefault(strat._shape(L), L)
    assert any(L.dim >= 3 for L in links.values())
    for L in links.values():
        labels = rng.sample(range(3 * len(L.vertices) + 5), len(L.vertices))
        assert _raw_answers(_relabelled(L, labels)) == _raw_answers(L), sorted(L.facets)


def test_a_monotone_relabelling_is_answered_from_the_memo(entries, monkeypatch):
    # Every answer here is above dimension 2, so each one is flagged, and so
    # must each replay be.
    S3 = entries["S3"].complex
    B3 = build_complex([tuple(range(i, i + 4)) for i in range(5)])
    for recognise, K in ((sphere_like, S3), (ball_like, B3), (complex_invariant, S3)):
        first = _Flag()
        answer = recognise(K, first)
        assert first.heuristic
        calls = record_raw_calls(monkeypatch, recognise)
        again = _Flag()
        assert recognise(_relabelled(K, [3 * v + 1000 for v in K.vertices]), again) == answer
        assert again.heuristic and calls == []


@st.composite
def complexes_on_one_vertex_set(draw):
    nverts = draw(st.integers(1, 6))
    simplices = st.lists(st.integers(0, nverts - 1), min_size=1, max_size=4, unique=True)
    points = [(v,) for v in range(nverts)]
    return [
        build_complex(draw(st.lists(simplices, max_size=6)) + points) for _ in range(2)
    ]


@given(complexes_on_one_vertex_set())
@settings(max_examples=200, deadline=None)
def test_shapes_tell_apart_complexes_on_one_vertex_set(pair):
    K1, K2 = pair
    assert (strat._shape(K1) == strat._shape(K2)) == (K1.facets == K2.facets)
    if not isomorphic(K1, K2):
        assert strat._shape(K1) != strat._shape(K2)


def test_the_empty_complex_gets_the_raw_answers():
    E = build_complex([], empty_ok=True)
    assert E == SimplicialComplex(frozenset()) == strat.EMPTY and E.dim == -1
    answers = []
    for recognise in RECOGNISERS:
        flag = _Flag()
        answers.append((recognise(E, flag), flag.heuristic))
    assert answers == _raw_answers(E)


def _klein_bottle(n=4):
    """An n × n grid whose columns wrap straight and whose rows wrap with a flip."""

    def v(i, j):
        if j == n:
            i, j = (-i) % n, 0
        return (i % n) * n + j

    facets = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            facets += [(a, b, d), (a, c, d)]
    return build_complex(facets)


def test_sphere_like_in_dimension_two_is_the_surface_test(entries, sigma_t2_carriers):
    S2 = entries["S2"].complex
    # two 2-spheres glued at the vertex 0
    wedge = build_complex(list(S2.facets) + list(itertools.combinations((0, 4, 5, 6), 3)))
    klein = _klein_bottle()
    assert strat._surface_type(klein) == (False, 0)
    assert wedge.euler_characteristic() == 3 and strat._surface_type(wedge) is None
    surfaces = [S2, entries["RP2"].complex, entries["T2"].complex, klein, wedge]
    spaces = [FX.complex for entry in entries.values() for FX in entry.stratifications]
    for K in spaces + [Y.complex for Y in sigma_t2_carriers]:
        surfaces += [L for L in _distinct_links(K, K.faces) if L.dim == 2]
    assert len(surfaces) > 100
    for L in surfaces:
        assert sphere_like.__wrapped__(L, _Flag()) == (strat._surface_type(L) == (True, 2))


def _failing_details(rep):
    return [(c.clause, c.detail) for c in rep.clauses if not c.passed]


def test_collar_clause_reuses_clause_e_only_for_links_in_the_carrier():
    # A disk and a cone on a circle meeting at the boundary vertex 0: the link
    # of 0 is an arc and a circle, so (e) fails there, and (g) reads the
    # verdict (e) recorded.
    K = build_complex([(0, 1, 2), (0, 3, 4), (0, 4, 5), (0, 3, 5)])
    rep = validate_stratified_pseudomanifold(
        make_filtered(K, {}, boundary_subcomplex(K).facets), "with-boundary"
    )
    assert _failing_details(rep) == [
        ("e", "stratum link of (0,) is not a 1-sphere"),
        ("g", "link of boundary face (0,) is not a cone"),
    ]
    assert not rep.heuristic
    # A 3-ball coned from c = 4 with the arc 0–c–1 as a 1-stratum, and a
    # 3-sphere through the boundary vertex 0.  In X¹ the link of 0 is a point,
    # so (e) passes; in the carrier it is a disk and a 2-sphere, so (g) fails.
    K = build_complex(
        [f + (4,) for f in itertools.combinations(range(4), 3)]
        + list(itertools.combinations((0, 10, 11, 12, 13), 4))
    )
    FX = make_filtered(K, {1: [(0, 4), (1, 4)]}, boundary_subcomplex(K).facets)
    rep = validate_stratified_pseudomanifold(FX, "with-boundary")
    assert _failing_details(rep) == [("g", "link of boundary face (0,) is not a cone")]


def test_a_boundary_must_miss_the_zero_skeleton():
    # An arc with its end points as 0-strata has no collared boundary.
    FX = make_filtered(build_complex([(3, 5)]), {0: [(3,), (5,)]}, [(3,), (5,)], classical=False)
    rep = validate_stratified_pseudomanifold(FX, "with-boundary")
    assert _failing_details(rep) == [("g", "boundary face (3,) lies in X^0")]
    assert validate_stratified_pseudomanifold(
        make_filtered(FX.complex, {}, [(3,), (5,)]), "with-boundary"
    ).passed


def test_strata_are_computed_once_per_filtration(entries):
    FX = entries["Sigma-T2"].stratifications[0]
    first = strata(FX)
    first.clear()
    assert strata(FX) == list(FX.strata) and len(FX.strata) == 3
    assert FX.strata is FX.strata
    edge = FX.complex.subcomplex([min(FX.complex.faces_of_dim(1))])
    bad = FilteredComplex(FX.complex, (edge, strat.EMPTY, strat.EMPTY, FX.complex))
    for _ in range(2):
        with pytest.raises(MalformedFiltration):
            strata(bad)


def test_a_top_skeleton_that_is_not_the_carrier_is_malformed():
    S2 = catalog.get("S2").complex
    triangle = S2.subcomplex([min(S2.facets)])
    for skeleta in ((strat.EMPTY, strat.EMPTY, triangle), (strat.EMPTY, strat.EMPTY, S2, triangle)):
        with pytest.raises(MalformedFiltration, match="top dimension is not the carrier"):
            FilteredComplex(S2, skeleta)
    # An equal copy of the carrier is the carrier.
    FX = FilteredComplex(S2, (strat.EMPTY, strat.EMPTY, build_complex(S2.facets)))
    assert validate_stratified_pseudomanifold(FX).passed


def test_a_stratum_without_a_top_simplex_has_no_link():
    # X¹ = {0} on S²: the 1-stratum is one vertex, and clause (a) holds, so no
    # subdivision could give it an edge.
    FX = make_filtered(catalog.get("S2").complex, {1: [(0,)]}, classical=False)
    S = next(S for S in strata(FX) if S.dim == 1)
    with pytest.raises(NoTopSimplex, match="stratum of dim 1 has no top simplex"):
        stratum_link(FX, S)
    rep = validate_stratified_pseudomanifold(FX)
    assert rep.clause("a").passed
    assert rep.clause("f").detail == "stratum of dim 1 has no top simplex"


def test_clause_f_names_the_clauses_a_stratum_link_fails():
    # The suspended figure-eight with both poles in X⁰: each pole's link is
    # the figure-eight, whose wedge vertex lies in four edges.
    eight = build_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    north, south = suspension_poles(eight)
    FX = make_filtered(suspension(eight), {0: [(north,), (south,)]})
    rep = validate_stratified_pseudomanifold(FX)
    assert rep.clause("a").passed and rep.clause("d").passed
    assert rep.clause("f").detail == "link of stratum dim 0 fails clauses ['e']"


# ---------------------------------------------------------------------------
# Strata from minimal open faces, and clause (e) without the links the ridge
# degrees settle, against the routines they replaced


def _every_face_stratum_links(FX, all_strata, boundary, flag):
    """Clause (e) as the validator ran it with a link for every face, kept
    here as an oracle for `strat._check_stratum_links`."""
    K = FX.complex
    collar = {}
    for S in all_strata:
        Xj = FX.skeleton(S.dim)
        in_carrier = Xj == K
        for s in sorted(S.simplices):
            L = link(Xj, s)
            want = S.dim - (len(s) - 1) - 1
            if want < 0:
                ok = L.is_empty()
            elif s in boundary.faces:
                ok = ball_like(L, flag)
                if in_carrier:
                    collar[s] = ok
            else:
                ok = sphere_like(L, flag) and L.dim == want
            if not ok:
                return False, f"stratum link of {s} is not a {want}-sphere", collar
    return True, "", collar


def _validation_cases(entries, carriers):
    """(filtration, mode) for every catalog stratification, the given
    bordism carriers, the cones with boundary and the criterion-1 mutations."""
    from test_acceptance import _mutations

    closed = [(FX, "closed") for entry in entries.values() for FX in entry.stratifications]
    with_boundary = [(FX, "with-boundary") for FX in carriers + cones_with_boundary(entries)]
    return closed + with_boundary + [(FX, mode) for _name, FX, mode, _c in _mutations()]


def test_strata_match_the_union_find_oracle(entries, sigma_t2_carriers, sigma_t3_carrier):
    for FX, _mode in _validation_cases(entries, sigma_t2_carriers + [sigma_t3_carrier]):
        try:
            expected = _union_find_strata(FX)
        except MalformedFiltration:
            with pytest.raises(MalformedFiltration):
                strata(FX)
            continue
        assert FX.strata == expected


@st.composite
def pure_filtered_complexes(draw):
    """A pure complex, or its boundary (a mod-2 cycle, often closed),
    with random skeleta that pass clause (a), and its free ridges as the
    designated boundary."""
    d = draw(st.integers(1, 4))
    facet = st.lists(st.integers(0, 6), min_size=d + 1, max_size=d + 1, unique=True)
    K = build_complex(draw(st.lists(facet, min_size=1, max_size=8)))
    if draw(st.booleans()) and not boundary_subcomplex(K).is_empty():
        K = boundary_subcomplex(K)
    n, faces = K.dim, sorted(K.faces)
    classical = draw(st.booleans())
    skeleta = {}
    for j in range(n - 1 if classical else n):
        low = [f for f in faces if len(f) <= j + 1]
        skeleta[j] = draw(st.lists(st.sampled_from(low), max_size=3))
    return make_filtered(K, skeleta, boundary_subcomplex(K).facets, None, classical)


def _compare_clause_e(FX, mode, calls):
    """Validate FX with the every-face oracle as clause (e), then with the
    validator's own clause (e) checked against the oracle on each call; the
    reports must be equal.  Each call appends (oracle verdict, strata,
    boundary) to calls."""
    skipping = strat._check_stratum_links

    def both(FX, all_strata, boundary, flag):
        old_flag, new_flag = _Flag(), _Flag()
        old = _every_face_stratum_links(FX, all_strata, boundary, old_flag)
        new = skipping(FX, all_strata, boundary, new_flag)
        assert (new[:2], new_flag.heuristic) == (old[:2], old_flag.heuristic)
        # A failure stops the old loop before it records every collar verdict.
        assert new[2] == old[2] if old[0] else old[2].items() <= new[2].items()
        calls.append((old[0], all_strata, boundary))
        flag.heuristic = flag.heuristic or new_flag.heuristic
        return new

    with mock.patch.object(strat, "_check_stratum_links", _every_face_stratum_links):
        expected = validate_stratified_pseudomanifold(FX, mode)
    with mock.patch.object(strat, "_check_stratum_links", both):
        assert validate_stratified_pseudomanifold(FX, mode) == expected


def test_clause_e_matches_the_link_of_every_face(
    entries, sigma_t2_carriers, sigma_t3_carrier
):
    calls = []
    for FX, mode in _validation_cases(entries, sigma_t2_carriers + [sigma_t3_carrier]):
        _compare_clause_e(FX, mode, calls)
    assert {ok for ok, _strata, _boundary in calls} == {True, False}


@given(pure_filtered_complexes(), st.sampled_from(["closed", "with-boundary"]))
@settings(max_examples=300, deadline=None)
def test_clause_e_matches_the_link_of_every_face_on_hypothesis_complexes(FX, mode):
    calls = []
    _compare_clause_e(FX, mode, calls)
    for ok, all_strata, boundary in calls:
        event(f"clause (e) passed: {ok}")
        for S in all_strata:
            for s in S.simplices:
                if not S.regular and len(s) == S.dim + 1:
                    on = "on" if s in boundary.faces else "off"
                    event(f"a singular top face {on} the boundary")


# ---------------------------------------------------------------------------
# Clause (c) and is_circle, against the computations they replaced


def _regular_part_misses(FX):
    """The faces of the carrier outside the closure of the facets not in
    X^{n−1}: clause (c) as the validator computed it, kept here as an oracle."""
    K = FX.complex
    sing_faces = FX.skeleton(FX.dim - 1).faces
    regular = SimplicialComplex(frozenset(f for f in K.facets if f not in sing_faces))
    return K.faces - regular.faces


def _check_clause_c(FX, mode):
    """Where (a) and (b) pass on a non-empty carrier, the regular part is
    dense and the report's clause (c) passes with no detail."""
    rep = validate_stratified_pseudomanifold(FX, mode)
    if FX.complex.is_empty() or not (rep.clause("a").passed and rep.clause("b").passed):
        return False
    assert not _regular_part_misses(FX)
    assert rep.clause("c") == ClauseResult("c", True, "")
    return True


def test_clause_c_matches_the_density_of_the_regular_part(
    entries, sigma_t2_carriers, sigma_t3_carrier
):
    cases = _validation_cases(entries, sigma_t2_carriers + [sigma_t3_carrier])
    checked = [_check_clause_c(FX, mode) for FX, mode in cases]
    assert True in checked and False in checked


@given(st.one_of(filtered_complexes(), pure_filtered_complexes()))
@settings(max_examples=150, deadline=None)
def test_clause_c_matches_the_density_of_the_regular_part_on_hypothesis_complexes(FX):
    for mode in ("closed", "with-boundary"):
        _check_clause_c(FX, mode)


def _degree_count_is_circle(K):
    """is_circle as it counted vertex degrees before it became the closed
    pseudomanifold test in dimension 1, kept here as an oracle."""
    if K.dim != 1 or not K.is_pure:
        return False
    deg = {}
    for e in K.facets:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    return all(d == 2 for d in deg.values()) and connected_components(K) == 1


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=3, max_size=5, unique=True), min_size=1, max_size=2
    ),
    st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=2, unique=True), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_is_circle_matches_the_degree_count(cycles, extra):
    # One or two cycles through the drawn vertices, plus a few more vertices and edges.
    K = build_complex([(a, b) for c in cycles for a, b in zip(c, c[1:] + c[:1])] + extra)
    assert is_circle(K) == _degree_count_is_circle(K)


def test_is_circle_matches_the_degree_count_on_catalog_surface_links(entries):
    verdicts = [
        (is_circle(L), _degree_count_is_circle(L))
        for entry in entries.values()
        if entry.complex.dim == 2
        for L in _distinct_links(entry.complex, [(v,) for v in entry.complex.vertices])
    ]
    assert len(verdicts) > 10 and all(new == old is True for new, old in verdicts)
