"""Intersection homology: perversities, allowability, and the classical
cone / suspension formulas as independent oracles.

The dense-rank cross-check recomputes the field-coefficient rank formula
with Fraction arithmetic, independent of the sparse Smith machinery.
"""

from fractions import Fraction

import pytest

from conftest import cones_with_boundary, subdivide_filtered
from stratabord import algebra, catalog
from stratabord.algebra import GF, QQ, ZZ
from stratabord.complexes import build_complex, cone, suspension, suspension_poles
from stratabord.errors import NotValidated, PerversityViolation
from stratabord.ih import (
    Perversity,
    allowable_simplices,
    ensure_full,
    ih_torsion,
    intersection_homology,
    is_full,
    lower_middle,
    top_perversity,
    upper_middle,
    zero_perversity,
)
from stratabord.strat import make_filtered, trivial_filtration


# ---------------------------------------------------------------------------
# Perversities


def test_middle_perversities_values():
    m = lower_middle(6)
    n = upper_middle(6)
    assert [m.value(k) for k in range(2, 7)] == [0, 0, 1, 1, 2]
    assert [n.value(k) for k in range(2, 7)] == [0, 1, 1, 2, 2]
    assert zero_perversity(5).values == (0, 0, 0, 0)
    assert top_perversity(5).values == (0, 1, 2, 3)


def test_perversity_constraints():
    with pytest.raises(PerversityViolation):
        Perversity((1,))
    with pytest.raises(PerversityViolation):
        Perversity((0, 2))
    with pytest.raises(PerversityViolation):
        Perversity((0, 1, 0))
    with pytest.raises(PerversityViolation):
        lower_middle(1)
    p = lower_middle(4)
    with pytest.raises(PerversityViolation):
        p.value(1)
    with pytest.raises(PerversityViolation):
        p.value(9)


# ---------------------------------------------------------------------------
# Fullness and allowability


def test_pole_filtration_of_suspension_is_full():
    FX = catalog.get("Sigma-T2").stratifications[0]
    assert is_full(FX)
    assert ensure_full(FX) is FX


def test_refined_filtration_needs_subdivision():
    FX = catalog.get("Sigma-T2").stratifications[1]
    assert not is_full(FX)  # an edge joins the marked regular vertex to others
    full = ensure_full(FX)
    assert is_full(full)
    assert full.complex.euler_characteristic() == FX.complex.euler_characteristic()


def _old_is_full(FX):
    """Fullness as `is_full` tested it with a loop over the skeleta, kept
    here as an oracle."""
    for j in range(FX.dim):
        sk = FX.skeleton(j)
        vs = set(sk.vertices)
        if any(f not in sk.faces and set(f) <= vs for f in FX.complex.faces):
            return False
    return True


def test_is_full_matches_the_old_loop(entries, sigma_t2_carriers):
    spaces = [FX for entry in entries.values() for FX in entry.stratifications]
    spaces += sigma_t2_carriers + cones_with_boundary(entries)
    # Both ends of the edge 01 lie in X^0, the edge itself only in X^1.
    spaces.append(make_filtered(entries["S2"].complex, {0: [(0,), (1,)], 1: [(0, 1)]}))
    verdicts = [is_full(FX) for FX in spaces]
    assert verdicts == [_old_is_full(FX) for FX in spaces]
    assert True in verdicts and False in verdicts


def test_allowability_monotone_in_perversity():
    FX = catalog.get("Sigma-T2").stratifications[0]
    n = FX.dim
    lo = allowable_simplices(FX, zero_perversity(n))
    mid = allowable_simplices(FX, lower_middle(n))
    hi = allowable_simplices(FX, top_perversity(n))
    for i in range(n + 1):
        assert set(lo[i]) <= set(mid[i]) <= set(hi[i])


def test_simplices_missing_the_singular_set_are_always_allowable():
    FX = catalog.get("Sigma-T2").stratifications[0]
    allow = allowable_simplices(FX, zero_perversity(FX.dim))
    sing_verts = set(FX.singular_set.vertices)
    for i, bucket in enumerate(allow):
        for s in FX.complex.faces_of_dim(i):
            if not (set(s) & sing_verts):
                assert s in bucket


# ---------------------------------------------------------------------------
# Dense-rank oracle for the field formula


def _dense_rank(rows):
    A = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(A[0]) if A else 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][j] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(len(A)):
            if i != rank and A[i][j] != 0:
                f = A[i][j] / A[rank][j]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def _dense_boundary(K, i, cols, rows):
    ridx = {s: j for j, s in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for c, s in enumerate(cols):
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            if face in ridx:
                out[ridx[face]][c] = (-1) ** j
    return out


def brute_ih_ranks_q(FX, p):
    if not is_full(FX):
        FX, _prov = subdivide_filtered(FX)  # the barycentric oracle
    K = FX.complex
    n = FX.dim
    allow = allowable_simplices(FX, p)
    allow_sets = [set(a) for a in allow]
    full_rank = [0] * (n + 2)
    bad_rank = [0] * (n + 2)
    for i in range(1, n + 1):
        cols = allow[i]
        if not cols:
            continue
        rows = K.faces_of_dim(i - 1)
        full_rank[i] = _dense_rank(_dense_boundary(K, i, cols, rows)) if rows else 0
        bad = [s for s in rows if s not in allow_sets[i - 1]]
        if bad:
            bad_rank[i] = _dense_rank(_dense_boundary(K, i, cols, bad))
    return [
        len(allow[i]) - full_rank[i] - full_rank[i + 1] + bad_rank[i + 1]
        for i in range(n + 1)
    ]


def test_field_ranks_match_dense_oracle():
    for name in ("Sigma-T2", "Sigma-RP2"):
        FX = catalog.get(name).stratifications[0]
        got = [g.rank for g in intersection_homology(FX, lower_middle(FX.dim), QQ)]
        want = brute_ih_ranks_q(FX, lower_middle(FX.dim))
        assert got == want, name


def test_integral_ranks_agree_with_rational_ranks():
    for name in ("Sigma-T2", "Sigma-RP2", "Sigma-S1"):
        FX = catalog.get(name).stratifications[0]
        p = lower_middle(max(FX.dim, 2))
        hz = intersection_homology(FX, p, ZZ)
        hq = intersection_homology(FX, p, QQ)
        assert [g.rank for g in hz] == [g.rank for g in hq], name


# ---------------------------------------------------------------------------
# Cone and suspension formulas (classical oracles)


def test_cone_truncation_formula():
    # I^p̄H_i(c̄L) = I H_i(L) below dim L − p̄(dim L + 1), zero at and above
    from stratabord.algebra import homology

    for base in ("T2", "RP2"):
        L = catalog.get(base).complex
        C = cone(L)
        apex = max(C.vertices)
        FX = make_filtered(C, {0: [(apex,)]}, boundary=list(L.facets))
        n = FX.dim
        for p in (zero_perversity(n), lower_middle(n), top_perversity(n)):
            cutoff = L.dim - p.value(n)
            got = intersection_homology(FX, p, QQ)
            hl = homology(L, QQ)
            for i in range(n + 1):
                if i < cutoff:
                    assert got[i].rank == hl[i].rank, (base, p.name, i)
                else:
                    assert got[i].rank == 0, (base, p.name, i)


def test_suspension_middle_vanishing_small():
    # even-dimensional suspension: middle lower-middle IH over Q is trivial
    for base in ("S1", "RP3"):
        B = catalog.get(base).complex
        SK = suspension(B)
        north, south = suspension_poles(B)
        FX = make_filtered(SK, {0: [(north,), (south,)]})
        n = FX.dim
        assert n % 2 == 0
        groups = intersection_homology(FX, lower_middle(n), QQ)
        assert groups[n // 2].rank == 0, base


def test_suspension_ih_of_rp2_z_vs_f2_differ():
    FX = catalog.get("Sigma-RP2").stratifications[0]
    p = lower_middle(3)
    hz = intersection_homology(FX, p, ZZ)
    h2 = intersection_homology(FX, p, GF(2))
    assert [g.rank for g in hz] != [g.rank for g in h2]


def test_ih_torsion_of_suspended_projective_space():
    FX = catalog.get("Sigma-RP3").stratifications[0]
    assert ih_torsion(FX, lower_middle(4), 1) == (2,)


def test_stratification_independence_of_rational_ranks():
    for name in ("Sigma-T2", "Sigma-S1", "S3"):
        e = catalog.get(name)
        p = lower_middle(max(e.complex.dim, 2))
        tables = [
            [g.rank for g in intersection_homology(FX, p, QQ)]
            for FX in e.stratifications
        ]
        assert all(t == tables[0] for t in tables), name


def test_top_perversity_recovers_ordinary_rational_homology():
    from stratabord.algebra import homology

    FX = catalog.get("Sigma-T2").stratifications[0]
    got = [g.rank for g in intersection_homology(FX, top_perversity(3), QQ)]
    want = [g.rank for g in homology(FX.complex, QQ)]
    assert got == want


def test_ih_rejects_impure_carrier():
    K = build_complex([(0, 1, 2), (3, 4)])
    with pytest.raises(NotValidated):
        intersection_homology(trivial_filtration(K), lower_middle(2), QQ)


def test_ih_requires_long_enough_perversity():
    FX = catalog.get("Sigma-T2").stratifications[0]
    with pytest.raises(PerversityViolation):
        intersection_homology(FX, Perversity((0,)), QQ)


# ---------------------------------------------------------------------------
# Fullness by local stellar subdivision


PERVERSITIES = (zero_perversity, lower_middle, upper_middle, top_perversity)


def _ih_tables(FX, ring):
    n = max(FX.dim, 2)
    return [intersection_homology(FX, p(n), ring) for p in PERVERSITIES]


def test_local_subdivision_matches_barycentric_oracle():
    for name in ("Sigma-S1", "Sigma-T2", "Sigma-RP2"):
        FX = catalog.get(name).stratifications[1]
        assert not is_full(FX)
        local = ensure_full(FX)
        bary, _prov = subdivide_filtered(FX)
        assert is_full(local) and is_full(bary)
        assert len(local.complex.faces) < len(bary.complex.faces)
        assert local.orientation is None
        for ring in (ZZ, QQ, GF(2)):
            assert _ih_tables(local, ring) == _ih_tables(bary, ring), (name, ring)


def test_local_subdivision_keeps_the_tables_of_stratification_0(entries):
    for name, e in entries.items():
        if not name.startswith("Sigma-"):
            continue
        first, *rest = e.stratifications
        for FX in rest:
            assert is_full(ensure_full(FX)), name
            for ring in (ZZ, QQ):
                assert _ih_tables(FX, ring) == _ih_tables(first, ring), (name, ring)


def test_local_subdivision_of_a_carrier_with_boundary(sigma_t2_carriers):
    Y = sigma_t2_carriers[1]
    assert not is_full(Y)
    local = ensure_full(Y)
    assert is_full(local)
    bary, _prov = subdivide_filtered(Y)
    assert local.boundary.euler_characteristic() == Y.boundary.euler_characteristic()
    for j in range(Y.dim):
        assert local.skeleton(j).euler_characteristic() == Y.skeleton(j).euler_characteristic()
    p = lower_middle(Y.dim)
    assert intersection_homology(local, p, QQ) == intersection_homology(bary, p, QQ)


def test_star_of_a_simplex_in_a_skeleton():
    # The edge 01 of the octahedron lies in X^1 with both ends in X^0: its
    # new vertex goes into X^1, and no face leaves X^1.
    S2 = catalog.get("S2").complex
    FX = make_filtered(S2, {0: [(0,), (1,)], 1: [(0, 1)]})
    assert not is_full(FX)
    out = ensure_full(FX)
    assert is_full(out)
    b = max(S2.vertices) + 1
    assert out.skeleton(0).facets == FX.skeleton(0).facets
    assert out.skeleton(1).facets == frozenset({(0, b), (1, b)})


# ---------------------------------------------------------------------------
# One elimination per degree, over every ring


def two_matrix_field_ranks(FX, p, ring):
    """The field ranks with M_i and its bad rows N_i each reduced in full."""
    K = FX.complex
    n = FX.dim
    allow = allowable_simplices(FX, p)
    full_rank = [0] * (n + 2)
    bad_rank = [0] * (n + 2)
    for i in range(1, n + 1):
        cols = allow[i]
        if not cols:
            continue
        full_rank[i] = algebra.rank_over(algebra.boundary_matrix(K, i, cols), ring)
        allowed = set(allow[i - 1])
        bad_rows = [s for s in K.faces_of_dim(i - 1) if s not in allowed]
        if bad_rows:
            N = algebra.boundary_matrix(K, i, cols, bad_rows)
            bad_rank[i] = algebra.rank_over(N, ring)
    return [
        len(allow[i]) - full_rank[i] - full_rank[i + 1] + bad_rank[i + 1]
        for i in range(n + 1)
    ]


def integral_groups(FX, p):
    """I^p̄H_*(FX; ℤ) as (rank, torsion) per degree, from a basis of IC_*.

    IC_i is the saturated kernel of the map to the non-allowable quotient;
    its boundary is solved in the basis of IC_{i−1} and the resulting chain
    complex goes to `homology_of_chain_complex`.
    """
    K = FX.complex
    n = FX.dim
    allow = allowable_simplices(FX, p)
    allow_sets = [set(a) for a in allow]
    bases = []
    for i in range(n + 1):
        cols = allow[i]
        if not cols:
            bases.append(algebra.SparseMatrix(0, 0, {}))
            continue
        bad_rows = (
            [s for s in K.faces_of_dim(i - 1) if s not in allow_sets[i - 1]]
            if i > 0
            else []
        )
        if bad_rows:
            N = algebra.boundary_matrix(K, i, cols, bad_rows)
            bases.append(algebra.kernel_basis(N))
        else:
            bases.append(algebra.identity_matrix(len(cols)))
    dims = [b.ncols for b in bases]
    boundaries = [None]
    for i in range(1, n + 1):
        if dims[i] == 0 or dims[i - 1] == 0:
            boundaries.append(None)
            continue
        D = algebra.boundary_matrix(K, i, allow[i], allow[i - 1])
        B = D.times(bases[i])
        boundaries.append(algebra.solve_exact(bases[i - 1], B))
    groups = algebra.homology_of_chain_complex(dims, boundaries, ZZ)
    return [(g.rank, g.torsion) for g in groups]


def _ih_test_spaces(entries, sigma_t2_carriers):
    spaces = [FX for e in entries.values() for FX in e.stratifications]
    return [ensure_full(FX) for FX in spaces + sigma_t2_carriers + cones_with_boundary(entries)]


def test_field_ranks_match_two_matrix_routine(entries, sigma_t2_carriers):
    for FX in _ih_test_spaces(entries, sigma_t2_carriers):
        n = max(FX.dim, 2)
        for p in PERVERSITIES:
            for ring in (QQ, GF(2)):
                got = [g.rank for g in intersection_homology(FX, p(n), ring)]
                assert got == two_matrix_field_ranks(FX, p(n), ring), (p.__name__, ring)


def test_integral_groups_match_kernel_basis_oracle(entries, sigma_t2_carriers):
    torsion = 0
    for FX in _ih_test_spaces(entries, sigma_t2_carriers):
        n = max(FX.dim, 2)
        for p in PERVERSITIES:
            got = [(g.rank, g.torsion) for g in intersection_homology(FX, p(n), ZZ)]
            assert got == integral_groups(FX, p(n)), p.__name__
            torsion += any(t for _r, t in got)
    assert torsion >= 16
