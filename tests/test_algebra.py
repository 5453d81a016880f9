"""Exact linear algebra: Smith form, ranks, kernels, homology.

Oracle: a dense, fraction-free Smith normal form written independently below,
plus hand-checkable golden values for small spaces.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from stratabord.algebra import (
    GF,
    QQ,
    HomologyGroup,
    SparseMatrix,
    ZZ,
    _eliminate,
    boundary_matrix,
    homology,
    homology_of_chain_complex,
    invariant_factors,
    kernel_basis,
    parse_ring,
    rank_over,
    smith_normal_form,
    solve_exact,
)
from stratabord.bordism import bordism_to_intrinsic
from stratabord.complexes import build_complex, suspension
from stratabord.errors import UnsupportedCoefficients
from test_properties import small_complexes


# ---------------------------------------------------------------------------
# Dense oracle


def dense_smith(rows):
    """Dense Smith normal form over ℤ by direct row/column reduction."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    top = 0
    while top < min(m, n):
        # find a nonzero pivot
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        A[top], A[i] = A[i], A[top]
        for row in A:
            row[top], row[j] = row[j], row[top]
        again = True
        while again:
            again = False
            for i in range(top + 1, m):
                if A[i][top] % A[top][top] != 0:
                    q = A[i][top] // A[top][top]
                    for j in range(n):
                        A[i][j] -= q * A[top][j]
                    A[top], A[i] = A[i], A[top]
                    again = True
            for i in range(top + 1, m):
                q = A[i][top] // A[top][top]
                for j in range(n):
                    A[i][j] -= q * A[top][j]
            for j in range(top + 1, n):
                if A[top][j] % A[top][top] != 0:
                    q = A[top][j] // A[top][top]
                    for row in A:
                        row[j] -= q * row[top]
                    for row in A:
                        row[top], row[j] = row[j], row[top]
                    again = True
            for j in range(top + 1, n):
                q = A[top][j] // A[top][top]
                for row in A:
                    row[j] -= q * row[top]
        diag.append(abs(A[top][top]))
        top += 1
    # enforce divisibility
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            import math

            g = math.gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, l
    return [d for d in diag if d != 0] + [0] * 0


def dense_rank_q(rows):
    A = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for j in range(cols):
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


def dense_rank_p(rows, p):
    """Rank over 𝔽ₚ: dense row echelon form of the residues."""
    A = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(A)) if A[i][j]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][j], p - 2, p)
        for i in range(rank + 1, len(A)):
            if A[i][j]:
                f = A[i][j] * inv
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def to_dense(M: SparseMatrix):
    return [
        [M.entries.get((i, j), 0) for j in range(M.ncols)] for i in range(M.nrows)
    ]


def random_matrix(rng, m, n, lo=-4, hi=4, density=0.6):
    entries = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    entries[(i, j)] = v
    return SparseMatrix(m, n, entries)


def unit_two_matrix(rng, m, n):
    """Sparse entries in {±1, ±2}: unit pivots with a non-unit residual."""
    entries = {
        (i, j): rng.choice((-2, -1, 1, 2))
        for i in range(m)
        for j in range(n)
        if rng.random() < 0.5
    }
    return SparseMatrix(m, n, entries)


# ---------------------------------------------------------------------------
# Smith form against the dense oracle


def test_smith_matches_dense_oracle_randomized():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(rng, m, n)
        got = [d for d in invariant_factors(M) if d != 0]
        want = dense_smith(to_dense(M))
        assert got == want


def test_smith_certificates_multiply_out():
    rng = random.Random(11)
    for _ in range(20):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        diag, U, V = smith_normal_form(M)
        D = U.times(M).times(V)
        assert D.entries == {(i, i): d for i, d in enumerate(diag) if d != 0}


def test_smith_divisibility_chain():
    rng = random.Random(13)
    for _ in range(30):
        M = random_matrix(rng, 5, 5, lo=-9, hi=9)
        diag = [d for d in invariant_factors(M) if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_known_smith_form():
    M = SparseMatrix(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 2})
    assert [d for d in invariant_factors(M) if d] == [2, 6]


# ---------------------------------------------------------------------------
# Unit-pivot fast path against the certified Smith form


def _assert_fast_path_matches_certified(K):
    for i in range(1, K.dim + 1):
        M = boundary_matrix(K, i)
        assert invariant_factors(M) == smith_normal_form(M)[0], i


def test_invariant_factors_match_certified_smith_on_catalog(entries):
    for name, e in entries.items():
        _assert_fast_path_matches_certified(e.complex)
    # ℝP² and ℝP³ carry a factor 2, which only the residual Smith form yields.
    for name in ("RP2", "RP3"):
        facs = invariant_factors(boundary_matrix(entries[name].complex, 2))
        assert facs.count(2) == 1 and facs[-1] == 2, name


def test_invariant_factors_match_certified_smith_on_bordism_carrier(entries):
    cert = bordism_to_intrinsic(entries["T3"].stratifications[0])
    _assert_fast_path_matches_certified(cert.Y.complex)


def test_invariant_factors_residual_handoff_randomized():
    # Entries in {±1, ±2} leave non-unit residuals for the Smith form.
    rng = random.Random(29)
    handed_off = 0
    for _ in range(200):
        M = unit_two_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        facs = invariant_factors(M)
        assert facs == smith_normal_form(M)[0]
        assert facs == dense_smith(to_dense(M))
        handed_off += bool(facs) and facs[-1] > 1
    assert handed_off >= 20


# ---------------------------------------------------------------------------
# Ranks over different rings


def test_rank_q_matches_dense_gauss():
    rng = random.Random(17)
    for _ in range(40):
        M = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank_over(M, QQ) == dense_rank_q(to_dense(M))


def test_rank_mod_p_drops_on_torsion():
    # diag(2): rank 1 over Q, rank 0 over F2, rank 1 over F3
    M = SparseMatrix(1, 1, {(0, 0): 2})
    assert rank_over(M, QQ) == 1
    assert rank_over(M, GF(2)) == 0
    assert rank_over(M, GF(3)) == 1
    # det = −5: full rank over Q, rank 1 over F5, with no ±1 entry to pivot on.
    M = SparseMatrix(2, 2, {(0, 0): 2, (0, 1): 3, (1, 0): 3, (1, 1): 2})
    assert rank_over(M, QQ) == 2
    assert rank_over(M, GF(5)) == 1


def test_rank_mod_p_matches_dense_gauss(entries):
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(40):
            # About half the entries are scaled by p, so they vanish mod p.
            M = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            M = SparseMatrix(
                M.nrows,
                M.ncols,
                {rc: v * p if rng.random() < 0.5 else v for rc, v in M.entries.items()},
            )
            assert rank_over(M, GF(p)) == dense_rank_p(to_dense(M), p), p
    for name, e in entries.items():
        for i in range(1, e.complex.dim + 1):
            M = boundary_matrix(e.complex, i)
            for p in (2, 3, 5):
                assert rank_over(M, GF(p)) == dense_rank_p(to_dense(M), p), (name, i, p)


def test_parse_ring():
    assert parse_ring("Z") is ZZ
    assert parse_ring("Q") is QQ
    assert parse_ring("F5").p == 5
    assert parse_ring("Z2").p == 2
    with pytest.raises(UnsupportedCoefficients):
        parse_ring("R")


# ---------------------------------------------------------------------------
# Kernel and exact solve


def test_kernel_basis_is_saturated():
    rng = random.Random(19)
    matrices = [random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)]
    matrices += [unit_two_matrix(rng, 8, 8) for _ in range(30)]
    for M in matrices:
        K = kernel_basis(M)
        # columns lie in the kernel
        assert not M.times(K).entries
        # saturation: the kernel basis has unit invariant factors
        assert all(d == 1 for d in invariant_factors(K) if d != 0)
        # dimension count over Q
        assert K.ncols == M.ncols - rank_over(M, QQ)


def test_solve_exact_roundtrip():
    rng = random.Random(23)

    def roundtrip(K, k):
        if rank_over(K, QQ) < K.ncols:
            return False
        X = random_matrix(rng, K.ncols, k, density=0.9)
        B = K.times(X)
        got = solve_exact(K, B)
        assert K.times(got).entries == B.entries
        return True

    for _ in range(20):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        roundtrip(random_matrix(rng, n + 2, n, density=0.9), k)
    solved = sum(roundtrip(unit_two_matrix(rng, 8, 8), rng.randint(1, 4)) for _ in range(30))
    assert solved >= 5


# ---------------------------------------------------------------------------
# Homology golden values


SPACES = {
    "S2": ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], [(1, ()), (0, ()), (1, ())]),
    "RP2": (
        [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        ],
        [(1, ()), (0, (2,)), (0, ())],
    ),
    "Klein": (None, [(1, ()), (1, (2,)), (0, ())]),
}


def klein_bottle():
    """Klein bottle from the standard 8-vertex triangulation."""
    tris = [
        (0, 1, 4), (1, 4, 5), (1, 2, 5), (2, 5, 6), (0, 2, 6), (0, 3, 6),
        (3, 4, 6), (4, 6, 7), (3, 4, 7), (3, 5, 7), (5, 7, 8), (3, 5, 8),
        (0, 3, 8), (0, 1, 8), (1, 7, 8), (1, 2, 7), (2, 6, 7), (2, 0, 9),
    ]
    # use the 9-vertex flat Klein bottle instead: rows identified with a flip
    verts = [(i, j) for i in range(3) for j in range(3)]
    idx = {v: k for k, v in enumerate(verts)}

    def wrap(i, j):
        i2, j2 = i % 3, j
        if j >= 3 or j < 0:
            j2 = j % 3
            i2 = (-i) % 3 if (j // 3) % 2 else i % 3
        return idx[(i2, j2)]

    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = wrap(i, j), wrap(i + 1, j), wrap(i, j + 1), wrap(i + 1, j + 1)
            tris.append(tuple(sorted((a, b, d))))
            tris.append(tuple(sorted((a, c, d))))
    return build_complex(tris)


def test_homology_sphere_torus_projective_plane():
    for name, (facets, table) in SPACES.items():
        K = klein_bottle() if facets is None else build_complex(facets)
        got = [(g.rank, g.torsion) for g in homology(K, ZZ)]
        assert got == table, name


def test_homology_over_fields_universal_coefficients():
    # rank over F_p = rank over Q + #{invariant factors divisible by p in i and i−1}
    for name, (facets, _table) in SPACES.items():
        K = klein_bottle() if facets is None else build_complex(facets)
        hz = homology(K, ZZ)
        for p in (2, 3, 5):
            hp = homology(K, GF(p))
            for i, g in enumerate(hp):
                tors_i = sum(1 for d in hz[i].torsion if d % p == 0)
                tors_below = (
                    sum(1 for d in hz[i - 1].torsion if d % p == 0) if i else 0
                )
                assert g.rank == hz[i].rank + tors_i + tors_below, (name, p, i)


def test_reduced_homology_of_point_and_sphere():
    pt = build_complex([(0,)])
    assert [(g.rank, g.torsion) for g in homology(pt, ZZ, reduced=True)] == [(0, ())]
    S1 = build_complex([(0, 1), (1, 2), (0, 2)])
    assert [g.rank for g in homology(S1, ZZ, reduced=True)] == [0, 1]


def test_euler_characteristic_from_homology():
    for name, (facets, _t) in SPACES.items():
        K = klein_bottle() if facets is None else build_complex(facets)
        chi_faces = K.euler_characteristic()
        chi_ranks = sum((-1) ** i * g.rank for i, g in enumerate(homology(K, QQ)))
        assert chi_faces == chi_ranks, name


def test_boundary_squares_to_zero():
    K = klein_bottle()
    for i in range(1, K.dim + 1):
        d_i = boundary_matrix(K, i)
        if i >= 2:
            d_im1 = boundary_matrix(K, i - 1)
            assert not d_im1.times(d_i).entries


def test_suspension_shifts_homology():
    for name, (facets, _t) in SPACES.items():
        K = klein_bottle() if facets is None else build_complex(facets)
        SK = suspension(K)
        h = homology(K, ZZ, reduced=True)
        sh = homology(SK, ZZ, reduced=True)
        assert sh[0].rank == 0
        for i in range(1, len(sh)):
            prev = h[i - 1] if i - 1 < len(h) else None
            if prev is not None:
                assert (sh[i].rank, sh[i].torsion) == (prev.rank, prev.torsion), name


# ---------------------------------------------------------------------------
# Clearing against each boundary matrix reduced in full


def homology_without_clearing(K, ring):
    """Homology with every ∂_i reduced in full, each degree on its own."""
    dims = [len(K.faces_of_dim(i)) for i in range(K.dim + 1)]
    ranks = [0] * (K.dim + 2)
    torsion = [()] * (K.dim + 2)
    for i in range(1, K.dim + 1):
        M = boundary_matrix(K, i)
        if ring == ZZ:
            facs = invariant_factors(M)
            ranks[i] = len(facs)
            torsion[i] = tuple(d for d in facs if d > 1)
        else:
            ranks[i] = rank_over(M, ring)
    return [
        HomologyGroup(dims[i] - ranks[i] - ranks[i + 1], torsion[i + 1])
        for i in range(K.dim + 1)
    ]


CLEARING_RINGS = (ZZ, QQ, GF(2), GF(3))


def _assert_clearing_keeps_homology(K):
    for ring in CLEARING_RINGS:
        assert homology(K, ring) == homology_without_clearing(K, ring), ring


def test_clearing_keeps_homology_on_catalog(entries):
    for e in entries.values():
        _assert_clearing_keeps_homology(e.complex)


def test_clearing_keeps_homology_on_carriers(entries, sigma_t2_carriers):
    Y = bordism_to_intrinsic(entries["RP3"].stratifications[0]).Y.complex
    assert homology(Y, ZZ)[1].torsion == (2,)
    for K in [Y] + [FY.complex for FY in sigma_t2_carriers]:
        _assert_clearing_keeps_homology(K)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_clearing_keeps_homology_on_small_complexes(K):
    _assert_clearing_keeps_homology(K)


def test_residual_pivot_row_is_not_cleared():
    # ℤz → ℤa ⊕ ℤb → ℤx with ∂z = 2a + 3b, ∂a = 3x, ∂b = −2x.  ∂₂ has no
    # unit entry, so its pivot comes from the Smith residual; dropping its
    # row from ∂₁ would leave H₀ = ℤ/3 or ℤ/2 instead of 0.
    d2 = SparseMatrix(2, 1, {(0, 0): 2, (1, 0): 3})
    d1 = SparseMatrix(1, 2, {(0, 0): 3, (0, 1): -2})
    assert not d1.times(d2).entries
    assert _eliminate(d2).unit_rows == []
    for ring in CLEARING_RINGS:
        assert homology_of_chain_complex([1, 2, 1], [None, d1, d2], ring) == [
            HomologyGroup(0)
        ] * 3, ring


# ---------------------------------------------------------------------------
# Rows pivoted first


def _rows(M, rows):
    return SparseMatrix(M.nrows, M.ncols, {rc: v for rc, v in M.entries.items() if rc[0] in rows})


def _rank_of_rows(M, rows, ring):
    return rank_over(_rows(M, rows), ring)


def test_rows_pivoted_first_report_their_own_rank():
    # Row 0 is pivoted first and holds only 2s: neither column may take the
    # unit pivot of row 1, and row 0's rank comes from the residual.  Row 1
    # vanishes on ker(row 0), so it adds no factor: rank M = 0 + 1.
    M = SparseMatrix(2, 2, {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1})
    red = _eliminate(M, first=frozenset({0}))
    assert (len(red.diag), red.first_rank, red.unit_rows) == (0, 1, [])


def test_rows_pivoted_first_randomized():
    # Entries in {±1, ±2}: over ℤ some rows pivoted first are left to the
    # residual, whose rank on those rows then counts.
    rng = random.Random(31)
    from_residual = 0
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = unit_two_matrix(rng, m, n)
        first = frozenset(r for r in range(m) if rng.random() < 0.5)
        for ring in (QQ, GF(2), GF(3)):
            red = _eliminate(M, ring.p, first=first)
            assert len(red.diag) + red.first_rank == rank_over(M, ring)
            assert red.first_rank == _rank_of_rows(M, first, ring)
            if ring.p:
                assert len(red.unit_rows) == len(red.diag) + red.first_rank
            else:
                from_residual += red.first_rank > sum(r in first for r in red.unit_rows)
        # Without rows pivoted first the kernel is unchanged.
        assert _eliminate(M).diag == invariant_factors(M)
    assert from_residual >= 20


def test_rows_pivoted_first_give_the_factors_on_their_kernel():
    # Over ℤ, diag is the invariant factors of the other rows G on the
    # kernel of the rows N pivoted first, and first_rank is rank N.  Entries
    # in {±1, ±2, ±3} leave a residual with rows of N in many trials.
    rng = random.Random(47)
    with_torsion = 0
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = SparseMatrix(m, n, {
            (i, j): rng.choice((-3, -2, -1, 1, 2, 3))
            for i in range(m)
            for j in range(n)
            if rng.random() < 0.5
        })
        first = frozenset(r for r in range(m) if rng.random() < 0.5)
        N, G = _rows(M, first), _rows(M, set(range(m)) - first)
        red = _eliminate(M, first=first)
        assert red.diag == invariant_factors(G.times(kernel_basis(N)))
        assert red.first_rank == rank_over(N, ZZ)
        assert len(red.diag) + red.first_rank == rank_over(M, ZZ)
        # The residual met rows of N and gave G a factor above 1 on ker N.
        residual = red.first_rank > sum(r in first for r in red.unit_rows)
        with_torsion += residual and any(d > 1 for d in red.diag)
    assert with_torsion >= 20
