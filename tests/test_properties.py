"""Randomized property tests over small generated complexes and matrices."""

from hypothesis import given, settings, strategies as st

from stratabord.algebra import (
    QQ,
    SparseMatrix,
    ZZ,
    homology,
    invariant_factors,
    kernel_basis,
    rank_over,
)
from stratabord.complexes import (
    barycentric_subdivision,
    build_complex,
    cone,
    is_orientable,
    orient,
    suspension,
    verify_orientation,
)


@st.composite
def small_matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    entries = {}
    for i in range(m):
        for j in range(n):
            v = draw(st.integers(-5, 5))
            if v:
                entries[(i, j)] = v
    return SparseMatrix(m, n, entries)


@st.composite
def small_complexes(draw):
    nverts = draw(st.integers(3, 7))
    dim = draw(st.integers(1, 2))
    nfacets = draw(st.integers(1, 6))
    facets = draw(
        st.lists(
            st.lists(
                st.integers(0, nverts - 1), min_size=dim + 1, max_size=dim + 1, unique=True
            ).map(lambda vs: tuple(sorted(vs))),
            min_size=1,
            max_size=nfacets,
            unique=True,
        )
    )
    return build_complex(facets)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_invariant_factors_divide_in_order(M):
    diag = [d for d in invariant_factors(M) if d != 0]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert len(diag) == rank_over(M, QQ)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_columns_annihilate(M):
    K = kernel_basis(M)
    assert not M.times(K).entries
    assert K.ncols == M.ncols - rank_over(M, QQ)


@given(small_complexes())
@settings(max_examples=40, deadline=None)
def test_suspension_euler_law(K):
    assert suspension(K).euler_characteristic() == 2 - K.euler_characteristic()


@given(small_complexes())
@settings(max_examples=40, deadline=None)
def test_cone_kills_reduced_homology(K):
    h = homology(cone(K), ZZ, reduced=True)
    assert all(g.rank == 0 and not g.torsion for g in h)


@given(small_complexes())
@settings(max_examples=25, deadline=None)
def test_subdivision_preserves_homology(K):
    B, _prov = barycentric_subdivision(K)
    assert [(g.rank, g.torsion) for g in homology(B, ZZ)] == [
        (g.rank, g.torsion) for g in homology(K, ZZ)
    ]


@given(small_complexes())
@settings(max_examples=30, deadline=None)
def test_orientation_witness_verifies_when_orientable(K):
    if not K.is_pure:
        return
    if any(len(fs) > 2 for fs in K.ridges.values()):
        return  # orientability is defined for pseudomanifold ridge degrees only
    if is_orientable(K):
        oa = orient(K)
        assert verify_orientation(K, oa)


@given(small_complexes())
@settings(max_examples=30, deadline=None)
def test_euler_from_faces_equals_euler_from_ranks(K):
    chi = K.euler_characteristic()
    ranks = sum((-1) ** i * g.rank for i, g in enumerate(homology(K, QQ)))
    assert chi == ranks
