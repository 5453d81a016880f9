"""Simplicial intersection homology for Goresky–MacPherson perversities.

Chains are simplicial chains of the carrier; a simplex is allowable when it
meets each skeleton in at most the allowed dimension, and intersection chains
are allowable chains with allowable boundary.  The triangulation must be full
relative to the filtration; when it is not, the computation moves to the
barycentric subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import algebra
from .algebra import Ring, SparseMatrix, ZZ
from .complexes import Simplex
from .errors import NotValidated, PerversityViolation
from .strat import FilteredComplex, subdivide_filtered


@dataclass(frozen=True)
class Perversity:
    """Values p̄(k) for codimensions k = 2..top; p̄(2) = 0 with unit growth."""

    values: Tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.values:
            if self.values[0] != 0:
                raise PerversityViolation("p̄(2) must be 0")
            for a, b in zip(self.values, self.values[1:]):
                if b < a or b > a + 1:
                    raise PerversityViolation("perversity must grow by 0 or 1")

    @property
    def top(self) -> int:
        return len(self.values) + 1

    def value(self, k: int) -> int:
        if k < 2:
            raise PerversityViolation(f"codimension {k} below 2")
        if k > self.top:
            raise PerversityViolation(f"perversity undefined at codimension {k}")
        return self.values[k - 2]


def lower_middle(n: int) -> Perversity:
    """m̄(k) = ⌊(k−2)/2⌋."""
    if n < 2:
        raise PerversityViolation("lower_middle needs n ≥ 2")
    return Perversity(tuple((k - 2) // 2 for k in range(2, n + 1)), "lower-middle")


def upper_middle(n: int) -> Perversity:
    """n̄(k) = ⌈(k−2)/2⌉."""
    if n < 2:
        raise PerversityViolation("upper_middle needs n ≥ 2")
    return Perversity(tuple((k - 1) // 2 for k in range(2, n + 1)), "upper-middle")


def zero_perversity(n: int) -> Perversity:
    return Perversity(tuple(0 for _ in range(2, n + 1)), "zero")


def top_perversity(n: int) -> Perversity:
    return Perversity(tuple(k - 2 for k in range(2, n + 1)), "top")


@dataclass(frozen=True)
class IHGroup:
    degree: int
    rank: int
    torsion: Tuple[int, ...] = ()


def is_full(FX: FilteredComplex) -> bool:
    """No simplex has all its vertices in a skeleton without lying in it:
    no face is deeper than the deepest of its vertices."""
    depth = FX.depth
    return all(d <= max(depth[(v,)] for v in f) for f, d in depth.items())


def ensure_full(FX: FilteredComplex) -> FilteredComplex:
    if is_full(FX):
        return FX
    out, _prov = subdivide_filtered(FX)
    return out


def allowable_simplices(FX: FilteredComplex, p: Perversity) -> List[List[Simplex]]:
    """Per degree i, the p̄-allowable i-simplices, in the canonical face order.

    Requires fullness: σ ∩ X^{n−k} is the face spanned by σ's vertices in it.
    """
    K = FX.complex
    n = FX.dim
    skeleton_verts = {}
    for k in range(2, n + 1):
        sk = FX.skeleton(n - k)
        if not sk.is_empty():
            skeleton_verts[k] = set(sk.vertices)
    out = []
    for i in range(n + 1):
        good = []
        for s in K.faces_of_dim(i):
            ok = True
            for k, vs in skeleton_verts.items():
                meet = sum(1 for v in s if v in vs)
                if meet == 0:
                    continue
                if meet - 1 > i - k + p.value(k):
                    ok = False
                    break
            if ok:
                good.append(s)
        out.append(good)
    return out


def _field_ranks(FX, p, ring) -> List[int]:
    K = FX.complex
    n = FX.dim
    allow = allowable_simplices(FX, p)
    allow_sets = [set(a) for a in allow]
    full_rank = [0] * (n + 2)  # rank of ∂_i restricted to allowable columns
    bad_rank = [0] * (n + 2)  # rank of the composite to the non-allowable quotient
    for i in range(1, n + 1):
        cols = allow[i]
        if not cols:
            continue
        M = algebra.boundary_matrix(K, i, cols)
        full_rank[i] = algebra.rank_over(M, ring)
        bad_rows = [s for s in K.faces_of_dim(i - 1) if s not in allow_sets[i - 1]]
        if bad_rows:
            N = algebra.boundary_matrix(K, i, cols, bad_rows)
            bad_rank[i] = algebra.rank_over(N, ring)
    ranks = []
    for i in range(n + 1):
        ranks.append(len(allow[i]) - full_rank[i] - full_rank[i + 1] + bad_rank[i + 1])
    return ranks


def _integral_groups(FX, p) -> List[Tuple[int, Tuple[int, ...]]]:
    K = FX.complex
    n = FX.dim
    allow = allowable_simplices(FX, p)
    allow_sets = [set(a) for a in allow]
    # Basis of IC_i = {ξ allowable : ∂ξ allowable} as the saturated kernel of
    # the composite map to the non-allowable quotient.
    bases: List[SparseMatrix] = []
    for i in range(n + 1):
        cols = allow[i]
        if not cols:
            bases.append(SparseMatrix(0, 0, {}))
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
    boundaries: List[Optional[SparseMatrix]] = [None]
    for i in range(1, n + 1):
        if dims[i] == 0 or dims[i - 1] == 0:
            boundaries.append(None)
            continue
        D = algebra.boundary_matrix(K, i, allow[i], allow[i - 1])
        B = D.times(bases[i])
        boundaries.append(algebra.solve_exact(bases[i - 1], B))
    groups = algebra.homology_of_chain_complex(dims, boundaries, ZZ)
    return [(g.rank, g.torsion) for g in groups]


def intersection_homology(
    FX: FilteredComplex, p: Perversity, ring: Ring = ZZ
) -> List[IHGroup]:
    """I^p̄H_* of the filtered complex; exact over ℤ, ℚ and prime fields."""
    n = FX.dim
    if n < 0:
        return []
    if not FX.complex.is_pure:
        raise NotValidated("carrier is not totally n-dimensional")
    if p.top < n and not FX.skeleton(n - p.top - 1).is_empty():
        raise PerversityViolation("perversity table too short for this filtration")
    FX = ensure_full(FX)
    if ring.kind == "Z":
        data = _integral_groups(FX, p)
        return [IHGroup(i, r, t) for i, (r, t) in enumerate(data)]
    ranks = _field_ranks(FX, p, ring)
    return [IHGroup(i, r) for i, r in enumerate(ranks)]


def ih_torsion(FX: FilteredComplex, p: Perversity, degree: int) -> Tuple[int, ...]:
    """Invariant factors of the integral intersection homology in one degree."""
    groups = intersection_homology(FX, p, ZZ)
    if degree < 0 or degree >= len(groups):
        return ()
    return groups[degree].torsion
