"""Simplicial intersection homology for Goresky–MacPherson perversities.

Chains are simplicial chains of the carrier; a simplex is allowable when it
meets each skeleton in at most the allowed dimension, and intersection chains
are allowable chains with allowable boundary.  The triangulation must be full
relative to the filtration; when it is not, `ensure_full` stellar-subdivides
the simplices that are not full until it is.

Over a field, I^p̄H_i is read off two ranks per degree: of M_i, the boundary
on the allowable i-simplices A_i, and of N_i, its rows on the (i−1)-faces
that are not allowable (the bad rows).  One elimination of M_i gives both,
with the bad rows pivoted first: a good pivot row then only ever touches
good rows, so rank N_i is the bad pivots plus the rank of the residual's bad
rows.  The reduced column of a good pivot is a chain z of IC_i, so its row r
has ∂z = e_r + y with y allowable and off the good pivot rows; ∂∂ = 0 then
lets M_{i−1} drop r as a column without changing either rank (clearing,
degree by degree from the top).  Bad pivot rows are never cleared: they
are not allowable, so they are no columns of M_{i−1}.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import algebra
from .algebra import Ring, SparseMatrix, ZZ
from .complexes import Simplex, build_complex, simplex
from .errors import PerversityViolation
from .strat import FilteredComplex, filtered_by_depth, require_pure


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
    """FX itself when full, else a stellar subdivision of it that is full.

    The simplices that are not full are starred at new vertices, the least
    first (smallest dimension, then lexicographic); fresh vertex ids start at
    max + 1.  Starring σ at b replaces each facet F ⊇ σ by the facets
    (F ∖ {v}) ∪ {b}, v ∈ σ.  A new face f takes the depth and the boundary
    membership of its carrier, (f ∖ {b}) ∪ σ when b ∈ f and f otherwise, so b
    lies in every skeleton that holds σ.  The output has no orientation.

    Why the loop ends: let W_m count the faces with every vertex in X^m but
    not lying in X^m, and let m be the deepest vertex depth of σ.  Starring σ
    removes σ, which counts at m; the new faces all contain b, of depth
    depth(σ) > m, so they count only at levels above m.  So (W_0, W_1, …)
    falls lexicographically with each step, and that order is a well-order.
    """
    if is_full(FX):
        return FX
    depth = dict(FX.depth)
    boundary = set(FX.boundary.faces) if FX.boundary is not None else set()
    facets = set(FX.complex.facets)
    fresh = max(FX.complex.vertices) + 1

    def not_full(f):
        return depth[f] > max(depth[(v,)] for v in f)

    todo = [(len(f), f) for f in depth if not_full(f)]
    heapq.heapify(todo)
    while todo:
        _n, sigma = heapq.heappop(todo)
        if sigma not in depth:  # gone with an earlier star
            continue
        b, fresh = fresh, fresh + 1
        carrier = {}
        for F in [F for F in facets if all(v in F for v in sigma)]:
            facets.remove(F)
            facets.update(simplex(set(F) - {v} | {b}) for v in sigma)
            rest = [v for v in F if v not in sigma]
            for k in range(len(rest) + 1):
                for g in itertools.combinations(rest, k):
                    tau = simplex(sigma + g)
                    for j in range(len(sigma)):
                        for a in itertools.combinations(sigma, j):
                            carrier[simplex((b,) + a + g)] = tau
        for f, tau in carrier.items():
            depth[f] = depth[tau]
            if tau in boundary:
                boundary.add(f)
            if not_full(f):
                heapq.heappush(todo, (len(f), f))
        for tau in set(carrier.values()):
            del depth[tau]
            boundary.discard(tau)
    K = build_complex(facets)
    if FX.boundary is None:
        boundary = None
    return filtered_by_depth(K, depth.__getitem__, boundary, None, FX.classical, FX.heuristic)


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
    """Ranks of I^p̄H_i over ℚ or 𝔽ₚ: |A_i| − rank M_i − rank M_{i+1} + rank N_{i+1}.

    M_i is the boundary on the allowable i-simplices A_i and N_i its rows on
    the bad (not allowable) (i−1)-faces.  Each M_i is eliminated once, from
    the top degree down, with the bad rows pivoted first, which gives rank M_i
    and rank N_i together.  M_{i−1} then drops, as columns, the good unit
    pivot rows of M_i, which leaves both its ranks unchanged (see the module
    docstring); the bad ones are no columns of M_{i−1}.  Over ℚ the kernel
    works over ℤ, whose ranks are the same.
    """
    K = FX.complex
    n = FX.dim
    allow = allowable_simplices(FX, p)
    full_rank = [0] * (n + 2)  # rank of ∂_i restricted to allowable columns
    bad_rank = [0] * (n + 2)  # rank of the composite to the non-allowable quotient
    cleared: set = set()
    for i in range(n, 0, -1):
        cols = [s for s in allow[i] if s not in cleared]
        cleared = set()
        if not cols:
            continue
        rows = K.faces_of_dim(i - 1)
        allowed = set(allow[i - 1])
        bad = frozenset(r for r, s in enumerate(rows) if s not in allowed)
        M = algebra.boundary_matrix(K, i, cols, rows)
        red = algebra._eliminate(M, ring.p, first=bad)
        full_rank[i] = len(red.diag)
        bad_rank[i] = red.first_rank
        cleared = {rows[r] for r in red.unit_rows}
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
    require_pure(FX)
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
