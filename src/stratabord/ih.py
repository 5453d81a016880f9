"""Simplicial intersection homology for Goresky–MacPherson perversities.

Chains are simplicial chains of the carrier; a simplex is allowable when it
meets each skeleton in at most the allowed dimension, and intersection chains
are allowable chains with allowable boundary.  The triangulation must be full
relative to the filtration; when it is not, `ensure_full` stellar-subdivides
the simplices that are not full until it is.

Over every ring I^p̄H_* is the homology of the allowable chains
(`algebra.homology_of_allowable_chains`; proofs at `algebra._eliminate` and
`algebra._reduce`).  Split ∂_i on the allowable i-chains A_i into G_i, its
rows on allowable (i−1)-faces, and N_i, the bad rows.  Then IC_i = ker N_i,
its cycles Z_i = ker ∂_i and its boundaries G_{i+1}(ker N_{i+1}); one
elimination of ∂_i per degree, bad rows pivoted first, gives rank N_i and
the invariant factors of G_i on ker N_i, so rank I^p̄H_i = |A_i| − rank ∂_i
− (rank ∂_{i+1} − rank N_{i+1}).  Over ℤ:

- a unit pivot in a bad row removes a column through the kernel constraint
  and adds no factor; one in a good row adds a factor 1;
- the non-unit residual takes the kernel_basis of its bad rows, then the
  Smith form of its good rows on that kernel;
- the torsion of I^p̄H_i is that of A_i / G_{i+1}(ker N_{i+1}), since Z_i,
  a kernel, is saturated in A_i;
- clearing stays sound because good pivot blocks are unimodular: a good
  unit pivot row r of ∂_{i+1} has z ∈ IC_{i+1} with ∂z = e_r + y, y
  allowable, so ∂_i may drop r as a column.  Bad rows are no columns.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Tuple

from . import algebra
from .algebra import Ring, ZZ
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
    n = FX.dim
    # Per codimension k with X^{n−k} non-empty: its vertices, k and p̄(k).
    skeleta = [
        (set(FX.skeleton(n - k).vertices), k, p.value(k))
        for k in range(2, n + 1)
        if not FX.skeleton(n - k).is_empty()
    ]

    def allowable(s):
        i = len(s) - 1
        for vs, k, pk in skeleta:
            meet = sum(v in vs for v in s)
            if meet and meet - 1 > i - k + pk:
                return False
        return True

    return [[s for s in FX.complex.faces_of_dim(i) if allowable(s)] for i in range(n + 1)]


def intersection_homology(
    FX: FilteredComplex, p: Perversity, ring: Ring = ZZ
) -> List[algebra.HomologyGroup]:
    """I^p̄H_* of the filtered complex; exact over ℤ, ℚ and prime fields."""
    n = FX.dim
    require_pure(FX)
    if p.top < n and not FX.skeleton(n - p.top - 1).is_empty():
        raise PerversityViolation("perversity table too short for this filtration")
    FX = ensure_full(FX)
    return algebra.homology_of_allowable_chains(FX.complex, allowable_simplices(FX, p), ring)
