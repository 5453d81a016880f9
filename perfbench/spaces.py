"""Seeded inputs and textbook answers for the benchmark.

Nothing here calls into stratabord's algorithms: the expected values are
written down from textbook topology (or counted directly from facet lists),
so the checks do not repeat the program's own output.  The only program
call here is `make_filtered`, which packs a relabeled input.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Dict, Iterable, Optional, Sequence, Tuple

# A homology table is one (rank, torsion) pair per degree.
Table = Tuple[Tuple[int, Tuple[int, ...]], ...]

# Integral homology of the base spaces, from their textbook cell structures.
TEXTBOOK: Dict[str, Table] = {
    "S2": ((1, ()), (0, ()), (1, ())),
    "T2": ((1, ()), (2, ()), (1, ())),
    "T3": ((1, ()), (3, ()), (3, ()), (1, ())),
    "RP3": ((1, ()), (0, (2,)), (0, ()), (1, ())),
}

CATALOG_NAMES = (
    "S1", "S2", "S3", "S4", "T2", "RP2", "RP3", "T3",
    "Sigma-S1", "Sigma-T2", "Sigma-T3", "Sigma-RP2", "Sigma-RP3",
)

# Membership of ΣL in the classes, read off the link L (criterion 4):
# witt(ℚ) needs I^mH_{l/2}(L; ℚ) = 0 for even l = dim L, ip needs it over ℤ
# for even l and a torsion-free I^mH_{(l-1)/2}(L; ℤ) for odd l, euler2
# needs an even χ(L).  T² (l = 2) has H_1 = ℤ² and χ = 0; T³ (l = 3) has a
# torsion-free H_1 and χ = 0.  A manifold has no singular strata, so every
# link condition holds vacuously.
CLASS_TABLE: Dict[str, Dict[str, bool]] = {
    "T2": {"witt": False, "ip": False, "euler2": True},
    "T3": {"witt": True, "ip": True, "euler2": True},
    None: {"witt": True, "ip": True, "euler2": True},
}


def suspension_table(base: Table, k: int = 1) -> Table:
    """H_*(Σᵏ L): ℤ in degree 0, and H̃_{i−k}(L) in degree i ≥ 1."""
    table = list(base)
    for _ in range(k):
        rank0, tors0 = table[0]
        table = [(1, ()), (rank0 - 1, tors0)] + table[1:]
    return tuple(table)


def ih_of_suspension(base: Table, k: int, perversity) -> Table:
    """I^p̄H_*(Σᵏ L) for a manifold L, by k applications of the cone formula.

    For M of dimension m, with cut c = m − p̄(m+1): I H_i(ΣM) is I H_i(M)
    below c, 0 at c and I H_{i−1}(M) above c.  For a manifold I H = H.
    """
    table = list(base)
    for _ in range(k):
        m = len(table) - 1
        cut = m - perversity(m + 1)
        table = [
            table[i] if i < cut else (0, ()) if i == cut else table[i - 1]
            for i in range(m + 2)
        ]
    return tuple(table)


def lower_middle(k: int) -> int:
    return (k - 2) // 2


def upper_middle(k: int) -> int:
    return (k - 1) // 2


def field_ranks(table: Table, p: Optional[int]) -> Tuple[int, ...]:
    """Betti numbers over ℚ (p is None) or 𝔽_p by universal coefficients:
    b_i = r_i + t_i(p) + t_{i−1}(p), t_i(p) the torsion factors of H_i
    divisible by p."""

    def t(i):
        if p is None or i < 0:
            return 0
        return sum(1 for d in table[i][1] if d % p == 0)

    return tuple(table[i][0] + t(i) + t(i - 1) for i in range(len(table)))


def carrier_table(table: Table) -> Table:
    """The carrier Y ≅ X × [0,1] of a bordism has X's homology, one degree up."""
    return tuple(table) + ((0, ()),)


def all_faces(facets: Iterable[Sequence[int]]) -> set:
    out = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return out


def euler_from_facets(facets: Iterable[Sequence[int]]) -> int:
    return sum((-1) ** (len(s) - 1) for s in all_faces(facets))


def free_ridges(facets: Iterable[Sequence[int]]) -> set:
    """Ridges lying in exactly one facet: the generators of ∂Y."""
    count: Dict[tuple, int] = {}
    for f in facets:
        for i in range(len(f)):
            r = tuple(f[:i]) + tuple(f[i + 1:])
            count[r] = count.get(r, 0) + 1
    return {r for r, c in count.items() if c == 1}


def vertex_relabeling(vertices: Sequence[int], seed: int, salt: str) -> Dict[int, int]:
    """A seeded renaming of a vertex set into [0, 4n) that keeps its order.

    Keeping the order keeps the work: the staircase product behind a
    bordism carrier and the elimination order both follow vertex order, and
    a full permutation moved run_s by up to a fifth between seeds.  The salt
    keeps the inputs of one seed independent of each other.
    """
    n = len(vertices)
    ids = sorted(random.Random(f"{seed}:{salt}").sample(range(4 * n), n))
    return dict(zip(sorted(vertices), ids))


def relabel_filtration(FX, vmap: Dict[int, int]):
    """FX with vertices renamed by the bijection vmap, carrying skeleta and
    orientation.

    Orientation signs are relative to the sorted vertex order of each facet,
    so a facet's sign picks up the parity of the permutation that sorts its
    image.
    """
    from stratabord.strat import make_filtered

    def image(s):
        return tuple(sorted(vmap[v] for v in s))

    def carried(f, sign):
        img = [vmap[v] for v in f]
        inversions = sum(a > b for a, b in itertools.combinations(img, 2))
        return image(f), -sign if inversions % 2 else sign

    skeleta = {
        j: [image(f) for f in FX.skeleton(j).facets]
        for j in range(FX.dim)
        if not FX.skeleton(j).is_empty()
    }
    orientation = None
    if FX.orientation is not None:
        orientation = dataclasses.replace(
            FX.orientation, signs=dict(carried(f, s) for f, s in FX.orientation.signs.items())
        )
    return make_filtered(
        FX.complex.relabel(vmap), skeleta, None, orientation, FX.classical, FX.heuristic
    )


def transposition(vertices: Sequence[int]) -> Dict[int, int]:
    """The relabeling that swaps the two smallest vertices: odd, so it
    reverses the sorted order of every facet through both."""
    a, b = sorted(vertices)[:2]
    return {**{v: v for v in vertices}, a: b, b: a}


def groups_table(groups) -> Table:
    return tuple((g.rank, tuple(g.torsion)) for g in groups)
