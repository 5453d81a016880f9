"""Shipped example spaces with stored invariants and paired stratifications.

Each entry records a carrier complex, its Euler characteristic, integral
homology, orientability, expected membership in the built-in singularity
classes, and one or more stratifications.  The stored numbers are checked
data: `tests/test_catalog.py` re-derives them with the library's own oracles
and runs every shipped stratification through the full validator, so `get`
only builds an entry and caches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ._rp3_data import RP3_FACETS
from .complexes import (
    SimplicialComplex,
    build_complex,
    is_orientable,
    orient,
    product,
    suspension,
    suspension_poles,
)
from .errors import UnknownName
from .strat import (
    FilteredComplex,
    make_filtered,
    trivial_filtration,
)

HomologyTable = Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    complex: SimplicialComplex
    euler: int
    homology: HomologyTable
    orientable: bool
    stratifications: Tuple[FilteredComplex, ...]
    expected_classes: Dict[str, bool]
    description: str


def circle(m: int) -> SimplicialComplex:
    """The m-gon triangulation of the circle, m ≥ 3."""
    if m < 3:
        raise ValueError("a triangulated circle needs at least 3 vertices")
    return build_complex([(i, (i + 1) % m) for i in range(m)])


def sphere(n: int) -> SimplicialComplex:
    """∂Δ^{n+1}, the boundary of the standard (n+1)-simplex."""
    return build_complex(
        [tuple(v for v in range(n + 2) if v != i) for i in range(n + 2)]
    )


def torus2() -> SimplicialComplex:
    """The 7-vertex triangulation of the 2-torus."""
    tris = [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    tris += [(i % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return build_complex([tuple(sorted(t)) for t in tris])


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    return build_complex(
        [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        ]
    )


def projective_space3() -> SimplicialComplex:
    """A 40-vertex triangulation of ℝP³ from a frozen facet list."""
    return build_complex(RP3_FACETS)


def torus3() -> SimplicialComplex:
    """T³ as the iterated staircase product of three 3-vertex circles."""
    c = circle(3)
    return product(product(c, c), c)


def _manifold_strats(K: SimplicialComplex) -> Tuple[FilteredComplex, ...]:
    """Trivial filtration plus a refinement with one extra regular 0-stratum."""
    oa = orient(K) if is_orientable(K) else None
    plain = trivial_filtration(K, orientation=oa)
    if K.dim < 2:
        return (plain,)
    v0 = min(K.vertices)
    refined = make_filtered(K, {0: [(v0,)]}, orientation=oa)
    return (plain, refined)


def _suspension_strats(K: SimplicialComplex) -> Tuple[FilteredComplex, ...]:
    """Poles-only filtration and poles plus an extra regular 0-stratum."""
    SK = suspension(K)
    north, south = suspension_poles(K)
    oa = orient(SK) if is_orientable(SK) else None
    poles = make_filtered(SK, {0: [(north,), (south,)]}, orientation=oa)
    v0 = min(K.vertices)
    refined = make_filtered(SK, {0: [(north,), (south,), (v0,)]}, orientation=oa)
    return (poles, refined)


_MANIFOLD_CLASSES = {
    "witt": True,
    "ip": True,
    "euler2": True,
    "locally_orientable": True,
}


def _suspension_table(base: HomologyTable) -> HomologyTable:
    """H_*(SX) from H_*(X): degree 0 is ℤ, degree i ≥ 1 is H̃_{i−1}(X)."""
    (rank, tors), *rest = base
    return ((1, ()), (rank - 1, tors), *rest)


_BASE_SPECS: Dict[str, Tuple[Callable[[], SimplicialComplex], HomologyTable, bool, str]] = {
    "S1": (lambda: circle(3), ((1, ()), (1, ())), True, "3-vertex circle"),
    "S2": (lambda: sphere(2), ((1, ()), (0, ()), (1, ())), True, "boundary of Δ³"),
    "S3": (
        lambda: sphere(3),
        ((1, ()), (0, ()), (0, ()), (1, ())),
        True,
        "boundary of Δ⁴",
    ),
    "S4": (
        lambda: sphere(4),
        ((1, ()), (0, ()), (0, ()), (0, ()), (1, ())),
        True,
        "boundary of Δ⁵",
    ),
    "T2": (torus2, ((1, ()), (2, ()), (1, ())), True, "7-vertex 2-torus"),
    "RP2": (
        projective_plane,
        ((1, ()), (0, (2,)), (0, ())),
        False,
        "6-vertex projective plane",
    ),
    "RP3": (
        projective_space3,
        ((1, ()), (0, (2,)), (0, ()), (1, ())),
        True,
        "40-vertex projective 3-space",
    ),
    "T3": (
        torus3,
        ((1, ()), (3, ()), (3, ()), (1, ())),
        True,
        "3-torus as a triple staircase product of circles",
    ),
}

_SUSPENSION_CLASSES: Dict[str, Dict[str, bool]] = {
    "Sigma-S1": dict(_MANIFOLD_CLASSES),
    "Sigma-T2": {
        "witt": False,
        "ip": False,
        "euler2": True,
        "locally_orientable": True,
    },
    "Sigma-T3": dict(_MANIFOLD_CLASSES),
    "Sigma-RP2": {
        "witt": True,
        "ip": False,
        "euler2": False,
        "locally_orientable": False,
    },
    "Sigma-RP3": {
        "witt": True,
        "ip": False,
        "euler2": True,
        "locally_orientable": True,
    },
}

_NAMES = tuple(_BASE_SPECS) + tuple(_SUSPENSION_CLASSES)

_cache: Dict[str, CatalogEntry] = {}


def _euler_from_table(table: HomologyTable) -> int:
    return sum((-1) ** i * rank for i, (rank, _t) in enumerate(table))


def _build(name: str) -> CatalogEntry:
    if name in _BASE_SPECS:
        make, table, orientable, desc = _BASE_SPECS[name]
        K = make()
        strats = _manifold_strats(K)
        expected = dict(_MANIFOLD_CLASSES)
    elif name in _SUSPENSION_CLASSES:
        base = name[len("Sigma-") :]
        make, base_table, _, base_desc = _BASE_SPECS[base]
        B = make()
        K = suspension(B)
        table = _suspension_table(base_table)
        orientable = is_orientable(K)
        strats = _suspension_strats(B)
        expected = dict(_SUSPENSION_CLASSES[name])
        desc = f"suspension of the {base_desc}"
    else:
        raise UnknownName(f"no catalog entry named {name!r}")
    return CatalogEntry(
        name=name,
        complex=K,
        euler=_euler_from_table(table),
        homology=table,
        orientable=orientable,
        stratifications=strats,
        expected_classes=expected,
        description=desc,
    )


def get(name: str) -> CatalogEntry:
    """The named entry, built on first access and cached afterwards."""
    if name not in _cache:
        _cache[name] = _build(name)
    return _cache[name]


def names() -> Tuple[str, ...]:
    return _NAMES
