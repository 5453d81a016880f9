"""Core abstract simplicial complex machinery.

Simplices are strictly increasing tuples of integer vertex ids.  A complex is
determined by its facets (maximal faces); the full face lattice is derived on
demand and cached.  All values are immutable and every operation is a pure
function.

`link` and `star` read a cached star index (the facets through each vertex).
They rely on the facets being maximal: `build_complex` makes them so, and
`relabel` keeps them so because it takes an injective vertex map.

Every ridge-degree check and orientation pass reads one cached ridge index,
`K.ridges`: each codimension-one face of a facet, mapped to the facets it is
a codimension-one face of.  Its order is output (the first failing ridge):
ridges come in the order first met over the sorted facets, and each ridge's
facets in sorted order.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import EmptyInput, NotOrientable, NotPure, RidgeDegreeViolation, SimplexNotFound

Simplex = Tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical form of a simplex: sorted tuple of distinct vertices."""
    return tuple(sorted(set(vertices)))


@dataclass(frozen=True)
class SimplicialComplex:
    facets: FrozenSet[Simplex]

    @cached_property
    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    @cached_property
    def vertices(self) -> Tuple[int, ...]:
        vs = set()
        for f in self.facets:
            vs.update(f)
        return tuple(sorted(vs))

    @cached_property
    def faces(self) -> FrozenSet[Simplex]:
        """All nonempty faces of all facets."""
        out = set()
        for f in self.facets:
            for k in range(1, len(f) + 1):
                out.update(itertools.combinations(f, k))
        return frozenset(out)

    @cached_property
    def _faces_by_dim(self) -> Dict[int, List[Simplex]]:
        buckets: Dict[int, List[Simplex]] = {}
        for f in self.faces:
            buckets.setdefault(len(f) - 1, []).append(f)
        for d in buckets:
            buckets[d].sort()
        return buckets

    @cached_property
    def _star_index(self) -> Tuple[List[Simplex], Dict[int, set]]:
        """The facets in a list, and for each vertex the positions of the facets through it."""
        facets = list(self.facets)
        through: Dict[int, set] = {}
        for i, f in enumerate(facets):
            for v in f:
                through.setdefault(v, set()).add(i)
        return facets, through

    @cached_property
    def ridges(self) -> Dict[Simplex, Tuple[Simplex, ...]]:
        """Each ridge mapped to the facets containing it (see the module docstring).

        A vertex facet has no ridges: the empty simplex is no face.
        """
        out: Dict[Simplex, list] = {}
        for f in sorted(self.facets):
            if len(f) < 2:
                continue
            for i in range(len(f)):
                out.setdefault(f[:i] + f[i + 1 :], []).append(f)
        for r, fs in out.items():
            out[r] = tuple(fs)
        return out

    def faces_of_dim(self, d: int) -> List[Simplex]:
        return self._faces_by_dim.get(d, [])

    def __contains__(self, s) -> bool:
        s = tuple(s)
        return s in self.faces

    def is_empty(self) -> bool:
        return not self.facets

    @cached_property
    def is_pure(self) -> bool:
        if not self.facets:
            return True
        return len({len(f) for f in self.facets}) == 1

    def euler_characteristic(self) -> int:
        counts = collections.Counter(map(len, self.faces))
        return sum((-1) ** (n - 1) * k for n, k in counts.items())

    def subcomplex(self, generators: Iterable[Simplex]) -> "SimplicialComplex":
        """The subcomplex generated by the given simplices (closure under faces)."""
        gens = [simplex(g) for g in generators]
        for g in gens:
            if g not in self:
                raise SimplexNotFound(f"simplex {g} not in complex")
        return build_complex(gens)

    def relabel(self, vmap: Dict[int, int]) -> "SimplicialComplex":
        return SimplicialComplex(frozenset(simplex(vmap[v] for v in f) for f in self.facets))


def build_complex(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from facet lists, deduplicating and absorbing non-maximal faces.

    No facets give EMPTY.  Candidates are taken longest first.  Those of the
    top length are all maximal; a shorter one is absorbed when the kept
    facets through each of its vertices (a vertex → facet index) have a
    common member.
    """
    fs = sorted({simplex(f) for f in facets}, key=len, reverse=True)
    if not fs:
        return EMPTY
    top = len(fs[0])
    maximal: List[Simplex] = []
    through: Dict[int, set] = {}
    for f in fs:
        if len(f) < top:
            # the empty simplex lies in every kept facet
            common = sorted((through.get(v, set()) for v in f), key=len)
            if not f or common[0].intersection(*common[1:]):
                continue
        for v in f:
            through.setdefault(v, set()).add(len(maximal))
        maximal.append(f)
    return SimplicialComplex(frozenset(maximal))


EMPTY = SimplicialComplex(frozenset())


def _facets_through(K: SimplicialComplex, s: Simplex) -> List[Simplex]:
    """The facets of K containing the simplex s, via the star index."""
    facets, through = K._star_index
    common = sorted((through.get(v, set()) for v in s), key=len)
    hits = common[0].intersection(*common[1:]) if s else ()
    if not hits:
        raise SimplexNotFound(f"simplex {s} not in complex")
    return [facets[i] for i in hits]


def link(K: SimplicialComplex, s: Iterable[int]) -> SimplicialComplex:
    """link(K, s) = { t : t disjoint from s and t ∪ s ∈ K }.

    The complements of the facets through s are the link's facets: distinct
    maximal facets through s leave distinct maximal complements.
    """
    s = simplex(s)
    sset = set(s)
    out = frozenset(tuple(v for v in f if v not in sset) for f in _facets_through(K, s))
    return EMPTY if out == {()} else SimplicialComplex(out)


def star(K: SimplicialComplex, s: Iterable[int]) -> SimplicialComplex:
    """Closed star: subcomplex generated by facets containing s."""
    return SimplicialComplex(frozenset(_facets_through(K, simplex(s))))


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; L is relabeled above K's vertices when they collide."""
    if K.is_empty():
        return L
    if L.is_empty():
        return K
    offset = 0
    if set(K.vertices) & set(L.vertices):
        offset = max(K.vertices) + 1 - min(L.vertices)
    facets = [tuple(sorted(f + tuple(v + offset for v in g))) for f in K.facets for g in L.facets]
    return build_complex(facets)


def cone(K: SimplicialComplex) -> SimplicialComplex:
    """K * {apex} on a fresh apex.  cone(∅) is a single point (the cone vertex)."""
    apex = (max(K.vertices) + 1) if K.vertices else 0
    if K.is_empty():
        return build_complex([[apex]])
    return build_complex([f + (apex,) for f in K.facets])


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """K * {north, south} on the poles `suspension_poles(K)`, with no edge
    between them.  suspension(∅) = S⁰."""
    north, south = suspension_poles(K)
    if K.is_empty():
        return build_complex([[north], [south]])
    return build_complex(
        [f + (north,) for f in K.facets] + [f + (south,) for f in K.facets]
    )


def suspension_poles(K: SimplicialComplex) -> Tuple[int, int]:
    """The pole ids suspension(K) uses: the two least fresh vertices."""
    top = (max(K.vertices) + 1) if K.vertices else 0
    return top, top + 1


def product(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |K|×|L| on the lexicographically ordered vertex pairs."""
    return product_with_map(K, L)[0]


def product_with_map(K, L):
    if K.is_empty() or L.is_empty():
        raise EmptyInput("product factors must be non-empty")
    # Lexicographic numbering of the vertex pairs.
    vmap = {p: i for i, p in enumerate(itertools.product(K.vertices, L.vertices))}
    facets = []
    for f in K.facets:
        p = len(f) - 1
        for g in L.facets:
            q = len(g) - 1
            # Monotone staircase paths from (0,0) to (p,q): choose the
            # positions of the p steps in the first factor.
            for steps in itertools.combinations(range(p + q), p):
                i = j = 0
                verts = [vmap[(f[0], g[0])]]
                for pos in range(p + q):
                    if pos in steps:
                        i += 1
                    else:
                        j += 1
                    verts.append(vmap[(f[i], g[j])])
                facets.append(verts)
    return build_complex(facets), vmap


def barycentric_subdivision(K: SimplicialComplex):
    """Barycentric subdivision, with the face-to-vertex provenance map.

    Returns (subdivided complex, provenance) where provenance maps each new
    vertex id to the face of K it subdivides.
    """
    if K.is_empty():
        return K, {}
    faces = sorted(K.faces, key=lambda f: (len(f), f))
    vertex_of = {f: i for i, f in enumerate(faces)}
    provenance = {i: f for f, i in vertex_of.items()}
    facets = []
    for f in K.facets:
        for perm in itertools.permutations(f):
            chain = [vertex_of[tuple(sorted(perm[: k + 1]))] for k in range(len(perm))]
            facets.append(chain)
    return build_complex(facets), provenance


def collapses_to_point(K: SimplicialComplex, drop: Optional[Simplex] = None) -> bool:
    """Does a greedy sequence of elementary collapses take K, with the open
    facet `drop` removed first, down to a single vertex?

    A face is free when it lies in exactly one other face, a maximal face
    one dimension up; collapsing removes the pair.  Free faces are taken
    first in, first out from a queue filled in sorted order, so the sequence
    is deterministic.  True is a proof (a collapsible complex is
    contractible); False only means this sequence got stuck, as it must on
    the dunce hat.
    """
    up: Dict[Simplex, List[Simplex]] = {f: [] for f in K.faces}
    if drop is not None:
        del up[drop]
    for f in up:
        if len(f) > 1:
            for g in itertools.combinations(f, len(f) - 1):
                up[g].append(f)
    # For each face left, the number of its cofaces left.
    left = {f: len(u) for f, u in up.items()}

    def coface(s):
        for t in up[s]:
            if t in left:
                return t

    queue = collections.deque(sorted(s for s, n in left.items() if n == 1 and not left[up[s][0]]))
    while queue:
        s = queue.popleft()
        if left.get(s) != 1:
            continue
        t = coface(s)
        if left[t]:
            continue
        del left[s], left[t]
        # The faces of t and of s lose a coface: each may become free, or
        # maximal, which frees its faces that lie in it alone.
        for g in itertools.chain(
            itertools.combinations(t, len(t) - 1), itertools.combinations(s, len(s) - 1)
        ):
            n = left.get(g)
            if n is None:
                continue
            n = left[g] = n - 1
            if n == 1 and not left[coface(g)]:
                queue.append(g)
            elif n == 0:
                queue.extend(h for h in itertools.combinations(g, len(g) - 1) if left.get(h) == 1)
    return len(left) == 1


def boundary_subcomplex(K: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the ridges lying in exactly one facet."""
    if K.is_empty():
        return K
    if not K.is_pure:
        raise NotPure("boundary is defined for pure complexes only")
    rim = [r for r, fs in K.ridges.items() if len(fs) == 1]
    if not rim:
        return EMPTY
    return build_complex(rim)


def incidence(facet: Simplex, ridge: Simplex) -> int:
    """Sign of ridge in the boundary of facet, both in sorted vertex order."""
    extra = set(facet) - set(ridge)
    if len(extra) != 1:
        raise ValueError("not a ridge of the facet")
    return (-1) ** facet.index(extra.pop())


@dataclass(frozen=True)
class OrientationAssignment:
    """Signs per facet relative to the sorted vertex order of each facet."""

    signs: Dict[Simplex, int] = field(hash=False)

    def reversed(self) -> "OrientationAssignment":
        return OrientationAssignment({f: -s for f, s in self.signs.items()})

    def relabel(self, vmap: Dict[int, int]) -> "OrientationAssignment":
        """Signs carried through the injective vertex map vmap.

        A sign is relative to the sorted vertex order, so a facet whose image
        needs an odd permutation to sort flips its sign.
        """
        signs = {}
        for f, s in self.signs.items():
            img = [vmap[v] for v in f]
            odd = sum(a > b for a, b in itertools.combinations(img, 2)) % 2
            signs[simplex(img)] = -s if odd else s
        return OrientationAssignment(signs)


def verify_orientation(
    K: SimplicialComplex,
    oa: OrientationAssignment,
    skip_ridges: Optional[FrozenSet[Simplex]] = None,
) -> bool:
    """Check coherence: induced orientations cancel across every interior ridge.

    Ridges listed in skip_ridges (e.g. those inside a singular set) are exempt.
    """
    return all(
        sum(oa.signs[f] * incidence(f, r) for f in fs) == 0
        for r, fs in K.ridges.items()
        if len(fs) == 2 and r not in (skip_ridges or ())
    )


def orient(
    K: SimplicialComplex, skip_ridges: Optional[FrozenSet[Simplex]] = None
) -> OrientationAssignment:
    """Coherent orientation by sign propagation over facet-ridge adjacency.

    The first facet of each component (in sorted order) gets +1 on its sorted
    vertex order.  Raises NotOrientable when signs conflict, or
    RidgeDegreeViolation when a non-skipped ridge lies in more than two facets.
    """
    return OrientationAssignment(_propagate(K, skip_ridges)[0])


def _propagate(
    K: SimplicialComplex, skip_ridges: Optional[FrozenSet[Simplex]]
) -> Tuple[Dict[Simplex, int], Dict[Simplex, Simplex]]:
    """The signs of `orient`, and for each facet the root of its propagation
    component: the component's first facet, the one that got +1."""
    if K.is_empty():
        return {}, {}
    if not K.is_pure:
        raise NotPure("orientation is defined for pure complexes only")
    adj: Dict[Simplex, List[Tuple[Simplex, Simplex]]] = {f: [] for f in K.facets}
    for r, fs in K.ridges.items():
        if r in (skip_ridges or ()):
            continue
        if len(fs) > 2:
            raise RidgeDegreeViolation(f"ridge {r} lies in {len(fs)} facets")
        if len(fs) == 2:
            adj[fs[0]].append((fs[1], r))
            adj[fs[1]].append((fs[0], r))
    signs: Dict[Simplex, int] = {}
    root_of: Dict[Simplex, Simplex] = {}
    for root in sorted(K.facets):
        if root in signs:
            continue
        signs[root] = 1
        root_of[root] = root
        queue = [root]
        while queue:
            f = queue.pop()
            for g, r in adj[f]:
                forced = -signs[f] * incidence(f, r) * incidence(g, r)
                if g not in signs:
                    signs[g] = forced
                    root_of[g] = root
                    queue.append(g)
                elif signs[g] != forced:
                    raise NotOrientable("complex is not orientable")
    return signs, root_of


def is_orientable(K: SimplicialComplex) -> bool:
    try:
        orient(K)
        return True
    except NotOrientable:
        return False


def boundary_orientation(
    K: SimplicialComplex, oa: OrientationAssignment
) -> OrientationAssignment:
    """Induced orientation of the boundary subcomplex: sign = sign(F)·incidence."""
    return OrientationAssignment(
        {r: oa.signs[fs[0]] * incidence(fs[0], r) for r, fs in K.ridges.items() if len(fs) == 1}
    )
