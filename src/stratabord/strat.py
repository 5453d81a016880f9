"""Filtered complexes as stratified pseudomanifolds.

Validation against the stratified pseudomanifold axioms, stratum enumeration,
links of strata, polyhedral-link desuspension and intrinsic stratification.

Sphere recognition is exact through dimension 2 (curves and closed surfaces
are classified combinatorially); above that links are checked at the level of
integral homology and results carry a `heuristic` flag.  Sphere and ball
recognition first try an exact greedy collapse (`collapses_to_point`), which
settles most links without homology; homology is the fallback when the
collapse gets stuck.  The verdict and the flag are the same on both routes.
Recognition, and the middle intersection homology behind the Witt, IP and
S-duality classes (`classes._middle_ih`, keyed also on the ring), are memoized
per shape (the facets renumbered in vertex order), which is exact: every answer
and flag is an isomorphism invariant naming no vertex.

Strata come from the minimal open faces.  Call a face of X^j − X^{j−1} open;
it is minimal when its codimension-one faces all lie in X^{j−1}.  A face of X^j
that contains an open face is open, so a chain of faces between two open faces
stays open.  Hence every open face joins the stratum of each minimal open face
inside it, and two minimal open faces lie in one stratum exactly when a chain
of them, each consecutive pair in a common facet of X^j, connects them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from . import algebra
from .complexes import (
    EMPTY,
    OrientationAssignment,
    Simplex,
    SimplicialComplex,
    collapses_to_point,
    join,
    link,
    star,
    suspension,
)
from .errors import (
    DifferentCarrier,
    MalformedFiltration,
    NotPseudomanifold,
    NoTopSimplex,
    NotValidated,
)


# ---------------------------------------------------------------------------
# Filtered complexes


@dataclass(frozen=True)
class FilteredComplex:
    complex: SimplicialComplex
    # skeleta[j] for j = 0..n; skeleton −1 is the empty complex.
    skeleta: Tuple[SimplicialComplex, ...]
    boundary: Optional[SimplicialComplex] = None
    orientation: Optional[OrientationAssignment] = None
    classical: bool = True
    heuristic: bool = False

    def __post_init__(self):
        if any(
            sk is not self.complex and sk.facets != self.complex.facets
            for sk in self.skeleta[max(self.dim, 0) :]
        ):
            raise MalformedFiltration("a skeleton at or above the top dimension is not the carrier")

    @property
    def dim(self) -> int:
        return self.complex.dim

    def skeleton(self, j: int) -> SimplicialComplex:
        if j < 0:
            return EMPTY
        if j >= len(self.skeleta):
            return self.complex
        return self.skeleta[j]

    @property
    def singular_set(self) -> SimplicialComplex:
        return self.skeleton(self.dim - 1)

    @functools.cached_property
    def depth(self) -> Dict[Simplex, int]:
        """For each face of the carrier, the least j with the face in X^j.

        This is the dimension of the stratum that holds the open face.
        """
        out = dict.fromkeys(self.complex.faces, self.dim)
        for j in reversed(range(self.dim)):
            out.update(dict.fromkeys(self.skeleton(j).faces, j))
        return out

    @functools.cached_property
    def strata(self) -> Tuple["Stratum", ...]:
        """Connected components of X^j − X^{j−1} as sets of open simplices.

        They are found from the minimal open faces (see the module docstring):
        each open face is filed under one minimal open face inside it, an open
        vertex when it has one, and each minimal open face is joined to every
        facet of X^j through it.  A malformed filtration raises on every
        access: an exception is not cached.
        """
        fault = _nesting_fault(self)
        if fault:
            raise MalformedFiltration(fault)
        depth = self.depth
        vdepth = {v: depth[(v,)] for v in self.complex.vertices}
        anchor: Dict[Simplex, Simplex] = {}
        for s, d in depth.items():
            for v in s:
                if vdepth[v] == d:
                    anchor[s] = (v,)
                    break
            else:
                # No vertex of s is open, so no face met on the way down is
                # a vertex: step to an open codimension-one face while one exists.
                m, down = s, True
                while down:
                    down = False
                    for i in range(len(m)):
                        f = m[:i] + m[i + 1 :]
                        if depth[f] == d:
                            m, down = f, True
                            break
                anchor[s] = m
        minimal = set(anchor.values())
        edges = ((m, anchor[F]) for m in minimal for F in star(self.skeleton(depth[m]), m).facets)
        parts = components(minimal, edges)
        part_of = {m: i for i, part in enumerate(parts) for m in part}
        members: List[List[Simplex]] = [[] for _ in parts]
        for s, m in anchor.items():
            members[part_of[m]].append(s)
        out = [
            Stratum(depth[part[0]], frozenset(fs), depth[part[0]] == self.dim)
            for part, fs in zip(parts, members)
        ]
        return tuple(sorted(out, key=lambda s: (s.dim, min(s.simplices))))

    def same_filtration(self, other: "FilteredComplex") -> bool:
        return self.complex.facets == other.complex.facets and self.depth == other.depth


def make_filtered(
    K: SimplicialComplex,
    skeleta: Optional[Dict[int, Iterable[Simplex]]] = None,
    boundary: Optional[Iterable[Simplex]] = None,
    orientation: Optional[OrientationAssignment] = None,
    classical: bool = True,
    heuristic: bool = False,
) -> FilteredComplex:
    """Assemble a filtration from generating simplices per skeleton index.

    Missing indices inherit the skeleton below; the top skeleton is always the
    whole complex.
    """
    n = K.dim
    skeleta = skeleta or {}
    out: List[SimplicialComplex] = []
    prev = EMPTY
    for j in range(max(n, 0)):
        gens = list(skeleta.get(j, []))
        if gens:
            cur = K.subcomplex(list(prev.facets) + gens)
        else:
            cur = prev
        out.append(cur)
        prev = cur
    out = out + [K] if n >= 0 else []
    B = K.subcomplex(boundary) if boundary is not None else None
    return FilteredComplex(K, tuple(out), B, orientation, classical, heuristic)


def filtered_by_depth(
    K: SimplicialComplex,
    depth: Callable[[Simplex], int],
    boundary: Optional[Iterable[Simplex]] = None,
    orientation: Optional[OrientationAssignment] = None,
    classical: bool = True,
    heuristic: bool = False,
) -> FilteredComplex:
    """The filtration whose skeleton j is generated by the faces f of K with
    depth(f) ≤ j; a negative depth counts as 0."""
    gens: Dict[int, List[Simplex]] = {}
    for f in K.faces:
        gens.setdefault(max(depth(f), 0), []).append(f)
    return make_filtered(K, gens, boundary, orientation, classical, heuristic)


def trivial_filtration(
    K: SimplicialComplex, orientation: Optional[OrientationAssignment] = None
) -> FilteredComplex:
    return make_filtered(K, {}, None, orientation)


# ---------------------------------------------------------------------------
# Strata


@dataclass(frozen=True)
class Stratum:
    dim: int
    simplices: FrozenSet[Simplex]
    regular: bool

    @property
    def top_simplices(self) -> List[Simplex]:
        return sorted(s for s in self.simplices if len(s) - 1 == self.dim)


def _nesting_fault(FX: FilteredComplex) -> str:
    """The first break in X^0 ⊆ X^1 ⊆ … ⊆ X^n, or "".  A skeleton that is not
    a subcomplex of the carrier raises MalformedFiltration."""
    prev_faces: FrozenSet[Simplex] = frozenset()
    for j in range(FX.dim + 1):
        sk = FX.skeleton(j)
        if not sk.faces <= FX.complex.faces:
            raise MalformedFiltration(f"skeleton {j} is not a subcomplex of the carrier")
        if not prev_faces <= sk.faces:
            return f"skeleton {j-1} not contained in skeleton {j}"
        prev_faces = sk.faces
    return ""


def _skeleta_fault(FX: FilteredComplex) -> str:
    """Clause (a): an X^j, j < n, of dimension above j, else the nesting fault."""
    for j in range(FX.dim):
        if FX.skeleton(j).dim > j:
            return f"skeleton {j} has dimension {FX.skeleton(j).dim}"
    return _nesting_fault(FX)


def _purity_fault(K: SimplicialComplex) -> str:
    """Clause (b): "" when K is empty or pure."""
    return "" if K.is_pure else "carrier is not pure"


def components(nodes: Iterable, edges: Iterable[Tuple]) -> List[list]:
    """Connected components of a graph, by union-find.

    Each component lists its nodes in the order of `nodes`, and components
    come in the order of their first node.  Every edge must join two nodes.
    """
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    comps: Dict[object, list] = {}
    for x in parent:
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def _face_edges(faces):
    """Edges s–f from each face s to its codimension-one faces f in `faces`."""
    for s in faces:
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            if f in faces:
                yield s, f


def strata(FX: FilteredComplex) -> List[Stratum]:
    """The strata of FX (computed once per filtration), in a fresh list."""
    return list(FX.strata)


def _restrict_to_skeleta(
    FX: FilteredComplex, L: SimplicialComplex, s: Simplex
) -> FilteredComplex:
    """Filtration induced on the link L of the top stratum simplex s.

    A link simplex τ records the radial directions through the open join of s
    and τ, so it belongs to skeleton t exactly when s ∪ τ lies in
    X^{dim s + 1 + t}.  (Intersecting L with the skeleta directly would
    overcount: a link simplex can lie in the closure of a neighboring stratum
    without the germ at s pointing into it.)
    """
    return filtered_by_depth(
        L,
        lambda f: FX.depth[tuple(sorted(f + s))] - len(s),
        None,
        None,
        FX.classical,
        FX.heuristic,
    )


def stratum_link(FX: FilteredComplex, S: Stratum) -> FilteredComplex:
    """Link of a top simplex of the stratum, with the induced shifted filtration.

    A singular stratum with no top simplex raises NoTopSimplex.  No barycentric
    subdivision would give it one while X^j has dimension ≤ j (clause (a)): a
    chain of faces lies in the subdivided stratum only when its largest face
    lies in S, and that face has dimension < j, so the chain has at most j faces.
    """
    if S.regular:
        return trivial_filtration(EMPTY)
    tops = S.top_simplices
    if not tops:
        raise NoTopSimplex(f"stratum of dim {S.dim} has no top simplex")
    return _restrict_to_skeleta(FX, link(FX.complex, tops[0]), tops[0])


def require_pure(FX: FilteredComplex):
    """Raise NotValidated on the first fault of clause (b), then of (a)."""
    fault = _purity_fault(FX.complex) or _skeleta_fault(FX)
    if fault:
        raise NotValidated(fault)


# ---------------------------------------------------------------------------
# Sphere and ball surrogates


class _Flag:
    """Mutable heuristic marker threaded through recognition routines."""

    def __init__(self):
        self.heuristic = False


def _shape(K: SimplicialComplex) -> FrozenSet[Simplex]:
    """K.facets with K.vertices renumbered 0, 1, 2, … in order."""
    rank = dict(zip(K.vertices, range(len(K.vertices)))).__getitem__
    return frozenset(tuple(map(rank, f)) for f in K.facets)


def _memo_on_shape(raw):
    """Memoize raw(K, flag, *args) on `_shape(K)` and the hashable extra
    arguments; a hit sets the flag as raw did.

    Precondition, which makes the key exact.  The renumbering keeps the vertex
    order, so sorts, min(K.facets), the collapse queue and the homology
    fallback run step for step alike on complexes with one key.  raw's answer
    and flag are isomorphism invariants (a collapse implies that the homology
    test passes, and the flag is set before the collapse).  The answer names
    no vertex: it is a bool or a label-free tuple.  Middle IH keeps the
    precondition too: the intrinsic stratification is determined by K and
    found by the memoized recognisers, `ensure_full` stars simplices in
    lexicographic order, and the groups and the flag name no vertex.
    """
    memo: Dict[tuple, Tuple[object, bool]] = {}

    @functools.wraps(raw)
    def cached(K: SimplicialComplex, flag: Optional[_Flag] = None, *args):
        key = (_shape(K), *args)
        hit = memo.get(key)
        if hit is None:
            local = _Flag()
            hit = memo[key] = (raw(K, local, *args), local.heuristic)
        if hit[1] and flag is not None:
            flag.heuristic = True
        return hit[0]

    return cached


def connected_components(K: SimplicialComplex) -> int:
    return len(components(K.vertices, ((f[0], v) for f in K.facets for v in f[1:])))


def _pseudomanifold_fault(K: SimplicialComplex, closed: bool = True) -> str:
    """Why K is not a pseudomanifold, or "": it must be pure with each ridge
    in at most two facets, and in exactly two when closed."""
    fault = _purity_fault(K)
    if not fault:
        for r, fs in K.ridges.items():
            if len(fs) > 2 or (closed and len(fs) != 2):
                return f"ridge {r} lies in {len(fs)} facets"
    return fault


def _is_closed_pseudo(K: SimplicialComplex) -> bool:
    return not _pseudomanifold_fault(K)


def is_circle(K: SimplicialComplex) -> bool:
    # In dimension 1 the ridges are the vertices.
    return K.dim == 1 and _is_closed_pseudo(K) and connected_components(K) == 1


def _is_closed_surface(K: SimplicialComplex) -> bool:
    return (
        K.dim == 2
        and _is_closed_pseudo(K)
        and all(is_circle(link(K, (v,))) for v in K.vertices)
        and connected_components(K) == 1
    )


def _surface_type(K: SimplicialComplex):
    """(orientable, χ) of a closed connected surface, or None."""
    if not _is_closed_surface(K):
        return None
    from .complexes import is_orientable

    return (is_orientable(K), K.euler_characteristic())


@_memo_on_shape
def sphere_like(K: SimplicialComplex, flag: _Flag) -> bool:
    """Is K (a candidate link) a sphere?  Exact for dim ≤ 2, homology level above.

    In dimension 2, a closed connected surface with χ = 2 is S².  Above
    that, a closed connected pseudomanifold with the sphere's χ that
    collapses to a point once one facet σ is removed has the homology of a
    sphere (H̃_*(K) ≅ H_*(σ, ∂σ)), so the collapse settles what homology
    would, and homology is the fallback.  Either way the flag is set.
    """
    if K.is_empty():
        return True
    d = K.dim
    if d == 0:
        return len(K.vertices) == 2
    if d == 1:
        return is_circle(K)
    if K.euler_characteristic() != (2 if d % 2 == 0 else 0):
        return False
    if d == 2:
        return _is_closed_surface(K)
    if not _is_closed_pseudo(K) or connected_components(K) != 1:
        return False
    flag.heuristic = True
    if collapses_to_point(K, min(K.facets)):
        return True
    groups = algebra.homology(K, algebra.ZZ)
    want = [algebra.HomologyGroup(1)] + [algebra.HomologyGroup(0)] * (d - 1) + [
        algebra.HomologyGroup(1)
    ]
    return groups == want


@_memo_on_shape
def ball_like(K: SimplicialComplex, flag: _Flag) -> bool:
    """Is K plausibly a cone (contractible)?  Literal cones pass immediately.

    Otherwise a connected K with χ = 1 passes when it collapses to a point
    (collapsible implies contractible) or, failing that, when its reduced
    integral homology vanishes.  Above dimension 2 the flag is set on both
    routes.
    """
    if K.is_empty():
        return False
    apexes = set(K.vertices)
    for f in K.facets:
        apexes &= set(f)
        if not apexes:
            break
    if apexes:
        return True
    if connected_components(K) != 1 or K.euler_characteristic() != 1:
        return False
    if K.dim > 2:
        flag.heuristic = True
    if collapses_to_point(K):
        return True
    groups = algebra.homology(K, algebra.ZZ, reduced=True)
    return all(g == algebra.HomologyGroup(0) for g in groups)


# ---------------------------------------------------------------------------
# Germ invariants and intrinsic stratification


def octahedral_sphere(d: int) -> SimplicialComplex:
    """The d-fold join of S⁰ with itself: a (d−1)-sphere on 2d vertices."""
    K = EMPTY
    for _ in range(d):
        K = suspension(K)
    return K


@_memo_on_shape
def complex_invariant(K: SimplicialComplex, flag: _Flag):
    """A PL-homeomorphism invariant of a compact polyhedron.

    Exact classification in dimension ≤ 2 for the pseudomanifold cases; above
    that the invariant combines integral homology with the recursive multiset
    of germ invariants of the singular strata, and is heuristic.
    """
    if K.is_empty():
        return ("empty",)
    d = K.dim
    if d == 0:
        return ("points", len(K.vertices))
    if d == 1 and _is_closed_pseudo(K):
        return ("curves", connected_components(K))
    if d == 2:
        t = _surface_type(K)
        if t is not None:
            return ("surface", t)
    if d >= 3:
        flag.heuristic = True
    hom = tuple((g.rank, g.torsion) for g in algebra.homology(K, algebra.ZZ))
    multiset = sorted(
        (max(len(s) - 1 for s in faces), inv) for inv, faces in germ_partition(K, flag)
    )
    return ("cx", d, hom, tuple(multiset))


def singular_faces(
    K: SimplicialComplex, flag: _Flag, keep: Optional[Callable[[Simplex], bool]] = None
) -> Iterator[Tuple[Simplex, SimplicialComplex]]:
    """(face, link) for the faces of K that pass `keep` and whose link is not a sphere.

    They come largest first, then in lexicographic order.  This is the one
    place where face links are recognised as spheres.
    """
    for f in sorted(K.faces, key=lambda f: (-len(f), f)):
        if keep is None or keep(f):
            L = link(K, f)
            if not sphere_like(L, flag):
                yield f, L


def polyhedral_link(L: SimplicialComplex, d: int) -> SimplicialComplex:
    """The polyhedral link of an interior point of a d-face whose link is L.

    It is S^{d−1} * L, materialized with an octahedral sphere factor so that
    literal join structure survives.
    """
    return L if d == 0 else join(octahedral_sphere(d), L)


def germ_partition(
    K: SimplicialComplex, flag: _Flag, keep: Optional[Callable[[Simplex], bool]] = None
) -> List[Tuple[object, List[Simplex]]]:
    """Group the singular faces of K that pass `keep` by germ invariant.

    Returns (invariant, faces) pairs, one per connected class of singular
    faces with equal invariant under face adjacency.
    """
    inv = {
        f: complex_invariant(polyhedral_link(L, len(f) - 1), flag)
        for f, L in singular_faces(K, flag, keep)
    }
    same = ((s, f) for s, f in _face_edges(inv) if inv[s] == inv[f])
    return [(inv[faces[0]], faces) for faces in components(inv, same)]


def check_pseudomanifold(K: SimplicialComplex, closed: bool = True):
    """Clauses (a)–(d) for the trivial filtration; raises NotPseudomanifold."""
    fault = _pseudomanifold_fault(K, closed)
    if fault:
        raise NotPseudomanifold(fault)


def intrinsic_stratification(K: SimplicialComplex) -> FilteredComplex:
    """The coarsest stratification, via the iterated germ-invariant partition."""
    check_pseudomanifold(K, closed=True)
    if K.is_empty():
        return trivial_filtration(K)
    flag = _Flag()
    skeleta: Dict[int, List[Simplex]] = {}
    # Closed K: ridge and facet links are S⁰ and empty, so no class has codimension < 2.
    for _inv, faces in germ_partition(K, flag):
        skeleta.setdefault(max(len(s) - 1 for s in faces), []).extend(faces)
    return make_filtered(K, skeleta, None, None, True, flag.heuristic)


def coarsens(FXcoarse: FilteredComplex, FXfine: FilteredComplex) -> bool:
    """True iff every stratum of the fine filtration sits inside one coarse stratum."""
    if FXcoarse.complex.facets != FXfine.complex.facets:
        raise DifferentCarrier("filtrations live on different carriers")
    where: Dict[Simplex, int] = {}
    for idx, S in enumerate(strata(FXcoarse)):
        for s in S.simplices:
            where[s] = idx
    for S in strata(FXfine):
        ids = {where[s] for s in S.simplices}
        if len(ids) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Polyhedral link decomposition


@dataclass(frozen=True)
class LinkDecomposition:
    suspension_count: int
    core: FilteredComplex
    reconstruction_checked: Optional[bool]
    heuristic: bool


def literal_desuspension(K: SimplicialComplex) -> Tuple[int, SimplicialComplex]:
    """Strip literal {n,s}*Z join structure as often as possible."""
    j = 0
    while True:
        found = None
        if K.is_empty():
            break
        for a in K.vertices:
            La = link(K, (a,))
            for b in K.vertices:
                if b <= a or (a, b) in K.faces:
                    continue
                if link(K, (b,)).facets != La.facets:
                    continue
                # Every facet must contain one of the poles.
                if all(a in f or b in f for f in K.facets):
                    found = La
                    break
            if found is not None:
                break
        if found is None:
            break
        K = found
        j += 1
    return j, K


def polyhedral_link_decomposition(FX: FilteredComplex, x: int) -> LinkDecomposition:
    """Desuspension of the polyhedral link of the vertex x off the boundary."""
    from .errors import BoundaryPoint

    if FX.boundary is not None and (x,) in FX.boundary.faces:
        raise BoundaryPoint(f"vertex {x} lies on the boundary")
    FXstar = intrinsic_stratification(FX.complex)
    target = None
    for S in strata(FXstar):
        if (x,) in S.simplices:
            target = S
            break
    if target is None:
        raise MalformedFiltration(f"vertex {x} not found in any stratum")
    if target.regular:
        j = FX.dim
        core = trivial_filtration(EMPTY)
    else:
        j = target.dim
        core = stratum_link(FXstar, target)
    Lk = link(FX.complex, (x,))
    model = core.complex
    for _ in range(j):
        model = suspension(model)
    from .iso import isomorphic

    recon = isomorphic(model, Lk) is not None
    return LinkDecomposition(j, core, recon, FXstar.heuristic)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    passed: bool
    clauses: Tuple[ClauseResult, ...]
    heuristic: bool
    note: str = ""

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)

    def failing(self) -> List[str]:
        return [c.clause for c in self.clauses if not c.passed]


def _check_stratum_links(
    FX: FilteredComplex, all_strata: List[Stratum], boundary: SimplicialComplex, flag: _Flag
) -> Tuple[bool, str, Dict[Simplex, bool]]:
    """Clause (e) once the ridge degrees have passed: in X^j, the link of each
    face of a j-stratum is a sphere of the right dimension, or a cone on the
    boundary.  Returns (passed, detail, collar), where collar holds the
    verdicts on boundary-face links taken in the carrier, for clause (g).

    Lemma: only faces below the top dimension of their stratum need a link,
    and on the regular stratum only faces below its ridges.  Clause (a)
    bounds dim X^j by j, so a j-face of a j-stratum is a facet of X^j and its
    link is empty, the (−1)-sphere.  A ridge lies in two facets, or in one
    exactly when it is on the boundary (the ridge degrees), so its link is
    two points, a 0-sphere, or one point, a cone.  Those verdicts are true
    and set no flag.
    """
    n = FX.dim
    # The lemma's cones: the boundary ridges of the regular strata.
    regular_rim = (r for r in boundary.faces_of_dim(n - 1) if FX.depth.get(r) == n)
    collar = dict.fromkeys(regular_rim, True)
    for S in all_strata:
        # Every coface of s in X^j lies in the open stratum S, so the
        # link in the skeleton is the link inside the stratum.
        Xj = FX.skeleton(S.dim)
        top = S.dim - 1 if S.regular else S.dim
        for s in sorted(f for f in S.simplices if len(f) <= top):
            L = link(Xj, s)
            want = S.dim - (len(s) - 1) - 1
            if s in boundary.faces:
                ok = ball_like(L, flag)
                if S.regular:  # a singular X^j has dimension below n: not K
                    collar[s] = ok
            else:
                ok = sphere_like(L, flag) and L.dim == want
            if not ok:
                return False, f"stratum link of {s} is not a {want}-sphere", collar
    return True, "", collar


def validate_stratified_pseudomanifold(
    FX: FilteredComplex, mode: str = "closed"
) -> ValidationReport:
    """Clause-by-clause validation; see the module docstring for exactness levels.

    Clause (c) follows from (a) and (b), so it is recorded without a check.
    Clause (e) takes links only below the top dimension of each stratum (see
    `_check_stratum_links`); (f) and (g) validate the links of the singular
    strata and the boundary as closed filtrations one level down.
    """
    if mode not in ("closed", "with-boundary"):
        raise ValueError("mode must be 'closed' or 'with-boundary'")
    K = FX.complex
    n = FX.dim
    flag = _Flag()
    clauses: List[ClauseResult] = []

    if K.is_empty():
        clauses = [ClauseResult(c, True, "empty complex") for c in "abcdefg"]
        return ValidationReport(mode, True, tuple(clauses), False, "empty pseudomanifold")

    # (a) dimensions and nesting of the skeleta, (b) purity
    det_a, det_b = _skeleta_fault(FX), _purity_fault(K)
    clauses.append(ClauseResult("a", not det_a, det_a))
    clauses.append(ClauseResult("b", not det_b, det_b))

    if det_a or det_b:
        return ValidationReport(mode, False, tuple(clauses), flag.heuristic)

    # (c) density of the regular part: by (b) every face lies in an n-face,
    # and by (a) no n-face lies in X^{n−1}, so the regular part is all of K.
    clauses.append(ClauseResult("c", True, ""))

    # (d) classical
    same = FX.skeleton(n - 1).faces == FX.skeleton(n - 2).faces
    if FX.classical:
        clauses.append(
            ClauseResult("d", same, "" if same else "codimension-one stratum present")
        )
    else:
        clauses.append(ClauseResult("d", True, "classical flag unset; not required"))

    if not all(c.passed for c in clauses):
        return ValidationReport(mode, False, tuple(clauses), flag.heuristic)

    # Ridge degrees: interior ridges in two facets, boundary ridges in one.
    boundary = FX.boundary if FX.boundary is not None else EMPTY
    ok_ridge, det_ridge = True, ""
    for r, fs in K.ridges.items():
        if len(fs) > 2:
            ok_ridge, det_ridge = False, f"ridge {r} lies in {len(fs)} facets"
            break
        if len(fs) == 1:
            if mode == "closed" or r not in boundary.faces:
                ok_ridge, det_ridge = False, f"ridge {r} is free but not boundary"
                break
        elif r in boundary.faces:
            ok_ridge, det_ridge = False, f"boundary ridge {r} is interior"
            break

    # (e) stratum manifoldness via link checks
    all_strata = strata(FX)
    ok_e, det_e, collar = ok_ridge, det_ridge, {}
    if ok_e:
        ok_e, det_e, collar = _check_stratum_links(FX, all_strata, boundary, flag)
    clauses.append(ClauseResult("e", ok_e, det_e))

    def recurse(child: FilteredComplex) -> List[str]:
        """Validate a child filtration closed, one level down; fold its flag
        into ours and return the clauses it fails."""
        rep = validate_stratified_pseudomanifold(child, "closed")
        flag.heuristic = flag.heuristic or rep.heuristic
        return rep.failing()

    # (f) recursive link condition on singular strata.  The recursion needs no
    # cap: each link here has dimension below n, and (g) recurses on a boundary
    # of dimension n − 1, so there are at most n + 1 levels.
    ok_f, det_f = True, ""
    for S in all_strata:
        if S.regular:
            continue
        tops = S.top_simplices
        if not tops:
            ok_f, det_f = False, f"stratum of dim {S.dim} has no top simplex"
            break
        # K is pure by clause (b), so each link has dimension n − dim S − 1.
        seen = set()
        for s in tops:
            L = link(K, s)
            if L.facets in seen:
                continue
            seen.add(L.facets)
            failing = recurse(_restrict_to_skeleta(FX, L, s))
            if failing:
                ok_f = False
                det_f = f"link of stratum dim {S.dim} fails clauses {failing}"
                break
        if not ok_f:
            break
    clauses.append(ClauseResult("f", ok_f, det_f))

    # (g) boundary clauses
    if mode == "with-boundary":
        ok_g, det_g = True, ""
        if boundary.is_empty():
            # An empty designated boundary is no boundary.
            if any(len(fs) == 1 for fs in K.ridges.values()):
                ok_g, det_g = False, "free ridges exist but no boundary is designated"
        else:
            B = boundary
            # Induced filtration B^i = X^{i+1} ∩ B must make B a closed
            # stratified pseudomanifold of dimension n−1.  A collared stratum
            # meets B in a stratum one dimension lower, so B^{−1} = X⁰ ∩ B is empty.
            on_x0 = [f for f in B.faces if FX.depth[f] == 0]
            if B.dim != n - 1:
                ok_g, det_g = False, f"boundary has dimension {B.dim}"
            elif on_x0:
                ok_g, det_g = False, f"boundary face {min(on_x0)} lies in X^0"
            else:
                BF = filtered_by_depth(
                    B, lambda f: FX.depth[f] - 1, classical=FX.classical
                )
                failing = recurse(BF)
                if failing:
                    ok_g, det_g = False, f"boundary fails clauses {failing}"
            if ok_g:
                # Collar necessary condition: links of boundary faces are cones.
                for s in sorted(B.faces):
                    ok = collar.get(s)
                    if ok is None:
                        ok = ball_like(link(K, s), flag)
                    if not ok:
                        ok_g = False
                        det_g = f"link of boundary face {s} is not a cone"
                        break
        clauses.append(ClauseResult("g", ok_g, det_g))

    passed = all(c.passed for c in clauses)
    note = (
        "verified up to homology-level link checks" if passed and flag.heuristic else ""
    )
    return ValidationReport(mode, passed, tuple(clauses), flag.heuristic, note)
