"""Filtered complexes as stratified pseudomanifolds.

Validation against the stratified pseudomanifold axioms, stratum enumeration,
links of strata, polyhedral-link desuspension and intrinsic stratification.

Sphere recognition is exact through dimension 2 (curves and closed surfaces
are classified combinatorially); above that links are checked at the level of
integral homology and results carry a `heuristic` flag.  Sphere and ball
recognition first try an exact greedy collapse (`collapses_to_point`), which
settles most links without homology; homology is the fallback when the
collapse gets stuck.  The verdict and the flag are the same on both routes.
Recognition is memoized per shape (the facets renumbered in vertex order), which
is exact: every answer and flag is an isomorphism invariant naming no vertex.
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
    empty_complex,
    join,
    link,
    ridges_with_facets,
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

        A malformed filtration raises on every access: an exception is not cached.
        """
        _check_skeleta(self)
        out: List[Stratum] = []
        for j in range(self.dim + 1):
            opens = self.skeleton(j).faces - self.skeleton(j - 1).faces
            for comp in components(opens, _face_edges(opens)):
                out.append(Stratum(j, frozenset(comp), j == self.dim))
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
    K: SimplicialComplex,
    boundary: Optional[Iterable[Simplex]] = None,
    orientation: Optional[OrientationAssignment] = None,
) -> FilteredComplex:
    return make_filtered(K, {}, boundary, orientation)


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


def _check_skeleta(FX: FilteredComplex):
    n = FX.dim
    prev_faces: FrozenSet[Simplex] = frozenset()
    for j in range(n + 1):
        sk = FX.skeleton(j)
        if not sk.faces <= FX.complex.faces:
            raise MalformedFiltration(f"skeleton {j} is not a subcomplex of the carrier")
        if not prev_faces <= sk.faces:
            raise MalformedFiltration(f"skeleton {j-1} not contained in skeleton {j}")
        prev_faces = sk.faces


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
        return trivial_filtration(empty_complex(-1))
    tops = S.top_simplices
    if not tops:
        raise NoTopSimplex(f"stratum of dim {S.dim} has no top simplex")
    return _restrict_to_skeleta(FX, link(FX.complex, tops[0]), tops[0])


def require_pure(FX: FilteredComplex):
    """Raise NotValidated unless the carrier is empty or pure (clause (b))
    and each X^j, j < n, has dimension at most j (clause (a))."""
    if not FX.complex.is_empty() and not FX.complex.is_pure:
        raise NotValidated("carrier is not totally n-dimensional")
    for j in range(FX.dim):
        if FX.skeleton(j).dim > j:
            raise NotValidated(f"skeleton {j} has dimension {FX.skeleton(j).dim}")


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
    """Memoize raw(K, flag) on `_shape(K)`; a hit sets the flag as raw did.

    Precondition, which makes the key exact.  The renumbering keeps the vertex
    order, so sorts, min(K.facets), the collapse queue and the homology
    fallback run step for step alike on complexes with one key.  raw's answer
    and flag are isomorphism invariants (a collapse implies that the homology
    test passes, and the flag is set before the collapse).  The answer names
    no vertex: it is a bool or a label-free tuple.
    """
    memo: Dict[FrozenSet[Simplex], Tuple[object, bool]] = {}

    @functools.wraps(raw)
    def cached(K: SimplicialComplex, flag: Optional[_Flag] = None):
        key = _shape(K)
        hit = memo.get(key)
        if hit is None:
            local = _Flag()
            hit = memo[key] = (raw(K, local), local.heuristic)
        if hit[1] and flag is not None:
            flag.heuristic = True
        return hit[0]

    return cached


def connected_components(K: SimplicialComplex) -> int:
    return len(components(K.vertices, ((f[0], v) for f in K.facets for v in f[1:])))


def _is_closed_pseudo(K: SimplicialComplex) -> bool:
    if not K.is_pure:
        return False
    return all(len(fs) == 2 for fs in ridges_with_facets(K).values())


def is_circle(K: SimplicialComplex) -> bool:
    if K.dim != 1 or not K.is_pure:
        return False
    deg: Dict[int, int] = {}
    for e in K.facets:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    return all(d == 2 for d in deg.values()) and connected_components(K) == 1


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
    K = empty_complex(-1)
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
    if K.is_empty():
        return
    if not K.is_pure:
        raise NotPseudomanifold("complex is not pure")
    for r, fs in ridges_with_facets(K).items():
        if len(fs) > 2 or (closed and len(fs) != 2):
            raise NotPseudomanifold(f"ridge {r} lies in {len(fs)} facets")


def intrinsic_stratification(K: SimplicialComplex) -> FilteredComplex:
    """The coarsest stratification, via the iterated germ-invariant partition."""
    check_pseudomanifold(K, closed=True)
    if K.is_empty():
        return trivial_filtration(K)
    flag = _Flag()
    n = K.dim
    skeleta: Dict[int, List[Simplex]] = {}
    for _inv, faces in germ_partition(K, flag):
        d = max(len(s) - 1 for s in faces)
        if d >= n - 1:
            raise NotPseudomanifold(
                "intrinsic partition produced a codimension-one singular class"
            )
        skeleta.setdefault(d, []).extend(faces)
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
        if K.is_empty() or K.dim < 0:
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
        core = trivial_filtration(empty_complex(-1))
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


def validate_stratified_pseudomanifold(
    FX: FilteredComplex, mode: str = "closed", _depth: int = 0
) -> ValidationReport:
    """Clause-by-clause validation; see the module docstring for exactness levels."""
    if mode not in ("closed", "with-boundary"):
        raise ValueError("mode must be 'closed' or 'with-boundary'")
    K = FX.complex
    n = FX.dim
    flag = _Flag()
    clauses: List[ClauseResult] = []

    if K.is_empty():
        clauses = [ClauseResult(c, True, "empty complex") for c in "abcdefg"[: 7]]
        return ValidationReport(mode, True, tuple(clauses), False, "empty pseudomanifold")

    # (a) nesting
    ok_a, det_a = True, ""
    prev_faces: FrozenSet[Simplex] = frozenset()
    for j in range(n + 1):
        sk = FX.skeleton(j)
        if not sk.faces <= K.faces:
            raise MalformedFiltration(f"skeleton {j} is not a subcomplex of the carrier")
        if not prev_faces <= sk.faces:
            ok_a, det_a = False, f"skeleton {j-1} not contained in skeleton {j}"
            break
        if j < n and sk.dim > j:
            ok_a, det_a = False, f"skeleton {j} has dimension {sk.dim}"
            break
        prev_faces = sk.faces
    clauses.append(ClauseResult("a", ok_a, det_a))

    # (b) totally n-dimensional
    ok_b = K.is_pure
    clauses.append(ClauseResult("b", ok_b, "" if ok_b else "carrier is not pure"))

    if not (ok_a and ok_b):
        return ValidationReport(mode, False, tuple(clauses), flag.heuristic)

    # (c) density of the regular part
    sing_faces = FX.skeleton(n - 1).faces
    regular = SimplicialComplex(frozenset(f for f in K.facets if f not in sing_faces))
    missing = K.faces - regular.faces
    ok_c = not missing
    clauses.append(
        ClauseResult("c", ok_c, "" if ok_c else f"face {min(missing)} misses the regular part")
    )

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
    for r, fs in ridges_with_facets(K).items():
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
    ok_e, det_e = ok_ridge, det_ridge
    # Verdicts on boundary-face links taken in the carrier, for clause (g).
    collar: Dict[Simplex, bool] = {}
    if ok_e:
        for S in all_strata:
            # Every coface of s in X^j lies in the open stratum S, so the
            # link in the skeleton is the link inside the stratum.
            Xj = FX.skeleton(S.dim)
            in_carrier = Xj == K
            for s in sorted(S.simplices):
                L = link(Xj, s)
                want = S.dim - (len(s) - 1) - 1
                on_boundary = s in boundary.faces
                if want < 0:
                    ok = L.is_empty()
                elif on_boundary:
                    ok = ball_like(L, flag)
                    if in_carrier:
                        collar[s] = ok
                else:
                    ok = sphere_like(L, flag) and L.dim == want
                if not ok:
                    ok_e = False
                    det_e = f"stratum link of {s} is not a {want}-sphere"
                    break
            if not ok_e:
                break
    clauses.append(ClauseResult("e", ok_e, det_e))

    # (f) recursive link condition on singular strata
    ok_f, det_f = True, ""
    if _depth >= 12 and not all(S.regular for S in all_strata):
        flag.heuristic = True
        det_f = "recursion depth limit: link condition not checked"
    elif _depth < 12:
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
                LF = _restrict_to_skeleta(FX, L, s)
                rep = validate_stratified_pseudomanifold(LF, "closed", _depth + 1)
                if rep.heuristic:
                    flag.heuristic = True
                if not rep.passed:
                    ok_f = False
                    det_f = f"link of stratum dim {S.dim} fails clauses {rep.failing()}"
                    break
            if not ok_f:
                break
    clauses.append(ClauseResult("f", ok_f, det_f))

    # (g) boundary clauses
    if mode == "with-boundary":
        ok_g, det_g = True, ""
        if FX.boundary is None:
            bd = [r for r, fs in ridges_with_facets(K).items() if len(fs) == 1]
            if bd:
                ok_g, det_g = False, "free ridges exist but no boundary is designated"
        else:
            B = FX.boundary
            # Induced filtration B^i = X^{i+1} ∩ B must make B a closed
            # stratified pseudomanifold of dimension n−1.
            if B.dim != n - 1:
                ok_g, det_g = False, f"boundary has dimension {B.dim}"
            else:
                BF = filtered_by_depth(
                    B, lambda f: FX.depth[f] - 1, classical=FX.classical
                )
                rep = validate_stratified_pseudomanifold(BF, "closed", _depth + 1)
                if rep.heuristic:
                    flag.heuristic = True
                if not rep.passed:
                    ok_g, det_g = False, f"boundary fails clauses {rep.failing()}"
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
