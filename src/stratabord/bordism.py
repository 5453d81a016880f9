"""Explicit stratified bordisms.

The central construction realizes the bordism from a stratified pseudomanifold
X to its intrinsic stratification X* on the carrier |I × X|: the cylinder is
stratified like the given filtration near one end, intrinsically near the
other, with the middle level carrying the interface strata (the truncated
half-intrinsic suspension).  It, the product cylinder I × X and that
cylinder's side piece I × ∂X are one construction, `_product`: the staircase
product with a path, each face filtered by a depth rule on its projections to
X and to the levels, and the carrier oriented by pinning its two end levels.
On top of that sit half-intrinsic suspensions, gluing along boundary pieces,
and restratification of a given bordism.

Certificates are proofs-carried-with-data: they store the filtered carrier
and labeled boundary pieces, each with its isomorphism, sign and collar, and
can be re-verified from scratch.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from .complexes import (
    OrientationAssignment,
    Simplex,
    SimplicialComplex,
    _propagate,
    boundary_orientation,
    boundary_subcomplex,
    build_complex,
    incidence,
    product_with_map,
    suspension,
    suspension_poles,
    verify_orientation,
)
from .errors import (
    CollarMissing,
    DifferentCarrier,
    IncompatibleOrientations,
    InternalInvariantBreach,
    IsomorphismMissing,
    NoIsomorphism,
    NotClassical,
    NotClosed,
    NotValidated,
    SignClash,
    UnknownName,
)
from .iso import LabeledIsomorphism, isomorphic
from .strat import (
    FilteredComplex,
    _Flag,
    check_pseudomanifold,
    filtered_by_depth,
    germ_partition,
    intrinsic_stratification,
    make_filtered,
    require_pure,
    strata,
    validate_stratified_pseudomanifold,
)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class CollarCertificate:
    kind: str  # "product" or "corner"
    # product: pairs (boundary vertex, inward neighbor at the next level);
    # corner: pairs (side vertex, the other end of its I-fibre), both ways.
    data: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class BoundaryPiece:
    label: str
    space: FilteredComplex
    iso: LabeledIsomorphism
    sign: int  # +1 or -1
    collar: Optional[CollarCertificate]


@dataclass(frozen=True)
class BordismCertificate:
    Y: FilteredComplex
    pieces: Tuple[BoundaryPiece, ...]
    provenance: str

    def piece(self, label: str) -> BoundaryPiece:
        for p in self.pieces:
            if p.label == label:
                return p
        raise UnknownName(f"certificate has no piece {label!r}")


def reverse_certificate(cert: BordismCertificate) -> BordismCertificate:
    """Orientation reversal: flips the carrier orientation and all piece signs."""
    oa = cert.Y.orientation.reversed() if cert.Y.orientation else None
    Y = dataclasses.replace(cert.Y, orientation=oa)
    pieces = tuple(dataclasses.replace(p, sign=-p.sign) for p in cert.pieces)
    return BordismCertificate(Y, pieces, f"reversed({cert.provenance})")


# ---------------------------------------------------------------------------
# Half-intrinsic suspension


def _require_closed(FX: FilteredComplex):
    """Raise NotClosed when FX designates a boundary or has free ridges."""
    if not (designated_boundary(FX).is_empty() and boundary_subcomplex(FX.complex).is_empty()):
        raise NotClosed("input must be closed: no boundary and no free ridges")


def half_intrinsic_suspension(FX: FilteredComplex) -> FilteredComplex:
    """Suspension of FX stratified finely on the north side, intrinsically on
    the south side.  The north pole is always a 0-stratum; the south pole
    survives only when the intrinsic stratification of the cone keeps it."""
    K = FX.complex
    _require_closed(FX)
    north, south = suspension_poles(K)
    SK = suspension(K)
    flag = _Flag()
    gens: Dict[int, List[Simplex]] = defaultdict(list)
    gens[0].append((north,))
    for S in strata(FX):
        if S.regular:
            continue
        for s in S.simplices:
            gens[S.dim].append(s)
            gens[S.dim + 1].append(tuple(sorted(s + (north,))))
    # South cone: germ classes of the simplices containing the south pole.
    for _inv, faces in germ_partition(SK, flag, keep=lambda f: south in f):
        gens[max(len(s) - 1 for s in faces)].extend(faces)
    return make_filtered(
        SK, gens, None, None, FX.classical, FX.heuristic or flag.heuristic
    )


# ---------------------------------------------------------------------------
# Products with a path: the X -> X* bordism, cylinders and their sides


_PATH3 = build_complex([(0, 1), (1, 2)])  # levels: 0 = intrinsic end, 2 = X end
_PATH2 = build_complex([(0, 1)])


def _face_split(f: Simplex, inv: Dict[int, Tuple[int, int]]):
    xs = tuple(sorted({inv[v][0] for v in f}))
    ts = {inv[v][1] for v in f}
    return xs, ts


def _orient_pinned(
    Yc: SimplicialComplex,
    skip: frozenset,
    pins: Dict[Simplex, int],
) -> OrientationAssignment:
    """Coherent orientation, propagated across no ridge in skip, whose induced
    boundary orientation matches pins.

    pins maps boundary ridges of Yc to required induced signs; each
    propagation component must contain at least one pinned ridge, and all pins
    within a component must agree.
    """
    signs, root_of = _propagate(Yc, skip)
    flip: Dict[Simplex, int] = {}
    for r, want in pins.items():
        fs = Yc.ridges.get(r, ())
        if len(fs) != 1:
            raise InternalInvariantBreach(f"pinned ridge {r} is not free")
        F = fs[0]
        fix = want * signs[F] * incidence(F, r)  # ±1
        if flip.setdefault(root_of[F], fix) != fix:
            raise InternalInvariantBreach(
                "conflicting orientation pins within one component"
            )
    if len(flip) != len(set(root_of.values())):
        raise InternalInvariantBreach("orientation component carries no pin")
    return OrientationAssignment({f: signs[f] * flip[root_of[f]] for f in Yc.facets})


def _product(
    K: SimplicialComplex,
    path: SimplicialComplex,
    depth: Callable[[Simplex, set], int],
    side: Collection[Simplex],
    orientation: Optional[OrientationAssignment],
    classical: bool,
    heuristic: bool,
) -> Tuple[FilteredComplex, Dict[Tuple[int, int], int]]:
    """The staircase product K × path with levels 0 … top, filtered by
    depth(xs, ts) of each face's projections to K and to the levels.

    The boundary is the two end levels and the faces over `side`.  With an
    orientation, the carrier is oriented coherently off its singular ridges
    so that the top level induces that orientation and level 0 its reverse.
    Returns the filtration and the vertex map (x, level) -> vertex.
    """
    Yc, vmap = product_with_map(K, path)
    inv = {i: p for p, i in vmap.items()}
    top = max(path.vertices)
    depths: Dict[Simplex, int] = {}
    bgens = []
    for f in Yc.faces:
        xs, ts = _face_split(f, inv)
        depths[f] = depth(xs, ts)
        if ts == {0} or ts == {top} or xs in side:
            bgens.append(f)
    FY = filtered_by_depth(Yc, depths.__getitem__, bgens, None, classical, heuristic)
    if orientation is not None:
        sing = FY.skeleton(FY.dim - 1).faces
        pins = {
            tuple(sorted(vmap[(x, t)] for x in fx)): sign * s
            for t, sign in ((top, +1), (0, -1))
            for fx, s in orientation.signs.items()
        }
        FY = dataclasses.replace(FY, orientation=_orient_pinned(Yc, sing, pins))
    return FY, vmap


def _ends(K: SimplicialComplex, vmap, top: int, plus, minus):
    """The (+) piece at the top level and the (−) piece at level 0, copies of
    K carrying plus and minus, each with its product collar to the next level."""

    def level(t: int) -> LabeledIsomorphism:
        return LabeledIsomorphism({x: vmap[(x, t)] for x in K.vertices})

    def collar(t: int, u: int) -> CollarCertificate:
        pairs = sorted((vmap[(x, t)], vmap[(x, u)]) for x in K.vertices)
        return CollarCertificate("product", tuple(pairs))

    return [
        BoundaryPiece("plus", plus, level(top), +1, collar(top, top - 1)),
        BoundaryPiece("minus", minus, level(0), -1, collar(0, 1)),
    ]


def bordism_to_intrinsic(FX: FilteredComplex) -> BordismCertificate:
    """Oriented stratified bordism from FX to the intrinsic stratification X*.

    The carrier is the staircase cylinder K × path; skeleta follow the given
    filtration on the FX half, the intrinsic one on the other half, with the
    interface strata on the middle level.  Boundary pieces are literal copies.
    The orientation must be coherent off the singular ridges of X*, so that
    it orients X* too.
    """
    K = FX.complex
    n = FX.dim
    if not FX.classical:
        raise NotClassical("bordism construction needs a classical input")
    _require_closed(FX)
    if FX.orientation is None:
        raise IncompatibleOrientations("bordism source carries no orientation")
    FXstar = intrinsic_stratification(K)
    if not verify_orientation(K, FX.orientation, skip_ridges=FXstar.skeleton(n - 1).faces):
        raise NotClassical(
            "orientation does not extend over the intrinsic regular part"
        )
    FXstar = dataclasses.replace(FXstar, orientation=FX.orientation)
    N = n + 1

    def depth(xs: Simplex, ts: set) -> int:
        d, dstar = FX.depth[xs], FXstar.depth[xs]
        return min(
            d + 1 if ts <= {1, 2} else N,
            dstar + 1 if ts <= {0, 1} else N,
            d if ts == {1} and d < n else N,
        )

    FY, vmap = _product(
        K, _PATH3, depth, (), FX.orientation, FX.classical, FX.heuristic or FXstar.heuristic
    )
    pieces = _ends(K, vmap, 2, FX, FXstar)
    return BordismCertificate(FY, tuple(pieces), "bordism_to_intrinsic")


def designated_boundary(FX: FilteredComplex) -> SimplicialComplex:
    """The boundary of FX, or the subcomplex of its free ridges when FX
    designates none: the boundary a cylinder or a certificate is built on."""
    return FX.boundary if FX.boundary is not None else boundary_subcomplex(FX.complex)


def cylinder(FX: FilteredComplex) -> BordismCertificate:
    """The product bordism I × FX with the product stratification.

    For a closed FX the boundary splits into a (+) and a (−) copy; with
    non-empty ∂FX a third "side" piece I × ∂FX appears, whose corner collar
    pairs the two ends of each of its I-fibres.
    """
    K = FX.complex
    if K.is_empty():
        raise NotValidated("cylinder input must be non-empty")
    require_pure(FX)
    B = designated_boundary(FX)
    FY, vmap = _product(
        K,
        _PATH2,
        lambda xs, _ts: FX.depth[xs] + 1,
        B.faces,
        FX.orientation,
        FX.classical,
        FX.heuristic,
    )
    pieces = _ends(K, vmap, 1, FX, FX)
    if not B.is_empty():
        # Side piece: the cylinder over the boundary, stratified by the
        # induced boundary filtration (depth one less than in X) shifted up
        # one through the product.
        side_space, side_vmap = _product(
            B, _PATH2, lambda xs, _ts: FX.depth[xs], (), None, FX.classical, FX.heuristic
        )
        side_iso = LabeledIsomorphism({v: vmap[p] for p, v in side_vmap.items()})
        corner_pairs = tuple(
            sorted((vmap[(x, t)], vmap[(x, 1 - t)]) for x in B.vertices for t in (0, 1))
        )
        corner = CollarCertificate("corner", corner_pairs)
        pieces.append(BoundaryPiece("side", side_space, side_iso, +1, corner))
    return BordismCertificate(FY, tuple(pieces), "cylinder")


# ---------------------------------------------------------------------------
# Gluing


def stratified_isomorphism(
    F1: FilteredComplex, F2: FilteredComplex
) -> Optional[LabeledIsomorphism]:
    """A simplicial isomorphism of carriers preserving the filtrations.

    The vertex depths label the search; every face must keep its depth.
    """

    def labels(F: FilteredComplex) -> Dict[int, int]:
        return {v: F.depth[(v,)] for v in F.complex.vertices}

    m = isomorphic(F1.complex, F2.complex, labels(F1), labels(F2))
    if m is None or any(F2.depth[m.apply(f)] != d for f, d in F1.depth.items()):
        return None
    return m


def glue(
    Y1: BordismCertificate,
    Y2: BordismCertificate,
    along: Tuple[str, str],
) -> BordismCertificate:
    """Pushout of the two carriers along matched boundary pieces.

    The designated pieces must carry opposite signs and admit a stratified
    isomorphism; collars must be certified on both sides so the seam is
    bicollared.
    """
    l1, l2 = along
    p1, p2 = Y1.piece(l1), Y2.piece(l2)
    if p1.sign == p2.sign:
        raise SignClash(f"pieces {l1} and {l2} both carry sign {p1.sign:+d}")
    if p1.collar is None or p2.collar is None:
        raise CollarMissing("both glued pieces need collar certificates")
    if p1.space.same_filtration(p2.space):
        iso = LabeledIsomorphism({v: v for v in p1.space.complex.vertices})
    else:
        iso = stratified_isomorphism(p1.space, p2.space)
    if iso is None:
        raise NoIsomorphism("no stratified isomorphism between the glued pieces")
    # Relabel Y2: seam vertices land on their Y1 partners, the rest move above
    # the Y1 vertex range.
    relabel = {p2.iso.vertex_map[w]: p1.iso.vertex_map[v] for v, w in iso.vertex_map.items()}
    fresh = itertools.count(max(Y1.Y.complex.vertices, default=-1) + 1)
    for u in Y2.Y.complex.vertices:
        if u not in relabel:
            relabel[u] = next(fresh)

    def map2(s: Simplex) -> Simplex:
        return tuple(sorted(relabel[v] for v in s))

    facets = list(Y1.Y.complex.facets) + [map2(f) for f in Y2.Y.complex.facets]
    Gc = build_complex(facets)
    # Skeleton j of the union is generated by both skeleta j: a face's depth
    # is the lesser of its depths in Y1 and in the relabelled Y2.
    d2 = {map2(f): d for f, d in Y2.Y.depth.items()}
    depth = {f: min(Y1.Y.depth.get(f, Gc.dim), d2.get(f, Gc.dim)) for f in Gc.faces}
    # relabel sends p2.iso(iso(v)) to p1.iso(v), so both sides see one seam.
    seam = {p1.iso.apply(f) for f in p1.space.complex.faces}
    seam_facets = {p1.iso.apply(f) for f in p1.space.complex.facets}
    b1 = Y1.Y.boundary.faces if Y1.Y.boundary is not None else frozenset()
    b2 = Y2.Y.boundary.faces if Y2.Y.boundary is not None else frozenset()
    bgens = [f for f in itertools.chain(b1, map(map2, b2)) if f not in seam]

    oy = None
    if Y1.Y.orientation is not None and Y2.Y.orientation is not None:
        signs = dict(Y1.Y.orientation.signs)
        signs.update(Y2.Y.orientation.relabel(relabel).signs)
        oy = OrientationAssignment(signs)
        # Seam coherence: induced orientations from the two sides must cancel.
        for r in sorted(seam_facets):
            fs = Gc.ridges.get(r, ())
            if len(fs) != 2:
                raise SignClash(f"seam ridge {r} lies in {len(fs)} facets")
            total = sum(signs[f] * incidence(f, r) for f in fs)
            if total != 0:
                raise SignClash("induced orientations clash across the seam")
    FY = filtered_by_depth(
        Gc,
        depth.__getitem__,
        bgens if bgens else None,
        oy,
        Y1.Y.classical and Y2.Y.classical,
        Y1.Y.heuristic or Y2.Y.heuristic,
    )
    # The surviving pieces: Y1's as stored, Y2's relabelled with their collars.
    pieces = []
    used = set()
    for Y, glued, rl in ((Y1, l1, None), (Y2, l2, relabel)):
        for p in Y.pieces:
            if p.label == glued:
                continue
            label = p.label
            while label in used:
                label += "'"
            used.add(label)
            if rl is not None:
                iso2 = LabeledIsomorphism({v: rl[w] for v, w in p.iso.vertex_map.items()})
                c = p.collar and CollarCertificate(
                    p.collar.kind, tuple(sorted((rl[a], rl[b]) for a, b in p.collar.data))
                )
                p = dataclasses.replace(p, iso=iso2, collar=c)
            pieces.append(dataclasses.replace(p, label=label))
    return BordismCertificate(FY, tuple(pieces), f"glue({Y1.provenance},{Y2.provenance})")


# ---------------------------------------------------------------------------
# Bordisms between stratifications, restratification


def _plus_minus(cert: BordismCertificate, provenance: str) -> BordismCertificate:
    """cert with each piece relabelled "plus" or "minus" by sign."""
    pieces = tuple(
        dataclasses.replace(p, label="plus" if p.sign == +1 else "minus")
        for p in cert.pieces
    )
    return BordismCertificate(cert.Y, pieces, provenance)


def bordism_between_stratifications(
    FX: FilteredComplex, FX2: FilteredComplex
) -> BordismCertificate:
    """Oriented bordism between two stratifications of the same carrier,
    glued from the two intrinsic bordisms along the shared X*."""
    if FX.complex.facets != FX2.complex.facets:
        raise DifferentCarrier("stratifications live on different carriers")
    if FX.orientation is None or FX2.orientation is None:
        raise IncompatibleOrientations("both inputs must be oriented")
    check_pseudomanifold(FX.complex)  # names the free ridge of a carrier with boundary
    Y1 = bordism_to_intrinsic(FX)
    Y2 = bordism_to_intrinsic(FX2)
    # Each orientation also orients X*; the two must agree there.
    if FX.orientation.signs != FX2.orientation.signs:
        raise IncompatibleOrientations(
            "orientations do not agree through the intrinsic stratification"
        )
    out = glue(Y1, reverse_certificate(Y2), ("minus", "minus"))
    return _plus_minus(out, "bordism_between_stratifications")


def restratify_bordism(
    cert: BordismCertificate,
    X: FilteredComplex,
    Z: FilteredComplex,
    isoX: Optional[LabeledIsomorphism] = None,
    isoZ: Optional[LabeledIsomorphism] = None,
) -> BordismCertificate:
    """Replace the boundary stratifications of a bordism by X and Z,
    adjoining stratification bordisms along both ends."""

    def relabeled(F: FilteredComplex, target: FilteredComplex, m, side: str):
        if F.complex.facets == target.complex.facets:
            return F
        if m is None:
            raise IsomorphismMissing(f"{side} carrier differs and no isomorphism given")
        vm = m.vertex_map
        K2 = F.complex.relabel(vm)
        if K2.facets != target.complex.facets:
            raise DifferentCarrier(f"{side} isomorphism does not match the carrier")
        depth = {tuple(sorted(vm[v] for v in f)): d for f, d in F.depth.items()}
        oa = None if F.orientation is None else F.orientation.relabel(vm)
        return filtered_by_depth(
            K2, depth.__getitem__, None, oa, F.classical, F.heuristic
        )

    Xp = cert.piece("plus")
    Zp = cert.piece("minus")
    X = relabeled(X, Xp.space, isoX, "X")
    Z = relabeled(Z, Zp.space, isoZ, "Z")
    B1 = bordism_between_stratifications(X, Xp.space)
    step1 = glue(B1, cert, ("minus", "plus"))
    B2 = bordism_between_stratifications(Zp.space, Z)
    step2 = glue(step1, B2, ("minus", "plus"))
    return _plus_minus(step2, "restratify_bordism")


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    checks: Dict[str, bool]
    heuristic: bool = False


def _staircase(
    a: Sequence[int], b: Sequence[int], faces: Collection[Simplex]
) -> Optional[List[Simplex]]:
    """The simplices of a staircase triangulation of the prism between a and
    its copy b, all of them in faces, or None.  In a's order, one staircase
    is {a_0 … a_i, b_i … b_k} for i = 0 … k, and the other swaps a and b.
    Either holds only if a → b is injective and b, a face of a staircase
    simplex, is in faces."""
    for lo, hi in ((a, b), (b, a)):
        steps = (tuple(sorted(set(lo[: i + 1] + hi[i:]))) for i in range(len(a)))
        prism = list(itertools.takewhile(lambda s: len(s) == len(a) + 1 and s in faces, steps))
        if len(prism) == len(a):
            return prism
    return None


def _spans_prisms(p: BoundaryPiece, faces: Collection[Simplex]) -> bool:
    """Does p's product collar c triangulate the prism σ × I over each facet σ
    of p by carrier faces, as a staircase in the order of σ's images?"""
    c, vm = dict(p.collar.data), p.iso.vertex_map
    return all(
        _staircase(a, [c[v] for v in a], faces) is not None
        for a in ([vm[v] for v in sigma] for sigma in p.space.complex.facets)
    )


def _spans_corner(p: BoundaryPiece) -> bool:
    """Is p the cylinder I × L whose I-fibres are the pairs of p's corner
    collar?  Read in p's own vertex ids, the pairs must be a fixed-point-free
    involution c; with L = {v : c(v) > v}, p's facets must be exactly the
    staircase simplices over the facets of p's subcomplex on L."""
    own = {w: v for v, w in p.iso.vertex_map.items()}
    if not all(a in own and b in own for a, b in p.collar.data):
        return False  # a pair leaves the piece
    c = {own[a]: own[b] for a, b in p.collar.data}
    if len(c) != len(p.collar.data) or any(b == a or c.get(b) != a for a, b in c.items()):
        return False
    K = p.space.complex
    base = build_complex(f for f in K.faces if all(c.get(v, v) > v for v in f))
    steps = set()
    for sigma in base.facets:
        prism = _staircase(sigma, tuple(c[v] for v in sigma), K.faces)
        if prism is None:
            return False
        steps.update(prism)
    return steps == K.facets


def verify_certificate(cert: BordismCertificate) -> CertificateReport:
    """Re-verify a certificate from scratch: carrier validation, piece
    coverage, induced filtrations, collars, and orientation signs (a
    coherent carrier orientation inducing each piece's signs)."""
    checks: Dict[str, bool] = {}
    rep = validate_stratified_pseudomanifold(cert.Y, "with-boundary")
    checks["carrier_validates"] = rep.passed
    Yc = cert.Y.complex
    B = designated_boundary(cert.Y)
    images = []
    for p in cert.pieces:
        images.append({p.iso.apply(f) for f in p.space.complex.facets})
    covered = set().union(*images) if images else set()
    checks["pieces_cover_boundary"] = covered == set(B.facets)
    checks["pieces_disjoint"] = sum(map(len, images)) == len(covered)
    # A piece's skeleton j is X^{j+1} ∩ piece: depths drop by one, down to 0.
    dY = cert.Y.depth
    checks["induced_filtrations_match"] = all(
        p.iso.apply(f) in dY and d == max(dY[p.iso.apply(f)] - 1, 0)
        for p in cert.pieces
        for f, d in p.space.depth.items()
    )
    # A collar pairs each vertex of its piece, once, with a carrier neighbour,
    # and a product collar spans a prism of carrier faces over each facet.
    checks["collars_present"] = all(
        p.collar is not None
        and sorted(a for a, _b in p.collar.data) == sorted(p.iso.vertex_map.values())
        and all(a != b and (min(a, b), max(a, b)) in Yc.faces for a, b in p.collar.data)
        and (p.collar.kind != "product" or _spans_prisms(p, Yc.faces))
        for p in cert.pieces
    )
    # A corner collar pairs the two ends of each I-fibre of its piece.
    checks["corner_scheme_valid"] = all(
        _spans_corner(p)
        for p in cert.pieces
        if p.collar is not None and p.collar.kind == "corner"
    )
    if cert.Y.orientation is not None:
        bo = boundary_orientation(Yc, cert.Y.orientation)
        ok_sign = verify_orientation(Yc, cert.Y.orientation)
        for p in cert.pieces:
            if p.space.orientation is None:
                continue
            for f, s in p.space.orientation.signs.items():
                if bo.signs.get(p.iso.apply(f)) != p.sign * s:
                    ok_sign = False
        checks["signs_match"] = ok_sign
    passed = all(checks.values())
    return CertificateReport(passed, checks, rep.heuristic or cert.Y.heuristic)
