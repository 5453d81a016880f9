"""Singularity classes as executable predicates, and the class algebra.

An E-class constrains the allowed links of a stratified pseudomanifold: it
contains the empty space and the circle, has no non-empty 0-dimensional
members, and is closed under suspension.  A G-class additionally admits
desuspension and constrains polyhedral links.  From an E-class one derives the
G-class G_E (membership of the maximal desuspension core), the Siegel class
S_E (membership of the space and of all of its own links), and the membership
test for spaces-with-boundary F_E (all interior polyhedral links allowed).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from . import algebra, ih
from .algebra import QQ, Ring, ZZ
from .complexes import SimplicialComplex, boundary_subcomplex, is_orientable, link
from .errors import (
    InternalInvariantBreach,
    KindMismatch,
    NotPseudomanifold,
    UnknownName,
    UnsupportedCoefficients,
)
from .strat import (
    FilteredComplex,
    _Flag,
    _memo_on_shape,
    check_pseudomanifold,
    germ_partition,
    intrinsic_stratification,
    literal_desuspension,
    polyhedral_link,
    require_pure,
    singular_faces,
    sphere_like,
    strata,
    stratum_link,
)


@dataclass(frozen=True)
class ClassVerdict:
    verdict: bool
    witness: Optional[dict] = None
    heuristic: bool = False
    detail: str = ""

    def __bool__(self):
        return self.verdict


def _yes(detail: str = "", heuristic: bool = False) -> ClassVerdict:
    return ClassVerdict(True, None, heuristic, detail)


def _no(witness: dict, detail: str = "", heuristic: bool = False) -> ClassVerdict:
    return ClassVerdict(False, witness, heuristic, detail)


@dataclass(frozen=True)
class SingularityClass:
    name: str
    kind: str  # "E", "G" or "Siegel"
    predicate: Callable[[SimplicialComplex], ClassVerdict] = dc_field(hash=False)

    def member(self, K: SimplicialComplex) -> ClassVerdict:
        # Computed on every call: the costly part, middle IH, is memoized per
        # link shape in `_middle_ih`.
        if K.is_empty():
            return _yes("empty space")
        try:
            check_pseudomanifold(K, closed=True)
        except NotPseudomanifold as e:
            return _no({"reason": str(e)}, "not a closed pseudomanifold")
        if K.dim == 0 and self.kind == "E":
            return _no({"dim": 0}, "E-classes have no non-empty 0-dimensional members")
        return self.predicate(K)


# ---------------------------------------------------------------------------
# Built-in link conditions


@_memo_on_shape
def _middle_ih(K: SimplicialComplex, flag: _Flag, ring: Ring):
    """Lower-middle IH of K's intrinsic stratification over ring, as a tuple;
    the flag is that stratification's."""
    FX = intrinsic_stratification(K)
    flag.heuristic = FX.heuristic
    return tuple(ih.intersection_homology(FX, ih.lower_middle(max(K.dim, 2)), ring))


def _witt_predicate(ring: Ring):
    def pred(K: SimplicialComplex) -> ClassVerdict:
        d = K.dim
        if d % 2 == 1:
            return _yes("odd dimension; condition vacuous")
        flag = _Flag()
        groups = _middle_ih(K, flag, ring)
        heur = flag.heuristic
        g = groups[d // 2]
        if g.rank == 0 and not g.torsion:
            return _yes(f"I^mH_{d//2} = 0 over {ring}", heur)
        return _no(
            {"degree": d // 2, "rank": g.rank, "torsion": list(g.torsion), "ring": str(ring)},
            f"I^mH_{d//2} nonzero over {ring}",
            heur,
        )

    return pred


def _ip_predicate(K: SimplicialComplex) -> ClassVerdict:
    d = K.dim
    if d <= 1:
        return _yes("dimension at most 1")
    flag = _Flag()
    groups = _middle_ih(K, flag, ZZ)
    heur = flag.heuristic
    if d % 2 == 0:
        g = groups[d // 2]
        if g.rank == 0 and not g.torsion:
            return _yes(f"I^mH_{d//2}(Z) = 0", heur)
        return _no(
            {"degree": d // 2, "rank": g.rank, "torsion": list(g.torsion)},
            f"I^mH_{d//2} nonzero over Z",
            heur,
        )
    deg = (d - 1) // 2
    tors = groups[deg].torsion
    if not tors:
        return _yes(f"I^mH_{deg}(Z) torsion-free", heur)
    return _no(
        {"degree": deg, "torsion": list(tors)}, f"torsion in I^mH_{deg}", heur
    )


def _euler2_predicate(K: SimplicialComplex) -> ClassVerdict:
    chi = K.euler_characteristic()
    if chi % 2 == 0:
        return _yes(f"chi = {chi}")
    return _no({"chi": chi}, "odd Euler characteristic")


def _orientable_predicate(K: SimplicialComplex) -> ClassVerdict:
    if is_orientable(K):
        return _yes("orientable")
    return _no({"reason": "no coherent facet orientation"}, "not orientable")


def _orientable_witt_predicate(ring: Ring):
    witt = _witt_predicate(ring)

    def pred(K: SimplicialComplex) -> ClassVerdict:
        v = _orientable_predicate(K)
        if not v:
            return v
        return witt(K)

    return pred


def _s_duality_predicate(K: SimplicialComplex) -> ClassVerdict:
    d = K.dim
    flag = _Flag()
    if d in (1, 2, 3):
        if not sphere_like(K, flag):
            return _no(
                {"dim": d, "reason": "not a sphere"},
                f"{d}-dimensional member must be a sphere",
                flag.heuristic,
            )
    F2 = algebra.GF(2)
    degrees = []
    if d % 2 == 0 and d >= 2:
        degrees = [d // 2]
    elif d % 2 == 1 and d >= 3:
        k = (d + 1) // 2
        degrees = [k, k - 1]
    if degrees:
        groups = _middle_ih(K, flag, F2)
    heur = flag.heuristic
    for deg in degrees:
        if groups[deg].rank != 0:
            return _no(
                {"degree": deg, "rank": groups[deg].rank, "ring": "F2"},
                f"I^mH_{deg} nonzero over Z/2",
                heur,
            )
    return _yes("duality conditions hold", heur)


def _lsf_partial_predicate(K: SimplicialComplex) -> ClassVerdict:
    # Necessary conditions only: the Bockstein clause on odd-dimensional
    # members is not checked (no Steenrod-square machinery here).
    d = K.dim
    if d % 2 == 1:
        return _yes("odd dimension; partial test imposes no condition")
    return _witt_predicate(algebra.GF(2))(K)


def _all_predicate(K: SimplicialComplex) -> ClassVerdict:
    return _yes("every pseudomanifold link allowed")


def _all_suspensions_predicate(K: SimplicialComplex) -> ClassVerdict:
    """The class of spaces PL-homeomorphic to a suspension (or empty)."""
    flag = _Flag()
    if sphere_like(K, flag):
        return _yes("sphere, hence a suspension", flag.heuristic)
    j, core = literal_desuspension(K)
    if j >= 1:
        return _yes(f"literal {j}-fold suspension", flag.heuristic)
    return _no(
        {"reason": "no suspension structure found"},
        "no suspension structure found",
        flag.heuristic or K.dim >= 3,
    )


def builtin(name: str, field: Optional[Ring] = None) -> SingularityClass:
    """A named built-in E-class of allowed links."""
    if name == "witt":
        ring = field if field is not None else QQ
        if ring.kind not in ("Q", "Fp"):
            raise UnsupportedCoefficients("witt condition needs a field")
        return SingularityClass(f"witt({ring})", "E", _witt_predicate(ring))
    if name == "ip":
        if field is not None and field.kind != "Z":
            raise UnsupportedCoefficients("ip condition is integral")
        return SingularityClass("ip", "E", _ip_predicate)
    if name == "euler2":
        return SingularityClass("euler2", "E", _euler2_predicate)
    if name == "locally_orientable":
        return SingularityClass("locally_orientable", "E", _orientable_predicate)
    if name == "locally_orientable_witt":
        ring = field if field is not None else QQ
        if ring.kind not in ("Q", "Fp"):
            raise UnsupportedCoefficients("witt condition needs a field")
        return SingularityClass(
            f"locally_orientable_witt({ring})", "E", _orientable_witt_predicate(ring)
        )
    if name == "s_duality":
        return SingularityClass("s_duality", "E", _s_duality_predicate)
    if name == "lsf_partial":
        return SingularityClass("lsf_partial", "E", _lsf_partial_predicate)
    if name == "all_pseudomanifolds":
        return SingularityClass("all_pseudomanifolds", "E", _all_predicate)
    if name == "all_suspensions":
        return SingularityClass("all_suspensions", "E", _all_suspensions_predicate)
    raise UnknownName(f"no built-in class named {name!r}")


BUILTIN_NAMES = (
    "witt",
    "ip",
    "euler2",
    "locally_orientable",
    "locally_orientable_witt",
    "s_duality",
    "lsf_partial",
    "all_pseudomanifolds",
)


# ---------------------------------------------------------------------------
# Link conditions on stratified spaces


def links_in_class(FX: FilteredComplex, E: SingularityClass) -> ClassVerdict:
    """Is every stratum link of FX a member of E?  (The C_E membership test.)"""
    require_pure(FX)
    heur = FX.heuristic
    for S in strata(FX):
        if S.regular:
            continue
        LF = stratum_link(FX, S)
        v = E.member(LF.complex)
        heur = heur or v.heuristic
        if not v:
            return _no(
                {
                    "stratum_dim": S.dim,
                    "stratum_simplex": list(min(S.simplices)),
                    "link": v.witness,
                    "link_detail": v.detail,
                },
                f"link of a {S.dim}-stratum is outside {E.name}",
                heur,
            )
    return _yes(f"all stratum links lie in {E.name}", heur)


# ---------------------------------------------------------------------------
# The G_E / E_G algebra


def g_of_e_membership(K: SimplicialComplex, E: SingularityClass) -> ClassVerdict:
    """Membership of K in G_E: the maximal desuspension core must lie in E.

    Spheres and the empty space are always members (their core is empty).
    Desuspension is exact for cores of dimension at most 2; higher-dimensional
    cores carry the heuristic flag.
    """
    if K.is_empty():
        return _yes("empty space")
    check_pseudomanifold(K, closed=True)
    flag = _Flag()
    if sphere_like(K, flag):
        return _yes("sphere; desuspends to the empty space", flag.heuristic)
    j, core = literal_desuspension(K)
    if core.is_empty() or sphere_like(core, flag):
        return _yes(f"{j}-fold suspension of a sphere", flag.heuristic)
    heur = flag.heuristic or core.dim >= 3
    v = E.member(core)
    if v:
        return _yes(
            f"core after {j} desuspensions lies in {E.name}", heur or v.heuristic
        )
    return _no(
        {"desuspensions": j, "core_facets": sorted(map(list, core.facets)), "core": v.witness},
        f"desuspension core fails {E.name}: {v.detail}",
        heur or v.heuristic,
    )


def g_of_e(E: SingularityClass) -> SingularityClass:
    return SingularityClass(f"G[{E.name}]", "G", lambda K: g_of_e_membership(K, E))


def e_of_g(G: SingularityClass) -> SingularityClass:
    """The E-class obtained by removing the 0-dimensional members of G."""
    if G.kind != "G":
        raise KindMismatch(f"{G.name} is not a G-class")
    return SingularityClass(f"E[{G.name}]", "E", G.member)


# ---------------------------------------------------------------------------
# Siegel classes


def siegel_membership(K: SimplicialComplex, E: SingularityClass) -> ClassVerdict:
    """Membership in S_E: boundaryless; S⁰ if 0-dimensional; otherwise the
    space itself and all of its intrinsic stratum links lie in E."""
    if K.is_empty():
        return _yes("empty space")
    check_pseudomanifold(K, closed=False)
    clauses = {}
    B = boundary_subcomplex(K)
    clauses["boundaryless"] = B.is_empty()
    if not clauses["boundaryless"]:
        return _no({"clauses": clauses}, "space has boundary")
    if K.dim == 0:
        clauses["zero_dim_sphere"] = len(K.vertices) == 2
        if clauses["zero_dim_sphere"]:
            return _yes("S0")
        return _no({"clauses": clauses}, "0-dimensional member must be S0")
    v_space = E.member(K)
    clauses["space_in_class"] = v_space.verdict
    heur = v_space.heuristic
    if not v_space:
        return _no(
            {"clauses": clauses, "space": v_space.witness},
            f"space itself fails {E.name}: {v_space.detail}",
            heur,
        )
    v_links = links_in_class(intrinsic_stratification(K), E)
    clauses["links_in_class"] = v_links.verdict
    heur = heur or v_links.heuristic
    if not v_links:
        return _no(
            {"clauses": clauses, "links": v_links.witness},
            v_links.detail,
            heur,
        )
    return _yes(f"space and all links lie in {E.name}", heur)


def siegel(E: SingularityClass) -> SingularityClass:
    return SingularityClass(
        f"S[{E.name}]", "Siegel", lambda K: siegel_membership(K, E)
    )


# ---------------------------------------------------------------------------
# Membership for spaces with boundary


def _interior_singular_links(K: SimplicialComplex, B: SimplicialComplex, flag: _Flag):
    """Links of the intrinsic singular strata of the interior of K."""
    out = []
    for _inv, faces in germ_partition(K, flag, keep=lambda f: f not in B.faces):
        top = max(faces, key=lambda s: (len(s), s))
        out.append((len(top) - 1, top, link(K, top)))
    return sorted(out)


def f_membership(
    K, E: SingularityClass, via: str = "stratified"
) -> ClassVerdict:
    """Membership in F_E for a space with boundary: all polyhedral links of
    interior points must be allowed.

    `stratified` tests E-membership of the links of the interior's intrinsic
    singular strata; `polyhedral` runs the G_E test on the polyhedral link of
    an interior point of every simplex off the boundary; `both` requires the
    two verdicts to agree.
    """
    if isinstance(K, FilteredComplex):
        K = K.complex
    if K.is_empty():
        return _yes("empty space")
    check_pseudomanifold(K, closed=False)
    B = boundary_subcomplex(K)
    if via == "both":
        v1 = f_membership(K, E, "stratified")
        v2 = f_membership(K, E, "polyhedral")
        if v1.verdict != v2.verdict:
            raise InternalInvariantBreach(
                f"stratified verdict {v1.verdict} != polyhedral verdict {v2.verdict}"
            )
        return ClassVerdict(
            v1.verdict, v1.witness or v2.witness, v1.heuristic or v2.heuristic, v1.detail
        )
    flag = _Flag()
    if via == "stratified":
        for d, top, L in _interior_singular_links(K, B, flag):
            # The link of an intrinsic stratum is already maximally
            # desuspended, so testing it against E agrees with the G_E test
            # on the corresponding polyhedral link.
            v = E.member(L)
            heur = flag.heuristic or v.heuristic
            if not v:
                return _no(
                    {"stratum_dim": d, "stratum_simplex": list(top), "link": v.witness},
                    f"interior link fails {E.name}: {v.detail}",
                    heur,
                )
        return _yes(f"all interior links lie in {E.name}", flag.heuristic)
    if via == "polyhedral":
        for f, L in singular_faces(K, flag, keep=lambda f: f not in B.faces):
            v = g_of_e_membership(polyhedral_link(L, len(f) - 1), E)
            heur = flag.heuristic or v.heuristic
            if not v:
                return _no(
                    {"simplex": list(f), "polyhedral_link": v.witness},
                    f"polyhedral link fails G[{E.name}]: {v.detail}",
                    heur,
                )
        return _yes(f"all interior polyhedral links lie in G[{E.name}]", flag.heuristic)
    raise ValueError("via must be 'stratified', 'polyhedral' or 'both'")
