"""Canonical JSON serialization for complexes, filtrations and certificates.

Every emitted document re-parses to an equal value.  Vertices must be
integers; simplices serialize as sorted integer lists, complexes as facet
lists, filtrations as facet lists per skeleton.  `dumps` is canonical
(sorted keys, fixed separators), so equal values serialize byte-identically.
Reading is strict: invalid JSON, a top level that is not an object, a missing
field, a vertex that is not an integer, the empty simplex, a simplex that
repeats a vertex, an orientation sign other than ±1, an orientation that misses
a facet, signs a simplex that is not a facet or signs a simplex twice, a
`skeleta` that is not a list, a skeleton at an index ≥ the dimension that is
not the whole carrier, a `classical` or `heuristic` that is not a boolean and
a certificate field of the wrong type raise MalformedFiltration.
A skeleton or boundary simplex outside the carrier raises SimplexNotFound.
A piece's `iso` must map each vertex of its space exactly once into the
carrier's vertices, a collar's `kind` is "product" or "corner", and its data
pairs carrier vertices.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .complexes import (
    EMPTY,
    OrientationAssignment,
    SimplicialComplex,
    build_complex,
)
from .iso import LabeledIsomorphism
from .bordism import (
    BordismCertificate,
    BoundaryPiece,
    CollarCertificate,
)
from .errors import MalformedFiltration
from .strat import FilteredComplex


def _simplex_list(K: SimplicialComplex) -> List[List[int]]:
    return [list(f) for f in sorted(K.facets)]


def _field(doc: Dict[str, Any], key: str, kind: type = object) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedFiltration(f"document has no {key!r} field")
    if not isinstance(doc[key], kind):
        raise MalformedFiltration(f"field {key!r} has the wrong type")
    return doc[key]


def _optional_field(doc: Dict[str, Any], key: str, kind: type, default: Any) -> Any:
    return _field(doc, key, kind) if key in doc else default


def _check_type(doc: Any, kind: str) -> None:
    if not isinstance(doc, dict) or doc.get("type") != kind:
        raise MalformedFiltration(f"expected a {kind!r} document")


def _simplex_from_json(f: Any) -> Tuple[int, ...]:
    # bool is a subclass of int, but true and false are not vertices.
    if not isinstance(f, list) or any(type(v) is not int for v in f):
        raise MalformedFiltration(f"a simplex must be a list of integers, not {f!r}")
    if len(set(f)) != len(f):
        raise MalformedFiltration(f"simplex {f} repeats a vertex")
    if not f:
        raise MalformedFiltration("the empty simplex is not a face")
    return tuple(f)


def _simplices(doc: Any) -> List[Tuple[int, ...]]:
    if not isinstance(doc, list):
        raise MalformedFiltration(f"expected a list of simplices, not {doc!r}")
    return [_simplex_from_json(f) for f in doc]


def _is_sign(s: Any) -> bool:
    return type(s) is int and s in (1, -1)


def _int_pairs(doc: Any, what: str) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(doc, list) or any(
        not isinstance(e, list) or len(e) != 2 or any(type(v) is not int for v in e)
        for e in doc
    ):
        raise MalformedFiltration(f"{what} must be a list of integer pairs")
    return tuple(tuple(e) for e in doc)


def _complex_from_facets(facets: Any) -> SimplicialComplex:
    facets = _simplices(facets)
    return build_complex(facets) if facets else EMPTY


def complex_to_json(K: SimplicialComplex) -> Dict[str, Any]:
    return {"type": "complex", "facets": _simplex_list(K)}


def complex_from_json(doc: Dict[str, Any]) -> SimplicialComplex:
    _check_type(doc, "complex")
    return _complex_from_facets(_field(doc, "facets"))


def _orientation_to_json(oa: Optional[OrientationAssignment]):
    if oa is None:
        return None
    return [[list(f), s] for f, s in sorted(oa.signs.items())]


def _orientation_from_json(doc, K: SimplicialComplex) -> Optional[OrientationAssignment]:
    if doc is None:
        return None
    if not isinstance(doc, list) or any(
        not isinstance(e, list) or len(e) != 2 for e in doc
    ):
        raise MalformedFiltration("an orientation must be a list of [simplex, sign] pairs")
    signs = {_simplex_from_json(f): s for f, s in doc}
    if not all(_is_sign(s) for s in signs.values()):
        raise MalformedFiltration("orientation signs must be +1 or -1")
    if len(signs) != len(doc):
        raise MalformedFiltration("the orientation signs a simplex twice")
    extra = sorted(set(signs).difference(K.facets))
    if extra:
        raise MalformedFiltration(f"the orientation signs {extra[0]}, which is not a facet")
    missing = sorted(K.facets.difference(signs))
    if missing:
        raise MalformedFiltration(f"the orientation gives facet {missing[0]} no sign")
    return OrientationAssignment(signs)


def filtration_to_json(FX: FilteredComplex) -> Dict[str, Any]:
    n = FX.dim
    return {
        "type": "filtered_complex",
        "facets": _simplex_list(FX.complex),
        "skeleta": [_simplex_list(FX.skeleton(j)) for j in range(max(n, 0))],
        "boundary": None if FX.boundary is None else _simplex_list(FX.boundary),
        "orientation": _orientation_to_json(FX.orientation),
        "classical": FX.classical,
        "heuristic": FX.heuristic,
    }


def filtration_from_json(doc: Dict[str, Any]) -> FilteredComplex:
    _check_type(doc, "filtered_complex")
    K = _complex_from_facets(_field(doc, "facets"))
    skeleta = tuple(
        K.subcomplex(_simplices(sk)) for sk in _optional_field(doc, "skeleta", list, [])
    )
    boundary = doc.get("boundary")
    B = None if boundary is None else K.subcomplex(_simplices(boundary))
    return FilteredComplex(
        K,
        skeleta,
        B,
        _orientation_from_json(doc.get("orientation"), K),
        _optional_field(doc, "classical", bool, True),
        _optional_field(doc, "heuristic", bool, False),
    )


def certificate_to_json(cert: BordismCertificate) -> Dict[str, Any]:
    return {
        "type": "bordism_certificate",
        "carrier": filtration_to_json(cert.Y),
        "pieces": [
            {
                "label": p.label,
                "space": filtration_to_json(p.space),
                "iso": sorted([a, b] for a, b in p.iso.vertex_map.items()),
                "sign": p.sign,
            }
            for p in cert.pieces
        ],
        "collars": {
            p.label: {"kind": p.collar.kind, "data": [list(pair) for pair in p.collar.data]}
            for p in cert.pieces
            if p.collar is not None
        },
        "provenance": cert.provenance,
    }


def certificate_from_json(doc: Dict[str, Any]) -> BordismCertificate:
    _check_type(doc, "bordism_certificate")
    pieces = []
    for p in _field(doc, "pieces", list):
        if not _is_sign(_field(p, "sign")):
            raise MalformedFiltration("a piece's sign must be +1 or -1")
        pairs = _int_pairs(_field(p, "iso"), "a piece's iso")
        space = filtration_from_json(_field(p, "space"))
        if sorted(a for a, _b in pairs) != list(space.complex.vertices):
            raise MalformedFiltration("a piece's iso must map each vertex once")
        iso = LabeledIsomorphism(dict(pairs))
        label = _field(p, "label", str)
        if any(q[0] == label for q in pieces):
            raise MalformedFiltration(f"two pieces carry the label {label!r}")
        pieces.append((label, space, iso, p["sign"]))
    collars = {}
    for label, c in _field(doc, "collars", dict).items():
        kind = _field(c, "kind", str)
        if kind not in ("product", "corner"):
            raise MalformedFiltration("a collar's kind must be 'product' or 'corner'")
        data = _int_pairs(_field(c, "data"), "collar data")
        collars[label] = CollarCertificate(kind, data)
    carrier = filtration_from_json(_field(doc, "carrier"))
    vertices = set(carrier.complex.vertices)
    if any(not vertices.issuperset(iso.vertex_map.values()) for _l, _s, iso, _g in pieces):
        raise MalformedFiltration("a piece's iso maps a vertex off the carrier")
    if any(not vertices.issuperset(pair) for c in collars.values() for pair in c.data):
        raise MalformedFiltration("a collar pairs a vertex off the carrier")
    # A collar whose label names no piece has nothing to sit on and is dropped.
    pieces = tuple(BoundaryPiece(*p, collars.get(p[0])) for p in pieces)
    return BordismCertificate(carrier, pieces, _field(doc, "provenance", str))


def dumps(doc: Any) -> str:
    """Canonical rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def loads(text: str) -> Dict[str, Any]:
    """Parse a document, which must be a JSON object."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise MalformedFiltration(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedFiltration("a document must be a JSON object")
    return doc


def write_file(path: str, doc: Any) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
