"""Labeled simplicial isomorphism testing by backtracking search.

The search refines vertex candidates with cheap local invariants (degree per
dimension, optional labels) before branching, which keeps it fast on the
complexes this library works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .complexes import SimplicialComplex


@dataclass(frozen=True)
class LabeledIsomorphism:
    """A vertex bijection sending facets to facets and respecting labels."""

    vertex_map: Dict[int, int]

    def apply(self, s):
        return tuple(sorted(self.vertex_map[v] for v in s))


def _vertex_signature(K: SimplicialComplex, labels):
    counts = {v: {} for v in K.vertices}
    for f in K.faces:
        for v in f:
            counts[v][len(f)] = counts[v].get(len(f), 0) + 1
    return {
        v: (tuple(sorted(c.items())), labels.get(v) if labels else None)
        for v, c in counts.items()
    }


def isomorphic(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    labels1: Optional[Dict[int, object]] = None,
    labels2: Optional[Dict[int, object]] = None,
) -> Optional[LabeledIsomorphism]:
    """Find a label-preserving simplicial isomorphism K1 → K2, or None."""
    if K1.is_empty() and K2.is_empty():
        return LabeledIsomorphism({})
    if len(K1.vertices) != len(K2.vertices) or len(K1.facets) != len(K2.facets):
        return None
    if sorted(map(len, K1.facets)) != sorted(map(len, K2.facets)):
        return None
    sig1 = _vertex_signature(K1, labels1)
    sig2 = _vertex_signature(K2, labels2)
    by_sig2: Dict[object, list] = {}
    for v, s in sig2.items():
        by_sig2.setdefault(s, []).append(v)
    candidates = {}
    for v, s in sig1.items():
        if s not in by_sig2:
            return None
        candidates[v] = by_sig2[s]
    # Most constrained vertices first.
    order = sorted(K1.vertices, key=lambda v: (len(candidates[v]), v))
    edges1 = {f for f in K1.faces if len(f) == 2}
    edges2 = {f for f in K2.faces if len(f) == 2}

    mapping: Dict[int, int] = {}
    used = set()

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return _facets_match(K1, K2, mapping)
        v = order[idx]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u, x in mapping.items():
                e1 = tuple(sorted((u, v)))
                e2 = tuple(sorted((x, w)))
                if (e1 in edges1) != (e2 in edges2):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(idx + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if backtrack(0):
        return LabeledIsomorphism(dict(mapping))
    return None


def _facets_match(K1, K2, mapping) -> bool:
    image = {tuple(sorted(mapping[v] for v in f)) for f in K1.facets}
    return image == K2.facets
