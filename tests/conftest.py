import dataclasses
import random

import pytest

from stratabord import catalog
from stratabord.bordism import bordism_to_intrinsic
from stratabord.complexes import (
    OrientationAssignment,
    barycentric_subdivision,
    boundary_subcomplex,
    build_complex,
    cone,
    orient,
)
from stratabord.strat import filtered_by_depth, make_filtered


@pytest.fixture(scope="session")
def entries():
    """All catalog entries, loaded once per session; `tests/test_catalog.py`
    checks their stored data."""
    return {name: catalog.get(name) for name in catalog.names()}


@pytest.fixture(scope="session")
def sigma_t2_carriers(entries):
    """The carriers of the bordisms from each Σ T² stratification to Σ T²*."""
    return [bordism_to_intrinsic(FX).Y for FX in entries["Sigma-T2"].stratifications]


@pytest.fixture(scope="session")
def sigma_t3_carrier(entries):
    """The carrier of the bordism from the first Σ T³ stratification to Σ T³*."""
    return bordism_to_intrinsic(entries["Sigma-T3"].stratifications[0]).Y


def record_raw_calls(monkeypatch, memoized):
    """A list to which each call of a `strat._memo_on_shape` routine past its
    memo appends its arguments after the flag, K first."""
    raw = memoized.__wrapped__
    calls = []

    def recording(K, flag, *args):
        calls.append((K, *args))
        return raw(K, flag, *args)

    monkeypatch.setattr(memoized, "__wrapped__", recording)
    return calls


def empty_memo(monkeypatch, memoized):
    """Start a `strat._memo_on_shape` routine from an empty memo."""
    monkeypatch.setattr(memoized, "memo", {})


def cones_with_boundary(entries, names=("S1", "S2", "T2", "Sigma-S1")):
    """The oriented cone cX on each stratification of the named entries, with
    (cX)^{j+1} the cone on X^j, the apex a 0-stratum and X the boundary."""
    out = []
    for name in names:
        for FX in entries[name].stratifications:
            K = cone(FX.complex)
            apex = max(K.vertices)
            skeleta = {0: [(apex,)]}
            for j in range(FX.dim):
                skeleta[j + 1] = [f + (apex,) for f in FX.skeleton(j).faces]
            out.append(make_filtered(K, skeleta, FX.complex.facets, orient(K)))
    return out


def subdivide_filtered(FX):
    """Barycentric subdivision with the induced filtration; returns (FX', provenance).

    A chain of faces lies in X^j, or in ∂X, when its largest face does.
    Vertex ids grow with face size, so that face is the last vertex's.
    """
    K2, prov = barycentric_subdivision(FX.complex)
    boundary = None
    if FX.boundary is not None:
        boundary = [c for c in K2.faces if prov[c[-1]] in FX.boundary.faces]
    out = filtered_by_depth(
        K2, lambda c: FX.depth[prov[c[-1]]], boundary, None, FX.classical, FX.heuristic
    )
    return out, prov


def random_complex(rng: random.Random, nverts: int = 6, nfacets: int = 5, dim: int = 2):
    """A small random pure-ish complex for property tests."""
    facets = set()
    while len(facets) < nfacets:
        facets.add(tuple(sorted(rng.sample(range(nverts), dim + 1))))
    return build_complex(sorted(facets))


def dunce_hat():
    """The 8-vertex dunce hat: contractible (χ = 1, reduced homology 0), but
    no edge is free, so no collapse can start."""
    words = "124 127 128 134 135 136 156 178 235 237 238 245 348 367 456 468 678"
    return build_complex([tuple(int(c) for c in w) for w in words.split()])


def flip_interior_sign(cert):
    """The certificate with the sign of one carrier facet flipped, a facet
    with no ridge on the boundary, so boundary signs alone cannot see it."""
    Yc = cert.Y.complex
    rim = boundary_subcomplex(Yc).faces
    f = min(
        f for f in Yc.facets if not any(f[:j] + f[j + 1 :] in rim for j in range(len(f)))
    )
    signs = dict(cert.Y.orientation.signs)
    signs[f] = -signs[f]
    Y = dataclasses.replace(cert.Y, orientation=OrientationAssignment(signs))
    return dataclasses.replace(cert, Y=Y)
