import dataclasses
import random

import pytest

from stratabord import catalog
from stratabord.complexes import OrientationAssignment, boundary_subcomplex, build_complex


@pytest.fixture(scope="session")
def entries():
    """All catalog entries, loaded (and self-verified) once per session."""
    return {name: catalog.get(name) for name in catalog.names()}


def random_complex(rng: random.Random, nverts: int = 6, nfacets: int = 5, dim: int = 2):
    """A small random pure-ish complex for property tests."""
    facets = set()
    while len(facets) < nfacets:
        facets.add(tuple(sorted(rng.sample(range(nverts), dim + 1))))
    return build_complex(sorted(facets))


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
