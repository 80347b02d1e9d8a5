import pytest

from equihom import complexes
from equihom.homology import equivariant_decomposition


@pytest.fixture(scope="session")
def decomposition_cache():
    """Shared equivariant decompositions; the heavy ones (M_3(10), quillen at
    n=8) are computed once for the whole run."""
    cache = {}

    def get(kind, p, n):
        key = (kind, p, n)
        if key not in cache:
            cx = getattr(complexes, complexes.KINDS[kind].builder)(p, n)
            cache[key] = (cx, equivariant_decomposition(cx))
        return cache[key]

    return get
