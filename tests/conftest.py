from functools import cache

import pytest

from equihom import complexes
from equihom.homology import equivariant_decomposition


@pytest.fixture(scope="session")
def decomposition_cache():
    """Shared equivariant decompositions; the heavy ones (M_3(10), quillen at
    n=9) are computed once for the whole run."""
    cache = {}

    def get(kind, p, n):
        key = (kind, p, n)
        if key not in cache:
            cx = getattr(complexes, complexes.KINDS[kind].builder)(p, n)
            cache[key] = (cx, equivariant_decomposition(cx))
        return cache[key]

    return get


def _removable_border_strips(lam: tuple, k: int):
    """All (nu, sign) with lam/nu a border strip of k boxes.

    A strip spanning rows a..b of lam forces nu_i = lam_{i+1} - 1 for
    a <= i < b and nu_b = lam_a - k + (b - a); sign is (-1)^(b-a).
    """
    l = len(lam)
    out = []
    for a in range(l):
        for b in range(a, min(a + k, l)):
            tail = lam[a] - k + (b - a)
            if tail < 0:
                continue
            if b > a and tail > lam[b] - 1:
                continue
            if b + 1 < l and tail < lam[b + 1]:
                continue
            nu = (
                lam[:a]
                + tuple(lam[i + 1] - 1 for i in range(a, b))
                + (tail,)
                + lam[b + 1 :]
            )
            out.append((tuple(x for x in nu if x), -1 if (b - a) % 2 else 1))
    return out


@cache
def _border_strip_removal(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    return sum(
        sign * _border_strip_removal(nu, rest)
        for nu, sign in _removable_border_strips(lam, k)
    )


@pytest.fixture(scope="session")
def border_strip_character():
    """chi^lam(mu) by removing border strips of sizes mu_1, mu_2, ... from lam
    (Murnaghan-Nakayama; Macdonald, Symmetric Functions and Hall Polynomials,
    I.7): an oracle independent of symfunc's border-strip addition."""
    return lambda lam, mu: _border_strip_removal(tuple(lam), tuple(mu))
