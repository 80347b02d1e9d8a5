"""Permutations of {0, ..., n-1} as image tuples, plus cycle-type utilities."""

from __future__ import annotations

from itertools import combinations, permutations as _perms
from math import factorial

from .partitions import Partition


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(a, b):
    """a after b: (a*b)[i] = a[b[i]]."""
    return tuple(a[x] for x in b)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def cycle_type(perm) -> Partition:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            c += 1
        lengths.append(c)
    lengths.sort(reverse=True)
    return Partition(lengths)


def from_cycles(cycles, n):
    perm = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def representative(mu: Partition, n: int | None = None):
    """Canonical permutation of cycle type mu: cycles of decreasing length
    filled with increasing labels."""
    mu = Partition(mu)
    if n is None:
        n = mu.n
    if mu.n != n:
        raise ValueError(f"cycle type {mu} is not a partition of {n}")
    cycles, start = [], 0
    for length in mu:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return from_cycles(cycles, n)


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu (z_mu)."""
    z = 1
    mult = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


def prime_order_elements(n: int, p: int):
    """All nonidentity permutations in S_n whose order is p (p prime), i.e.
    products of at least one p-cycle.  Deterministic order."""

    def blocks(points):
        # every arrangement of `points` into p-cycles plus fixed points,
        # written canonically: each cycle starts at its minimum
        if not points:
            yield ()
            return
        x, rest = points[0], points[1:]
        # x fixed
        for tail in blocks(rest):
            yield tail
        # x in a p-cycle, cycle written starting at x (its minimum)
        for others in combinations(rest, p - 1):
            left = tuple(y for y in rest if y not in others)
            for arr in _perms(others):
                for tail in blocks(left):
                    yield ((x,) + arr,) + tail

    for cycles in blocks(tuple(range(n))):
        if cycles:
            yield from_cycles(cycles, n)


def conjugate_perm(sigma, h):
    """sigma h sigma^{-1}."""
    out = [0] * len(h)
    for i, x in enumerate(h):
        out[sigma[i]] = sigma[x]
    return tuple(out)
