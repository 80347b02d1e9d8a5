"""Class functions of S_n: irreducible characters, the Frobenius bridge, and
the induced characters used by the closed-form pipelines."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .partitions import Partition, maj_count, partitions_of
from .permutations import centralizer_order, is_prime
from .symfunc import SymmetricFunction, _power_to_schur


class ClassFunction:
    """Exact rational function on the conjugacy classes (cycle types) of S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = n
        full = {mu: Fraction(0) for mu in partitions_of(n)}
        for mu, v in values.items():
            mu = Partition(mu)
            if mu.n != n:
                raise ValueError(f"cycle type {tuple(mu)} is not a partition of {n}")
            full[mu] = Fraction(v)
        self.values = full

    def __call__(self, mu) -> Fraction:
        return self.values[Partition(mu)]

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __add__(self, other):
        self._check(other)
        return ClassFunction(
            self.n, {mu: v + other.values[mu] for mu, v in self.values.items()}
        )

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(
            self.n, {mu: v - other.values[mu] for mu, v in self.values.items()}
        )

    def __mul__(self, c):
        return ClassFunction(self.n, {mu: v * Fraction(c) for mu, v in self.values.items()})

    __rmul__ = __mul__

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        vals = {tuple(mu): str(v) for mu, v in sorted(self.values.items(), reverse=True)}
        return f"ClassFunction(n={self.n}, {vals})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "values": [
                {"cycle_type": list(mu), "value": str(v)}
                for mu, v in sorted(self.values.items(), reverse=True)
            ],
        }

    @classmethod
    def from_json(cls, data: dict):
        return cls(
            data["n"],
            {Partition(e["cycle_type"]): Fraction(e["value"]) for e in data["values"]},
        )


def irreducible_character(lam, mu) -> int:
    """chi^lam evaluated on the class of cycle type mu: the coefficient of
    s_lam in the power-sum product p_mu (Murnaghan-Nakayama)."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.n != mu.n:
        raise ValueError(f"degree mismatch: |{tuple(lam)}| != |{tuple(mu)}|")
    return _power_to_schur(mu).get(lam, 0)


@cache
def character_table(n: int) -> dict:
    """Full table {lam: {mu: chi^lam(mu)}} for S_n, rows and columns in
    decreasing lex order; one column per power-sum expansion p_mu."""
    parts = partitions_of(n)
    columns = [_power_to_schur(mu) for mu in parts]
    return {
        lam: {mu: col.get(lam, 0) for mu, col in zip(parts, columns)}
        for lam in parts
    }


def irreducible_class_function(lam) -> ClassFunction:
    lam = Partition(lam)
    return ClassFunction(
        lam.n, {mu: irreducible_character(lam, mu) for mu in partitions_of(lam.n)}
    )


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: 1 for mu in partitions_of(n)})


def sign_character(n: int) -> ClassFunction:
    # parity of a permutation of cycle type mu is (-1)^(n - number of cycles)
    return ClassFunction(
        n, {mu: (-1) ** (n - len(mu)) for mu in partitions_of(n)}
    )


def regular_character(n: int) -> ClassFunction:
    vals = {mu: 0 for mu in partitions_of(n)}
    vals[Partition([1] * n)] = factorial(n)
    return ClassFunction(n, vals)


def inner_product(phi: ClassFunction, psi: ClassFunction) -> Fraction:
    """Standard class-function inner product on S_n."""
    phi._check(psi)
    return sum(
        (phi.values[mu] * psi.values[mu] / centralizer_order(mu)
         for mu in phi.values),
        Fraction(0),
    )


def frobenius_ch(phi: ClassFunction) -> SymmetricFunction:
    """ch(phi) = sum_mu z_mu^{-1} phi(mu) p_mu, in the Schur basis."""
    pterms = {
        mu: v / centralizer_order(mu) for mu, v in phi.values.items() if v
    }
    if not pterms:
        return SymmetricFunction.zero(phi.n)
    return SymmetricFunction.from_power_sums(pterms)


def frobenius_inverse(f: SymmetricFunction) -> ClassFunction:
    """Class function whose Frobenius characteristic is f (Schur coefficients
    read as multiplicities of irreducibles)."""
    vals = {}
    for mu in partitions_of(f.degree):
        vals[mu] = sum(
            (c * irreducible_character(lam, mu) for lam, c in f.terms.items()),
            Fraction(0),
        )
    return ClassFunction(f.degree, vals)


def cyclic_induced_character(m: int, n: int) -> ClassFunction:
    """Character of S_n induced from the cyclic group generated by an n-cycle
    w, with w acting by the root of unity e^(2 pi i m / n).

    Realized without complex arithmetic through the tableau count: the
    multiplicity of the irreducible indexed by lam is the number of standard
    tableaux of shape lam with major index congruent to m mod n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    vals = {mu: Fraction(0) for mu in partitions_of(n)}
    for lam in partitions_of(n):
        mult = maj_count(m, n, lam)
        if not mult:
            continue
        for mu in vals:
            vals[mu] += mult * irreducible_character(lam, mu)
    return ClassFunction(n, vals)


def normalizer_character(p: int) -> ClassFunction:
    """1 induced from the normalizer of a Sylow p-subgroup of S_p, evaluated
    class by class from the concrete group of affine maps x -> ax + b mod p.

    The induced value on a class C is |C_{S_p}(g)| / |N_p| times the number of
    elements of N_p lying in C.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 11:
        raise ValueError("normalizer_character is brute force; p <= 11 only")
    from .permutations import cycle_type

    counts: dict = {}
    for a in range(1, p):
        for b in range(p):
            perm = tuple((a * x + b) % p for x in range(p))
            mu = cycle_type(perm)
            counts[mu] = counts.get(mu, 0) + 1
    order = p * (p - 1)
    vals = {
        mu: Fraction(centralizer_order(mu) * counts.get(mu, 0), order)
        for mu in partitions_of(p)
    }
    return ClassFunction(p, vals)
