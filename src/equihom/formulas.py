"""Closed-form symmetric-function pipelines: the Sylow-normalizer cycle
index, inflation homology blocks, predicted top-homology characters, and the
derivation of the nonvanishing homology table of the 3-uniform matching
complexes for n <= 13.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .partitions import Partition, maj_count, partitions_of
from .permutations import is_prime
from .symfunc import (
    SymmetricFunction,
    add_column,
    from_e,
    from_h,
    multiply,
    plethysm,
    restrict_length,
)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def sylow_permutation_character(p: int) -> SymmetricFunction:
    """Frobenius characteristic of the S_p permutation action on its Sylow
    p-subgroups: the normalized cycle index of the affine normalizer,

        (1/(p(p-1))) [ p_1^p + (p-1) p_p
                       + p p_1 sum_{d | p-1, d > 1} phi(d) p_d^((p-1)/d) ].
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = p * (p - 1)
    pterms: dict = {Partition([1] * p): Fraction(1, order)}
    cycle = Partition([p])
    pterms[cycle] = pterms.get(cycle, Fraction(0)) + Fraction(p - 1, order)
    for d in range(2, p):
        if (p - 1) % d:
            continue
        mu = Partition([d] * ((p - 1) // d) + [1])
        pterms[mu] = pterms.get(mu, Fraction(0)) + Fraction(p * _totient(d), order)
    return SymmetricFunction.from_power_sums(pterms)


def sylow_character_tableau_form(p: int) -> SymmetricFunction:
    """Same character through tableau counts: the multiplicity of s_lam is
    the number of standard tableaux of shape lam with major index divisible
    by p-1 minus the number with major index congruent to 1 mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    terms = {}
    for lam in partitions_of(p):
        c = maj_count(0, p - 1, lam) - maj_count(1, p, lam)
        if c:
            terms[lam] = c
    return SymmetricFunction(p, terms)


def inflation_block(k: int, p: int) -> SymmetricFunction:
    """e_k applied (plethystically) to the Sylow permutation character minus
    the trivial character: the degree k*p block contributed by a k-face in
    the inflation decomposition of the p-cycle complex."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return SymmetricFunction.unit()
    core = sylow_permutation_character(p) - from_h(p)
    if core.is_zero():
        return SymmetricFunction.zero(k * p)
    return plethysm(from_e(k), core)


def cycle_complex_character(
    n: int, p: int, i: int, d_table: dict
) -> SymmetricFunction:
    """Characteristic of the homology of the p-cycle complex in codimension i,
    assembled from matching-complex data:

        sum_k d_table[n - k p] * inflation_block(k, p)

    d_table[m] must be the degree-m characteristic of the codimension-i
    homology of the p-uniform matching complex on m points (for m < p that
    complex is {∅}: h_m when i = 0, zero otherwise).
    """
    total = SymmetricFunction.zero(n)
    for k in range(n // p + 1):
        m = n - k * p
        if m not in d_table:
            raise KeyError(f"d_table is missing the entry for m={m}")
        d_m = d_table[m]
        if d_m.is_zero():
            continue
        total = total + multiply(d_m, inflation_block(k, p))
    return total


def matching_boundary_entry(m: int, p: int, i: int) -> SymmetricFunction:
    """Default d_table entry for m < p: homology of {∅} concentrated in
    degree -1 with the trivial S_m-action."""
    if m >= p:
        raise ValueError("boundary convention only applies for m < p")
    if i == 0:
        return from_h(m)
    return SymmetricFunction.zero(m)


def conjectured_top_character(k: int, p: int) -> SymmetricFunction:
    """(e_k[h_p] h_1) restricted to Schur terms with exactly k+1 parts: the
    predicted top homology character of the matching complex on kp+1 points."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return restrict_length(
        multiply(plethysm(from_e(k), from_h(p)), from_h(1)), k + 1
    )


def column_added_plethysm(k: int, p: int) -> SymmetricFunction:
    """h_k[h_{p-1}] with one box added to each of the first k+1 rows; equal
    to conjectured_top_character by the restriction identity
    e_r[h_p]|_r = (h_r[h_{p-1}] with a length-r column added)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return add_column(plethysm(from_h(k), from_h(p - 1)), k + 1)


def graph_matching_homology(n: int, r: int) -> SymmetricFunction:
    """Closed form for the degree r-1 homology of the graph matching complex
    on n points: sum of s_lam over self-conjugate lam of n whose Durfee
    square has side n - 2r."""
    terms = {
        lam: 1
        for lam in partitions_of(n, self_conjugate=True)
        if lam.durfee() == n - 2 * r
    }
    return SymmetricFunction(n, terms)


def odd_parts_top_character(k: int) -> SymmetricFunction:
    """Sum of s_lam over partitions of 3k+1 into k+1 odd parts: the top
    homology character of the 3-uniform matching complex on 3k+1 points."""
    if k < 1:
        raise ValueError("k must be positive")
    terms = {
        lam: 1
        for lam in partitions_of(3 * k + 1, exact_length=k + 1, all_parts_odd=True)
    }
    return SymmetricFunction(3 * k + 1, terms)


def euler_poincare_character(p: int, n: int) -> SymmetricFunction:
    """Signed sum of the chain characteristics of the p-uniform matching
    complex on n points: sum_r (-1)^r e_r[h_p] h_{n-pr}.  Virtual (signed)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = SymmetricFunction.zero(n)
    for r in range(n // p + 1):
        term = multiply(plethysm(from_e(r), from_h(p)), from_h(n - p * r))
        total = total + (term if r % 2 == 0 else -term)
    return total


def vanishing_floor(p: int, n: int) -> int:
    """Reduced homology of the p-uniform matching complex on n points
    vanishes below this degree."""
    if n < 2 or p < 2:
        raise ValueError("n and p must be at least 2")
    return (n - p) // (p + 1)


def derive_table(n: int) -> dict[int, SymmetricFunction]:
    """Nonvanishing homology characters of the 3-uniform matching complex on
    n points (4 <= n <= 13), without boundary-matrix linear algebra.

    The signed chain sum pins everything when at most one degree survives the
    vanishing bound (plus the top-collapse vanishing when 3 divides n); when
    two degrees survive (n = 10, 13) the top degree is the odd-parts
    character and the other degree is solved from the signed sum.
    """
    if not 4 <= n <= 13:
        raise ValueError("derive_table covers 4 <= n <= 13")
    top = n // 3 - 1
    floor = vanishing_floor(3, n)
    degrees = [d for d in range(floor, top + 1) if not (n % 3 == 0 and d == top)]
    signed = euler_poincare_character(3, n)

    def homology_sign(d):
        # the degree-d homology enters the signed chain sum as (-1)^(d+1)
        return -1 if (d + 1) % 2 else 1

    out: dict[int, SymmetricFunction] = {}
    if len(degrees) == 1:
        d = degrees[0]
        out[d] = homology_sign(d) * signed
    elif len(degrees) == 2 and top == degrees[1]:
        k = (n - 1) // 3
        top_char = odd_parts_top_character(k)
        out[top] = top_char
        d = degrees[0]
        out[d] = homology_sign(d) * (signed - homology_sign(top) * top_char)
    else:
        raise ArithmeticError(f"unexpected degree pattern {degrees} at n={n}")
    for d, f in out.items():
        if not f.is_schur_nonnegative() or not f.is_integral():
            raise ArithmeticError(
                f"derived character at n={n}, degree {d} is not a genuine "
                f"representation: {f.to_text()}"
            )
    return {d: f for d, f in out.items() if not f.is_zero()}


# The nonvanishing homology table for the 3-uniform matching complexes,
# n <= 13; one entry per (n, degree), multiplicities all 1.
GOLDEN_TABLE: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {
    (4, 0): ((3, 1),),
    (5, 0): ((4, 1), (3, 2)),
    (6, 0): ((4, 2),),
    (7, 1): ((5, 1, 1), (3, 3, 1)),
    (8, 1): ((6, 1, 1), (5, 2, 1), (4, 3, 1), (3, 3, 2), (5, 3)),
    (9, 1): ((6, 2, 1), (5, 3, 1), (4, 3, 2), (5, 4)),
    (10, 1): ((5, 5),),
    (10, 2): ((7, 1, 1, 1), (5, 3, 1, 1), (3, 3, 3, 1)),
    (11, 2): (
        (8, 1, 1, 1),
        (7, 3, 1),
        (7, 2, 1, 1),
        (6, 4, 1),
        (6, 3, 2),
        (6, 3, 1, 1),
        (5, 4, 2),
        (5, 4, 1, 1),
        (5, 3, 3),
        (5, 3, 2, 1),
        (4, 3, 3, 1),
        (3, 3, 3, 2),
    ),
    (12, 2): (
        (8, 2, 1, 1),
        (7, 4, 1),
        (7, 3, 2),
        (7, 3, 1, 1),
        (6, 5, 1),
        (6, 4, 2),
        (6, 4, 1, 1),
        (6, 3, 3),
        (6, 3, 2, 1),
        (5, 5, 2),
        (5, 4, 3),
        (5, 4, 2, 1),
        (5, 3, 3, 1),
        (4, 3, 3, 2),
    ),
    (13, 2): ((7, 5, 1), (7, 3, 3), (6, 5, 2), (5, 5, 3)),
    (13, 3): (
        (9, 1, 1, 1, 1),
        (7, 3, 1, 1, 1),
        (5, 5, 1, 1, 1),
        (5, 3, 3, 1, 1),
        (3, 3, 3, 3, 1),
    ),
}


def golden_character(n: int, degree: int) -> SymmetricFunction:
    terms = {Partition(lam): 1 for lam in GOLDEN_TABLE[(n, degree)]}
    return SymmetricFunction(n, terms)


def verify_table() -> list[dict]:
    """Derive every table row and diff it against the embedded golden copy.

    Returns one record per (n, degree) row with the derived and expected
    characters and a match flag; also flags any derived degree that the
    golden table does not list.
    """
    results = []
    for n in range(4, 14):
        derived = derive_table(n)
        golden_degrees = sorted(d for (m, d) in GOLDEN_TABLE if m == n)
        for d in golden_degrees:
            expected = golden_character(n, d)
            got = derived.get(d, SymmetricFunction.zero(n))
            results.append(
                {
                    "n": n,
                    "degree": d,
                    "match": got == expected,
                    "derived": got,
                    "expected": expected,
                }
            )
        for d in sorted(derived):
            if d not in golden_degrees and not derived[d].is_zero():
                results.append(
                    {
                        "n": n,
                        "degree": d,
                        "match": False,
                        "derived": derived[d],
                        "expected": SymmetricFunction.zero(n),
                    }
                )
    return results
