import json
from fractions import Fraction

import pytest

from equihom.characters import (
    ClassFunction,
    character_table,
    cyclic_induced_character,
    frobenius_ch,
    frobenius_inverse,
    inner_product,
    irreducible_character,
    irreducible_class_function,
    normalizer_character,
    regular_character,
    sign_character,
    trivial_character,
)
from equihom.partitions import Partition, maj_count, partitions_of
from equihom.permutations import centralizer_order
from equihom.symfunc import (
    SymmetricFunction as SF,
    from_e,
    from_h,
    hall_inner_product,
    multiply,
)

s = SF.schur


def test_irreducible_character_examples():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert irreducible_character((n,), mu) == 1
    assert irreducible_character((1, 1, 1), (2, 1)) == -1
    assert irreducible_character((2, 1), (3,)) == -1
    with pytest.raises(ValueError):
        irreducible_character((2, 1), (2, 2))


def test_character_orthogonality():
    for n in range(1, 8):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                total = sum(
                    irreducible_character(lam, mu) * irreducible_character(lam, nu)
                    for lam in parts
                )
                expected = centralizer_order(mu) if mu == nu else 0
                assert total == expected


def test_frobenius_examples():
    assert frobenius_ch(trivial_character(5)) == from_h(5)
    assert frobenius_ch(sign_character(5)) == from_e(5)
    assert frobenius_ch(regular_character(2)) == s((2,)) + s((1, 1))


def test_frobenius_round_trip():
    for n in range(1, 7):
        for lam in partitions_of(n):
            cf = irreducible_class_function(lam)
            assert frobenius_ch(cf) == s(lam)
            assert frobenius_inverse(s(lam)) == cf


def test_inner_product_examples():
    assert inner_product(
        irreducible_class_function((2, 1)), irreducible_class_function((2, 1))
    ) == 1
    assert inner_product(trivial_character(3), sign_character(3)) == 0
    assert inner_product(
        regular_character(3), irreducible_class_function((2, 1))
    ) == 2
    with pytest.raises(ValueError):
        inner_product(trivial_character(3), trivial_character(4))


def test_frobenius_is_isometry():
    for n in range(1, 7):
        parts = partitions_of(n)
        phi = irreducible_class_function(parts[0]) + 2 * irreducible_class_function(
            parts[-1]
        )
        psi = sum(
            (irreducible_class_function(lam) for lam in parts[1:]),
            irreducible_class_function(parts[0]),
        )
        assert inner_product(phi, psi) == hall_inner_product(
            frobenius_ch(phi), frobenius_ch(psi)
        )


def _totient(n):
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclic_induced_character_against_cycle_index():
    # at m=0 the character is the permutation character on cosets of the
    # cyclic group: its characteristic is the cycle index of C_n
    for n in range(1, 8):
        pterms = {}
        for d in range(1, n + 1):
            if n % d == 0:
                pterms[Partition([d] * (n // d))] = Fraction(_totient(d), n)
        expected = SF.from_power_sums(pterms)
        assert frobenius_ch(cyclic_induced_character(0, n)) == expected


def test_cyclic_induced_character_examples():
    assert cyclic_induced_character(1, 3) == irreducible_class_function((2, 1))
    assert cyclic_induced_character(0, 1) == trivial_character(1)
    # multiplicities are tableau counts
    for m in range(4):
        ch = frobenius_ch(cyclic_induced_character(m, 4))
        for lam in partitions_of(4):
            assert ch.coefficient(lam) == maj_count(m, 4, lam)


def test_normalizer_character_basics():
    assert frobenius_ch(normalizer_character(2)) == from_h(2)
    assert frobenius_ch(normalizer_character(3)) == from_h(3)
    n5 = normalizer_character(5)
    assert n5(Partition([1] * 5)) == 6  # index (p-2)!
    n7 = normalizer_character(7)
    assert n7(Partition([1] * 7)) == 120
    with pytest.raises(ValueError):
        normalizer_character(4)
    with pytest.raises(ValueError):
        normalizer_character(13)


def test_normalizer_character_difference_identity():
    for p in (2, 3, 5, 7):
        lhs = frobenius_ch(normalizer_character(p))
        rhs = multiply(
            frobenius_ch(cyclic_induced_character(0, p - 1)), from_h(1)
        ) - frobenius_ch(cyclic_induced_character(1, p))
        assert lhs == rhs, p


def test_normalizer_character_tableau_multiplicities():
    for p in (2, 3, 5, 7):
        ch = frobenius_ch(normalizer_character(p))
        for lam in partitions_of(p):
            expected = maj_count(0, p - 1, lam) - maj_count(1, p, lam)
            assert ch.coefficient(lam) == expected, (p, lam)


def test_class_function_json_round_trip():
    cf = irreducible_class_function((3, 1, 1))
    data = json.loads(json.dumps(cf.to_json()))
    assert ClassFunction.from_json(data) == cf


def test_character_table_matches_border_strip_removal(border_strip_character):
    for n in range(10):
        parts = partitions_of(n)
        table = character_table(n)
        assert list(table) == parts
        for lam, row in table.items():
            assert list(row) == parts
            for mu, chi in row.items():
                assert type(chi) is int
                assert chi == irreducible_character(lam, mu)
                assert chi == border_strip_character(lam, mu), (lam, mu)
