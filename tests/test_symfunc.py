from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from equihom.partitions import Partition, partitions_of
from equihom.symfunc import (
    SymmetricFunction as SF,
    add_column,
    from_e,
    from_h,
    from_power_product,
    hall_inner_product,
    multiply,
    plethysm,
    restrict_length,
)

s = SF.schur


def _contains(lam, mu):
    return all(mu.part(i) >= lam.part(i) for i in range(max(len(mu), len(lam))))


def _is_horizontal_strip(lam, mu):
    # no two added boxes in a column: mu_{i+1} <= lam_i
    return _contains(lam, mu) and all(
        mu.part(i + 1) <= lam.part(i) for i in range(len(mu))
    )


def _is_vertical_strip(lam, mu):
    # at most one added box per row
    return _contains(lam, mu) and all(
        mu.part(i) - lam.part(i) <= 1 for i in range(len(mu))
    )


def brute_pieri(lam, k, predicate):
    return {
        mu: Fraction(1)
        for mu in partitions_of(lam.n + k)
        if predicate(lam, mu)
    }


def test_power_products():
    assert from_power_product((1,)) == s((1,))
    assert from_power_product((2,)) == s((2,)) - s((1, 1))
    assert from_power_product((1, 1)) == s((2,)) + s((1, 1))
    assert from_power_product(()) == SF.unit()


def test_h_and_e():
    assert from_h(3) == s((3,))
    assert from_e(3) == s((1, 1, 1))
    assert from_h(0) == SF.unit()
    assert from_e(0) == SF.unit()


def test_multiply_examples():
    assert multiply(s((1,)), s((1,))) == s((2,)) + s((1, 1))
    assert multiply(s((2, 1)), from_h(2)) == (
        s((4, 1)) + s((3, 2)) + s((3, 1, 1)) + s((2, 2, 1))
    )
    f = s((3, 1)) + 2 * s((2, 2))
    assert multiply(f, SF.unit()) == f


def test_pieri_brute_force_oracle():
    for n in range(7):
        for lam in partitions_of(n):
            for k in range(1, 5):
                got_h = multiply(s(lam), from_h(k)).terms
                assert got_h == brute_pieri(lam, k, _is_horizontal_strip), (lam, k)
                got_e = multiply(s(lam), from_e(k)).terms
                assert got_e == brute_pieri(lam, k, _is_vertical_strip), (lam, k)


@st.composite
def symfunc_strategy(draw, max_degree=6, max_terms=3):
    n = draw(st.integers(min_value=0, max_value=max_degree))
    parts = partitions_of(n)
    chosen = draw(
        st.lists(st.sampled_from(parts), min_size=1, max_size=max_terms)
        if parts
        else st.just([Partition()])
    )
    coeffs = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    terms = {}
    for lam, c in zip(chosen, coeffs):
        terms[lam] = terms.get(lam, 0) + c
    return SF(n, terms)


@settings(max_examples=40, deadline=None)
@given(symfunc_strategy(max_degree=8), symfunc_strategy(max_degree=8))
def test_multiplication_commutes(f, g):
    assert multiply(f, g) == multiply(g, f)


@settings(max_examples=25, deadline=None)
@given(symfunc_strategy(4, 2), symfunc_strategy(3, 2), symfunc_strategy(3, 2))
def test_multiplication_associates(f, g, h):
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


@settings(max_examples=25, deadline=None)
@given(st.data(), symfunc_strategy(4, 2))
def test_multiplication_distributes(data, f):
    # g and h share a degree so that g + h is defined
    n = data.draw(st.integers(min_value=0, max_value=4))
    pick = st.dictionaries(
        st.sampled_from(partitions_of(n)),
        st.integers(min_value=-2, max_value=2),
        max_size=3,
    )
    g = SF(n, data.draw(pick))
    h = SF(n, data.draw(pick))
    assert multiply(f, g + h) == multiply(f, g) + multiply(f, h)


def test_ring_axioms_explicit():
    f = s((3, 1)) + 2 * s((2, 2))
    g = s((2, 1)) - s((3,))
    h = 3 * s((2, 1))
    assert multiply(f, g) == multiply(g, f)
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
    assert multiply(f, g + h) == multiply(f, g) + multiply(f, h)


def test_plethysm_examples():
    assert plethysm(from_e(2), from_h(2)) == s((3, 1))
    assert plethysm(from_h(3), from_h(2)) == s((6,)) + s((4, 2)) + s((2, 2, 2))
    assert plethysm(from_e(2), from_h(3)) == s((5, 1)) + s((3, 3))


def test_plethysm_degree_zero_rules():
    assert plethysm(SF.unit(), from_h(3)) == SF.unit()
    assert plethysm(2 * SF.unit(), from_h(3)) == 2 * SF.unit()
    with pytest.raises(ValueError):
        plethysm(from_h(2), 2 * SF.unit())
    assert plethysm(from_h(2), SF.zero(0)).is_zero()


def test_plethysm_wreath_dimensions():
    for k in range(1, 5):
        for p in range(1, 5):
            expected = factorial(k * p) // (factorial(k) * factorial(p) ** k)
            assert plethysm(from_e(k), from_h(p)).dimension() == expected
            assert plethysm(from_h(k), from_h(p)).dimension() == expected


def test_even_row_plethysm_identity():
    for k in range(6):
        expected = SF.zero(2 * k)
        for lam in partitions_of(k):
            expected = expected + s(tuple(2 * x for x in lam))
        assert plethysm(from_h(k), from_h(2)) == expected


def test_two_row_odd_parts_identity():
    for p in range(2, 7):
        expected = SF.zero(2 * p)
        for lam in partitions_of(2 * p, max_length=2):
            if len(lam) == 2 and lam[0] % 2 and lam[1] % 2:
                expected = expected + s(lam)
        assert plethysm(from_e(2), from_h(p)) == expected


def test_restriction_column_identity():
    for r in range(1, 5):
        for p in range(2, 5):
            lhs = restrict_length(plethysm(from_e(r), from_h(p)), r)
            rhs = add_column(plethysm(from_h(r), from_h(p - 1)), r)
            assert lhs == rhs, (r, p)


def test_schur_positivity_of_plethysms():
    for k in range(1, 5):
        for p in range(2, 5):
            ek = plethysm(from_e(k), from_h(p))
            hk = plethysm(from_h(k), from_h(p))
            assert ek.is_schur_nonnegative()
            assert hk.is_schur_nonnegative()
            power = from_h(p)
            for _ in range(k - 1):
                power = multiply(power, from_h(p))
            assert (power - ek).is_schur_nonnegative(), (k, p)


def test_restrict_length():
    assert restrict_length(s((2, 1)), 1).is_zero()
    f = s((3,)) + s((2, 1)) + s((1, 1, 1))
    assert restrict_length(f, 2) == s((2, 1))
    assert restrict_length(SF.unit(), 0) == SF.unit()


def test_add_column():
    assert add_column(s((2,)), 2) == s((3, 1))
    assert add_column(plethysm(from_h(1), from_h(2)), 2) == s((3, 1))
    assert add_column(plethysm(from_h(2), from_h(2)), 3) == s((5, 1, 1)) + s((3, 3, 1))
    with pytest.raises(ValueError):
        add_column(s((1, 1, 1)), 2)


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        s((2,)) + s((3,))
    assert (s((2,)) + SF.zero(5)) == s((2,))


def test_hall_inner_product():
    assert hall_inner_product(s((2, 1)), s((2, 1))) == 1
    assert hall_inner_product(s((2, 1)), s((3,))) == 0
    f = 2 * s((2,)) - s((1, 1))
    assert hall_inner_product(f, f) == 5


def test_text_and_json_round_trip():
    f = s((5, 1, 1)) + s((3, 3, 1))
    assert f.to_text() == "s[5,1,1] + s[3,3,1]"
    g = 2 * s((2, 1)) - Fraction(1, 2) * s((3,))
    assert g.to_text() == "-1/2*s[3] + 2*s[2,1]"
    assert SF.zero(4).to_text() == "0"
    for fn in (f, g, SF.unit(), SF.zero(3)):
        assert SF.from_json(fn.to_json()) == fn


def test_power_schur_coefficients_are_characters(border_strip_character):
    # coefficient of s_lam in p_mu equals the irreducible character value
    for n in range(1, 7):
        for mu in partitions_of(n):
            f = from_power_product(mu)
            for lam in partitions_of(n):
                assert f.coefficient(lam) == border_strip_character(lam, mu)
