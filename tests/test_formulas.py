import pytest

from equihom.characters import frobenius_ch, normalizer_character
from equihom.formulas import (
    GOLDEN_TABLE,
    column_added_plethysm,
    conjectured_top_character,
    cycle_complex_character,
    derive_table,
    euler_poincare_character,
    golden_character,
    graph_matching_homology,
    inflation_block,
    matching_boundary_entry,
    odd_parts_top_character,
    sylow_character_tableau_form,
    sylow_permutation_character,
    vanishing_floor,
    verify_table,
)
from equihom.symfunc import (
    SymmetricFunction as SF,
    from_e,
    from_h,
    multiply,
    plethysm,
    restrict_length,
)

s = SF.schur


def test_sylow_character_small_primes():
    assert sylow_permutation_character(2) == s((2,))
    assert sylow_permutation_character(3) == s((3,))
    with pytest.raises(ValueError):
        sylow_permutation_character(6)


def test_sylow_character_three_routes_agree():
    for p in (2, 3, 5, 7):
        cycle_index = sylow_permutation_character(p)
        brute = frobenius_ch(normalizer_character(p))
        tableaux = sylow_character_tableau_form(p)
        assert cycle_index == brute == tableaux, p


def test_inflation_block_examples():
    for k in (1, 2, 3):
        assert inflation_block(k, 3).is_zero()
        assert inflation_block(k, 2).is_zero()
    assert inflation_block(0, 5) == SF.unit()
    assert inflation_block(1, 5) == sylow_permutation_character(5) - from_h(5)
    assert inflation_block(1, 5).is_schur_nonnegative()
    assert inflation_block(2, 5).is_schur_nonnegative()


def test_cycle_complex_character_rules():
    # p=3: only the k=0 term survives
    d = {m: (s((m - 1, 1)) if m >= 2 else from_h(m)) for m in (7, 4, 1)}
    assert cycle_complex_character(7, 3, 0, d) == d[7]
    # n=p: the k=1 term with the {∅} boundary convention
    d_table = {5: SF.zero(5), 0: SF.unit()}
    expected = sylow_permutation_character(5) - from_h(5)
    assert cycle_complex_character(5, 5, 0, d_table) == expected
    with pytest.raises(KeyError):
        cycle_complex_character(5, 5, 0, {5: SF.zero(5)})


def test_matching_boundary_entry():
    assert matching_boundary_entry(3, 5, 0) == from_h(3)
    assert matching_boundary_entry(0, 5, 0) == SF.unit()
    assert matching_boundary_entry(3, 5, 1).is_zero()
    with pytest.raises(ValueError):
        matching_boundary_entry(7, 5, 0)


def test_conjectured_top_character_examples():
    assert conjectured_top_character(1, 3) == s((3, 1))
    assert conjectured_top_character(2, 3) == s((5, 1, 1)) + s((3, 3, 1))
    # every term has k+1 parts with smallest part 1
    f = conjectured_top_character(3, 4)
    for lam in f.terms:
        assert len(lam) == 4 and lam[-1] == 1


def test_two_rows_plus_one_prediction():
    # k=2 for any p: terms are (a, b, 1) over odd two-row partitions of 2p
    from equihom.partitions import partitions_of

    for p in range(2, 7):
        expected = SF.zero(2 * p + 1)
        for lam in partitions_of(2 * p, max_length=2):
            if len(lam) == 2 and lam[0] % 2 and lam[1] % 2:
                expected = expected + s((lam[0], lam[1], 1))
        assert conjectured_top_character(2, p) == expected, p


def test_column_added_plethysm_examples():
    assert column_added_plethysm(1, 3) == s((3, 1))
    assert column_added_plethysm(3, 3) == (
        s((7, 1, 1, 1)) + s((5, 3, 1, 1)) + s((3, 3, 3, 1))
    )
    for k in range(1, 5):
        for p in range(2, 5):
            assert column_added_plethysm(k, p) == conjectured_top_character(k, p)


def test_zero_restriction_bound():
    # (e_k[h_p] h_j) has no Schur terms with more than k + min(j, 1) parts
    for k in range(5):
        for p in range(2, 5):
            for j in range(4):
                f = multiply(plethysm(from_e(k), from_h(p)), from_h(j))
                for r in range(k + min(j, 1) + 1, k + 4):
                    assert restrict_length(f, r).is_zero(), (k, p, j, r)


def test_graph_matching_homology_examples():
    assert graph_matching_homology(5, 2) == s((3, 1, 1))
    assert graph_matching_homology(3, 1) == s((2, 1))
    assert graph_matching_homology(4, 2).is_zero()


def test_odd_parts_top_examples():
    assert odd_parts_top_character(1) == s((3, 1))
    assert odd_parts_top_character(4) == (
        s((9, 1, 1, 1, 1))
        + s((7, 3, 1, 1, 1))
        + s((5, 5, 1, 1, 1))
        + s((5, 3, 3, 1, 1))
        + s((3, 3, 3, 3, 1))
    )
    for k in range(1, 6):
        assert odd_parts_top_character(k) == conjectured_top_character(k, 3)


def test_euler_poincare_examples():
    assert euler_poincare_character(3, 4) == -s((3, 1))
    assert euler_poincare_character(3, 6) == -s((4, 2))
    assert euler_poincare_character(5, 3) == from_h(3)
    assert euler_poincare_character(7, 2) == from_h(2)
    with pytest.raises(ValueError):
        euler_poincare_character(3, -1)


def test_vanishing_floor():
    assert vanishing_floor(3, 13) == 2
    assert vanishing_floor(3, 7) == 1
    assert vanishing_floor(2, 5) == 1
    assert vanishing_floor(3, 4) == 0


def test_derive_table_examples():
    nine = derive_table(9)
    assert nine == {1: golden_character(9, 1)}
    ten = derive_table(10)
    assert ten[1] == s((5, 5))
    assert ten[2] == s((7, 1, 1, 1)) + s((5, 3, 1, 1)) + s((3, 3, 3, 1))
    twelve = derive_table(12)
    assert len(twelve[2].terms) == 14
    assert twelve[2] == golden_character(12, 2)
    with pytest.raises(ValueError):
        derive_table(3)
    with pytest.raises(ValueError):
        derive_table(14)


def test_verify_table_all_rows_match():
    results = verify_table()
    assert len(results) == 12
    assert all(r["match"] for r in results)
    covered = {(r["n"], r["degree"]) for r in results}
    assert covered == set(GOLDEN_TABLE)


def test_inflation_block_assembly_for_one_extra_point():
    # the 5-cycle complex on 6 points: its homology is the matching-complex
    # term plus the k=1 inflation block times h_1
    from equihom.complexes import matching_complex, pcycle_complex
    from equihom.homology import equivariant_decomposition

    direct = equivariant_decomposition(pcycle_complex(5, 6)).characteristic(0)
    m56 = equivariant_decomposition(matching_complex(5, 6)).characteristic(0)
    assembled = m56 + multiply(inflation_block(1, 5), from_h(1))
    assert direct == assembled
