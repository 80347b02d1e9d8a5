"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact
arithmetic; unless stated otherwise a check is exact equality.
"""

import io
import os
import time

from equihom.characters import frobenius_ch, normalizer_character
from equihom.cli import run as cli_run
from equihom.complexes import (
    barycentric_subdivision,
    matching_complex,
    pcycle_complex,
    quillen_complex,
)
from equihom.formulas import (
    GOLDEN_TABLE,
    conjectured_top_character,
    cycle_complex_character,
    golden_character,
    matching_boundary_entry,
    odd_parts_top_character,
    sylow_character_tableau_form,
    sylow_permutation_character,
    vanishing_floor,
    verify_table,
)
from equihom.homology import (
    betti,
    boundary_matrix,
    chain_character,
    chain_class_function,
    equivariant_decomposition,
)
from equihom.partitions import partitions_of
from equihom.symfunc import (
    SymmetricFunction as SF,
    add_column,
    from_e,
    from_h,
    multiply,
    plethysm,
    restrict_length,
)

RUN_OPTIONAL = os.environ.get("EQUIHOM_OPTIONAL") == "1"


def _report(label, ok, started):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, label


def _table_rows(n):
    return {d: golden_character(n, d) for (m, d) in GOLDEN_TABLE if m == n}


def test_criterion_1_table_reproduction():
    started = time.time()
    results = verify_table()
    ok = len(results) == 12 and all(r["match"] for r in results)
    buf = io.StringIO()
    code = cli_run(["verify-table"], out=buf)
    ok = ok and code == 0 and buf.getvalue().strip().endswith("12/12 rows match")
    ok = ok and time.time() - started < 10
    _report("1 table reproduction", ok, started)


def test_criterion_2_direct_homology_oracle():
    started = time.time()
    ok = True
    for n in range(4, 12):
        cx = matching_complex(3, n)
        numbers = betti(cx)
        expected_rows = _table_rows(n)
        for offset, b in enumerate(numbers):
            degree = offset - 1
            expected = (
                expected_rows[degree].dimension() if degree in expected_rows else 0
            )
            if b != expected:
                print(f"  betti mismatch at n={n}, degree {degree}: {b} != {expected}")
                ok = False
    ok = ok and time.time() - started < 300
    _report("2 direct homology oracle (betti M_3(4..11))", ok, started)


def test_criterion_3_equivariant_oracle(decomposition_cache):
    started = time.time()
    ok = True
    for n in range(4, 11):
        _, dec = decomposition_cache("matching", 3, n)
        expected_rows = _table_rows(n)
        for i in range(-1, n // 3):
            got = dec.characteristic(i)
            expected = expected_rows.get(i, SF.zero(n))
            if got != expected:
                print(f"  M_3({n}) degree {i}: {got.to_text()} != {expected.to_text()}")
                ok = False
    from equihom.formulas import graph_matching_homology

    for n in range(3, 10):
        _, dec = decomposition_cache("matching", 2, n)
        for i in range(-1, n // 2):
            got = dec.characteristic(i)
            expected = graph_matching_homology(n, i + 1)
            if got != expected:
                print(f"  M_2({n}) degree {i} mismatch")
                ok = False
    ok = ok and time.time() - started < 900
    _report("3 equivariant oracle (M_3 table rows, M_2 closed form)", ok, started)


def test_criterion_4_normalizer_character():
    started = time.time()
    ok = True
    for p in (2, 3, 5, 7):
        brute = frobenius_ch(normalizer_character(p))
        cycle_index = sylow_permutation_character(p)
        tableaux = sylow_character_tableau_form(p)
        if not (brute == cycle_index == tableaux):
            ok = False
        if p in (2, 3) and brute != from_h(p):
            ok = False
    ok = ok and time.time() - started < 30
    _report("4 normalizer character three-way agreement", ok, started)


def test_criterion_5_restriction_identity():
    started = time.time()
    ok = True
    for r in range(1, 5):
        for p in range(2, 5):
            lhs = restrict_length(plethysm(from_e(r), from_h(p)), r)
            rhs = add_column(plethysm(from_h(r), from_h(p - 1)), r)
            if lhs != rhs:
                ok = False
    ok = ok and time.time() - started < 10
    _report("5 restriction identity instances", ok, started)


def test_criterion_6_top_homology_conjecture(decomposition_cache):
    started = time.time()
    ok = True
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)]
    for p, k in cases:
        n = k * p + 1
        cx, dec = decomposition_cache("matching", p, n)
        direct = dec.characteristic(cx.dim)
        predicted = conjectured_top_character(k, p)
        if direct != predicted:
            print(f"  (p={p}, k={k}): direct != predicted")
            ok = False
        if p == 2:
            from equihom.formulas import graph_matching_homology

            if predicted != graph_matching_homology(n, k):
                ok = False
        if p == 3 and predicted != odd_parts_top_character(k):
            ok = False
        if (p, k) == (5, 1) and predicted != SF.schur((5, 1)):
            ok = False
    if RUN_OPTIONAL:
        cx, dec = decomposition_cache("matching", 5, 11)
        diff = dec.characteristic(cx.dim) - conjectured_top_character(2, 5)
        long_terms = [lam for lam in diff.terms if len(lam) >= 3]
        print(f"  optional (p=5, k=2): difference {diff.to_text()}")
        if long_terms:
            ok = False
    ok = ok and time.time() - started < 1200
    _report("6 top-homology conjecture instances", ok, started)


def test_criterion_7_quillen_vs_cycle_complex(decomposition_cache):
    started = time.time()
    ok = True
    for n in range(4, 10):
        q_cx, q_dec = decomposition_cache("quillen", 3, n)
        m_cx, m_dec = decomposition_cache("matching", 3, n)
        if q_cx.dim != m_cx.dim:
            print(f"  dim mismatch at n={n}")
            ok = False
        if q_dec.multiplicities(q_cx.dim) != m_dec.multiplicities(m_cx.dim):
            print(f"  top-degree decomposition mismatch at n={n}")
            ok = False
    for n in (5, 6):
        q_cx, q_dec = decomposition_cache("quillen", 5, n)
        c_cx, c_dec = decomposition_cache("pcycle", 5, n)
        if q_cx.dim != c_cx.dim or q_dec != c_dec:
            print(f"  quillen(5,{n}) != pcycle(5,{n})")
            ok = False
    ok = ok and time.time() - started < 600
    _report("7 quillen vs cycle complex", ok, started)


def test_criterion_8_cycle_complex_assembly(decomposition_cache):
    started = time.time()
    ok = True
    for n in (5, 6, 7):
        c_cx, c_dec = decomposition_cache("pcycle", 5, n)
        direct = c_dec.characteristic(c_cx.dim)
        d_table = {}
        for k in range(n // 5 + 1):
            m = n - 5 * k
            if m < 5:
                d_table[m] = matching_boundary_entry(m, 5, 0)
            else:
                m_cx, m_dec = decomposition_cache("matching", 5, m)
                d_table[m] = m_dec.characteristic(m_cx.dim)
        assembled = cycle_complex_character(n, 5, 0, d_table)
        if assembled != direct:
            print(f"  assembly mismatch at n={n}")
            ok = False
    ok = ok and time.time() - started < 300
    _report("8 cycle-complex assembly pipeline", ok, started)


def test_criterion_9_property_suites(decomposition_cache):
    started = time.time()
    ok = True

    # boundary squares to zero on a representative set
    for cx in (
        matching_complex(2, 6),
        matching_complex(3, 7),
        pcycle_complex(5, 6),
        quillen_complex(3, 6),
    ):
        for i in range(1, cx.dim + 1):
            low = boundary_matrix(cx, i - 1)
            high = boundary_matrix(cx, i)
            for c in range(high.ncols):
                col = high.column_vector(c)
                for row in low.rows:
                    if sum(row.get(j, 0) * v for j, v in col.items()):
                        ok = False

    # Pieri brute force
    from fractions import Fraction

    def contains(lam, mu):
        return all(mu.part(i) >= lam.part(i) for i in range(max(len(mu), len(lam))))

    for n in range(7):
        for lam in partitions_of(n):
            for k in range(1, 4):
                expect_h = {
                    mu: Fraction(1)
                    for mu in partitions_of(n + k)
                    if contains(lam, mu)
                    and all(mu.part(i + 1) <= lam.part(i) for i in range(len(mu)))
                }
                if multiply(SF.schur(lam), from_h(k)).terms != expect_h:
                    ok = False
                expect_e = {
                    mu: Fraction(1)
                    for mu in partitions_of(n + k)
                    if contains(lam, mu)
                    and all(mu.part(i) - lam.part(i) <= 1 for i in range(len(mu)))
                }
                if multiply(SF.schur(lam), from_e(k)).terms != expect_e:
                    ok = False

    # plethysm dimension counts
    from math import factorial

    for k in range(1, 5):
        for p in range(1, 5):
            expected = factorial(k * p) // (factorial(k) * factorial(p) ** k)
            if plethysm(from_e(k), from_h(p)).dimension() != expected:
                ok = False

    # Hopf trace, degree-wise, on the computed complexes
    for kind, p, n in (
        ("matching", 3, 7),
        ("matching", 2, 6),
        ("pcycle", 5, 6),
        ("quillen", 3, 6),
    ):
        cx, dec = decomposition_cache(kind, p, n)
        pts = cx.action.n
        chain_sum, hom_sum = SF.zero(pts), SF.zero(pts)
        for i in range(-1, cx.dim + 1):
            sign = -1 if (i + 1) % 2 else 1
            chain_sum = chain_sum + sign * frobenius_ch(chain_class_function(cx, i))
            hom_sum = hom_sum + sign * dec.characteristic(i)
        if chain_sum != hom_sum:
            ok = False

    # chain characters match the closed form where it applies
    for p, n in ((2, 6), (3, 7)):
        cx = matching_complex(p, n)
        for r in range(n // p + 1):
            if frobenius_ch(chain_class_function(cx, r - 1)) != chain_character(p, n, r):
                ok = False

    # barycentric subdivision equivariant invariance
    for n in range(3, 7):
        cx, dec = decomposition_cache("matching", 3, n)
        if equivariant_decomposition(barycentric_subdivision(cx)) != dec:
            ok = False

    # collapse vanishing at multiples and the lower vanishing bound
    for p, ns in ((2, (2, 4, 6, 8)), (3, (3, 6, 9))):
        for n in ns:
            numbers = betti(matching_complex(p, n))
            if numbers[-1] != 0:
                ok = False
            floor = vanishing_floor(p, n)
            for offset, value in enumerate(numbers):
                if offset - 1 < floor and value != 0:
                    ok = False

    # determinism under thread-count variation
    outputs = set()
    for threads in ("1", "2", "8"):
        buf = io.StringIO()
        code = cli_run(
            ["--threads", threads, "equivariant", "--complex", "matching",
             "--p", "3", "--n", "7", "--format", "json"],
            out=buf,
        )
        if code != 0:
            ok = False
        outputs.add(buf.getvalue())
    if len(outputs) != 1:
        ok = False

    _report("9 property suites", ok, started)
