from fractions import Fraction

import pytest

from equihom.characters import frobenius_ch
from equihom.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    matching_complex,
    pcycle_complex,
)
from equihom.formulas import graph_matching_homology, vanishing_floor
from equihom.homology import (
    betti,
    boundary_matrix,
    chain_character,
    chain_class_function,
    equivariant_decomposition,
    euler_characteristics_match,
    homology_representatives,
)
from equihom.linalg import SparseMatrix, eliminate
from equihom.partitions import Partition, hook_dimension
from equihom.symfunc import SymmetricFunction as SF, from_h

s = SF.schur


def _triangle():
    return SimplicialComplex(
        ["a", "b", "c"], [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    )


def _compose_is_zero(d_low, d_high):
    for c in range(d_high.ncols):
        col = d_high.column_vector(c)
        for row in d_low.rows:
            if sum(row.get(j, 0) * v for j, v in col.items()):
                return False
    return True


def test_boundary_squares_to_zero():
    for cx in (
        _triangle(),
        matching_complex(2, 6),
        matching_complex(3, 7),
        matching_complex(3, 8),
        pcycle_complex(5, 6),
    ):
        for i in range(1, cx.dim + 1):
            assert _compose_is_zero(boundary_matrix(cx, i - 1), boundary_matrix(cx, i))


def test_boundary_commutes_with_action():
    cx = matching_complex(3, 5)
    from equihom.permutations import from_cycles

    sigma = from_cycles([(0, 1, 2, 3, 4)], 5)
    perm = cx.action.vertex_permutation(cx, sigma)
    d1 = boundary_matrix(cx, 1)
    faces0 = cx.faces(0)
    faces1 = cx.faces(1)
    idx0 = {f: i for i, f in enumerate(faces0)}
    idx1 = {f: i for i, f in enumerate(faces1)}
    for c, f in enumerate(faces1):
        img, sign = cx.face_image(perm, f)
        # boundary of image = signed image of boundary
        lhs = {}
        for r, row in enumerate(d1.rows):
            if idx1[img] in row:
                lhs[r] = row[idx1[img]] * sign
        rhs = {}
        for r, row in enumerate(d1.rows):
            if c in row:
                g, s2 = cx.face_image(perm, faces0[r])
                rhs[idx0[g]] = rhs.get(idx0[g], 0) + row[c] * s2
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


def test_betti_examples():
    assert betti(SimplicialComplex([], [()])) == [1]
    assert betti(SimplicialComplex(["x"], [(), (0,)])) == [0, 0]
    assert betti(_triangle()) == [0, 0, 1]
    assert betti(matching_complex(2, 5)) == [0, 0, 6]
    assert betti(matching_complex(3, 4)) == [0, 3]
    assert betti(matching_complex(3, 7)) == [0, 0, 36]


def test_homology_representatives():
    assert len(homology_representatives(_triangle(), 1)) == 1
    reps = homology_representatives(matching_complex(3, 4), 0)
    assert len(reps) == 3
    assert len(homology_representatives(matching_complex(3, 7), 1)) == 36
    # each representative is a genuine cycle
    cx = matching_complex(3, 7)
    d1 = boundary_matrix(cx, 1)
    for vec in homology_representatives(cx, 1):
        image = d1.mul_vector(vec)
        assert not image


def test_representative_classes_are_independent_mod_boundaries():
    from equihom.linalg import RowReducer

    for cx, i in ((matching_complex(3, 8), 1), (matching_complex(2, 6), 1)):
        reps = homology_representatives(cx, i)
        reducer = RowReducer()
        if i < cx.dim:
            upper = boundary_matrix(cx, i + 1)
            for c in range(upper.ncols):
                reducer.add(upper.column_vector(c))
        boundary_rank = reducer.rank
        for vec in reps:
            assert reducer.add(dict(vec))
        assert reducer.rank == boundary_rank + len(reps)
        b = betti(cx)
        assert len(reps) == b[i + 1]


def test_representative_of_empty_complex():
    empty = SimplicialComplex([], [()])
    reps = homology_representatives(empty, -1)
    assert len(reps) == 1


def test_degree_minus_one_is_trivial_module():
    # the matching complex with n < p is {∅}: its homology sits in degree -1
    # and carries the trivial S_n-module
    cx = matching_complex(5, 2)
    dec = equivariant_decomposition(cx)
    assert dec.betti(-1) == 1
    assert dec.characteristic(-1) == from_h(2)
    cx = matching_complex(3, 4)
    assert equivariant_decomposition(cx).betti(-1) == 0


def test_chain_character_examples():
    assert chain_character(3, 4, 1) == s((4,)) + s((3, 1))
    assert chain_character(2, 4, 2) == s((3, 1))
    assert chain_character(3, 4, 0) == from_h(4)
    with pytest.raises(ValueError):
        chain_character(3, 4, 2)


def test_chain_character_is_the_permutation_character():
    for p, n_max in ((2, 8), (3, 8)):
        for n in range(p, n_max + 1):
            cx = matching_complex(p, n)
            for r in range(0, n // p + 1):
                direct = frobenius_ch(chain_class_function(cx, r - 1))
                assert direct == chain_character(p, n, r), (p, n, r)


def test_equivariant_examples():
    dec = equivariant_decomposition(matching_complex(3, 4))
    assert dec.multiplicities(0) == {Partition((3, 1)): 1}
    dec = equivariant_decomposition(matching_complex(2, 5))
    assert dec.multiplicities(1) == {Partition((3, 1, 1)): 1}
    dec = equivariant_decomposition(matching_complex(3, 8))
    assert dec.multiplicities(1) == {
        Partition((6, 1, 1)): 1,
        Partition((5, 2, 1)): 1,
        Partition((4, 3, 1)): 1,
        Partition((3, 3, 2)): 1,
        Partition((5, 3)): 1,
    }


def test_equivariant_betti_consistency(decomposition_cache):
    for n in range(4, 9):
        cx, dec = decomposition_cache("matching", 3, n)
        direct = betti(cx)
        for offset, b in enumerate(direct):
            i = offset - 1
            assert dec.betti(i) == b
            total = sum(
                hook_dimension(lam) * m for lam, m in dec.multiplicities(i).items()
            )
            assert total == b


def test_hopf_trace_identity(decomposition_cache):
    for kind, p, n in (
        ("matching", 3, 6),
        ("matching", 3, 7),
        ("matching", 2, 6),
        ("pcycle", 5, 6),
        ("quillen", 3, 6),
    ):
        cx, dec = decomposition_cache(kind, p, n)
        n_points = cx.action.n
        chain_sum = SF.zero(n_points)
        hom_sum = SF.zero(n_points)
        for i in range(-1, cx.dim + 1):
            sign = -1 if (i + 1) % 2 else 1
            chain_sum = chain_sum + sign * frobenius_ch(chain_class_function(cx, i))
            hom_sum = hom_sum + sign * dec.characteristic(i)
        assert chain_sum == hom_sum, (kind, p, n)
    assert euler_characteristics_match(matching_complex(3, 5))


def test_barycentric_subdivision_equivariant_invariance(decomposition_cache):
    for n in range(3, 7):
        cx, dec = decomposition_cache("matching", 3, n)
        sd = barycentric_subdivision(cx)
        dec_sd = equivariant_decomposition(sd)
        assert dec_sd == dec, n


def test_collapse_vanishing_at_multiples():
    for p, ns in ((2, (2, 4, 6, 8)), (3, (3, 6, 9))):
        for n in ns:
            cx = matching_complex(p, n)
            b = betti(cx)
            assert b[-1] == 0, (p, n)


def test_low_degree_vanishing_bound(decomposition_cache):
    for p, ns in ((2, range(3, 9)), (3, range(4, 9))):
        for n in ns:
            cx = matching_complex(p, n)
            b = betti(cx)
            floor = vanishing_floor(p, n)
            for offset, value in enumerate(b):
                i = offset - 1
                if i < floor:
                    assert value == 0, (p, n, i)


def test_graph_matching_closed_form(decomposition_cache):
    for n in range(3, 8):
        cx, dec = decomposition_cache("matching", 2, n)
        for i in range(-1, cx.dim + 1):
            assert dec.characteristic(i) == graph_matching_homology(n, i + 1), (n, i)


def _dense_solve(columns, targets, size):
    """Coordinates of each target in the span of columns, from one dense
    Fraction elimination with the targets as augmented columns."""
    m = len(columns)
    rows = [
        [col.get(i, Fraction(0)) for col in columns]
        + [t.get(i, Fraction(0)) for t in targets]
        for i in range(size)
    ]
    piv_rows = []
    rank = 0
    for c in range(m):
        piv = next((r for r in range(rank, size) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        factor = rows[rank][c]
        rows[rank] = [v / factor for v in rows[rank]]
        for r in range(size):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        piv_rows.append(c)
        rank += 1
    solutions = []
    for t in range(len(targets)):
        for r in range(rank, size):
            assert rows[r][m + t] == 0, ("target outside the span", t)
        coords = [Fraction(0)] * m
        for k, c in enumerate(piv_rows):
            coords[c] = rows[k][m + t]
        solutions.append(coords)
    return solutions


def test_equivariant_traces_against_explicit_basis_solving():
    """Independent route: express each mapped homology representative in an
    explicit basis (boundary columns + representatives) by dense elimination
    and read the trace off the representative coordinates."""
    from equihom.characters import character_table
    from equihom.partitions import partitions_of
    from equihom.permutations import centralizer_order, representative

    k5 = _k5_with_triples()
    for cx, i in (
        (matching_complex(2, 6), 1),
        (matching_complex(3, 7), 1),
        (matching_complex(3, 6), 0),
        (k5, 0),
        (k5, 1),
    ):
        n = cx.action.n
        faces = cx.faces(i)
        idx = {f: k for k, f in enumerate(faces)}
        reps = homology_representatives(cx, i)
        boundary_cols = []
        if i < cx.dim:
            upper = boundary_matrix(cx, i + 1)
            pivot_cols = sorted(c for _, c in eliminate(upper).pivots)
            boundary_cols = [upper.column_vector(c) for c in pivot_cols]
        basis = [
            {r: Fraction(v) for r, v in col.items()} for col in boundary_cols
        ] + [dict(vec) for vec in reps]
        values = {}
        for mu in partitions_of(n):
            sigma = representative(mu)
            perm = cx.action.vertex_permutation(cx, sigma)
            moved_reps = []
            for vec in reps:
                moved = {}
                for face_idx, coeff in vec.items():
                    g, sign = cx.face_image(perm, faces[face_idx])
                    moved[idx[g]] = moved.get(idx[g], Fraction(0)) + sign * coeff
                moved_reps.append(moved)
            solutions = _dense_solve(basis, moved_reps, len(faces))
            values[mu] = sum(
                coords[len(boundary_cols) + j] for j, coords in enumerate(solutions)
            )
        # compare with the production path
        dec = equivariant_decomposition(cx)
        table = character_table(n)
        for mu in values:
            expected = sum(
                m * table[lam][mu] for lam, m in dec.multiplicities(i).items()
            )
            assert values[mu] == expected, (cx.name, i, mu)


def _k5_with_triples():
    """S_5 relabelling the complete graph on the vertices (i,) plus the ten
    3-subsets of {0..4} as isolated vertices: homology in degrees 0 and 1."""
    from itertools import combinations

    from equihom.complexes import SnAction

    labels = [(i,) for i in range(5)] + list(combinations(range(5), 3))
    faces = [()] + [(k,) for k in range(len(labels))] + list(combinations(range(5), 2))
    cx = SimplicialComplex(labels, faces, name="K5+triples")
    cx.action = SnAction(
        5, lambda sigma: lambda lab: tuple(sorted(sigma[x] for x in lab))
    )
    return cx


def test_two_degree_complex_by_hand():
    # eleven components, one of them K_5: H~_0 is the permutation module on
    # 3-subsets, h_3 h_2; H~_1 is the cycle space of K_5, the exterior square
    # of the standard representation
    for cx in (_k5_with_triples(), _shuffled(_k5_with_triples(), seed=1)):
        dec = equivariant_decomposition(cx)
        assert dec.nonzero_degrees() == [0, 1]
        assert dec.characteristic(0) == s((5,)) + s((4, 1)) + s((3, 2))
        assert dec.characteristic(1) == s((3, 1, 1))


def test_pcycle_5_10_has_two_degrees():
    dec = equivariant_decomposition(pcycle_complex(5, 10))
    assert dec.nonzero_degrees() == [0, 1]
    assert dec.multiplicities(0) == {Partition((8, 2)): 1, Partition((6, 4)): 1}
    assert dec.multiplicities(1) == {
        Partition(lam): 1
        for lam in (
            (4, 4, 1, 1), (4, 3, 3), (4, 3, 2, 1), (4, 2, 2, 1, 1), (3, 3, 2, 2),
            (3, 3, 2, 1, 1), (3, 3, 1, 1, 1, 1), (3, 2, 2, 2, 1), (2, 2, 2, 2, 1, 1),
        )
    }
    assert (dec.betti(0), dec.betti(1)) == (125, 3150)


def _shuffled(cx, seed):
    """The same complex and action with its vertices listed in a shuffled
    order, so that orbits start at faces unrelated to the action."""
    import random

    labels = list(cx.vertex_labels)
    random.Random(seed).shuffle(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    faces = [
        tuple(sorted(pos[cx.vertex_labels[v]] for v in f)) for f in cx.all_faces()
    ]
    out = SimplicialComplex(labels, faces, name=f"{cx.name} shuffled")
    out.action = cx.action
    return out


@pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
@pytest.mark.parametrize(
    "kind, p, n", [("matching", 3, 7), ("matching", 2, 7), ("pcycle", 3, 6)]
)
def test_orbit_ranks_agree_with_the_betti_recursion(kind, p, n, shuffle):
    """Where the Betti recursion fixes every image, the orbit-rank route,
    run on every image for every Young subgroup and without bounds, must
    give the same Specht multiplicities."""
    from equihom import complexes, homology
    from equihom.characters import character_table
    from equihom.partitions import partitions_of

    cx = getattr(complexes, complexes.KINDS[kind].builder)(p, n)
    if shuffle:
        cx = _shuffled(cx, seed=1)
    ranks = homology._boundary_ranks(cx)
    betti_numbers = homology._betti_from_ranks(cx, ranks)
    chain = {
        i: {mu: int(v) for mu, v in chain_class_function(cx, i).values.items()}
        for i in betti_numbers
    }
    table = character_table(n)
    image = homology._image_characters(cx, ranks, betti_numbers, chain, table)
    for j in range(cx.dim + 1):
        unbounded = dict.fromkeys(partitions_of(n), ranks[j])
        assert homology._image_multiplicities(cx, j, ranks[j], unbounded) == (
            homology._multiplicities(image[j], table, f"im ∂_{j}")
        ), j


def test_equivariant_decomposition_runs_no_gauss_jordan(monkeypatch):
    from equihom import homology

    calls = []

    def spy(matrix, full=False):
        calls.append(full)
        return eliminate(matrix, full)

    monkeypatch.setattr(homology, "eliminate", spy)
    for cx in (matching_complex(3, 7), _k5_with_triples()):
        calls.clear()
        equivariant_decomposition(cx)
        # one rank per boundary map, plus orbit ranks when two degrees have homology
        assert len(calls) >= cx.dim + 1
        assert not any(calls), cx.name


def test_missing_action_raises():
    plain = SimplicialComplex(["a", "b"], [(), (0,), (1,)])
    with pytest.raises(ValueError):
        equivariant_decomposition(plain)


def test_non_simplicial_action_rejected():
    from equihom.complexes import SnAction

    cx = SimplicialComplex([(0,), (1,), (2,)], [(), (0,), (1,), (2,), (0, 1)])
    # swapping vertices 1 and 2 maps the edge (0,1) to (0,2), not a face
    cx.action = SnAction(3, lambda sigma: lambda lab: (sigma[lab[0]],))
    with pytest.raises(ValueError):
        equivariant_decomposition(cx)


def test_sparse_elimination_basics():
    # row2 - row3/3 is half of row1, so the rank is 2
    mat = SparseMatrix(3, 3, [{0: 2, 1: 4}, {0: 1, 1: 2, 2: 1}, {2: 3}])
    assert eliminate(mat).rank == 2
    full_rank = SparseMatrix(3, 3, [{0: 1, 1: 1}, {1: 2, 2: 1}, {0: 5}])
    assert eliminate(full_rank).rank == 3
    singular = SparseMatrix(2, 2, [{0: 1, 1: 2}, {0: 2, 1: 4}])
    full = eliminate(singular, full=True)
    assert full.rank == 1
    null = full.nullspace()
    assert len(null) == 1
    vec = null[0]
    assert vec[0] * 1 + vec[1] * 2 == 0


def test_elimination_matches_dense_rank():
    # random-ish small integer matrices against a Fraction-based dense rank
    import random

    rng = random.Random(7)
    for trial in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = [
            [rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(nc)]
            for _ in range(nr)
        ]
        mat = SparseMatrix(
            nr, nc, [{j: v for j, v in enumerate(row) if v} for row in dense]
        )
        assert eliminate(mat).rank == _dense_rank(dense)
        assert eliminate(mat, full=True).rank == _dense_rank(dense)


def _dense_rank(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        factor = rows[rank][col]
        rows[rank] = [v / factor for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _random_sparse(rng, nr, nc):
    """Columns with an equal number k of nonzeros (as in boundary matrices),
    plus some rows that are combinations of others, so that elimination
    meets ties in the column counts, fill-in and a rank deficit."""
    k = rng.randint(1, min(3, nr))
    dense = [[0] * nc for _ in range(nr)]
    for j in range(nc):
        for i in rng.sample(range(nr), k):
            dense[i][j] = rng.choice([-2, -1, 1, 2])
    if nr >= 3:
        for _ in range(rng.randint(0, nr // 3)):
            a, b, t = rng.sample(range(nr), 3)
            x, y = rng.choice([-2, -1, 1, 3]), rng.choice([-1, 1, 2])
            dense[t] = [x * u + y * v for u, v in zip(dense[a], dense[b])]
    return dense


def test_elimination_oracle_on_random_sparse_matrices():
    import random

    rng = random.Random(12)
    for trial in range(60):
        nr, nc = rng.randint(1, 30), rng.randint(1, 40)
        dense = _random_sparse(rng, nr, nc)
        mat = SparseMatrix(
            nr, nc, [{j: v for j, v in enumerate(row) if v} for row in dense]
        )
        rank = _dense_rank(dense)
        assert eliminate(mat).rank == rank, trial
        full = eliminate(mat, full=True)
        assert full.rank == rank, trial
        assert len({r for r, _ in full.pivots}) == len({c for _, c in full.pivots}) == rank
        for r, c in full.pivots:
            assert [i for i, row in enumerate(full.rows) if row.get(c)] == [r], trial
        kernel = full.nullspace()
        assert len(kernel) == nc - rank, trial
        for vec in kernel:
            assert mat.mul_vector(vec) == {}, trial


def test_elimination_does_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import equihom

    script = (
        "from equihom.complexes import matching_complex\n"
        "from equihom.homology import boundary_matrix\n"
        "from equihom.linalg import eliminate\n"
        "e = eliminate(boundary_matrix(matching_complex(3, 9), 2), full=True)\n"
        "print(e.pivots)\n"
        "print([sorted(row.items()) for row in e.rows])\n"
    )
    src = str(Path(equihom.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2
