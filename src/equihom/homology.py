"""Reduced rational homology of simplicial complexes and the Specht-module
decomposition of the S_n-representation on each homology group.

The chain complex is augmented: degree -1 is spanned by the empty face, so
the complex {∅} has one-dimensional homology there.  Character values on a
homology group are computed as

    tr(sigma | H_i) = tr(sigma | C_i) - tr(sigma | B_i) - tr(sigma | B_{i+1})

where B_i is the image of the i-th boundary map: sigma permutes the columns
of a boundary matrix up to sign, so after one Gauss-Jordan reduction per
matrix every trace is a table lookup, reused across all cycle types.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import ClassFunction, character_table, frobenius_ch
from .complexes import SimplicialComplex
from .linalg import Elimination, RowReducer, SparseMatrix, eliminate
from .partitions import Partition, hook_dimension, partitions_of
from .permutations import centralizer_order, representative
from .symfunc import SymmetricFunction, from_e, from_h, multiply, plethysm


def boundary_matrix(cx: SimplicialComplex, i: int) -> SparseMatrix:
    """The map C_i -> C_{i-1}; rows are (i-1)-faces, columns i-faces, with
    the sign (-1)^j for deleting the j-th vertex of a sorted face."""
    rows_faces = cx.faces(i - 1)
    cols_faces = cx.faces(i)
    index = {f: r for r, f in enumerate(rows_faces)}
    mat = SparseMatrix(len(rows_faces), len(cols_faces))
    for c, f in enumerate(cols_faces):
        for j in range(len(f)):
            mat.rows[index[f[:j] + f[j + 1 :]]][c] = -1 if j % 2 else 1
    return mat


def betti(cx: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers, degrees -1 through dim."""
    ranks = {i: eliminate(boundary_matrix(cx, i)).rank for i in range(cx.dim + 1)}
    out = []
    for i in range(-1, cx.dim + 1):
        n_i = len(cx.faces(i))
        out.append(n_i - ranks.get(i, 0) - ranks.get(i + 1, 0))
    return out


def homology_representatives(cx: SimplicialComplex, i: int) -> list[dict]:
    """Cycles whose classes form a basis of the degree-i reduced homology,
    as sparse maps {i-face index: Fraction}."""
    if i < -1 or i > cx.dim:
        return []
    if i == -1:
        if cx.n_vertices == 0:
            return [{0: Fraction(1)}]
        return []
    kernel = eliminate(boundary_matrix(cx, i), full=True).nullspace()
    reducer = RowReducer()
    if i < cx.dim:
        upper = boundary_matrix(cx, i + 1)
        for c in range(upper.ncols):
            reducer.add(upper.column_vector(c))
    reps = []
    for vec in kernel:
        if reducer.add(dict(vec)):
            reps.append(vec)
    return reps


def chain_character(p: int, n: int, r: int) -> SymmetricFunction:
    """Frobenius characteristic of the permutation action on chains of
    (r-1)-dimensional faces of the matching complex: e_r[h_p] h_{n-rp}."""
    if r < 0 or r > n // p:
        raise ValueError(f"r={r} out of range for p={p}, n={n}")
    return multiply(plethysm(from_e(r), from_h(p)), from_h(n - r * p))


def _chain_trace(cx: SimplicialComplex, perm: tuple, faces) -> int:
    """Trace of a vertex permutation on the chain space spanned by faces."""
    total = 0
    for f in faces:
        g, sign = cx.face_image(perm, f)
        if g == f:
            total += sign
    return total


def chain_class_function(cx: SimplicialComplex, i: int) -> ClassFunction:
    """Trace of each cycle-type representative on the degree-i chain space."""
    action = cx.action
    if action is None:
        raise ValueError("complex has no attached action")
    vals = {}
    faces = cx.faces(i)
    for mu in partitions_of(action.n):
        sigma = representative(mu)
        perm = action.vertex_permutation(cx, sigma)
        vals[mu] = _chain_trace(cx, perm, faces)
    return ClassFunction(action.n, vals)


class EquivariantDecomposition:
    """Per homology degree, the multiplicity of each Specht module."""

    def __init__(self, name: str, n: int, degrees: dict, betti_numbers: dict):
        self.name = name
        self.n = n
        self.degrees = {
            i: {Partition(lam): m for lam, m in mults.items() if m}
            for i, mults in degrees.items()
        }
        self.betti_numbers = dict(betti_numbers)

    def multiplicities(self, i: int) -> dict:
        return dict(self.degrees.get(i, {}))

    def betti(self, i: int) -> int:
        return self.betti_numbers.get(i, 0)

    def characteristic(self, i: int) -> SymmetricFunction:
        """Frobenius characteristic of the degree-i homology."""
        return SymmetricFunction(
            self.n, {lam: Fraction(m) for lam, m in self.degrees.get(i, {}).items()}
        )

    def nonzero_degrees(self) -> list[int]:
        return sorted(i for i, m in self.degrees.items() if m)

    def __eq__(self, other):
        if not isinstance(other, EquivariantDecomposition):
            return NotImplemented
        return (
            self.n == other.n
            and {i: m for i, m in self.degrees.items() if m}
            == {i: m for i, m in other.degrees.items() if m}
        )

    def __repr__(self):
        rows = {
            i: {tuple(lam): m for lam, m in sorted(mults.items(), reverse=True)}
            for i, mults in self.degrees.items()
            if mults
        }
        return f"EquivariantDecomposition({self.name}, {rows})"

    def to_json(self) -> dict:
        return {
            "complex": self.name,
            "degrees": [
                {
                    "i": i,
                    "betti": self.betti(i),
                    "specht": [
                        {"partition": list(lam), "mult": m}
                        for lam, m in sorted(self.degrees[i].items(), reverse=True)
                    ],
                }
                for i in sorted(self.degrees)
                if self.degrees[i] or self.betti(i)
            ],
        }


def _image_trace(elim: Elimination, faces, face_index, perm, cx) -> Fraction:
    """Trace of the vertex permutation on the column span of a boundary
    matrix, via the Gauss-Jordan column relations."""
    total = Fraction(0)
    for r, c in elim.pivots:
        g, sign = cx.face_image(perm, faces[c])
        j = face_index[g]
        row = elim.rows[r]
        val = row.get(j)
        if val:
            total += sign * Fraction(val, row[c])
    return total


def _validate_action(cx: SimplicialComplex):
    from .permutations import from_cycles

    action = cx.action
    n = action.n
    gens = []
    if n >= 2:
        gens.append(from_cycles([(0, 1)], n))
        gens.append(from_cycles([tuple(range(n))], n))
    for sigma in gens:
        perm = action.vertex_permutation(cx, sigma)
        for f in cx.all_faces():
            g, _ = cx.face_image(perm, f)
            if not cx.has_face(g):
                raise ValueError(f"action is not simplicial: {f} -> {g}")


def equivariant_decomposition(cx: SimplicialComplex) -> EquivariantDecomposition:
    """Specht-module multiplicities on every reduced homology group."""
    if cx.action is None:
        raise ValueError("complex has no attached action")
    _validate_action(cx)
    n = cx.action.n
    elims = {}
    for i in range(0, cx.dim + 1):
        elims[i] = eliminate(boundary_matrix(cx, i), full=True)

    betti_numbers = {}
    for i in range(-1, cx.dim + 1):
        n_i = len(cx.faces(i))
        r_i = elims[i].rank if i in elims else 0
        r_up = elims[i + 1].rank if i + 1 in elims else 0
        betti_numbers[i] = n_i - r_i - r_up

    face_lists = {i: cx.faces(i) for i in range(-1, cx.dim + 1)}
    face_indexes = {
        i: {f: k for k, f in enumerate(faces)} for i, faces in face_lists.items()
    }

    # character value per degree per cycle type
    classes = partitions_of(n)
    h_values: dict[int, dict] = {i: {} for i in range(-1, cx.dim + 1)}
    for mu in classes:
        sigma = representative(mu)
        perm = cx.action.vertex_permutation(cx, sigma)
        chain_tr = {
            i: Fraction(_chain_trace(cx, perm, faces))
            for i, faces in face_lists.items()
        }
        image_tr = {
            i: _image_trace(elims[i], face_lists[i], face_indexes[i], perm, cx)
            for i in elims
        }
        for i in range(-1, cx.dim + 1):
            h_values[i][mu] = (
                chain_tr[i]
                - image_tr.get(i, Fraction(0))
                - image_tr.get(i + 1, Fraction(0))
            )

    table = character_table(n)
    degrees = {}
    for i in range(-1, cx.dim + 1):
        mults = {}
        if betti_numbers[i]:
            for lam in classes:
                chi = table[lam]
                val = sum(
                    h_values[i][mu] * chi[mu] / centralizer_order(mu)
                    for mu in classes
                )
                if val:
                    if val.denominator != 1 or val < 0:
                        raise ArithmeticError(
                            f"multiplicity of {tuple(lam)} in degree {i} is {val}"
                        )
                    mults[lam] = int(val)
        total = sum(hook_dimension(lam) * m for lam, m in mults.items())
        if total != betti_numbers[i]:
            raise ArithmeticError(
                f"degree {i}: multiplicities sum to {total}, betti is "
                f"{betti_numbers[i]}"
            )
        degrees[i] = mults
    return EquivariantDecomposition(cx.name, n, degrees, betti_numbers)


def euler_characteristics_match(cx: SimplicialComplex) -> bool:
    """Hopf-trace check: signed sums of chain and homology characteristics
    agree (both computed from the complex, not from closed forms)."""
    decomp = equivariant_decomposition(cx)
    n = cx.action.n
    chain_sum = SymmetricFunction.zero(n)
    hom_sum = SymmetricFunction.zero(n)
    for i in range(-1, cx.dim + 1):
        sign = -1 if (i + 1) % 2 else 1
        chain_sum = chain_sum + sign * frobenius_ch(chain_class_function(cx, i))
        hom_sum = hom_sum + sign * decomp.characteristic(i)
    return chain_sum == hom_sum
