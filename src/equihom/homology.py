"""Reduced rational homology of simplicial complexes and the Specht-module
decomposition of the S_n-representation on each homology group.

The chain complex is augmented: degree -1 is spanned by the empty face, so
the complex {∅} has one-dimensional homology there.  Characters of the
homology groups are computed as

    χ_{H_i} = χ_{C_i} - χ_{B_i} - χ_{B_{i+1}}

where B_j is the image of the j-th boundary map and B_{-1} = B_{dim+1} = 0.
χ_{C_i}(sigma) counts the faces that sigma fixes, with their orientation
signs.  The image characters come from ranks alone; no Gauss-Jordan pass
runs:

- Betti recursion.  Rank-only elimination gives the Betti numbers.  Where
  b_i = 0, H_i = 0 as a representation, so χ_{B_i} + χ_{B_{i+1}} = χ_{C_i}
  and each of the two images fixes the other.  Spread up from B_{-1} and
  down from B_{dim+1}, this fixes every image when at most one degree has
  homology (the Hopf trace formula).
- Orbit ranks.  Between two degrees with homology one image stays open.
  For each Young subgroup S_mu, dim B_j^{S_mu} is the rank of ∂_j on the
  S_mu-invariant chains, which the signed S_mu-orbits of faces span (Bredon,
  Introduction to Compact Transformation Groups, ch. III).  Since
  dim B_j^{S_mu} = sum_lam K_{lam mu} m_lam with h_mu = sum_lam K_{lam mu}
  s_lam, inverting the unitriangular Kostka matrix gives the Specht
  multiplicities m_lam of B_j, and the character table gives χ_{B_j}.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .characters import ClassFunction, character_table, frobenius_ch
from .complexes import SimplicialComplex
from .linalg import RowReducer, SparseMatrix, eliminate
from .partitions import Partition, hook_dimension, partitions_of
from .permutations import centralizer_order, from_cycles, representative
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


def _boundary_ranks(cx: SimplicialComplex) -> dict:
    """{i: rank ∂_i} for degrees 0 through dim, by rank-only elimination."""
    return {i: eliminate(boundary_matrix(cx, i)).rank for i in range(cx.dim + 1)}


def _betti_from_ranks(cx: SimplicialComplex, ranks: dict) -> dict:
    """{i: reduced Betti number} for degrees -1 through dim."""
    return {
        i: len(cx.faces(i)) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        for i in range(-1, cx.dim + 1)
    }


def betti(cx: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers, degrees -1 through dim."""
    return list(_betti_from_ranks(cx, _boundary_ranks(cx)).values())


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
    if p < 2:
        raise ValueError("p must be at least 2")
    if r < 0 or r > n // p:
        raise ValueError(f"r={r} out of range for p={p}, n={n}")
    return multiply(plethysm(from_e(r), from_h(p)), from_h(n - r * p))


def _cycle_labels(perm: tuple) -> list:
    """For each vertex, the smallest vertex on its cycle under perm."""
    label = [-1] * len(perm)
    for v in range(len(perm)):
        w = v
        while label[w] < 0:
            label[w] = v
            w = perm[w]
    return label


def _chain_trace(perm: tuple, cycles: list, faces) -> int:
    """Trace of a vertex permutation on the chain space spanned by faces.

    A face is fixed exactly when perm maps it into itself, that is, when it
    is a union of cycles of perm (cycles is _cycle_labels(perm)); perm then
    acts on it by the product of (-1)^(len - 1) over those cycles.
    """
    total = 0
    image = perm.__getitem__
    for f in faces:
        # the first vertex alone rules out most faces
        if f and (perm[f[0]] not in f or not set(map(image, f)).issubset(f)):
            continue
        total += -1 if (len(f) - len(set(map(cycles.__getitem__, f)))) % 2 else 1
    return total


def chain_class_function(cx: SimplicialComplex, i: int) -> ClassFunction:
    """Trace of each cycle-type representative on the degree-i chain space."""
    action = cx.action
    if action is None:
        raise ValueError("complex has no attached action")
    vals = {}
    faces = cx.faces(i)
    for mu in partitions_of(action.n):
        perm = action.vertex_permutation(cx, representative(mu))
        vals[mu] = _chain_trace(perm, _cycle_labels(perm), faces)
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


def _validate_action(cx: SimplicialComplex):
    action = cx.action
    n = action.n
    gens = []
    if n >= 2:
        gens.append(from_cycles([(0, 1)], n))
        gens.append(from_cycles([tuple(range(n))], n))
    for sigma in gens:
        perm = action.vertex_permutation(cx, sigma)
        for f in cx.all_faces():
            g = tuple(sorted(perm[v] for v in f))
            if not cx.has_face(g):
                raise ValueError(f"action is not simplicial: {f} -> {g}")


def _multiplicities(values: dict, table: dict, what: str) -> dict:
    """Specht multiplicities {lam: m} of the class function {mu: value};
    raises ArithmeticError unless each is a nonnegative integer."""
    order = factorial(next(iter(values)).n)
    sizes = {mu: order // centralizer_order(mu) for mu in values}
    mults = {}
    for lam, chi in table.items():
        total = sum(v * chi[mu] * sizes[mu] for mu, v in values.items())
        m, rest = divmod(total, order)
        if rest or m < 0:
            raise ArithmeticError(
                f"multiplicity of {tuple(lam)} in {what} is {Fraction(total, order)}"
            )
        if m:
            mults[lam] = m
    return mults


def _transposition_images(cx: SimplicialComplex, d: int) -> list:
    """For each adjacent transposition (k k+1) of the points, the image of
    every d-face, as its index g when the orientation is kept and as ~g
    when it is reversed."""
    # imported here: only complexes with homology in two degrees get here,
    # and every other run would load the extension module for nothing
    from array import array

    faces = cx.faces(d)
    index = {f: k for k, f in enumerate(faces)}
    n = cx.action.n
    out = []
    for k in range(n - 1):
        perm = cx.action.vertex_permutation(cx, from_cycles([(k, k + 1)], n))
        # a typed array: a list would hold one int object per entry
        images = array("i")
        for f in faces:
            g, sign = cx.face_image(perm, f)
            images.append(index[g] if sign > 0 else ~index[g])
        out.append(images)
    return out


def _signed_orbits(moves: list, gens: list) -> tuple:
    """Orbits of faces under the group generated by the transpositions
    (k k+1) for k in gens, by a search over their images in moves (from
    _transposition_images).

    Returns, per face, its orbit and its sign in the orbit sum, and per
    orbit its first face, or None when an element of its stabiliser reverses
    orientation, so that no invariant chain lives on the orbit.
    """
    size = len(moves[0])
    orbit = [-1] * size
    sign = [0] * size
    firsts = []
    for start in range(size):
        if orbit[start] >= 0:
            continue
        o = len(firsts)
        orbit[start] = o
        sign[start] = 1
        stack = [start]
        preserved = True
        while stack:
            f = stack.pop()
            for k in gens:
                g = moves[k][f]
                s = sign[f]
                if g < 0:
                    g, s = ~g, -s
                if orbit[g] < 0:
                    orbit[g] = o
                    sign[g] = s
                    stack.append(g)
                elif sign[g] != s:
                    preserved = False
        firsts.append(start if preserved else None)
    return orbit, sign, firsts


def _invariant_image_rank(faces, index, low_moves, high_moves, gens) -> int:
    """dim B_j^G for the group G generated by the transpositions in gens:
    the rank of ∂_j from the G-invariant j-chains to the (j-1)-chains,
    given the j-faces, the index of each (j-1)-face and the transposition
    images of both degrees.

    Written on signed orbit sums, ∂_j of the sum over an orbit with first
    face r is, up to a nonzero factor per orbit, the signed orbit count of
    the faces of ∂r; orbits that reverse orientation carry no invariant
    chain and are left out.
    """
    low_orbit, low_sign, low_firsts = _signed_orbits(low_moves, gens)
    _, _, high_firsts = _signed_orbits(high_moves, gens)
    mat = SparseMatrix(len(low_firsts), len(high_firsts))
    for c, r in enumerate(high_firsts):
        if r is None:
            continue
        face = faces[r]
        for k in range(len(face)):
            g = index[face[:k] + face[k + 1 :]]
            o = low_orbit[g]
            if low_firsts[o] is None:
                continue
            row = mat.rows[o]
            v = row.get(c, 0) + (-low_sign[g] if k % 2 else low_sign[g])
            if v:
                row[c] = v
            else:
                del row[c]
    return eliminate(mat).rank


def _kostka_column(mu: Partition) -> dict:
    """{lam: K_{lam mu}}: the Schur expansion of h_mu."""
    h = SymmetricFunction.unit()
    for part in mu:
        h = multiply(h, from_h(part))
    return {lam: int(c) for lam, c in h.terms.items()}


def _image_multiplicities(
    cx: SimplicialComplex, j: int, rank: int, bound: dict
) -> dict:
    """Specht multiplicities of B_j = im ∂_j, which has rank `rank`.

    dim B_j^{S_mu} = sum_lam K_{lam mu} m_lam, and K_{lam mu} = 0 unless lam
    dominates mu, so the m_mu follow in decreasing lex order.  bound[lam]
    caps m_lam (B_j is a quotient of C_j and a submodule of C_{j-1}); where
    it is 0, m_lam = 0 and no rank is needed.  Nor is it for mu = (1^n),
    whose Young subgroup is trivial.
    """
    n = cx.action.n
    index = {f: k for k, f in enumerate(cx.faces(j - 1))}
    low_moves = _transposition_images(cx, j - 1)
    high_moves = _transposition_images(cx, j)
    mults = {}
    for mu in partitions_of(n):
        if not bound.get(mu):
            continue
        if len(mu) == n:
            fixed = rank
        else:
            block = [b for b, part in enumerate(mu) for _ in range(part)]
            gens = [k for k in range(n - 1) if block[k] == block[k + 1]]
            fixed = _invariant_image_rank(
                cx.faces(j), index, low_moves, high_moves, gens
            )
        column = _kostka_column(mu)
        m = fixed - sum(column.get(lam, 0) * m_lam for lam, m_lam in mults.items())
        if not 0 <= m <= bound[mu]:
            raise ArithmeticError(f"multiplicity of {tuple(mu)} in im ∂_{j} is {m}")
        if m:
            mults[mu] = m
    total = sum(hook_dimension(lam) * m for lam, m in mults.items())
    if total != rank:
        raise ArithmeticError(
            f"im ∂_{j}: multiplicities sum to {total}, rank is {rank}"
        )
    return mults


def _image_characters(cx, ranks, betti_numbers, chain, table) -> dict:
    """{j: χ_{B_j}} for j = -1..dim+1, each as {mu: value}.

    Where b_i = 0, a known image fixes its neighbour across degree i; this
    spreads from B_{-1} = 0 and B_{dim+1} = 0.  A stretch of images that
    stays open lies between two degrees with homology: orbit ranks fix its
    cheapest image, and the rest of the stretch follows from that one.
    """
    classes = list(chain[-1])
    image = {-1: dict.fromkeys(classes, 0), cx.dim + 1: dict.fromkeys(classes, 0)}

    def spread(j):
        for step in (1, -1):
            k = j
            while True:
                i = min(k, k + step)  # the degree that links B_k and B_{k+step}
                if i < -1 or i > cx.dim or betti_numbers[i] or k + step in image:
                    break
                image[k + step] = {mu: chain[i][mu] - image[k][mu] for mu in classes}
                k += step

    spread(-1)
    spread(cx.dim + 1)
    cost = lambda j: len(cx.faces(j - 1)) + len(cx.faces(j))
    for j in sorted(range(cx.dim + 1), key=cost):
        if j in image:
            continue
        low = _multiplicities(chain[j - 1], table, f"C_{j - 1}")
        high = _multiplicities(chain[j], table, f"C_{j}")
        bound = {lam: min(m, high.get(lam, 0)) for lam, m in low.items()}
        mults = _image_multiplicities(cx, j, ranks[j], bound)
        image[j] = {
            mu: sum(m * table[lam][mu] for lam, m in mults.items()) for mu in classes
        }
        spread(j)
    return image


def equivariant_decomposition(cx: SimplicialComplex) -> EquivariantDecomposition:
    """Specht-module multiplicities on every reduced homology group."""
    if cx.action is None:
        raise ValueError("complex has no attached action")
    _validate_action(cx)
    n = cx.action.n
    ranks = _boundary_ranks(cx)
    betti_numbers = _betti_from_ranks(cx, ranks)

    # character value per degree per cycle type
    classes = partitions_of(n)
    chain: dict[int, dict] = {i: {} for i in betti_numbers}
    for mu in classes:
        perm = cx.action.vertex_permutation(cx, representative(mu))
        cycles = _cycle_labels(perm)
        for i in chain:
            chain[i][mu] = _chain_trace(perm, cycles, cx.faces(i))

    table = character_table(n)
    image = _image_characters(cx, ranks, betti_numbers, chain, table)
    degrees = {}
    for i in chain:
        values = {mu: chain[i][mu] - image[i][mu] - image[i + 1][mu] for mu in classes}
        mults = _multiplicities(values, table, f"degree {i}")
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
