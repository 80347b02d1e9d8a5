"""Finite simplicial complexes with labeled vertices and S_n vertex actions:
hypergraph matching complexes, p-cycle complexes via inflation, Quillen
complexes of symmetric groups, order complexes, links.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .permutations import (
    compose,
    conjugate_perm,
    from_cycles,
    identity,
    is_prime,
    prime_order_elements,
)


@dataclass(frozen=True)
class CyclicGroupLabel:
    """Order-p cyclic subgroup generated by a p-cycle, keyed by its canonical
    generator: the lexicographically least power, written starting at the
    smallest moved point."""

    generator: tuple

    @property
    def support(self):
        return tuple(sorted(self.generator))

    def sort_key(self):
        return self.generator

    def to_json(self):
        return {"cycle": list(self.generator)}


@dataclass(frozen=True)
class SubgroupLabel:
    """Elementary abelian p-subgroup keyed by its sorted nonidentity elements
    (as permutation tuples); generators are a greedy canonical generating set."""

    elements: tuple
    generators: tuple = field(compare=False)

    @property
    def rank(self):
        return len(self.generators)

    def sort_key(self):
        return (len(self.elements), self.elements)

    def to_json(self):
        return {"generators": [list(g) for g in self.generators]}


def _label_json(label):
    if isinstance(label, (CyclicGroupLabel, SubgroupLabel)):
        return label.to_json()
    if isinstance(label, tuple):
        return [_label_json(x) for x in label]
    return label


def _freeze_label(obj):
    """Hashable default decoding of a JSON vertex label."""
    if isinstance(obj, list):
        return tuple(_freeze_label(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze_label(v)) for k, v in obj.items()))
    return obj


class SnAction:
    """Simplicial action of S_n on a complex, given by a map on vertex labels."""

    __slots__ = ("n", "relabel")

    def __init__(self, n: int, relabel):
        self.n = n
        self.relabel = relabel  # relabel(sigma) -> (label -> label)

    def vertex_permutation(self, cx: "SimplicialComplex", sigma) -> tuple:
        mapper = self.relabel(sigma)
        return tuple(cx.vertex_index[mapper(lab)] for lab in cx.vertex_labels)


class SimplicialComplex:
    """Abstract complex on an ordered vertex list; stores every face
    (including the empty face) as a strictly increasing index tuple."""

    def __init__(self, vertex_labels, faces, name: str = "complex"):
        self.name = name
        self.vertex_labels = list(vertex_labels)
        self.vertex_index = {lab: i for i, lab in enumerate(self.vertex_labels)}
        if len(self.vertex_index) != len(self.vertex_labels):
            raise ValueError("vertex labels must be distinct")
        by_dim: dict[int, set] = {-1: {()}}
        for f in faces:
            f = tuple(f)
            if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
                raise ValueError(f"face {f} is not strictly increasing")
            by_dim.setdefault(len(f) - 1, set()).add(f)
        self.faces_by_dim = {
            d: sorted(by_dim[d]) for d in sorted(by_dim)
        }
        self._face_set = {f for fs in self.faces_by_dim.values() for f in fs}
        self._check_closed()
        self.action: SnAction | None = None
        self.base: SimplicialComplex | None = None
        self.deflation: tuple | None = None

    def _check_closed(self):
        for faces in self.faces_by_dim.values():
            for f in faces:
                for j in range(len(f)):
                    if f[:j] + f[j + 1 :] not in self._face_set:
                        raise ValueError(f"complex not closed under subsets at {f}")

    @classmethod
    def from_facets(cls, vertex_labels, facets, name: str = "complex"):
        seen = set()
        stack = [tuple(f) for f in facets]
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            for j in range(len(f)):
                stack.append(f[:j] + f[j + 1 :])
        return cls(vertex_labels, seen, name)

    @property
    def dim(self) -> int:
        return max(self.faces_by_dim)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def faces(self, d: int) -> list[tuple]:
        return self.faces_by_dim.get(d, [])

    def all_faces(self):
        for d in sorted(self.faces_by_dim):
            yield from self.faces_by_dim[d]

    def has_face(self, f) -> bool:
        return tuple(f) in self._face_set

    def f_vector(self) -> tuple:
        return tuple(
            len(self.faces_by_dim[d]) for d in sorted(self.faces_by_dim)
        )

    def facets(self) -> list[tuple]:
        out = []
        for d, faces in self.faces_by_dim.items():
            bigger = self.faces_by_dim.get(d + 1, [])
            covered = {g[:j] + g[j + 1 :] for g in bigger for j in range(len(g))}
            out.extend(f for f in faces if f not in covered)
        return sorted(out, key=lambda f: (len(f), f))

    def face_image(self, perm: tuple, face: tuple):
        """Image face under a vertex permutation, with orientation sign."""
        image = sorted(perm[v] for v in face)
        sign = _sort_parity([perm[v] for v in face])
        return tuple(image), sign

    # -- text serialization --------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.dim} {self.n_vertices}"]
        for f in self.facets():
            lines.append(" ".join(str(v) for v in f))
        labels = json.dumps([_label_json(lab) for lab in self.vertex_labels])
        return "\n".join(lines) + "\n" + labels + "\n"

    @classmethod
    def from_text(cls, text: str, name: str = "complex", label_decoder=None):
        lines = text.strip().split("\n")
        _, nv = lines[0].split()
        decoder = label_decoder or _freeze_label
        labels = [decoder(l) for l in json.loads(lines[-1])]
        facets = []
        for line in lines[1:-1]:
            line = line.strip()
            facets.append(tuple(int(x) for x in line.split()) if line else ())
        return cls.from_facets(labels[: int(nv)], facets, name)

    def __repr__(self):
        return (f"SimplicialComplex({self.name}, dim={self.dim}, "
                f"f={self.f_vector()})")


def _sort_parity(values) -> int:
    """Parity sign of the permutation sorting `values` (assumed distinct)."""
    values = list(values)
    sign = 1
    for i in range(len(values)):
        m = min(range(i, len(values)), key=values.__getitem__)
        if m != i:
            values[i], values[m] = values[m], values[i]
            sign = -sign
    return sign


def _faces_from_masks(masks: list[int]) -> list[tuple]:
    """All index sets with pairwise disjoint bitmasks (includes the empty set)."""
    faces = [()]

    def extend(prefix, used, start):
        for j in range(start, len(masks)):
            if used & masks[j] == 0:
                face = prefix + (j,)
                faces.append(face)
                extend(face, used | masks[j], j + 1)

    extend((), 0, 0)
    return faces


def _attach_matching(cx: SimplicialComplex, p: int, n: int):
    cx.action = SnAction(
        n, lambda sigma: lambda pset: tuple(sorted(sigma[x] for x in pset))
    )


def matching_complex(p: int, n: int) -> SimplicialComplex:
    """Faces are collections of pairwise disjoint p-subsets of {0..n-1}."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    vertices = [tuple(c) for c in combinations(range(n), p)]
    masks = [sum(1 << x for x in v) for v in vertices]
    cx = SimplicialComplex(
        vertices, _faces_from_masks(masks), name=f"matching(p={p},n={n})"
    )
    _attach_matching(cx, p, n)
    return cx


def inflation(cx: SimplicialComplex, multiplicities) -> SimplicialComplex:
    """Replace vertex x_i by m_i copies (x_i, j); every version of a face is a
    face.  The deflating map (new vertex -> base vertex) is recorded."""
    if isinstance(multiplicities, int):
        multiplicities = [multiplicities] * cx.n_vertices
    mult = list(multiplicities)
    if len(mult) != cx.n_vertices or any(m < 1 for m in mult):
        raise ValueError("need one multiplicity >= 1 per vertex")
    labels = []
    copies: list[list[int]] = []
    for i, lab in enumerate(cx.vertex_labels):
        copies.append([])
        for j in range(mult[i]):
            copies[i].append(len(labels))
            labels.append((lab, j))
    faces = []
    for f in cx.all_faces():
        chosen = [()]
        for v in f:
            chosen = [c + (w,) for c in chosen for w in copies[v]]
        faces.extend(tuple(sorted(c)) for c in chosen)
    out = SimplicialComplex(labels, faces, name=f"inflated({cx.name})")
    out.base = cx
    out.deflation = tuple(cx.vertex_index[lab] for lab, _ in labels)
    return out


def _cyclic_subgroup_key(cycle: tuple) -> tuple:
    """Least power of the cycle, each written from its smallest element.

    Every power so written starts at the smallest element, and their second
    entries are distinct, so the least power is the one whose second entry
    is the second-smallest element."""
    p = len(cycle)
    first, second = sorted(cycle)[:2]
    start = cycle.index(first)
    step = cycle.index(second) - start
    return tuple(cycle[(start + i * step) % p] for i in range(p))


def pcycle_complex(p: int, n: int) -> SimplicialComplex:
    """Vertices are the order-p cyclic subgroups of S_n generated by a
    p-cycle; faces are sets of them with pairwise disjoint supports.  This is
    the (p-2)!-fold inflation of the matching complex, with subgroup labels."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    labels = []
    for support in combinations(range(n), p):
        keys = set()
        for rest in permutations(support[1:]):
            keys.add(_cyclic_subgroup_key((support[0],) + rest))
        labels.extend(CyclicGroupLabel(k) for k in sorted(keys))
    labels.sort(key=lambda lab: lab.sort_key())
    masks = [sum(1 << x for x in lab.support) for lab in labels]
    cx = SimplicialComplex(
        labels, _faces_from_masks(masks), name=f"pcycle(p={p},n={n})"
    )
    _attach_pcycle(cx, p, n)
    return cx


def _attach_pcycle(cx: SimplicialComplex, p: int, n: int):
    def relabel(sigma):
        def apply(lab):
            moved = tuple(sigma[x] for x in lab.generator)
            return CyclicGroupLabel(_cyclic_subgroup_key(moved))

        return apply

    cx.action = SnAction(n, relabel)
    cx.base = matching_complex(p, n)
    cx.deflation = tuple(
        cx.base.vertex_index[lab.support] for lab in cx.vertex_labels
    )


_QUILLEN_DEFAULT_LIMIT = {2: 6, 3: 9, 5: 7}


def _perm_order_p_powers(g: tuple, p: int) -> list[tuple]:
    out = []
    cur = g
    for _ in range(p - 1):
        out.append(cur)
        cur = compose(cur, g)
    return out


def enumerate_elementary_abelian(p: int, n: int) -> list[SubgroupLabel]:
    """All nontrivial elementary abelian p-subgroups of S_n, by conjugacy class.

    Every rank-r subgroup is conjugate to an extension of a rank-(r-1) class
    representative by an order-p element commuting with it, so only one
    representative per class is extended; each new class is then closed
    under conjugation by the adjacent transpositions, which generate S_n."""
    order_p = list(prime_order_elements(n, p))
    ident = identity(n)
    # conjugation by each adjacent transposition, as a map on order-p elements
    swaps = [
        {h: conjugate_perm(t, h) for h in order_p}
        for t in (from_cycles([(k, k + 1)], n) for k in range(n - 1))
    ]
    seen: set[tuple] = set()
    reps = [((), ())]  # the trivial subgroup: (sorted elements, generators)
    while reps:
        new_reps = []
        for elements, gens in reps:
            members = set(elements)
            for g in order_p:
                if g in members or any(compose(g, h) != compose(h, g) for h in gens):
                    continue
                key = tuple(sorted(members.union(
                    compose(h, gp)
                    for h in elements + (ident,)
                    for gp in _perm_order_p_powers(g, p)
                )))
                # |<H, g>| = p |H| when g commutes with and avoids H
                assert len(key) == (len(elements) + 1) * p - 1
                if key in seen:
                    continue
                new_reps.append((key, gens + (g,)))
                seen.add(key)
                stack = [key]
                while stack:
                    sub = stack.pop()
                    for swap in swaps:
                        image = tuple(sorted(map(swap.__getitem__, sub)))
                        if image not in seen:
                            seen.add(image)
                            stack.append(image)
        reps = new_reps
    return [
        SubgroupLabel(key, _greedy_generators(key, p, ident))
        for key in sorted(seen, key=lambda key: (len(key), key))
    ]


def _greedy_generators(elements: tuple, p: int, ident: tuple) -> tuple:
    gens: tuple = ()
    span = {ident}
    for g in elements:
        if g in span:
            continue
        gens = gens + (g,)
        span = {compose(a, b) for a in span for b in _perm_order_p_powers(g, p) + [ident]}
    return gens


def subgroup_from_generators(generators, p: int) -> SubgroupLabel:
    """Rebuild a canonical SubgroupLabel from commuting order-p generators."""
    gens = tuple(tuple(g) for g in generators)
    ident = identity(len(gens[0]))
    span = {ident}
    for g in gens:
        span = {
            compose(a, b) for a in span for b in _perm_order_p_powers(g, p) + [ident]
        }
    span.discard(ident)
    elements = tuple(sorted(span))
    return SubgroupLabel(elements, _greedy_generators(elements, p, ident))


def quillen_complex(p: int, n: int, allow_large: bool = False) -> SimplicialComplex:
    """Order complex of the poset of nontrivial elementary abelian
    p-subgroups of S_n, with the conjugation action."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError("n must be nonnegative")
    limit = _QUILLEN_DEFAULT_LIMIT.get(p, p + 2)
    if n > limit and not allow_large:
        raise ValueError(
            f"quillen_complex(p={p}) refuses n={n} > {limit}; "
            "pass allow_large=True to override"
        )
    subgroups = enumerate_elementary_abelian(p, n)
    # a subgroup is determined by its cyclic subgroups, so A < B exactly when
    # every cyclic subgroup of A lies in B (and A != B)
    cyclic_of = {
        h: i for i, lab in enumerate(subgroups) if lab.rank == 1 for h in lab.elements
    }
    cyclics = [{cyclic_of[h] for h in lab.elements} for lab in subgroups]
    containing = [set() for _ in subgroups]  # cyclic subgroup -> subgroups
    for j, cs in enumerate(cyclics):
        for c in cs:
            containing[c].add(j)
    up = [
        sorted(set.intersection(*(containing[c] for c in cs)) - {i})
        for i, cs in enumerate(cyclics)
    ]
    cx = order_complex(Poset(subgroups, up), name=f"quillen(p={p},n={n})")
    _attach_quillen(cx, p, n)
    return cx


def _attach_quillen(cx: SimplicialComplex, p: int, n: int):
    # every order-p element lies in a rank-1 subgroup
    order_p = [h for lab in cx.vertex_labels if lab.rank == 1 for h in lab.elements]

    def relabel(sigma):
        conjugates = {h: conjugate_perm(sigma, h) for h in order_p}

        def apply(lab):
            # generators take no part in label equality, so the image is
            # found in vertex_index without conjugating them
            elements = sorted(map(conjugates.__getitem__, lab.elements))
            return SubgroupLabel(tuple(elements), ())

        return apply

    cx.action = SnAction(n, relabel)


@dataclass(frozen=True)
class ComplexKind:
    """What the builder of one kind of complex and its cache share.

    The builder ends in `attach`, and so does `load_complex`: a complex read
    back from its to_text() form gets the same action (and, for p-cycle
    complexes, the same base and deflation) as a fresh build.  `builder` is
    the builder's name rather than the function, so that each caller looks
    the builder up in its own namespace when it calls it.
    """

    builder: str
    decode_label: Callable  # (JSON vertex label from to_text, p) -> label
    attach: Callable  # (cx, p, n) -> None
    size_guarded: bool = False  # the builder refuses large n without allow_large


KINDS = {
    "matching": ComplexKind(
        "matching_complex", lambda lab, p: tuple(lab), _attach_matching
    ),
    "pcycle": ComplexKind(
        "pcycle_complex",
        lambda lab, p: CyclicGroupLabel(tuple(lab["cycle"])),
        _attach_pcycle,
    ),
    "quillen": ComplexKind(
        "quillen_complex",
        lambda lab, p: subgroup_from_generators(lab["generators"], p),
        _attach_quillen,
        size_guarded=True,
    ),
}


def load_complex(kind: str, p: int, n: int, text: str) -> SimplicialComplex:
    """The complex of `kind` written as `text` by to_text(), with the state
    its builder attaches."""
    spec = KINDS[kind]
    cx = SimplicialComplex.from_text(
        text,
        name=f"{kind}(p={p},n={n})",
        label_decoder=lambda lab: spec.decode_label(lab, p),
    )
    spec.attach(cx, p, n)
    return cx


@dataclass
class Poset:
    """Finite poset: its elements in a linear-extension order, and for each
    element the indices of the elements strictly above it."""

    elements: list
    up: list  # up[i] lists each j with elements[i] < elements[j]


def face_poset(cx: SimplicialComplex) -> Poset:
    """Poset of nonempty faces ordered by inclusion, smaller faces first."""
    elements = [f for f in cx.all_faces() if f]
    index = {f: i for i, f in enumerate(elements)}
    up: list[list[int]] = [[] for _ in elements]
    for j, g in enumerate(elements):
        for size in range(1, len(g)):
            for f in combinations(g, size):
                up[index[f]].append(j)
    return Poset(elements, up)


def order_complex(poset: Poset, name: str = "order complex") -> SimplicialComplex:
    """Chains of the poset as faces, on the poset's element order; since that
    order is a linear extension, chains have increasing indices."""
    if any(j <= i for i, js in enumerate(poset.up) for j in js):
        raise ValueError("element order is not a linear extension of the poset")
    faces = [()]

    def grow(chain):
        faces.append(chain)
        for j in poset.up[chain[-1]]:
            grow(chain + (j,))

    for k in range(len(poset.up)):
        grow((k,))
    return SimplicialComplex(poset.elements, faces, name=name)


def barycentric_subdivision(cx: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset, inheriting the vertex action."""
    out = order_complex(face_poset(cx), name=f"subdivision({cx.name})")
    if cx.action is not None:
        base_action = cx.action

        def relabel(sigma):
            perm = base_action.vertex_permutation(cx, sigma)

            def apply(face):
                return tuple(sorted(perm[v] for v in face))

            return apply

        out.action = SnAction(base_action.n, relabel)
    return out


def link(cx: SimplicialComplex, face) -> SimplicialComplex:
    """Subcomplex of faces disjoint from `face` whose union with it is a face."""
    face = tuple(face)
    if not cx.has_face(face):
        raise ValueError(f"{face} is not a face")
    if not face:
        out = SimplicialComplex(cx.vertex_labels, cx.all_faces(), name=cx.name)
        out.action = cx.action
        return out
    fset = set(face)
    kept = []
    for g in cx.all_faces():
        if fset.isdisjoint(g) and cx.has_face(tuple(sorted(g + face))):
            kept.append(g)
    used = sorted({v for g in kept for v in g})
    reindex = {v: i for i, v in enumerate(used)}
    labels = [cx.vertex_labels[v] for v in used]
    faces = [tuple(reindex[v] for v in g) for g in kept]
    return SimplicialComplex(labels, faces, name=f"link({cx.name},{face})")
