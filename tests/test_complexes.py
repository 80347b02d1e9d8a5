from math import factorial

import pytest

from equihom import complexes
from equihom.complexes import (
    Poset,
    SimplicialComplex,
    SubgroupLabel,
    barycentric_subdivision,
    face_poset,
    inflation,
    link,
    matching_complex,
    order_complex,
    pcycle_complex,
    quillen_complex,
    subgroup_from_generators,
)
from equihom.permutations import (
    compose,
    from_cycles,
    identity,
    prime_order_elements,
)


def _assert_simplicial(cx):
    n = cx.action.n
    gens = [from_cycles([(0, 1)], n), from_cycles([tuple(range(n))], n)] if n >= 2 else []
    for sigma in gens:
        perm = cx.action.vertex_permutation(cx, sigma)
        for f in cx.all_faces():
            g, _ = cx.face_image(perm, f)
            assert cx.has_face(g), (cx.name, f, g)


def test_matching_complex_examples():
    assert matching_complex(3, 4).f_vector() == (1, 4)
    assert matching_complex(3, 4).dim == 0
    assert matching_complex(2, 4).f_vector() == (1, 6, 3)
    assert matching_complex(3, 7).f_vector() == (1, 35, 70)
    assert matching_complex(3, 7).dim == 1
    assert matching_complex(3, 2).dim == -1
    assert matching_complex(3, 0).f_vector() == (1,)


def test_matching_complex_dimension_formula():
    for p, ns in ((3, range(3, 9)), (5, range(5, 8)), (2, range(2, 9))):
        for n in ns:
            assert matching_complex(p, n).dim == n // p - 1


def test_matching_actions_are_simplicial():
    for p, n in ((2, 5), (2, 6), (3, 6), (3, 7), (3, 8), (5, 7)):
        _assert_simplicial(matching_complex(p, n))


def test_inflation_examples():
    point = SimplicialComplex(["x"], [(), (0,)])
    assert inflation(point, 3).f_vector() == (1, 3)
    m37 = matching_complex(3, 7)
    assert inflation(m37, 1).f_vector() == m37.f_vector()
    assert inflation(matching_complex(5, 5), 6).f_vector() == (1, 6)
    with pytest.raises(ValueError):
        inflation(point, 0)


def test_inflation_matches_pcycle_shape():
    for p, n in ((3, 6), (5, 6), (5, 7)):
        inflated = inflation(matching_complex(p, n), factorial(p - 2))
        direct = pcycle_complex(p, n)
        assert inflated.f_vector() == direct.f_vector()


def test_pcycle_examples():
    assert pcycle_complex(5, 5).f_vector() == (1, 6)
    assert pcycle_complex(5, 7).f_vector() == (1, 126)
    for n in range(3, 8):
        assert pcycle_complex(3, n).f_vector() == matching_complex(3, n).f_vector()
    with pytest.raises(ValueError):
        pcycle_complex(4, 8)


def test_pcycle_three_is_matching_complex():
    # one cyclic group per 3-set, so the complexes coincide combinatorially
    c = pcycle_complex(3, 6)
    m = matching_complex(3, 6)
    assert [lab.support for lab in c.vertex_labels] == m.vertex_labels
    assert list(c.all_faces()) == list(m.all_faces())


def test_pcycle_deflation_is_equivariant_and_surjective():
    cx = pcycle_complex(5, 6)
    base = cx.base
    # surjective on faces
    base_faces = set(base.all_faces())
    image = {
        tuple(sorted(set(cx.deflation[v] for v in f))) for f in cx.all_faces()
    }
    assert image == base_faces
    # equivariant
    n = 6
    for sigma in (from_cycles([(0, 1)], n), from_cycles([tuple(range(n))], n)):
        pc = cx.action.vertex_permutation(cx, sigma)
        pb = base.action.vertex_permutation(base, sigma)
        for v in range(cx.n_vertices):
            assert cx.deflation[pc[v]] == pb[cx.deflation[v]]


def test_pcycle_actions_are_simplicial():
    for p, n in ((3, 6), (5, 6), (5, 7)):
        _assert_simplicial(pcycle_complex(p, n))


def test_quillen_examples():
    assert quillen_complex(3, 3).f_vector() == (1, 1)
    assert quillen_complex(3, 4).f_vector() == (1, 4)
    q = quillen_complex(3, 7)
    assert q.f_vector() == (1, 245, 280)
    ranks = {}
    for lab in q.vertex_labels:
        ranks[lab.rank] = ranks.get(lab.rank, 0) + 1
    assert ranks == {1: 175, 2: 70}


def test_quillen_dimension_and_max_rank():
    for n in range(3, 9):
        q = quillen_complex(3, n)
        assert q.dim == n // 3 - 1
        assert max(lab.rank for lab in q.vertex_labels) == n // 3
    for n in (5, 6, 7):
        assert quillen_complex(5, n).dim == n // 5 - 1


def test_quillen_size_guard():
    with pytest.raises(ValueError):
        quillen_complex(3, 10)
    with pytest.raises(ValueError):
        quillen_complex(5, 8)
    # the override flag is accepted (n small enough to run quickly anyway)
    assert quillen_complex(3, 5, allow_large=True).dim == 0


def test_quillen_actions_are_simplicial():
    for n in (5, 6, 7):
        _assert_simplicial(quillen_complex(3, n))
    _assert_simplicial(quillen_complex(5, 6))


def test_subgroup_from_generators_round_trip():
    q = quillen_complex(3, 6)
    for lab in q.vertex_labels:
        rebuilt = subgroup_from_generators(lab.generators, 3)
        assert rebuilt == lab


def test_order_complex_of_edge_is_path():
    edge = SimplicialComplex(["a", "b"], [(), (0,), (1,), (0, 1)])
    sd = order_complex(face_poset(edge))
    assert sd.f_vector() == (1, 3, 2)
    assert sd.dim == 1


def test_order_complex_rejects_an_order_that_is_not_a_linear_extension():
    # "a" < "ab", but "ab" is listed first
    with pytest.raises(ValueError, match="linear extension"):
        order_complex(Poset(["ab", "a"], [[], [0]]))
    assert order_complex(Poset(["a", "ab"], [[1], []])).f_vector() == (1, 2, 1)


# -- reference: the rank-by-rank search over all order-p elements and the
# all-pairs order complex, which the conjugacy-class search and the explicit
# up-sets must reproduce exactly


def _powers(g, p):
    out, cur = [], g
    for _ in range(p - 1):
        out.append(cur)
        cur = compose(cur, g)
    return out


def _reference_subgroups(p, n):
    gens_of_order_p = list(prime_order_elements(n, p))
    ident = identity(n)
    seen = {}
    for g in gens_of_order_p:
        elements = tuple(sorted(_powers(g, p)))
        if elements not in seen:
            seen[elements] = SubgroupLabel(elements, (min(elements),))
    frontier = list(seen.values())
    result = list(frontier)
    while frontier:
        new = {}
        for sub in frontier:
            members = set(sub.elements)
            for g in gens_of_order_p:
                if g in members:
                    continue
                if any(compose(g, h) != compose(h, g) for h in sub.generators):
                    continue
                elements = set(sub.elements)
                elements.update(
                    compose(h, gp) for h in sub.elements + (ident,) for gp in _powers(g, p)
                )
                elements.discard(ident)
                key = tuple(sorted(elements))
                assert len(key) == (len(sub.elements) + 1) * p - 1
                if key not in new:
                    new[key] = SubgroupLabel(key, sub.generators + (g,))
        frontier = [
            SubgroupLabel(key, _reference_greedy_generators(key, p, ident))
            for key in sorted(new)
        ]
        result.extend(frontier)
    return sorted(result, key=lambda s: s.sort_key())


def _reference_greedy_generators(elements, p, ident):
    gens = ()
    span = {ident}
    for g in elements:
        if g in span:
            continue
        gens = gens + (g,)
        span = {compose(a, b) for a in span for b in _powers(g, p) + [ident]}
    return gens


def _reference_order_complex(elements, less, name):
    order = sorted(range(len(elements)), key=lambda i: (elements[i].sort_key(), i))
    labels = [elements[i] for i in order]
    above = [[] for _ in labels]
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            if less(labels[a], labels[b]):
                above[a].append(b)
            assert not less(labels[b], labels[a])
    faces = [()]

    def grow(chain):
        faces.append(chain)
        for j in above[chain[-1]]:
            grow(chain + (j,))

    for k in range(len(labels)):
        grow((k,))
    return SimplicialComplex(labels, faces, name=name)


@pytest.mark.parametrize(
    "p, n",
    [(2, n) for n in range(1, 7)]
    + [(3, n) for n in range(2, 9)]
    + [(5, n) for n in range(4, 8)],
)
def test_quillen_complex_matches_the_reference_search(p, n):
    expected = _reference_subgroups(p, n)
    found = complexes.enumerate_elementary_abelian(p, n)
    assert [(s.elements, s.generators) for s in found] == [
        (s.elements, s.generators) for s in expected
    ]
    reference = _reference_order_complex(
        expected,
        lambda a, b: len(a.elements) < len(b.elements)
        and set(a.elements) <= set(b.elements),
        name=f"quillen(p={p},n={n})",
    )
    q = quillen_complex(p, n)
    assert q.to_text() == reference.to_text()
    assert [(s.elements, s.generators) for s in q.vertex_labels] == [
        (s.elements, s.generators) for s in reference.vertex_labels
    ]
    if n < p:
        assert q.f_vector() == (1,)


def test_quillen_complex_enumerates_and_orders_once(monkeypatch):
    calls = {"enumerate_elementary_abelian": 0, "order_complex": 0}
    for name in calls:
        original = getattr(complexes, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(complexes, name, counted)
    quillen_complex(3, 6)
    assert calls == {"enumerate_elementary_abelian": 1, "order_complex": 1}


def test_barycentric_subdivision_keeps_action():
    m36 = matching_complex(3, 6)
    sd = barycentric_subdivision(m36)
    assert sd.f_vector() == (1, 30, 20)
    _assert_simplicial(sd)


def test_link_examples():
    m37 = matching_complex(3, 7)
    lk = link(m37, (0,))
    assert lk.f_vector() == (1, 4)
    assert lk.dim == 0
    assert link(m37, ()).f_vector() == m37.f_vector()
    with pytest.raises(ValueError):
        link(m37, (0, 1))  # two intersecting triples never form a face


def test_link_of_matching_vertex_is_smaller_matching_complex():
    m38 = matching_complex(3, 8)
    lk = link(m38, (0,))
    m35 = matching_complex(3, 5)
    assert lk.f_vector() == m35.f_vector()


def test_facet_text_round_trip():
    for cx in (
        matching_complex(3, 4),
        matching_complex(2, 5),
        matching_complex(3, 2),
        quillen_complex(3, 5),
    ):
        back = SimplicialComplex.from_text(cx.to_text())
        assert back.f_vector() == cx.f_vector()
        assert list(back.all_faces()) == list(cx.all_faces())


def test_vertex_order_is_canonical():
    m = matching_complex(3, 5)
    assert m.vertex_labels == sorted(m.vertex_labels)
    c = pcycle_complex(5, 5)
    assert [l.generator for l in c.vertex_labels] == sorted(
        l.generator for l in c.vertex_labels
    )
    q = quillen_complex(3, 6)
    keys = [l.sort_key() for l in q.vertex_labels]
    assert keys == sorted(keys)
