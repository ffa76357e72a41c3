from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from vsi import (
    EmptyLabelError,
    InvariantViolationError,
    NotASimplexError,
    NotDynkinError,
    Quiver,
    UnsupportedDimensionError,
    VsiError,
    ZeroCoefficientsError,
    build_complex,
    cached_generic_ext,
    canonical_decomp,
    compatible,
    complex_vertices,
    derive_rng,
    euler_form,
    export_complex,
    fitting_decompose,
    generic_decomposition,
    generic_ext,
    is_dynkin,
    is_schur_root,
    lambda_point,
    linear_type_a_facet_count,
    locate,
    mix_seed,
    polygon_triangulation_count,
    positive_roots,
    primitive_ray,
    proj_vector,
    random_rep,
    ridge_cone_contains,
    tits_form,
    truncated_compatibility,
    verify_sphere,
    wall_labels,
)
from vsi import cluster, fields, quiver

# one orientation each of A5, D5, E6, E7 and E8
A5 = Quiver(list("12345"), [("1", "2"), ("3", "2"), ("3", "4"), ("5", "4")])
D5 = Quiver(list("12345"), [("1", "3"), ("2", "3"), ("3", "4"), ("4", "5")])
E6 = Quiver(
    list("123456"), [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("6", "3")]
)
E7 = Quiver(
    list("1234567"),
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("7", "3")],
)
E8 = Quiver(
    list("12345678"),
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("6", "7"),
     ("8", "3")],
)


@functools.cache
def _built(q):
    """One complex per quiver, for the tests that only read it."""
    return build_complex(q, None)


def brute_force_roots(q):
    """Reference enumerator: scan the box of entries 0..6 (the largest
    coordinate of any ADE highest root) for tits_form = 1, lexicographic."""
    return tuple(
        alpha
        for alpha in itertools.product(range(7), repeat=q.n)
        if any(alpha) and tits_form(q, alpha) == 1
    )


def test_is_dynkin_classification(a2, a3, a4, d4, ex_quiver):
    for q in (a2, a3, a4, d4):
        assert is_dynkin(q)
    assert not is_dynkin(ex_quiver)
    kronecker = Quiver(["1", "2"], [("1", "2"), ("1", "2")])
    assert not is_dynkin(kronecker)


def test_positive_root_counts(a2, a3, a4, d4):
    assert len(positive_roots(a2)) == 3
    assert len(positive_roots(a3)) == 6
    assert len(positive_roots(a4)) == 10
    assert len(positive_roots(d4)) == 12


def test_positive_roots_match_brute_force_oracle(a3, a3_alt, d4, d4_out):
    for q in (a3, a3_alt, d4, d4_out, A5, D5, E6):
        assert positive_roots(q) == brute_force_roots(q), q.arrows


def test_positive_roots_requires_dynkin(ex_quiver):
    with pytest.raises(NotDynkinError):
        positive_roots(ex_quiver)
    with pytest.raises(NotDynkinError):
        build_complex(ex_quiver, None)


def test_complex_vertices_layout(a2):
    verts = complex_vertices(a2)
    assert [(v.kind, v.vector) for v in verts] == [
        ("root", (0, 1)),
        ("root", (1, 0)),
        ("root", (1, 1)),
        ("shifted", (1, 1)),
        ("shifted", (0, 1)),
    ]
    assert verts[3].lam == (-1, -1)
    assert verts[2].lam == (1, 1)


def test_pentagon_structure_by_hand(a2, gf):
    c = build_complex(a2, gf)
    assert len(c.vertices) == 5
    # r2=(0,1), r1=(1,0), r12=(1,1), then P(1)[1], P(2)[1]
    assert set(c.facets) == {(1, 2), (0, 2), (0, 3), (1, 4), (3, 4)}
    labels = wall_labels(c)
    assert labels[(0,)] == ((1, 0),)
    assert labels[(1,)] == ((1, 1),)
    assert labels[(2,)] == ((0, 1),)
    assert labels[(3,)] == ((0, 1),)
    assert labels[(4,)] == ((1, 0),)


def test_linear_type_counts_against_triangulation_oracle(a2, a3, a4, gf):
    assert polygon_triangulation_count(3) == 1
    assert polygon_triangulation_count(4) == 2
    assert polygon_triangulation_count(5) == 5
    assert polygon_triangulation_count(6) == 14
    assert polygon_triangulation_count(7) == 42
    for n, q in ((2, a2), (3, a3), (4, a4)):
        assert len(build_complex(q, gf).facets) == linear_type_a_facet_count(n)


def test_three_vertex_and_d4_counts(a3, d4, gf):
    c = build_complex(a3, gf)
    assert (len(c.vertices), len(c.ridges()), len(c.facets)) == (9, 21, 14)
    c = build_complex(d4, gf)
    assert (len(c.vertices), len(c.ridges()), len(c.facets)) == (16, 100, 50)


def test_exact_and_randomized_compatibility_agree(a3, d4, gf):
    # build_complex uses the Euler-form closed form; check it on every pair
    # against `compatible` and against generic ext sampled over a field
    for q in (a3, d4):
        c = build_complex(q, gf)
        verts = c.vertices
        assert verts == complex_vertices(q)
        for i in range(len(verts)):
            assert not c.compat[i][i]
            for j in range(i + 1, len(verts)):
                x, y = verts[i], verts[j]
                closed = c.compat[i][j]
                assert closed == c.compat[j][i]
                assert closed == compatible(q, x, y, gf), (q.names, x, y)
                if x.kind == "root" and y.kind == "root":
                    exact = (
                        generic_ext(q, x.vector, y.vector, gf, seed=i) == 0
                        and generic_ext(q, y.vector, x.vector, gf, seed=j) == 0
                    )
                else:
                    shifted = x if x.kind == "shifted" else y
                    other = y if shifted is x else x
                    exact = other.kind == "shifted" or (
                        other.vector[shifted.vertex] == 0
                    )
                assert closed == exact, (q.names, x, y)


def test_dynkin_generic_ext_matches_euler_form_defect(a3, gf):
    # on a Dynkin quiver hom and ext of distinct roots cannot both be
    # nonzero, so ext = max(0, -<a, b>); spot-check hand values
    assert cached_generic_ext(a3, (1, 0, 0), (0, 1, 0), gf) == 1
    assert cached_generic_ext(a3, (0, 1, 0), (1, 0, 0), gf) == 0
    # the nonsplit extension 0 -> S(3) -> [1,1,1] -> [1,1,0] -> 0
    assert cached_generic_ext(a3, (1, 1, 0), (0, 0, 1), gf) == 1
    assert cached_generic_ext(a3, (0, 0, 1), (1, 1, 0), gf) == 0


def test_facets_are_cliques_of_size_n(a3, gf):
    c = build_complex(a3, gf)
    for facet in c.facets:
        assert len(facet) == 3
        for i in facet:
            for j in facet:
                if i != j:
                    assert c.compat[i][j]


def test_verify_sphere_smoke(a2, a3, gf):
    for q, chi in ((a2, 0), (a3, 2)):
        report = verify_sphere(build_complex(q, gf))
        assert report.ok, report.failures
        assert report.euler_characteristic == chi


def test_e7_complex_counts_walls_and_sphere():
    c = _built(E7)
    assert len(c.facets) == 4160
    assert len(c.vertices) == 63 + 7
    labels = wall_labels(c)
    assert set(labels) == set(c.ridges())
    assert all(labels.values())
    report = verify_sphere(c)
    assert report.ok, report.failures
    assert report.euler_characteristic == 2


def test_face_counts_match_the_subset_definition(
    a2, a3, a3_alt, a4, d4, d4_out, gf
):
    def by_definition(facets, n):
        return tuple(
            len({face for facet in facets for face in itertools.combinations(facet, k)})
            for k in range(1, n + 1)
        )

    for q in (a2, a3, a3_alt, a4, d4, d4_out, A5, D5, E6, E7):
        c = build_complex(q, gf)
        assert verify_sphere(c).face_counts == by_definition(
            c.facets, q.n
        ), q.arrows
    # a facet listed twice is still one face of each size
    c = build_complex(a3, gf)
    c = dataclasses.replace(
        c,
        facets=c.facets + c.facets[:1],
        inverses=np.concatenate([c.inverses, c.inverses[:1]]),
    )
    assert verify_sphere(c).face_counts == by_definition(c.facets, 3)


def test_e8_complex_builds_with_associahedron_facet_count():
    c = _built(E8)
    assert len(c.facets) == 25080
    assert len(c.vertices) == 120 + 8


def test_lambda_point_normalizes_and_validates(a2, gf):
    c = build_complex(a2, gf)
    p = lambda_point(c, {0: Fraction(1)})
    assert p.ray == (0, 1)
    p = lambda_point(c, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert p.ray == (2, 1)
    with pytest.raises(ZeroCoefficientsError):
        lambda_point(c, {0: Fraction(0)})
    with pytest.raises(NotASimplexError):
        lambda_point(c, {0: Fraction(1), 1: Fraction(1)})


def test_primitive_ray_reduces_and_keeps_sign():
    assert primitive_ray((2, 4, -6)) == (1, 2, -3)
    assert primitive_ray((-2, -4)) == (-1, -2)
    assert primitive_ray((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ZeroCoefficientsError):
        primitive_ray((0, 0))


def test_wall_labels_nonempty_and_perpendicular(a3, gf):
    c = build_complex(a3, gf)
    labels = wall_labels(c)
    assert set(labels) == set(c.ridges())
    for ridge, roots in labels.items():
        assert roots
        for beta in roots:
            for i in ridge:
                assert euler_form(a3, c.vertices[i].lam, beta) == 0


def _orientations(n, edges):
    """Every orientation of the tree with these edges, one per bit mask."""
    names = [str(i) for i in range(1, n + 1)]
    return [
        Quiver(names, [(str(b), str(a)) if mask >> i & 1 else (str(a), str(b))
                       for i, (a, b) in enumerate(edges)])
        for mask in range(2 ** len(edges))
    ]


def _perpendicular_roots(c):
    """The definition of a wall label, with one integer product: a root r
    labels a ridge iff <lam_i, r> = lam_i E r = 0 for every ridge vertex i."""
    q = c.quiver
    roots = positive_roots(q)
    lam = np.array([v.lam for v in c.vertices]).reshape(-1, q.n)
    perp = lam @ np.array(quiver.euler_data(q).e) @ np.array(roots).T == 0
    return {
        ridge: tuple(r for r, ok in zip(roots, perp[list(ridge)].all(axis=0)) if ok)
        for ridge in sorted({
            ridge
            for facet in c.facets
            for ridge in itertools.combinations(facet, q.n - 1)
        })
    }


def test_wall_labels_equal_the_perpendicular_roots():
    a5 = _orientations(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    d5 = _orientations(5, [(1, 3), (2, 3), (3, 4), (4, 5)])
    e6 = _orientations(6, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 3)])
    e6 = random.Random(27).sample(e6, 4)
    for q in a5 + d5 + e6 + [E7]:
        c = _built(q)
        labels, expected = wall_labels(c), _perpendicular_roots(c)
        assert list(labels) == list(expected), q.arrows
        assert labels == expected, q.arrows
        assert all(len(roots) == 1 for roots in labels.values())


def test_ridge_table_matches_the_combinations_definition(a3, d4):
    for q in (a3, d4, E6):
        c = build_complex(q, None)
        expected: dict = {}
        for fi, facet in enumerate(c.facets):
            for ridge in itertools.combinations(facet, q.n - 1):
                expected.setdefault(ridge, []).append(fi)
        assert c.ridges() == tuple(sorted(expected)), q.arrows
        assert c.ridge_facets == expected, q.arrows


def test_rank_one_walls_and_sphere():
    c = build_complex(Quiver(["1"], []), None)
    assert c.facets == ((0,), (1,))
    assert c.ridges() == ((),)
    assert c.ridge_facets == {(): [0, 1]}
    assert wall_labels(c) == {(): ((1,),)}
    report = verify_sphere(c)
    assert report.ok, report.failures
    assert (report.euler_characteristic, report.face_counts) == (2, (2,))


def test_wall_normal_off_the_roots_has_no_label(a3):
    # one facet on A3 (1 -> 2 -> 3): the normal of its ridge (0, 1) is
    # (2, 2, 1), which is not a root
    verts = tuple(
        cluster.ComplexVertex("root", v) for v in ((1, 0, 0), (0, -1, 1), (0, 0, 1))
    )
    facets = ((0, 1, 2),)
    c = dataclasses.replace(
        build_complex(a3, None),
        vertices=verts,
        facets=facets,
        compat=(),
        inverses=cluster._facet_inverses(3, verts, facets),
    )
    with pytest.raises(EmptyLabelError, match=r"ridge \(0, 1\)"):
        wall_labels(c)


def test_wall_labels_refuse_a_tampered_inverse_table():
    c = _built(E6)
    inverses = c.inverses.copy()
    inverses[0, 0] += inverses[0, 1]
    with pytest.raises(InvariantViolationError, match="not perpendicular"):
        wall_labels(dataclasses.replace(c, inverses=inverses))


def test_wall_labels_scan_no_root_against_a_vertex(monkeypatch):
    c = build_complex(E6, None)
    expected = _perpendicular_roots(c)

    def refuse(*args, **kwargs):
        raise AssertionError("wall_labels scanned roots against vertices")

    for module in (cluster, quiver):
        monkeypatch.setattr(module, "euler_form", refuse, raising=False)
    monkeypatch.setattr(cluster, "positive_roots", refuse)
    assert wall_labels(c) == expected


def _lam_sum(c, coeffs):
    n = c.quiver.n
    return tuple(
        sum(t * c.vertices[i].lam[r] for i, t in coeffs.items()) for r in range(n)
    )


def test_ridge_cone_membership(a3, gf):
    c = build_complex(a3, gf)
    ridge = c.ridges()[0]
    inside = _lam_sum(c, {i: 1 for i in ridge})
    assert ridge_cone_contains(c, ridge, inside)
    assert ridge_cone_contains(c, ridge, (0, 0, 0))
    # inside each adjacent facet but off the ridge
    for fi in c.ridge_facets[ridge]:
        (apex,) = set(c.facets[fi]) - set(ridge)
        coeffs = {**dict.fromkeys(ridge, 1), apex: 1}
        assert not ridge_cone_contains(c, ridge, _lam_sum(c, coeffs))
    # in the ridge's span, one coefficient negative
    for i in ridge:
        coeffs = {j: 2 for j in ridge}
        coeffs[i] = -1
        assert not ridge_cone_contains(c, ridge, _lam_sum(c, coeffs))
    i, j = next(
        (i, j)
        for i in range(len(c.vertices))
        for j in range(i + 1, len(c.vertices))
        if not c.compat[i][j]
    )
    with pytest.raises(NotASimplexError):
        ridge_cone_contains(c, (i, j), inside)


def _key(dec):
    return Counter(dec.schur_parts), dec.gamma


def _sampled_decomposition(q, alpha, field):
    """The definition, sampled: the Fitting summands of a random
    representation of the canonical mu, each with End = k, beside gamma."""
    mu, gamma = canonical_decomp(q, alpha)
    m = random_rep(q, mu, field, mix_seed(0, "oracle", alpha))
    summands = fitting_decompose(m, mix_seed(0, "oracle-fit", alpha))
    assert all(d == 1 for _, d in summands), (q.arrows, alpha)
    return Counter(s.dim for s, _ in summands), gamma


A2_REV = Quiver(["1", "2"], [("2", "1")])
A4_ALT = Quiver(["1", "2", "3", "4"], [("2", "1"), ("2", "3"), ("4", "3")])


def test_locate_equals_generic_decomposition(a3, a3_alt, a4, d4, d4_out, gf):
    # the criterion 6 vectors of A3 and D4, then seeded vectors on the other
    # criterion 7 orientations, D5 and E6, against the sampled definition
    seeded = [(q, 20) for q in (A2_REV, a3_alt, a4, A4_ALT, d4_out)]
    grids = [
        (a3, derive_rng(42, "alphas", a3.names, a3.arrows), 34),
        (d4, derive_rng(42, "alphas", d4.names, d4.arrows), 33),
        *((q, derive_rng(43, "locate", q.names, q.arrows), k) for q, k in seeded),
        (D5, derive_rng(43, "locate", D5.names, D5.arrows), 30),
        (E6, derive_rng(43, "locate", E6.names, E6.arrows), 30),
    ]
    for q, rng, count in grids:
        c = build_complex(q, gf)
        for _ in range(count):
            alpha = tuple(int(x) for x in rng.integers(-6, 7, size=q.n))
            found = locate(c, alpha)
            assert found.alpha == alpha and found.reconstruct(q) == alpha
            assert _key(found) == _sampled_decomposition(q, alpha, gf), (
                q.arrows,
                alpha,
            )


def _linear(n):
    names = [str(i) for i in range(1, n + 1)]
    return Quiver(names, list(zip(names, names[1:])))


def test_large_dynkin_quivers_decompose_without_their_complex(gf):
    # A14 has about 9.7 million facets and D12 hundreds of thousands; the
    # rank-2 reduction never lists them
    d12 = Quiver(_linear(12).names, [("1", "3")] + list(zip(
        _linear(12).names[1:], _linear(12).names[2:])))
    assert is_dynkin(d12)
    t0 = time.perf_counter()
    for q in (_linear(14), d12):
        rng = derive_rng(48, "large", q.names, q.arrows)
        for _ in range(10):
            alpha = tuple(int(x) for x in rng.integers(-4, 5, size=q.n))
            dec = generic_decomposition(q, alpha, gf)
            assert dec.reconstruct(q) == alpha
            parts = set(dec.schur_parts)
            assert all(tits_form(q, p) == 1 for p in parts)
            assert all(euler_form(q, x, y) >= 0 for x in parts for y in parts)
            assert not any(p[v] and dec.gamma[v] for p in parts for v in range(q.n))
        ones = (1,) * q.n
        assert is_schur_root(q, ones, gf) == (tits_form(q, ones) == 1)
        assert cached_generic_ext(q, ones, ones, gf) == 0
    assert time.perf_counter() - t0 < 10


def test_facet_coordinates_scale_exactly(a3, d4, gf):
    big = 10**20
    for q in (a3, d4):
        c = build_complex(q, gf)
        rng = derive_rng(44, "scaling", q.names, q.arrows)
        for _ in range(20):
            x = tuple(int(v) for v in rng.integers(-6, 7, size=q.n))
            coords = cluster._coordinates(c.inverses, x)
            assert (cluster._coordinates(c.inverses, [big * v for v in x])
                    == big * coords.astype(object)).all()
            small, scaled = locate(c, x), locate(c, [7 * v for v in x])
            assert _key(scaled) == (
                Counter({p: 7 * m for p, m in _key(small)[0].items()}),
                tuple(7 * g for g in small.gamma),
            )
            for ridge in c.ridges():
                for point in (x, _lam_sum(c, {i: 1 for i in ridge})):
                    assert ridge_cone_contains(c, ridge, point) == (
                        ridge_cone_contains(c, ridge, [big * v for v in point])
                    )
        # a combination of shifted projectives only has no Schur parts, so
        # locate can be asked at full scale
        gamma = tuple(range(1, q.n + 1))
        x = tuple(
            -sum(g * proj_vector(q, v)[r] for v, g in enumerate(gamma))
            for r in range(q.n)
        )
        found = locate(c, [big * v for v in x])
        assert found.schur_parts == ()
        assert found.gamma == tuple(big * g for g in gamma)
        # Schur parts are listed with multiplicity, so that many are refused
        with pytest.raises(VsiError, match="Schur parts"):
            locate(c, [big] + [0] * (q.n - 1))


def test_facet_certificate_refuses_non_unimodular_facets(a3, gf):
    c = build_complex(a3, gf)
    verts = list(c.vertices)
    facet = c.facets[0]
    assert (cluster._facet_inverses(3, verts, [facet]) == c.inverses[:1]).all()
    # doubling one vertex gives |det| = 2, and repeating a vector gives 0
    v = verts[facet[0]]
    doubled = verts.copy()
    doubled[facet[0]] = dataclasses.replace(v, vector=tuple(2 * x for x in v.vector))
    singular = verts.copy()
    singular[facet[1]] = v
    for bad in (doubled, singular):
        with pytest.raises(InvariantViolationError, match="det"):
            cluster._facet_inverses(3, bad, [facet])


def test_verify_sphere_refuses_an_empty_complex(a2, gf):
    c = build_complex(a2, gf)
    c = dataclasses.replace(
        c, vertices=(), facets=(), compat=(), inverses=c.inverses[:0]
    )
    report = verify_sphere(c)
    assert not report.ok
    assert "no facets" in report.failures


def sampled_covering(c, samples=200, seed=0):
    """The covering test `verify_sphere` once sampled, kept as an oracle: each
    of `samples` seeded nonzero vectors of [-6, 6]^n has coordinates >= 0 on
    some facet and > 0 on at most one."""
    q = c.quiver
    rng = random.Random(mix_seed(seed, "covering", q.names, q.arrows))
    checked = 0
    while checked < samples:
        x = tuple(rng.randint(-6, 6) for _ in range(q.n))
        if not any(x):
            continue
        checked += 1
        coords = cluster._coordinates(c.inverses, x)
        if not (coords >= 0).all(axis=1).any() or (coords > 0).all(axis=1).sum() > 1:
            return False
    return True


def test_covering_certificate_agrees_with_the_sampled_oracle(
    a2, a3, a3_alt, a4, d4, d4_out
):
    # the criterion 7 orientations, then E7 and E8
    for q in (a2, A2_REV, a3, a3_alt, a4, A4_ALT, d4, d4_out, E7, E8):
        c = _built(q)
        assert sampled_covering(c), q.arrows
        report = verify_sphere(c)
        assert report.ok, (q.arrows, report.failures)


def _rank_two_complex(q, rays, cycle):
    """A complex on rank-2 q with root vertices at `rays` and a facet for
    each consecutive pair of the vertex cycle."""
    verts = tuple(cluster.ComplexVertex("root", r) for r in rays)
    facets = tuple(sorted(tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])))
    return dataclasses.replace(
        _built(q),
        vertices=verts,
        facets=facets,
        compat=(),
        inverses=cluster._facet_inverses(2, verts, facets),
    )


def test_verify_sphere_refuses_a_ridge_with_both_facets_on_one_side(a2):
    # unimodular cones around the circle that fold back at (-1, 0) and again
    # at (-1, 1): every ray lies in two cones, p = (1, 2) lies inside only
    # the first quadrant, and the Euler characteristic is 0, yet the
    # directions between (-1, 1) and (-1, 0) are covered three times
    rays = [(1, 0), (0, 1), (-1, 0), (-1, 1), (0, -1)]
    report = verify_sphere(_rank_two_complex(a2, rays, [0, 1, 2, 3, 4]))
    assert report.failures == ("2 ridges with both facets on one side",)


def test_verify_sphere_refuses_a_point_covered_twice(a2):
    # unimodular cones winding twice around the circle, always turning the
    # same way: each ray lies in two cones on opposite sides, but every
    # direction is covered twice, p = (1, 2) included
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, 2), (-1, -1)]
    report = verify_sphere(_rank_two_complex(a2, rays, list(range(7))))
    assert report.failures == ("(1, 2) is not inside exactly one facet cone",)
    # and a facet fewer leaves two rays in one facet each
    c = _rank_two_complex(a2, rays, list(range(7)))
    c = dataclasses.replace(c, facets=c.facets[1:], inverses=c.inverses[1:])
    assert "2 ridges not in exactly 2 facets" in verify_sphere(c).failures


def test_max_cliques_match_the_definition():
    rng = derive_rng(49, "cliques")
    n = 8
    for _ in range(30):
        upper = np.triu(rng.integers(2, size=(n, n)), 1).astype(bool)
        adj = [set(np.flatnonzero(row).tolist()) for row in upper | upper.T]
        cliques = [
            s
            for k in range(1, n + 1)
            for s in itertools.combinations(range(n), k)
            if all(j in adj[i] for i, j in itertools.combinations(s, 2))
        ]
        maximal = [s for s in cliques if not any(set(s) < set(t) for t in cliques)]
        assert cluster._max_cliques(adj, n) == sorted(maximal)


def test_facet_adjacency_connectivity():
    edges = np.array([0, 1, 3, 4]), np.array([5, 2, 4, 5])
    assert not cluster._connected(6, *edges)
    assert cluster._connected(6, np.append(edges[0], 1), np.append(edges[1], 3))
    assert cluster._connected(1, np.array([], int), np.array([], int))


def test_verify_sphere_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_sphere asked for randomness")

    monkeypatch.setattr(random, "Random", refuse)
    monkeypatch.setattr(fields, "mix_seed", refuse)
    monkeypatch.setattr(fields, "derive_rng", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    report = verify_sphere(build_complex(E6, None), samples=200)
    assert report.ok, report.failures


def test_export_formats(a2, a3, a4, gf):
    svg = export_complex(build_complex(a2, gf), "svg")
    assert svg.startswith("<svg") and "<line" in svg
    obj = export_complex(build_complex(a3, gf), "obj")
    assert obj.count("v ") >= 9 and "f " in obj
    c4 = build_complex(a4, gf)
    with pytest.raises(UnsupportedDimensionError):
        export_complex(c4, "svg")
    with pytest.raises(UnsupportedDimensionError):
        export_complex(c4, "obj")
    assert json.loads(export_complex(c4, "json"))["schema"] == 1


def test_truncated_compatibility_explores_non_dynkin(ex_quiver, gf):
    report = truncated_compatibility(ex_quiver, gf, bound=2)
    kinds = {v.kind for v in report["vertices"]}
    assert kinds == {"root", "shifted"}
    assert report["cliques"]
    assert max(report["clique_sizes"]) >= 2
