from __future__ import annotations

from collections import Counter

import pytest

from vsi import (
    FieldMismatchError,
    FieldTooSmallError,
    Quiver,
    QuiverMismatchError,
    Representation,
    SplitFailureError,
    VsiError,
    conjugate_rep,
    derive_rng,
    direct_sum,
    end_dim,
    euler_form,
    ext_dim,
    fitting_decompose,
    generic_ext,
    generic_hom,
    hom_dim,
    hom_space,
    mix_seed,
    random_glpoint,
    random_rep,
    rep_from_json,
    rep_to_json,
    zero_rep,
)
from vsi import reps
from vsi.errors import InvariantViolationError
from vsi.fields import parse_field, prime_field


def _simple(q, field, v: int) -> Representation:
    dim = tuple(1 if i == v else 0 for i in range(q.n))
    mats = [field.zeros(dim[h], dim[t]) for t, h in q.arrows]
    return Representation(q, field, dim, mats)


def test_hom_between_simples_counts_arrows(a2, gf):
    s1, s2 = _simple(a2, gf, 0), _simple(a2, gf, 1)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s2, s2) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0
    # one arrow 1 -> 2 gives Ext^1(S1, S2) = k
    assert ext_dim(s1, s2) == 1
    assert ext_dim(s2, s1) == 0


def test_hom_space_basis_elements_commute_with_arrows(a3, gf):
    m = random_rep(a3, (2, 2, 1), gf, seed=3)
    n = random_rep(a3, (1, 2, 2), gf, seed=4)
    space = hom_space(m, n)
    assert space.dimension == hom_dim(m, n)
    for f in space.basis:
        for k, (t, h) in enumerate(a3.arrows):
            lhs = gf.mm(f[h], m.mats[k])
            rhs = gf.mm(n.mats[k], f[t])
            assert gf.eq(lhs, rhs)


def test_ext_equals_hom_minus_euler_form(ex_quiver, gf):
    rng = derive_rng(12, "extcheck")
    for _ in range(25):
        a = tuple(int(x) for x in rng.integers(0, 4, size=3))
        b = tuple(int(x) for x in rng.integers(0, 4, size=3))
        m = random_rep(ex_quiver, a, gf, seed=int(rng.integers(1 << 30)))
        n = random_rep(ex_quiver, b, gf, seed=int(rng.integers(1 << 30)))
        assert ext_dim(m, n) == hom_dim(m, n) - euler_form(ex_quiver, a, b)


def test_generic_hom_refuses_fewer_than_one_trial(ex_quiver, gf):
    for trials in (0, -3):
        with pytest.raises(VsiError, match="trials"):
            generic_hom(ex_quiver, (1, 1, 1), (1, 0, 0), gf, trials=trials)


def test_hom_of_zero_rep_is_zero(ex_quiver, gf):
    z = zero_rep(ex_quiver, gf)
    m = random_rep(ex_quiver, (1, 1, 1), gf, seed=5)
    assert hom_dim(z, m) == 0
    assert hom_dim(m, z) == 0
    assert end_dim(z) == 0


def test_mismatched_pairs_are_rejected(a2, a3, gf, qq):
    m = random_rep(a2, (1, 1), gf, seed=0)
    n = random_rep(a3, (1, 1, 1), gf, seed=0)
    with pytest.raises(QuiverMismatchError):
        hom_dim(m, n)
    m_q = random_rep(a2, (1, 1), qq, seed=0)
    with pytest.raises(FieldMismatchError):
        hom_dim(m, m_q)


def test_generic_hom_and_ext_on_kronecker_style_pair(ex_quiver, gf):
    # beta = (0,1,2) is a real Schur root here: generically hom = ext = 0
    # against itself is trivial; against a disjoint root both vanish
    assert generic_ext(ex_quiver, (0, 0, 1), (0, 0, 1), gf) == 0
    assert generic_hom(ex_quiver, (1, 0, 0), (0, 0, 1), gf) == 0
    # <(0,0,1),(0,1,0)> = 0 and no maps exist: hom = ext = 0
    assert generic_hom(ex_quiver, (0, 0, 1), (0, 1, 0), gf) == 0
    assert generic_ext(ex_quiver, (0, 1, 0), (0, 0, 1), gf) == 2


def test_generic_hom_lower_bound_is_euler_form(a3, gf):
    rng = derive_rng(13, "lower")
    for _ in range(20):
        a = tuple(int(x) for x in rng.integers(0, 4, size=3))
        b = tuple(int(x) for x in rng.integers(0, 4, size=3))
        g = generic_hom(a3, a, b, gf, seed=7)
        assert g >= max(0, euler_form(a3, a, b))
        assert g - euler_form(a3, a, b) == generic_ext(a3, a, b, gf, seed=7)


def test_direct_sum_dimensions_and_hom_additivity(a2, gf):
    m = random_rep(a2, (1, 2), gf, seed=9)
    n = random_rep(a2, (2, 1), gf, seed=10)
    s = direct_sum(m, n)
    assert s.dim == (3, 3)
    k = random_rep(a2, (1, 1), gf, seed=11)
    assert hom_dim(s, k) == hom_dim(m, k) + hom_dim(n, k)
    assert hom_dim(k, s) == hom_dim(k, m) + hom_dim(k, n)


def test_conjugate_rep_preserves_hom_dimensions(a3, gf):
    m = random_rep(a3, (2, 1, 2), gf, seed=14)
    g = random_glpoint(a3, (2, 1, 2), gf, seed=15)
    c = conjugate_rep(m, g)
    assert c.dim == m.dim
    assert end_dim(c) == end_dim(m)
    assert hom_dim(m, c) == end_dim(m)


def test_conjugate_rep_handles_zero_dimension_entries(ex_quiver, gf, qq):
    # the zero vertex carries a 0x0 base change, whose inverse is 0x0
    for field in (gf, qq):
        m = random_rep(ex_quiver, (1, 0, 2), field, seed=1)
        c = conjugate_rep(m, random_glpoint(ex_quiver, (1, 0, 2), field, seed=2))
        assert c.dim == m.dim
        assert end_dim(c) == end_dim(m)


def test_simple_rep_is_schur_sample(a3, gf):
    assert end_dim(_simple(a3, gf, 1)) == 1
    m = direct_sum(_simple(a3, gf, 0), _simple(a3, gf, 0))
    assert end_dim(m) != 1


def test_fitting_splits_direct_sum_of_simples(a3, gf):
    m = direct_sum(_simple(a3, gf, 0), direct_sum(_simple(a3, gf, 1), _simple(a3, gf, 2)))
    parts = fitting_decompose(m, seed=2)
    assert sorted(p.dim for p, _ in parts) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_fitting_keeps_indecomposables_whole(a2, gf):
    # the generic (1,1) rep on one arrow is indecomposable
    m = random_rep(a2, (1, 1), gf, seed=3)
    assert fitting_decompose(m, seed=0) == [(m, 1)]


def test_fitting_multiset_is_seed_stable(ex_quiver, gf):
    m = random_rep(ex_quiver, (2, 3, 4), gf, seed=21)
    reference = None
    for seed in range(5):
        parts = fitting_decompose(m, seed=seed)
        combo = Counter(p.dim for p, _ in parts)
        total = tuple(sum(p.dim[v] for p, _ in parts) for v in range(3))
        assert total == (2, 3, 4)
        if reference is None:
            reference = combo
        else:
            assert combo == reference


def test_fitting_keeps_local_scalar_plus_nilpotent_end_ring_whole(gf):
    # Kronecker regular rep (I, J_2): End is local of dimension two, so every
    # endomorphism is scalar plus nilpotent; the splitter must settle on
    # indecomposable instead of exhausting its retries
    kron = Quiver(["1", "2"], [("1", "2"), ("1", "2")])
    jordan = gf.mat_of(2, 2, [[0, 1], [0, 0]])
    m = Representation(kron, gf, (2, 2), [gf.eye(2), jordan])
    assert end_dim(m) == 2
    parts = fitting_decompose(m, seed=0)
    assert [p.dim for p, _ in parts] == [(2, 2)]


def test_random_rep_is_deterministic_per_seed(ex_quiver, gf):
    a = random_rep(ex_quiver, (2, 1, 2), gf, seed=33)
    b = random_rep(ex_quiver, (2, 1, 2), gf, seed=33)
    c = random_rep(ex_quiver, (2, 1, 2), gf, seed=34)
    assert all(gf.eq(x, y) for x, y in zip(a.mats, b.mats))
    assert not all(gf.eq(x, y) for x, y in zip(a.mats, c.mats))


def test_rep_json_round_trip(ex_quiver, gf, qq):
    for field in (gf, qq):
        m = random_rep(ex_quiver, (1, 2, 2), field, seed=8)
        back = rep_from_json(ex_quiver, field, rep_to_json(m))
        assert back.dim == m.dim
        assert all(field.eq(x, y) for x, y in zip(m.mats, back.mats))


def test_conjugate_rep_rejects_singular_matrices(a2, gf):
    m = random_rep(a2, (1, 1), gf, seed=1)
    g = (gf.zeros(1, 1), gf.eye(1))
    with pytest.raises(InvariantViolationError):
        conjugate_rep(m, g)


def test_seed_mixing_separates_salts():
    assert mix_seed(0, "a") != mix_seed(0, "b")
    assert mix_seed(0, "a") == mix_seed(0, "a")
    r1 = derive_rng(5, "x").integers(1 << 20)
    r2 = derive_rng(5, "x").integers(1 << 20)
    assert r1 == r2


def test_fitting_keeps_extension_field_end_ring_whole(gf):
    kron = Quiver(["1", "2"], [("1", "2"), ("1", "2")])
    # companion matrix of x^2 + 1, irreducible mod 32003, so End is the
    # degree-2 field extension and the rep has no base-field summands
    comp = gf.mat_of(2, 2, [[0, gf.s_neg(1)], [1, 0]])
    m = Representation(kron, gf, (2, 2), [gf.eye(2), comp])
    assert end_dim(m) == 2
    parts = fitting_decompose(m, seed=0)
    assert [p.dim for p, _ in parts] == [(2, 2)]


def test_fitting_splits_off_extension_blocks(gf):
    kron = Quiver(["1", "2"], [("1", "2"), ("1", "2")])
    b = gf.mat_of(3, 3, [[0, gf.s_neg(1), 0], [1, 0, 0], [0, 0, 5]])
    m = Representation(kron, gf, (3, 3), [gf.eye(3), b])
    parts = fitting_decompose(m, seed=0)
    assert sorted(p.dim for p, _ in parts) == [(1, 1), (2, 2)]
    assert sorted(end_dim(p) for p, _ in parts) == [1, 2]


def _mixed_sum(q, field, dims, seed):
    """A direct sum of random reps, conjugated so that no summand sits on
    coordinate axes; returns it with the column bases of its summands."""
    m = random_rep(q, dims[0], field, seed)
    for k, d in enumerate(dims[1:]):
        m = direct_sum(m, random_rep(q, d, field, seed + k + 1))
    g = random_glpoint(q, m.dim, field, seed)
    first = dims[0]
    kers = [g[v][:, : first[v]].copy() for v in range(q.n)]
    images = [g[v][:, first[v] :].copy() for v in range(q.n)]
    return conjugate_rep(m, g), kers, images


def _same_basis(a, b) -> bool:
    return len(a.basis) == len(b.basis) and all(
        x.dtype == y.dtype and x.shape == y.shape and (x == y).all()
        for xs, ys in zip(a.basis, b.basis)
        for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("field", ["gf", "qq"])
@pytest.mark.parametrize(
    "quiver, dims",
    [
        ("ex_quiver", [(1, 1, 0), (0, 1, 2), (0, 1, 1), (0, 0, 1)]),
        ("ex_quiver", [(0, 1, 1), (0, 1, 1), (1, 0, 0)]),
        ("d4", [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 2)]),
        ("d4", [(0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 0, 1), (0, 0, 1, 1)]),
    ],
)
def test_summand_end_compressed_from_end_m_equals_hom_space(
    request, field, quiver, dims
):
    f, q = request.getfixturevalue(field), request.getfixturevalue(quiver)
    m, kers, images = _mixed_sum(q, f, dims, seed=17)
    endos = hom_space(m, m)
    (left, left_end), (right, right_end) = reps._split(m, endos, kers, images)
    assert left.dim == dims[0]
    for s, compressed in ((left, left_end), (right, right_end)):
        assert _same_basis(compressed, hom_space(s, s))


def test_every_fitting_split_compresses_to_hom_space(
    monkeypatch, ex_quiver, d4, gf
):
    splits = []
    real_split = reps._split

    def checked(m, endos, kers, images):
        out = real_split(m, endos, kers, images)
        for s, compressed in out:
            assert _same_basis(compressed, hom_space(s, s))
        splits.append(m.dim)
        return out

    monkeypatch.setattr(reps, "_split", checked)
    m = random_rep(ex_quiver, (2, 3, 4), gf, seed=21)
    m = direct_sum(m, random_rep(ex_quiver, (0, 1, 1), gf, seed=5))
    n = direct_sum(
        random_rep(d4, (1, 1, 1, 3), gf, seed=2),
        random_rep(d4, (1, 1, 0, 2), gf, seed=3),
    )
    for rep in (m, n):
        pairs = fitting_decompose(rep, seed=4)
        again = fitting_decompose(rep, seed=4)
        assert [s.dim for s, _ in pairs] == [s.dim for s, _ in again]
        assert all(
            gf.eq(x, y)
            for (s, _), (t, _) in zip(pairs, again)
            for x, y in zip(s.mats, t.mats)
        )
        assert [d for _, d in pairs] == [end_dim(s) for s, _ in pairs]
    assert len(splits) >= 4


def test_fitting_refuses_primes_not_above_the_total_dimension(a3):
    f = prime_field(3)
    s0, s1 = _simple(a3, f, 0), _simple(a3, f, 1)
    m = direct_sum(s0, direct_sum(s1, s0))
    with pytest.raises(FieldTooSmallError, match=r"p = 3 .* total dimension 3"):
        fitting_decompose(m, seed=0)
    # End = k needs no leaf test, and a prime above the dimension splits
    brick = Representation(a3, f, (1, 1, 1), [f.eye(1), f.eye(1)])
    assert fitting_decompose(brick, seed=0) == [(brick, 1)]
    f5 = prime_field(5)
    m5 = direct_sum(
        _simple(a3, f5, 0), direct_sum(_simple(a3, f5, 1), _simple(a3, f5, 0))
    )
    assert sorted(p.dim for p, _ in fitting_decompose(m5, seed=0)) == [
        (0, 1, 0), (1, 0, 0), (1, 0, 0)
    ]


@pytest.mark.parametrize("spec", ["fp:32003", "fp:2147483647", "q"])
def test_random_endomorphism_matches_the_loop_sum(d4, spec):
    # one product per vertex in place of a sum over the basis: same draws,
    # same values, also where gf_mm has to chunk (p near 2^31) and over Q
    f = parse_field(spec)
    m = direct_sum(
        random_rep(d4, (1, 1, 0, 2), f, seed=6), random_rep(d4, (1, 1, 0, 2), f, seed=6)
    )
    m = direct_sum(m, random_rep(d4, (0, 0, 1, 0), f, seed=7))
    endos = hom_space(m, m)
    assert endos.dimension > 4
    psi = reps.random_endomorphism(m, endos, derive_rng(3, "psi"))
    rng = derive_rng(3, "psi")
    ref = [f.zeros(m.dim[v], m.dim[v]) for v in range(d4.n)]
    for elem in endos.basis:
        c = f.rand_elem(rng)
        ref = [f.add(r, f.smul(c, e)) for r, e in zip(ref, elem)]
    assert all(x.dtype == y.dtype and (x == y).all() for x, y in zip(psi, ref))
