from __future__ import annotations

import json

import numpy as np
import pytest

from vsi import (
    NonSquareWeightError,
    Presentation,
    ProjDecomp,
    Quiver,
    Representation,
    apply_action,
    canonical_decomp,
    canonical_proj_decomp,
    chi_value,
    cokernel,
    compose,
    cv_value,
    cv_weight,
    derive_rng,
    direct_sum,
    end_dim,
    euler_data,
    euler_form,
    hom_dim,
    hom_matrix,
    identity_presentation,
    minimal_decomp,
    mix_seed,
    parse_field,
    path_count,
    presentation_from_json,
    presentation_to_json,
    proj_vector,
    random_aut,
    random_presentation,
    random_rep,
    stabilize,
    zero_rep,
    zeta,
)
from vsi.presentations import hom_stack, sorted_slots
from vsi.quiver import apply_int_matrix, check_dim_vector


def _random_acyclic_quiver(rng) -> Quiver:
    n = int(rng.integers(2, 7))
    names = [str(i + 1) for i in range(n)]
    order = list(rng.permutation(n))
    arrows = []
    for _ in range(int(rng.integers(1, 2 * n))):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        arrows.append((names[order[i]], names[order[j]]))
    return Quiver(names, arrows)


def _et_apply(q, a):
    e = euler_data(q).e
    return apply_int_matrix(tuple(zip(*e)), a)


def _blocks_equal(field, x, y) -> bool:
    if x.keys() != y.keys():
        return False
    return all(
        field.eq(a, b) for key in x for a, b in zip(x[key], y[key])
    )


def test_minimal_decomp_goldens(ex_quiver, a2):
    d = minimal_decomp(ex_quiver, (1, 2, -3))
    assert (d.gamma0, d.gamma1) == ((1, 1, 0), (0, 0, 7))
    z = minimal_decomp(ex_quiver, (0, 0, 0))
    assert (z.gamma0, z.gamma1) == ((0, 0, 0), (0, 0, 0))
    p1 = minimal_decomp(a2, proj_vector(a2, 0))
    assert (p1.gamma0, p1.gamma1) == ((1, 0), (0, 0))


def test_canonical_decomp_goldens(ex_quiver, a2):
    mu, gamma = canonical_decomp(ex_quiver, (1, 2, -3))
    assert (mu, gamma) == ((1, 2, 0), (0, 0, 3))
    can = canonical_proj_decomp(ex_quiver, (1, 2, -3))
    assert (can.gamma0, can.gamma1) == ((1, 2, 0), (0, 1, 7))
    # nonnegative input is its own mu
    assert canonical_decomp(ex_quiver, (2, 0, 5)) == ((2, 0, 5), (0, 0, 0))
    assert canonical_decomp(a2, (1, -1)) == ((1, 0), (0, 1))


def test_proj_decomp_invariant_on_random_quivers():
    rng = derive_rng(17, "projdecomp")
    for _ in range(5):
        q = _random_acyclic_quiver(rng)
        for _ in range(40):
            a = tuple(int(x) for x in rng.integers(-9, 10, size=q.n))
            for d in (minimal_decomp(q, a), canonical_proj_decomp(q, a)):
                assert _et_apply(q, a) == tuple(
                    x - y for x, y in zip(d.gamma0, d.gamma1)
                )
                assert min(d.gamma0) >= 0 and min(d.gamma1) >= 0
            g0, g1 = minimal_decomp(q, a).gamma0, minimal_decomp(q, a).gamma1
            assert all(x == 0 or y == 0 for x, y in zip(g0, g1))


def _clear_with_random_order(q, a, rng):
    # same induction as canonical_decomp but breaking ties among
    # incomparable negative vertices at random
    a = list(check_dim_vector(q, a))
    et_inv = euler_data(q).et_inv
    gamma = [0] * q.n
    while True:
        negatives = [v for v in range(q.n) if a[v] < 0]
        if not negatives:
            break
        minimal = [
            v
            for v in negatives
            if not any(u != v and path_count(q, u, v) for u in negatives)
        ]
        v = minimal[int(rng.integers(len(minimal)))]
        c = -a[v]
        gamma[v] += c
        for w in range(q.n):
            a[w] += c * et_inv[w][v]
    return tuple(a), tuple(gamma)


def test_canonical_decomp_unique_under_processing_order(ex_quiver, d4):
    rng = derive_rng(18, "order")
    for q in (ex_quiver, d4):
        for _ in range(20):
            a = tuple(int(x) for x in rng.integers(-6, 7, size=q.n))
            expected = canonical_decomp(q, a)
            assert _clear_with_random_order(q, a, rng) == expected
            mu, gamma = expected
            assert all(x == 0 or y == 0 for x, y in zip(mu, gamma))


def test_compose_identity_and_associativity(ex_quiver, gf):
    q = ex_quiver
    dec = minimal_decomp(q, (1, 2, -3))
    phi = random_presentation(dec, gf, seed=1)
    id0 = identity_presentation(q, gf, dec.gamma0, slots=phi.slots0)
    id1 = identity_presentation(q, gf, dec.gamma1, slots=phi.slots1)
    assert _blocks_equal(gf, compose(id0, phi).blocks, phi.blocks)
    assert _blocks_equal(gf, compose(phi, id1).blocks, phi.blocks)
    g = random_aut(q, dec.gamma0, gf, seed=2, slots=phi.slots0)
    h = random_aut(q, dec.gamma0, gf, seed=3, slots=phi.slots0)
    assert _blocks_equal(
        gf, compose(compose(g, h), phi).blocks, compose(g, compose(h, phi)).blocks
    )


def test_random_presentation_determinism_and_generic_rank(a2, gf):
    dec = ProjDecomp(a2, (1, 1), (1, 1), (0, 1))
    p1 = random_presentation(dec, gf, seed=4)
    p2 = random_presentation(dec, gf, seed=4)
    assert _blocks_equal(gf, p1.blocks, p2.blocks)
    # gamma1 = 0 gives a presentation with no columns and cokernel P(gamma0)
    proj = random_presentation(minimal_decomp(a2, (1, 1)), gf, seed=5)
    assert proj.slots1 == ()
    assert cokernel(proj).dim == proj_vector(a2, 0)
    # padded presentation still has generic cokernel dim alpha = (1,1)
    assert cokernel(p1).dim == (1, 1)


def test_hom_matrix_single_path_example(a2, gf):
    # phi: P(2) -> P(1) + P(2) with coefficient x on the arrow path and c on
    # the constant path at vertex 2; against the simple at vertex 2 the only
    # surviving block is [c]
    x, c = 11, 7
    phi = Presentation(
        a2,
        gf,
        (0, 1),
        (1,),
        {(0, 1): (gf.mat_of(1, 1, [[x]]),), (1, 1): (gf.mat_of(1, 1, [[c]]),)},
    )
    s2 = Representation(a2, gf, (0, 1), [gf.zeros(1, 0)])
    m = hom_matrix(phi, s2)
    assert m.shape == (1, 1)
    assert int(m[0, 0]) == c
    assert cv_value(phi, s2) == c


def test_hom_matrix_shapes_and_empty_value(ex_quiver, gf):
    dec = minimal_decomp(ex_quiver, (1, 2, -3))
    phi = random_presentation(dec, gf, seed=6)
    v = random_rep(ex_quiver, (1, 1, 1), gf, seed=7)
    m = hom_matrix(phi, v)
    assert m.shape == (
        sum(v.dim[s] for s in phi.slots1),
        sum(v.dim[s] for s in phi.slots0),
    )
    assert cv_value(phi, zero_rep(ex_quiver, gf)) == gf.one


def test_cv_value_rejects_nonsquare_weight(a2, gf):
    dec = ProjDecomp(a2, (1, 1), (1, 1), (0, 1))
    phi = random_presentation(dec, gf, seed=8)
    v = random_rep(a2, (1, 1), gf, seed=9)
    assert euler_form(a2, (1, 1), (1, 1)) == 1
    with pytest.raises(NonSquareWeightError):
        cv_value(phi, v)


def test_cv_weight_values(a2, gf):
    s2 = Representation(a2, gf, (0, 1), [gf.zeros(1, 0)])
    assert cv_weight(s2).sigma == (0, 1)
    assert cv_weight(zero_rep(a2, gf)).sigma == (0, 0)
    v = random_rep(a2, (2, 1), gf, seed=10)
    assert cv_weight(direct_sum(s2, v)).sigma == (2, 2)


def test_semi_invariance_under_automorphism_action(ex_quiver, gf, qq):
    q = ex_quiver
    alpha, beta = (-1, -1, -2), (0, 1, 2)
    assert euler_form(q, alpha, beta) == 0
    dec = minimal_decomp(q, alpha)
    for field in (gf, qq):
        for i in range(10):
            seed = mix_seed(19, "equiv", i)
            phi = random_presentation(dec, field, mix_seed(seed, "phi"))
            v = random_rep(q, beta, field, mix_seed(seed, "V"))
            g0 = random_aut(
                q, dec.gamma0, field, mix_seed(seed, "g0"), slots=phi.slots0
            )
            g1 = random_aut(
                q, dec.gamma1, field, mix_seed(seed, "g1"), slots=phi.slots1
            )
            lhs = cv_value(apply_action(g0, phi, g1), v)
            scale = field.s_mul(chi_value(g0, beta), chi_value(g1, beta))
            assert lhs == field.s_mul(scale, cv_value(phi, v))


def test_chi_value_is_multiplicative(ex_quiver, gf):
    q = ex_quiver
    gamma = (2, 1, 2)
    slots = None
    g = random_aut(q, gamma, gf, seed=20)
    h = random_aut(q, gamma, gf, seed=21, slots=g.slots0)
    sigma = (3, 0, 2)
    lhs = chi_value(compose(g, h), sigma)
    assert lhs == gf.s_mul(chi_value(g, sigma), chi_value(h, sigma))


def _interleave_sign(phi, d1, d2):
    # parity of regrouping the per-slot interleaved V1/V2 basis into the
    # block order (all of V1, then all of V2), on rows and columns
    total = 0
    for slots in (phi.slots1, phi.slots0):
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                total += d2[slots[i]] * d1[slots[j]]
    return -1 if total % 2 else 1


def test_direct_sum_factorization_up_to_interleave_sign(ex_quiver, gf, qq):
    q = ex_quiver
    cases = [
        ((-1, -1, -2), (0, 1, 2), (0, 1, 2)),
        ((-3, -1, -3), (0, 1, 2), (0, 1, 2)),  # interleave sign is -1 here
        ((-3, 0, -2), (0, 2, 3), (0, 2, 3)),
        ((-2, 0, -1), (0, 1, 2), (0, 1, 2)),
    ]
    for field in (gf, qq):
        for alpha, b1, b2 in cases:
            assert euler_form(q, alpha, b1) == 0 and euler_form(q, alpha, b2) == 0
            for i in range(5):
                seed = mix_seed(22, "factor", alpha, b1, b2, i)
                phi = random_presentation(minimal_decomp(q, alpha), field, seed)
                v1 = random_rep(q, b1, field, mix_seed(seed, "v1"))
                v2 = random_rep(q, b2, field, mix_seed(seed, "v2"))
                lhs = cv_value(phi, direct_sum(v1, v2))
                rhs = field.s_mul(cv_value(phi, v1), cv_value(phi, v2))
                if _interleave_sign(phi, v1.dim, v2.dim) < 0:
                    rhs = field.s_neg(rhs)
                assert lhs == rhs


def test_stabilize_identity_and_cv_invariance(ex_quiver, gf, qq):
    q = ex_quiver
    alpha, beta = (-1, -1, -2), (0, 1, 2)
    dec = minimal_decomp(q, alpha)
    for field in (gf, qq):
        rng = derive_rng(23, "stab")
        for i in range(10):
            phi = random_presentation(dec, field, mix_seed(23, "phi", i))
            same = stabilize(phi, (0, 0, 0))
            assert _blocks_equal(field, same.blocks, phi.blocks)
            assert same.slots0 == phi.slots0
            gamma = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
            big = stabilize(phi, gamma)
            assert big.gamma0 == tuple(a + g for a, g in zip(dec.gamma0, gamma))
            assert cokernel(big).dim == cokernel(phi).dim
            v = random_rep(q, beta, field, mix_seed(23, "V", i))
            assert cv_value(big, v) == cv_value(phi, v)


def test_padded_presentation_spaces_have_stable_cokernel(ex_quiver, a3, gf):
    # generic elements of R(gamma0 + gamma, gamma1 + gamma) have the same
    # cokernel dimension vector as generic elements of R^min(alpha)
    rng = derive_rng(24, "pad")
    for q in (ex_quiver, a3):
        for i in range(10):
            alpha = tuple(int(x) for x in rng.integers(-4, 5, size=q.n))
            gamma = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
            dec = minimal_decomp(q, alpha)
            padded = ProjDecomp(
                q,
                alpha,
                tuple(a + g for a, g in zip(dec.gamma0, gamma)),
                tuple(a + g for a, g in zip(dec.gamma1, gamma)),
            )
            lean = cokernel(random_presentation(dec, gf, mix_seed(24, q.names, i)))
            fat = cokernel(
                random_presentation(padded, gf, mix_seed(24, q.names, i, "fat"))
            )
            assert fat.dim == lean.dim


def test_cokernel_of_zeta_recovers_the_representation(ex_quiver, gf):
    q = ex_quiver
    rng = derive_rng(25, "zeta")
    for i in range(10):
        dim = tuple(int(x) for x in rng.integers(0, 4, size=q.n))
        m = random_rep(q, dim, gf, mix_seed(25, "M", i))
        back = cokernel(zeta(m))
        assert back.dim == m.dim
        assert end_dim(back) == end_dim(m)
        probe = random_rep(q, (1, 1, 1), gf, mix_seed(25, "probe", i))
        assert hom_dim(back, probe) == hom_dim(m, probe)
        assert hom_dim(probe, back) == hom_dim(probe, m)
    empty = zeta(zero_rep(q, gf))
    assert empty.gamma0 == (0, 0, 0) and empty.gamma1 == (0, 0, 0)
    assert cv_value(empty, zero_rep(q, gf)) == gf.one


def test_zeta_pullback_transforms_with_euler_shifted_character(ex_quiver, gf):
    from vsi import conjugate_rep, random_glpoint

    q = ex_quiver
    beta = (0, 1, 2)
    delta = (1, 1, 2)
    assert euler_form(q, delta, beta) == 0
    sigma = apply_int_matrix(euler_data(q).e, beta)
    for i in range(10):
        seed = mix_seed(26, "transport", i)
        m = random_rep(q, delta, gf, mix_seed(seed, "M"))
        v = random_rep(q, beta, gf, mix_seed(seed, "V"))
        g = random_glpoint(q, delta, gf, mix_seed(seed, "g"))
        scale = gf.one
        for vtx in range(q.n):
            scale = gf.s_mul(scale, gf.s_pow(gf.det(g[vtx]), sigma[vtx]))
        lhs = cv_value(zeta(conjugate_rep(m, g)), v)
        assert lhs == gf.s_mul(scale, cv_value(zeta(m), v))


def test_presentation_json_round_trip(ex_quiver, gf, qq):
    q = ex_quiver
    for field in (gf, qq):
        phi = random_presentation(minimal_decomp(q, (1, 2, -3)), field, seed=27)
        blob = presentation_to_json(phi)
        data = json.loads(blob)
        assert set(data) >= {"slots0", "slots1", "blocks"}
        back = presentation_from_json(q, field, blob)
        assert back.slots0 == phi.slots0
        assert back.slots1 == phi.slots1
        assert back.blocks.keys() == phi.blocks.keys()
        for key in phi.blocks:
            for a, b in zip(phi.blocks[key], back.blocks[key]):
                assert field.eq(a, b)


# ------------------------------------------------- hom_matrix and seeded draws

FIELDS = ("fp:32003", "fp:2147483647", "q")
QUIVERS = {
    "EX": Quiver(list("123"), [("1", "2"), ("2", "3"), ("2", "3")]),
    "D4": Quiver(list("1234"), [("1", "4"), ("2", "4"), ("3", "4")]),
    "E6": Quiver(
        list("123456"), [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("6", "3")]
    ),
    # A~2: the two paths 1 -> 3 make a two-path block
    "A~2": Quiver(list("123"), [("1", "2"), ("2", "3"), ("1", "3")]),
}


def _reference_hom_matrix(phi, v_rep):
    """Hom(phi, V) entry by entry: for slots s0 at u and s1 at v, add
    phi_p[occ(s0), occ(s1)] * V_p into the (s1, s0) block."""
    q, f = phi.quiver, phi.field
    beta = v_rep.dim
    row_off, col_off = [], []
    for slots, offs in ((phi.slots1, row_off), (phi.slots0, col_off)):
        total = 0
        for s in slots:
            offs.append(total)
            total += beta[s]
    h = f.zeros(sum(beta[s] for s in phi.slots1), sum(beta[s] for s in phi.slots0))
    occ0 = {u: [s for s, w in enumerate(phi.slots0) if w == u] for u in range(q.n)}
    occ1 = {v: [s for s, w in enumerate(phi.slots1) if w == v] for v in range(q.n)}
    for (u, v), path_mats in phi.blocks.items():
        if beta[u] == 0 or beta[v] == 0:
            continue
        for path, coeffs in zip(q.paths(u, v), path_mats):
            vp = f.eye(beta[u])
            for k in path:
                vp = f.mm(v_rep.mats[k], vp)
            for i, s0 in enumerate(occ0[u]):
                for j, s1 in enumerate(occ1[v]):
                    r0, c0 = row_off[s1], col_off[s0]
                    block = h[r0 : r0 + beta[v], c0 : c0 + beta[u]]
                    h[r0 : r0 + beta[v], c0 : c0 + beta[u]] = f.add(
                        block, f.smul(coeffs[i, j], vp)
                    )
    return h


def _assert_same_matrix(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert all(type(x) is type(y) for x, y in zip(got.flat, want.flat))


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("label", sorted(QUIVERS))
def test_hom_matrix_equals_the_entrywise_reference(label, field_name):
    q, field = QUIVERS[label], parse_field(field_name)
    rng = derive_rng(48, "hom-reference", label, field_name)
    cases = []
    for t in range(6):
        alpha = tuple(int(x) for x in rng.integers(-2, 3, size=q.n))
        beta = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
        if t == 0:
            beta = (0,) + beta[1:]  # a zero beta_v
        dec = minimal_decomp(q, alpha)
        shuffled = [
            tuple(int(s) for s in rng.permutation(sorted_slots(q, gamma)))
            for gamma in (dec.gamma0, dec.gamma1)
        ]
        seed = mix_seed(48, t)
        phi = random_presentation(dec, field, seed)
        extra = tuple(int(x) for x in rng.integers(0, 2, size=q.n))
        v = random_rep(q, beta, field, mix_seed(seed, "V"))
        cases += [
            (phi, v),  # vertex-sorted slots
            (random_presentation(dec, field, seed, *shuffled), v),
            (stabilize(phi, extra), v),  # new summands appended last
        ]
    # zero gamma sides: a projective has gamma1 = 0, a shifted projective
    # gamma0 = 0
    ones = random_rep(q, (1,) * q.n, field, mix_seed(49, "V"))
    for alpha, empty in ((proj_vector(q, 0), 1), (proj_vector(q, q.n - 1), 0)):
        dec = minimal_decomp(q, alpha if empty else tuple(-x for x in alpha))
        assert not any((dec.gamma0, dec.gamma1)[empty])
        cases.append((random_presentation(dec, field, mix_seed(49, alpha)), ones))
    for phi, v in cases:
        _assert_same_matrix(hom_matrix(phi, v), _reference_hom_matrix(phi, v))


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("label", sorted(QUIVERS))
def test_hom_stack_equals_hom_matrix_pair_by_pair(label, field_name):
    # pairs sharing their slots and dim V, stacked along a trial axis
    q, field = QUIVERS[label], parse_field(field_name)
    rng = derive_rng(51, "hom-stack", label, field_name)
    for t in range(3):
        alpha = tuple(int(x) for x in rng.integers(-2, 3, size=q.n))
        beta = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
        dec = minimal_decomp(q, alpha)
        slots = [
            tuple(int(s) for s in rng.permutation(sorted_slots(q, gamma)))
            for gamma in (dec.gamma0, dec.gamma1)
        ]
        pairs = [
            (
                random_presentation(dec, field, mix_seed(51, t, k), *slots),
                random_rep(q, beta, field, mix_seed(51, t, k, "V")),
            )
            for k in range(4)
        ]
        blocks = {
            key: tuple(np.stack(m) for m in zip(*(phi.blocks[key] for phi, _ in pairs)))
            for key in pairs[0][0].blocks
        }
        v_mats = [np.stack(m) for m in zip(*(v.mats for _, v in pairs))]
        h = hom_stack(q, field, 4, *slots, blocks, v_mats, beta)
        for k, (phi, v) in enumerate(pairs):
            _assert_same_matrix(h[k], hom_matrix(phi, v))


def _reference_draws(field, rng, shapes):
    """One rng.integers call per matrix, the per-block draws of random_rep
    and random_presentation."""
    out = []
    for m, n in shapes:
        if field.char:
            out.append(rng.integers(0, field.char, size=(m, n), dtype=np.int64))
        else:
            raw = rng.integers(-(10**4), 10**4 + 1, size=(m, n))
            out.append(field.mat_of(m, n, raw.tolist()))
    return out


@pytest.mark.parametrize("field_name", FIELDS)
def test_batched_draws_equal_per_block_draws(field_name):
    field = parse_field(field_name)
    for label, q in sorted(QUIVERS.items()):
        rng = derive_rng(50, "draws", label, field_name)
        for t in range(4):
            a = tuple(int(x) for x in rng.integers(0, 4, size=q.n))
            seed = mix_seed(50, t)
            m = random_rep(q, a, field, seed)
            ref = _reference_draws(
                field,
                derive_rng(seed, "rep", q.names, q.arrows, a, field.name),
                [(a[h], a[tail]) for tail, h in q.arrows],
            )
            for got, want in zip(m.mats, ref, strict=True):
                _assert_same_matrix(got, want)
            alpha = tuple(int(x) for x in rng.integers(-3, 4, size=q.n))
            dec = minimal_decomp(q, alpha)
            phi = random_presentation(dec, field, seed)
            keys = [
                (u, v, p) for u in range(q.n) for v in range(q.n)
                for p in range(len(q.paths(u, v)))
            ]
            ref = _reference_draws(
                field,
                derive_rng(
                    seed, "pres", q.names, q.arrows, dec.gamma0, dec.gamma1,
                    field.name,
                ),
                [(dec.gamma0[u], dec.gamma1[v]) for u, v, _ in keys],
            )
            for (u, v, p), want in zip(keys, ref, strict=True):
                _assert_same_matrix(phi.block(u, v, p), want)
