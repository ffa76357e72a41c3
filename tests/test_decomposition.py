from __future__ import annotations

import itertools
from collections import Counter

import pytest

from vsi import (
    Quiver,
    SplitFailureError,
    VsiError,
    canonical_decomp,
    ZeroVectorError,
    cached_generic_ext,
    d_beta_halfspaces,
    d_membership,
    derive_rng,
    end_dim,
    euler_form,
    fitting_decompose,
    generic_decomposition,
    generic_ext,
    is_schur_root,
    mix_seed,
    parse_field,
    positive_roots,
    random_rep,
    subrep_test,
    supp_test_randomized,
    tits_form,
)
from vsi import decomposition


def _parts(dec) -> Counter:
    return Counter(dec.schur_parts)


def test_generic_decomposition_hand_checked_cases(a2, a3, d4, gf):
    dec = generic_decomposition(a2, (2, 3), gf)
    assert _parts(dec) == Counter({(1, 1): 2, (0, 1): 1})
    assert dec.gamma == (0, 0)
    dec = generic_decomposition(a3, (1, 1, 1), gf)
    assert _parts(dec) == Counter({(1, 1, 1): 1})
    dec = generic_decomposition(d4, (1, 1, 1, 2), gf)
    assert _parts(dec) == Counter({(1, 1, 1, 2): 1})


def test_generic_decomposition_with_negative_coordinates(ex_quiver, gf):
    dec = generic_decomposition(ex_quiver, (-1, 2, 3), gf)
    assert dec.gamma == (1, 0, 0)
    assert dec.reconstruct(ex_quiver) == (-1, 2, 3)
    assert _parts(dec) == Counter({(0, 1, 2): 1, (0, 2, 3): 1})


def test_generic_decomposition_validates_parts(a2, a3, a4, d4, ex_quiver, gf):
    rng = derive_rng(31, "props")
    for q in (a2, a3, a4, d4, ex_quiver):
        for i in range(20):
            alpha = tuple(int(x) for x in rng.integers(-5, 6, size=q.n))
            dec = generic_decomposition(q, alpha, gf, seed=mix_seed(31, q.names, i))
            assert dec.reconstruct(q) == alpha
            for part in dec.schur_parts:
                assert is_schur_root(q, part, gf)
                assert all(
                    p == 0 or g == 0 for p, g in zip(part, dec.gamma)
                )
            parts = list(dec.schur_parts)
            for j in range(len(parts)):
                for k in range(j + 1, len(parts)):
                    if parts[j] == parts[k]:
                        continue
                    assert cached_generic_ext(q, parts[j], parts[k], gf) == 0
                    assert cached_generic_ext(q, parts[k], parts[j], gf) == 0


def test_generic_decomposition_is_seed_stable(ex_quiver, gf):
    for alpha in ((2, -3, 4), (3, 3, 3), (-2, 1, 5)):
        reference = _parts(generic_decomposition(ex_quiver, alpha, gf, seed=0))
        for seed in (1, 2):
            assert (
                _parts(generic_decomposition(ex_quiver, alpha, gf, seed=seed))
                == reference
            )


def test_real_schur_parts_scale_linearly(a3, gf):
    rng = derive_rng(32, "scale")
    tested = 0
    while tested < 6:
        alpha = tuple(int(x) for x in rng.integers(0, 4, size=3))
        if not any(alpha):
            continue
        base = generic_decomposition(a3, alpha, gf)
        if any(tits_form(a3, p) != 1 for p in base.schur_parts):
            continue
        tested += 1
        for m in (2, 3):
            scaled = generic_decomposition(
                a3, tuple(m * x for x in alpha), gf, seed=tested
            )
            expected = Counter()
            for part, mult in _parts(base).items():
                expected[part] = m * mult
            assert _parts(scaled) == expected


def test_zero_vector_decomposes_to_nothing(ex_quiver, gf):
    dec = generic_decomposition(ex_quiver, (0, 0, 0), gf)
    assert dec.schur_parts == () and dec.gamma == (0, 0, 0)


def test_is_schur_root_on_small_vectors(a2, gf):
    assert is_schur_root(a2, (1, 0), gf)
    assert is_schur_root(a2, (0, 1), gf)
    assert is_schur_root(a2, (1, 1), gf)
    assert not is_schur_root(a2, (1, 2), gf)
    assert not is_schur_root(a2, (2, 2), gf)
    with pytest.raises(ZeroVectorError):
        is_schur_root(a2, (0, 0), gf)


def test_subrep_test_on_the_one_arrow_quiver(a2, gf):
    assert subrep_test(a2, (0, 1), (1, 1), gf)
    assert not subrep_test(a2, (1, 0), (1, 1), gf)
    assert subrep_test(a2, (0, 0), (1, 1), gf)
    assert subrep_test(a2, (1, 1), (1, 1), gf)
    # componentwise comparison must fail fast
    assert not subrep_test(a2, (2, 0), (1, 1), gf)


def test_halfspace_system_golden(ex_quiver, gf):
    system = d_beta_halfspaces(ex_quiver, (0, 1, 2), gf)
    assert system.equality == (-1, -3, 2)
    assert system.subreps == ((0, 0, 1), (0, 0, 2))
    assert system.inequalities == ((0, -2, 1), (0, -4, 2))
    assert system.contains((-1, -1, -2))
    assert system.contains((-2, 0, -1))
    assert not system.contains((-1, 0, -2))
    assert system.contains((0, 0, 0))
    with pytest.raises(ZeroVectorError):
        d_beta_halfspaces(ex_quiver, (0, 0, 0), gf)


def test_halfspace_grid_matches_closed_form(ex_quiver, gf):
    system = d_beta_halfspaces(ex_quiver, (0, 1, 2), gf)
    for a1 in range(-5, 6):
        for a2 in range(-5, 6):
            for a3 in range(-5, 6):
                expected = 2 * a3 == 3 * a2 + a1 and a2 >= a1
                assert system.contains((a1, a2, a3)) == expected


def test_supp_test_short_circuits(ex_quiver, gf):
    assert supp_test_randomized(ex_quiver, (0, 0, 0), (0, 1, 2), gf)
    assert euler_form(ex_quiver, (1, 1, 1), (0, 1, 2)) != 0
    assert not supp_test_randomized(ex_quiver, (1, 1, 1), (0, 1, 2), gf)


def test_supp_test_agrees_with_membership_on_small_grid(ex_quiver):
    beta = (0, 1, 2)
    for field in (parse_field("fp:32003"), parse_field("q")):
        for a in itertools.product(range(-2, 3), repeat=3):
            want = d_membership(ex_quiver, a, beta, field)
            got = supp_test_randomized(ex_quiver, a, beta, field, trials=5)
            if got != want:
                got = any(
                    supp_test_randomized(ex_quiver, a, beta, field, seed=s, trials=5)
                    == want
                    for s in (1, 2, 3)
                )
                assert got, (field.name, a, want)


def test_supp_test_draws_once_and_builds_no_samples(ex_quiver, gf, monkeypatch):
    # all trials come from one generator and one stacked Hom matrix; no
    # presentation or representation object is built per trial
    import vsi.fields
    import vsi.presentations
    import vsi.reps

    def refuse(*args, **kwargs):
        raise AssertionError("supp_test_randomized built a per-trial sample")

    for module in (decomposition, vsi.presentations, vsi.reps):
        for name in ("random_presentation", "random_rep"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    draws = []
    real = vsi.fields.derive_rng

    def counted(*args):
        draws.append(args)
        return real(*args)

    for module in (vsi.fields, decomposition, vsi.presentations, vsi.reps):
        monkeypatch.setattr(module, "derive_rng", counted)
    stacks = []
    real_stack = decomposition.hom_stack

    def recorded(*args):
        h = real_stack(*args)
        stacks.append(h.shape)
        return h

    monkeypatch.setattr(decomposition, "hom_stack", recorded)
    cases = [
        ((-1, -1, -2), (0, 1, 2), True),  # a member: nonzero at once
        ((1, -1, -1), (0, 1, 2), False),  # <a, b> = 0 but not a member
        ((0, 1, 0), (1, 0, 0), True),  # Hom(phi, V) is 0x0: det 1
    ]
    for a, b, want in cases:
        assert euler_form(ex_quiver, a, b) == 0
        del draws[:], stacks[:]
        assert supp_test_randomized(ex_quiver, a, b, gf, seed=3, trials=5) is want
        assert len(draws) == 1
        assert len(stacks) == 1 and stacks[0][0] == 5
    assert stacks[0][1:] == (0, 0)


def test_cached_generic_ext_is_deterministic(ex_quiver, gf):
    first = cached_generic_ext(ex_quiver, (0, 1, 2), (1, 0, 0), gf)
    second = cached_generic_ext(ex_quiver, (0, 1, 2), (1, 0, 0), gf)
    assert first == second


def test_generic_decomposition_expands_isotropic_multiples(ex_quiver, gf, monkeypatch):
    # full support, so these sample: a base-field sample of a repeated
    # isotropic root can come out as one summand whose End is a degree-d
    # extension field (a Galois orbit), which must expand to d copies
    orders = []
    real = decomposition.fitting_decompose

    def spy(*args, **kwargs):
        summands = real(*args, **kwargs)
        orders.extend(d for _, d in summands)
        return summands

    monkeypatch.setattr(decomposition, "fitting_decompose", spy)
    for alpha, root, count in (((3, 3, 3), (1, 1, 1), 3), ((2, 4, 2), (1, 2, 1), 2)):
        orders.clear()
        dec = generic_decomposition(ex_quiver, alpha, gf, seed=0)
        assert dec.schur_parts == (root,) * count and dec.gamma == (0, 0, 0)
        assert orders == [count]  # seed 0 meets the orbit branch on both
        for seed in (1, 3):
            assert generic_decomposition(ex_quiver, alpha, gf, seed=seed) == dec


def test_isotropic_multiples_on_a_kronecker_component_are_closed_form(ex_quiver, gf):
    # mu = (0, 9, 9) lives on the double arrow 2 => 3: nine copies of (1, 1)
    dec = generic_decomposition(ex_quiver, (-3, 6, 3), gf, seed=0)
    assert dec.gamma == (3, 0, 0)
    assert dec.schur_parts == ((0, 1, 1),) * 9
    assert dec.reconstruct(ex_quiver) == (-3, 6, 3)


def _box(top):
    return (x for x in itertools.product(*(range(t + 1) for t in top)) if any(x))


def test_dynkin_closed_forms_match_sampling(a2, a3, a3_alt, a4, d4, d4_out, gf):
    # the sampled definitions, run directly, are the oracle for the closed
    # forms on every beta in [0, 2]^n
    for q in (a2, a3, a3_alt, a4, d4, d4_out):
        for beta in _box((2,) * q.n):
            sampled_subreps = tuple(
                sub
                for sub in _box(beta)
                if sub != beta
                and generic_ext(
                    q, sub, tuple(b - s for b, s in zip(beta, sub)), gf,
                    seed=mix_seed(5, sub, beta), trials=1,
                )
                == 0
            )
            assert d_beta_halfspaces(q, beta, gf).subreps == sampled_subreps, (
                q.arrows,
                beta,
            )
            sampled_schur = any(
                end_dim(random_rep(q, beta, gf, mix_seed(6, beta, t))) == 1
                for t in range(3)
            )
            assert is_schur_root(q, beta, gf) == sampled_schur, (q.arrows, beta)


D5 = Quiver(list("12345"), [("1", "3"), ("2", "3"), ("3", "4"), ("4", "5")])
E6 = Quiver(
    list("123456"), [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("6", "3")]
)


def test_dynkin_answers_ignore_field_and_seed_and_never_sample(
    a3, d4, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a Dynkin answer sampled a representation")

    for name in ("random_rep", "fitting_decompose", "generic_ext"):
        monkeypatch.setattr(decomposition, name, refuse)
    fields = [parse_field(f) for f in ("fp:2", "fp:3", "fp:32003", "q")]
    for q in (a3, d4, D5, E6):
        rng = derive_rng(46, "fieldfree", q.names, q.arrows)
        for _ in range(5):
            alpha = tuple(int(x) for x in rng.integers(-4, 5, size=q.n))
            a = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
            b = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
            beta = tuple(int(x) for x in rng.integers(1, 3, size=q.n))
            answers = {
                (
                    generic_decomposition(q, alpha, f, seed=seed),
                    cached_generic_ext(q, a, b, f),
                    d_beta_halfspaces(q, beta, f),
                    is_schur_root(q, beta, f, seed=seed),
                )
                for f in fields
                for seed in (0, 7)
            }
            assert len(answers) == 1, (q.arrows, alpha, a, b)


# the generalized Kronecker quiver with three arrows: wild, two vertices
K3 = Quiver(["1", "2"], [("1", "2")] * 3)
FIELDS = ("fp:2", "fp:3", "fp:32003", "q")


def test_non_dynkin_answers_ignore_field_and_sample_over_gf(
    ex_quiver, gf, monkeypatch
):
    # Schofield's criteria hold in every characteristic, so the generic
    # answers cannot depend on the field; the samples are drawn over GF only
    seen = set()

    def record(name, field_of):
        real = getattr(decomposition, name)

        def wrapped(*args, **kwargs):
            seen.add(field_of(args).name)
            return real(*args, **kwargs)

        monkeypatch.setattr(decomposition, name, wrapped)

    record("random_rep", lambda args: args[2])
    record("generic_ext", lambda args: args[3])
    record("fitting_decompose", lambda args: args[0].field)
    decomposition._sampled_ext.cache_clear()
    decomposition._halfspaces.cache_clear()
    fields = [parse_field(f) for f in FIELDS]
    for q in (ex_quiver, K3):
        rng = derive_rng(47, "fieldfree", q.names, q.arrows)
        for _ in range(5):
            alpha = tuple(int(x) for x in rng.integers(-3, 4, size=q.n))
            a = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
            b = tuple(int(x) for x in rng.integers(0, 3, size=q.n))
            beta = tuple(int(x) for x in rng.integers(1, 3, size=q.n))
            answers = {
                (
                    generic_decomposition(q, alpha, f, seed=seed),
                    cached_generic_ext(q, a, b, f),
                    d_beta_halfspaces(q, beta, f),
                    d_membership(q, alpha, beta, f),
                    is_schur_root(q, beta, f, seed=seed),
                )
                for f in fields
                for seed in (0, 7)
            }
            assert len(answers) == 1, (q.arrows, alpha, a, b, beta)
    assert seen == {gf.name}


def test_example_grid_decomposes_alike_over_every_field(ex_quiver, gf):
    fields = [parse_field(f) for f in FIELDS if f != gf.name]
    for alpha in itertools.product(range(-2, 3), repeat=3):
        if any(alpha):
            want = generic_decomposition(ex_quiver, alpha, gf)
            for f in fields:
                assert generic_decomposition(ex_quiver, alpha, f) == want, (
                    alpha, f.name
                )


A5 = Quiver(list("12345"), [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")])


def _membership_pairs(q, count):
    """Seeded (x, beta) pairs like the support bench's: betas from a small
    box, positive roots and the vectors just past the highest root; x in a
    small box, mostly on the hyperplane <x, beta> = 0."""
    rng = derive_rng(51, "by-parts", q.names, q.arrows)
    roots = positive_roots(q)
    high = max(roots, key=sum)
    past = [tuple(h + (i == v) for i, h in enumerate(high)) for v in range(q.n)]
    betas = [past[int(rng.integers(q.n))], past[int(rng.integers(q.n))]]
    betas += [roots[int(i)] for i in rng.choice(len(roots), 3, replace=False)]
    betas += [
        tuple(int(x) for x in rng.integers(0, 3, size=q.n)) for _ in range(3)
    ]
    pairs = []
    for beta in (b for b in betas if any(b)):
        on_plane = off_plane = 0
        while on_plane < count:
            x = tuple(int(v) for v in rng.integers(-3, 4, size=q.n))
            if euler_form(q, x, beta) == 0:
                on_plane += 1
            elif off_plane >= count // 4:
                continue
            else:
                off_plane += 1
            pairs.append((x, beta))
    return pairs


def test_dynkin_membership_by_parts_equals_the_halfspace_system(
    d4, gf, monkeypatch
):
    cases = []
    for q in (d4, A5, D5, E6):
        systems = {}
        for x, beta in _membership_pairs(q, 24):
            if beta not in systems:
                systems[beta] = d_beta_halfspaces(q, beta, gf)
            cases.append((q, x, beta, systems[beta].contains(x)))
    e6_high = sum(max(positive_roots(E6), key=sum))
    assert any(sum(b) > e6_high for q, _, b, _ in cases if q is E6)
    calls = Counter()

    def count(name):
        real = getattr(decomposition, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(decomposition, name, counted)

    count("d_beta_halfspaces")
    count("subrep_test")
    decomposition._halfspaces.cache_clear()
    fields = [parse_field(f) for f in FIELDS]
    for k, (q, x, beta, want) in enumerate(cases):
        got = d_membership(q, x, beta, fields[k % len(fields)])
        assert got == want, (q.arrows, x, beta)
    assert not calls, calls
    members = sum(want for *_, want in cases)
    assert len(cases) == 960 and 100 < members < len(cases) - 100


def test_membership_refuses_a_zero_beta(ex_quiver, d4, gf):
    for q in (ex_quiver, d4, K3):
        for x in ((0,) * q.n, (1,) + (0,) * (q.n - 1)):
            with pytest.raises(ZeroVectorError, match="nonzero beta"):
                d_membership(q, x, (0,) * q.n, gf)


# Euclidean quivers beside the bundled example: A~2 (a triangle 1 -> 2 -> 3,
# 1 -> 3) and D~4 (four arrows into vertex 5)
A2_TILDE = Quiver(list("123"), [("1", "2"), ("2", "3"), ("1", "3")])
D4_TILDE = Quiver(list("12345"), [(c, "5") for c in "1234"])
KRONECKER = {m: Quiver(["1", "2"], [("1", "2")] * m) for m in (2, 3, 4)}


def _sampled_definition(q, mu, gf, seed):
    """The parts of a random representation of mu, split by Fitting, with
    Galois orbits expanded; resampled on a failed split or expansion."""
    for t in range(5):
        rep = random_rep(q, mu, gf, mix_seed(seed, "oracle-rep", t))
        try:
            summands = fitting_decompose(rep, mix_seed(seed, "oracle-fit", t))
        except SplitFailureError:
            continue
        parts, failure = decomposition._expand_summands(q, summands)
        if failure is None:
            return tuple(parts)
    raise AssertionError(f"no sample of {mu} decomposed")


def _closed_form_mus(q, box):
    """alpha in box^n, nonzero, and the canonical mu of each, kept where mu
    meets only Dynkin or two-vertex support components: every mu on a
    two-vertex quiver, and on the larger (connected, non-Dynkin) ones every
    mu without full support."""
    for alpha in itertools.product(box, repeat=q.n):
        mu = canonical_decomp(q, alpha)[0]
        if any(mu) and (q.n == 2 or not all(mu)):
            yield alpha, mu


def test_closed_forms_match_the_sampled_definition(ex_quiver, gf):
    grids = [
        (KRONECKER[2], range(-4, 8)),
        (KRONECKER[3], range(-4, 8)),
        (KRONECKER[4], range(-4, 6)),
        (ex_quiver, range(-2, 4)),
        (A2_TILDE, range(-2, 4)),
        (D4_TILDE, range(-2, 3)),
    ]
    rng = derive_rng(61, "closed-forms")
    checked = 0
    for q, box in grids:
        by_mu = {}
        for alpha, mu in _closed_form_mus(q, box):
            by_mu.setdefault(mu, []).append(alpha)
        mus = sorted(by_mu)
        if q is D4_TILDE:  # 426 of them; a seeded fifth keeps this quick
            mus = [mus[int(i)] for i in rng.choice(len(mus), 90, replace=False)]
        for mu in mus:
            want = _sampled_definition(q, mu, gf, mix_seed(61, q.arrows, mu))
            for alpha in by_mu[mu]:
                dec = generic_decomposition(q, alpha, gf)
                assert dec.schur_parts == want, (q.arrows, alpha)
            sampled_schur = any(
                end_dim(random_rep(q, mu, gf, mix_seed(62, mu, t))) == 1
                for t in range(3)
            )
            assert is_schur_root(q, mu, gf) == sampled_schur, (q.arrows, mu)
            checked += 1
    assert checked > 400


def test_closed_form_components_never_sample(ex_quiver, gf, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form component sampled a representation")

    for name in ("random_rep", "fitting_decompose"):
        monkeypatch.setattr(decomposition, name, refuse)
    cases = [
        # K2 on 2 => 3 and Dynkin pieces, including two components at once
        (ex_quiver, (0, 10, 18), ((0, 1, 2),) * 6 + ((0, 2, 3),) * 2),
        (ex_quiver, (0, 11, 9), ((0, 5, 4), (0, 6, 5))),
        (ex_quiver, (3, 0, 1), ((0, 0, 1),) + ((1, 0, 0),) * 3),
        (ex_quiver, (2, 2, 0), ((1, 1, 0),) * 2),
        (KRONECKER[3], (40, 100), ((40, 100),)),
        (KRONECKER[3], (13, 40), ((0, 1),) + ((1, 3),) * 13),
        (KRONECKER[3], (21, 8), ((21, 8),)),  # a preinjective real root
        (KRONECKER[3], (22, 8), ((3, 1),) * 2 + ((8, 3),) * 2),
        (KRONECKER[2], (7, 7), ((1, 1),) * 7),
        (KRONECKER[4], (-1, 0), ((0, 1),) * 4),  # (0, 4) - dim P(1)
        (D4_TILDE, (1, 1, 1, 0, 2), ((1, 1, 1, 0, 2),)),  # D4's highest root
        (D4_TILDE, (1, 1, 0, 0, 2), ((1, 0, 0, 0, 1), (0, 1, 0, 0, 1))),
        (D4_TILDE, (2, 1, 3, 1, 0), ((0, 0, 1, 0, 0),) * 3
            + ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0)) + ((1, 0, 0, 0, 0),) * 2),
        (A2_TILDE, (0, 2, 3), ((0, 0, 1), (0, 1, 1), (0, 1, 1))),
        (A2_TILDE, (1, 0, 1), ((1, 0, 1),)),
    ]
    for q, alpha, parts in cases:
        assert generic_decomposition(q, alpha, gf).schur_parts == tuple(sorted(parts))
        mu = canonical_decomp(q, alpha)[0]
        if any(mu):
            assert is_schur_root(q, mu, gf) == (len(parts) == 1), (q.arrows, mu)
    # as on Dynkin quivers, more than 2^20 parts are refused, not listed
    for q, alpha in ((KRONECKER[2], (2**21, 2**21)), (KRONECKER[3], (0, 2**21))):
        with pytest.raises(VsiError, match="Schur parts"):
            generic_decomposition(q, alpha, gf)


def test_full_support_on_a_larger_non_dynkin_quiver_still_samples(
    ex_quiver, gf, monkeypatch
):
    calls = Counter()
    for name in ("random_rep", "fitting_decompose"):
        real = getattr(decomposition, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(decomposition, name, counted)
    dec = generic_decomposition(ex_quiver, (1, 2, 2), gf)
    assert dec.schur_parts == ((1, 2, 2),)
    assert calls["random_rep"] >= 1 and calls["fitting_decompose"] >= 1
    calls.clear()
    assert is_schur_root(ex_quiver, (1, 2, 2), gf) and calls["random_rep"] >= 1
