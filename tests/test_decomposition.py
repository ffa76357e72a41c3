from __future__ import annotations

import functools
import itertools
from collections import Counter

import pytest

from vsi import (
    Quiver,
    SplitFailureError,
    VsiError,
    build_complex,
    canonical_decomp,
    ZeroVectorError,
    cached_generic_ext,
    d_beta_halfspaces,
    d_membership,
    derive_rng,
    end_dim,
    euler_data,
    euler_form,
    fitting_decompose,
    generic_decomposition,
    generic_ext,
    is_schur_root,
    locate,
    mix_seed,
    parse_field,
    positive_roots,
    random_rep,
    subrep_test,
    supp_test_randomized,
    tits_form,
    vanishing_certificate,
)
import vsi.reps
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
        ((-1, -1, -2), (0, 1, 2), True, 1),  # a member: nonzero at once
        # <a, b> = 0 but not a member, certified by T = {3}: nothing drawn
        ((1, -1, -1), (0, 1, 2), False, 0),
        # not a member and no closed obstruction: all five trials vanish
        ((2, 1, 2), (1, 2, 2), False, 1),
        ((0, 1, 0), (1, 0, 0), True, 1),  # Hom(phi, V) is 0x0: det 1
    ]
    for a, b, want, calls in cases:
        assert euler_form(ex_quiver, a, b) == 0
        del draws[:], stacks[:]
        assert supp_test_randomized(ex_quiver, a, b, gf, seed=3, trials=5) is want
        assert len(draws) == calls
        assert len(stacks) == calls and all(s[0] == 5 for s in stacks)
    assert stacks[0][1:] == (0, 0)


def _zero_weight_pairs(q, count, seed):
    # seeded pairs (a, b), a in [-3, 3]^n and b in [0, 3]^n, with <a, b> = 0
    rng = derive_rng(seed, "certificate-grid", q.names, q.arrows)
    pairs = []
    while len(pairs) < count:
        a = tuple(int(x) for x in rng.integers(-3, 4, q.n))
        b = tuple(int(x) for x in rng.integers(0, 4, q.n))
        if any(a) and any(b) and euler_form(q, a, b) == 0:
            pairs.append((a, b))
    return pairs


def test_vanishing_certificate_is_sound_on_a_seeded_grid(
    ex_quiver, d4, gf, monkeypatch
):
    # a certified pair is a non-member whose sampled dets all vanish; no
    # member is certified
    flagged = []
    for q in (ex_quiver, K3, A2_TILDE, D4_TILDE, d4, E6):
        for a, b in _zero_weight_pairs(q, 60, seed=17):
            cert = vanishing_certificate(q, a, b)
            if cert is not None:
                assert not d_membership(q, a, b, gf), (q.arrows, a, b, cert)
                flagged.append((q, a, b))
    assert len(flagged) > 60
    monkeypatch.setattr(decomposition, "vanishing_certificate", lambda *args: None)
    for q, a, b in flagged:
        assert not supp_test_randomized(q, a, b, gf, seed=5, trials=8), (a, b)


def test_vanishing_certificate_closes_inside_the_support(a3, gf):
    # on 1 -> 2 -> 3 with b = (1, 0, 1), T = {1} is closed inside supp(b);
    # its closure over the whole quiver, {1, 2, 3}, carries <a, b> = 0
    a, b = (1, 0, -1), (1, 0, 1)
    assert euler_form(a3, a, b) == 0
    assert vanishing_certificate(a3, a, b) == (1, 0, 0)
    assert not supp_test_randomized(a3, a, b, gf)


def test_vanishing_certificate_closes_under_successors(ex_quiver, gf):
    # a copy closed under predecessors instead would flag a member
    def predecessor_closed(q, a, b):
        eta = [sum(a[v] * row[w] for v, row in enumerate(euler_data(q).e))
               for w in range(q.n)]
        support = [v for v in range(q.n) if b[v]]
        for k in range(1, len(support) + 1):
            for t in itertools.combinations(support, k):
                closed = all(
                    s in t for s, h in q.arrows if h in t and s in support
                )
                if closed and sum(eta[v] * b[v] for v in t) > 0:
                    return t
        return None

    a, b = (-3, 1, 0), (0, 1, 2)
    assert euler_form(ex_quiver, a, b) == 0
    assert d_membership(ex_quiver, a, b, gf)
    assert predecessor_closed(ex_quiver, a, b) == (1,)
    assert vanishing_certificate(ex_quiver, a, b) is None
    assert supp_test_randomized(ex_quiver, a, b, gf)


def test_certified_verdict_draws_nothing_for_any_trials(ex_quiver, gf, monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified verdict drew a trial")

    monkeypatch.setattr(decomposition, "derive_rng", refuse)
    assert not supp_test_randomized(
        ex_quiver, (1, -1, -1), (0, 1, 2), gf, trials=10**9
    )


def test_cached_generic_ext_is_deterministic(ex_quiver, gf):
    first = cached_generic_ext(ex_quiver, (0, 1, 2), (1, 0, 0), gf)
    second = cached_generic_ext(ex_quiver, (0, 1, 2), (1, 0, 0), gf)
    assert first == second


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

    for name in ("random_rep", "fitting_decompose"):
        monkeypatch.setattr(vsi.reps, name, refuse)
    monkeypatch.setattr(decomposition, "generic_ext", refuse)
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


E7 = Quiver(
    list("1234567"),
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("3", "7")],
)
E8 = Quiver(
    list("12345678"),
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("6", "7"),
     ("3", "8")],
)


def _orientations(q, count, rng):
    """q and count - 1 seeded re-orientations of its arrows."""
    out = [q]
    for _ in range(count - 1):
        ends = [(q.names[t], q.names[h]) for t, h in q.arrows]
        out.append(Quiver(q.names, [e[::-1] if rng.integers(2) else e for e in ends]))
    return out


def test_generic_decomposition_equals_the_facet_table_on_dynkin_quivers(gf):
    built = functools.cache(lambda q: build_complex(q, gf))
    rng = derive_rng(63, "walk")
    for base in (A5, D5, E6, E7, E8):
        for q in _orientations(base, 4, rng):
            c = built(q)
            for _ in range(100):
                alpha = tuple(int(x) for x in rng.integers(-6, 7, size=q.n))
                want = locate(c, alpha)
                assert generic_decomposition(q, alpha, gf) == want, (q.arrows, alpha)
    # on these two, an entry between the reduced pair pairs with the source
    # root, so it must move ahead of the new roots, not follow them
    e8_alt = Quiver(
        list("12345678"),
        [("1", "2"), ("2", "3"), ("3", "4"), ("5", "4"), ("5", "6"), ("6", "7"),
         ("3", "8")],
    )
    for q, alpha in (
        (E8, (4, -6, 6, -3, -5, -1, -2, 5)),
        (e8_alt, (2, -2, 4, 4, 0, 3, 5, -1)),
    ):
        assert generic_decomposition(q, alpha, gf) == locate(built(q), alpha)


def test_rank_two_rule_with_one_arrow_is_the_facet_table_on_a2(a2):
    table = build_complex(a2, None)
    for x, y in itertools.product(range(13), repeat=2):
        if x or y:
            terms = decomposition._kronecker_parts(1, x, y)
            parts = tuple(sorted(root for root, c in terms for _ in range(c)))
            assert parts == locate(table, (x, y)).schur_parts, (x, y)


# the generalized Kronecker quiver with three arrows: wild, two vertices
K3 = Quiver(["1", "2"], [("1", "2")] * 3)
FIELDS = ("fp:2", "fp:3", "fp:32003", "q")


def test_non_dynkin_answers_ignore_field_and_sample_over_gf(
    ex_quiver, gf, monkeypatch
):
    # Schofield's criteria hold in every characteristic, so the generic
    # answers cannot depend on the field; the samples are drawn over GF only
    seen = set()

    def record(module, name, field_of):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.add(field_of(args).name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    record(vsi.reps, "random_rep", lambda args: args[2])
    record(decomposition, "generic_ext", lambda args: args[3])
    record(vsi.reps, "fitting_decompose", lambda args: args[0].field)
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


def test_membership_and_dynkin_ext_take_each_distinct_part_once(
    a2, gf, monkeypatch
):
    # (n, 0) is n copies of S1 and (0, n) n copies of S2, so each answer needs
    # one Euler form per distinct pair of parts, however large n is
    n = 2000
    assert d_beta_halfspaces(a2, (5, 0), gf).contains((0, 5))
    calls = []
    real = decomposition.euler_form
    monkeypatch.setattr(
        decomposition, "euler_form", lambda *args: calls.append(args) or real(*args)
    )
    assert d_membership(a2, (0, n), (n, 0), gf)
    assert len(calls) <= 4
    calls.clear()
    # ext(S1, S2) = 1 on 1 -> 2, counted once per pair of copies
    assert cached_generic_ext(a2, (n, 0), (0, n), gf) == n * n
    assert len(calls) == 1


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


# a wild quiver with four vertices: a double arrow, then a path
WILD4 = Quiver(list("1234"), [("1", "2"), ("1", "2"), ("2", "3"), ("3", "4")])


def _sampled_schur(q, beta, gf, seed):
    return any(
        end_dim(random_rep(q, beta, gf, mix_seed(seed, "oracle-schur", beta, t))) == 1
        for t in range(3)
    )


def _sampled_definition(q, mu, gf, seed):
    """The parts of a random representation of mu, split by Fitting.

    A summand whose End has dimension d > 1 is an orbit of d conjugate Schur
    summands over a degree-d extension (a base-field sample cannot separate
    the conjugates of a repeated isotropic root) and counts as d copies of
    dim/d, once a sample of dim/d has End = k.  Resampled on a failed split
    or expansion."""
    for t in range(5):
        rep = random_rep(q, mu, gf, mix_seed(seed, "oracle-rep", t))
        try:
            summands = fitting_decompose(rep, mix_seed(seed, "oracle-fit", t))
        except SplitFailureError:
            continue
        parts = []
        for summand, d in summands:
            root = tuple(x // d for x in summand.dim)
            if d > 1 and (
                any(x % d for x in summand.dim) or not _sampled_schur(q, root, gf, seed)
            ):
                break
            parts += [root] * d
        else:
            return tuple(sorted(parts))
    raise AssertionError(f"no sample of {mu} decomposed")


def _mus(q, box):
    """The canonical mu of each nonzero alpha in box^n, with its alphas."""
    by_mu = {}
    for alpha in itertools.product(box, repeat=q.n):
        mu = canonical_decomp(q, alpha)[0]
        if any(mu):
            by_mu.setdefault(mu, []).append(alpha)
    return by_mu


def test_closed_forms_match_the_sampled_definition(ex_quiver, gf):
    # (quiver, box, how many mus without full support and with it to check;
    # None checks all of them, and a number a seeded choice)
    grids = [
        (KRONECKER[2], range(-4, 8), None, None),
        (KRONECKER[3], range(-4, 8), None, None),
        (KRONECKER[4], range(-4, 6), None, None),
        (ex_quiver, range(-2, 4), None, None),
        (A2_TILDE, range(-2, 4), None, 12),
        (D4_TILDE, range(-2, 3), 90, 12),
        (WILD4, range(-1, 4), 30, 12),
    ]
    rng = derive_rng(61, "closed-forms")
    checked = full = 0
    for q, box, partial_count, full_count in grids:
        by_mu = _mus(q, box)
        chosen = []
        for full_support, count in ((False, partial_count), (True, full_count)):
            mus = sorted(mu for mu in by_mu if all(mu) == full_support)
            if count is not None:
                mus = [mus[int(i)] for i in rng.choice(len(mus), count, replace=False)]
            chosen += mus
        for mu in chosen:
            want = _sampled_definition(q, mu, gf, mix_seed(61, q.arrows, mu))
            for alpha in by_mu[mu]:
                dec = generic_decomposition(q, alpha, gf)
                assert dec.schur_parts == want, (q.arrows, alpha)
            sampled_schur = _sampled_schur(q, mu, gf, 62)
            assert is_schur_root(q, mu, gf) == sampled_schur, (q.arrows, mu)
            checked += 1
            full += q.n > 2 and all(mu)
    assert checked > 500 and full == 27 + 3 * 12


def _refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition sampled a representation")

    for name in ("random_rep", "fitting_decompose", "generic_ext"):
        monkeypatch.setattr(vsi.reps, name, refuse)
    monkeypatch.setattr(decomposition, "generic_ext", refuse)


def test_full_support_on_a_larger_non_dynkin_quiver_still_samples(
    ex_quiver, gf, monkeypatch
):
    # the reduction answers (1, 2, 2) without a sample; a sample of it (the
    # definition, drawn here by the test) still has End = k and one summand
    with monkeypatch.context() as m:
        _refuse_sampling(m)
        dec = generic_decomposition(ex_quiver, (1, 2, 2), gf)
        assert dec.schur_parts == ((1, 2, 2),) and dec.gamma == (0, 0, 0)
        assert is_schur_root(ex_quiver, (1, 2, 2), gf)
    rep = random_rep(ex_quiver, (1, 2, 2), gf, mix_seed(0, "full-support"))
    assert [(s.dim, d) for s, d in fitting_decompose(rep, 0)] == [((1, 2, 2), 1)]
    assert _sampled_definition(ex_quiver, (1, 2, 2), gf, 0) == dec.schur_parts
    assert _sampled_schur(ex_quiver, (1, 2, 2), gf, 0)


def test_generic_decomposition_expands_isotropic_multiples(ex_quiver, gf, monkeypatch):
    # a base-field sample of a repeated isotropic root can come out as one
    # summand whose End is a degree-d extension field (a Galois orbit), which
    # stands for d copies; the reduction lists the copies without sampling
    for alpha, root, count in (((3, 3, 3), (1, 1, 1), 3), ((2, 4, 2), (1, 2, 1), 2)):
        with monkeypatch.context() as m:
            _refuse_sampling(m)
            dec = generic_decomposition(ex_quiver, alpha, gf, seed=0)
            assert dec.schur_parts == (root,) * count and dec.gamma == (0, 0, 0)
            for seed in (1, 3):
                assert generic_decomposition(ex_quiver, alpha, gf, seed=seed) == dec
        orbit_met = False
        for seed in range(4):
            rep = random_rep(ex_quiver, alpha, gf, mix_seed(seed, "isotropic", alpha))
            summands = fitting_decompose(rep, mix_seed(seed, "fit", alpha))
            orbit_met |= any(d > 1 for _, d in summands)
            assert _sampled_definition(ex_quiver, alpha, gf, seed) == dec.schur_parts
        assert orbit_met, alpha


def test_full_support_decompositions_never_sample(ex_quiver, gf, monkeypatch):
    # full-support mus on connected non-Dynkin quivers of three or more
    # vertices, isotropic multiples included, with no sample taken
    _refuse_sampling(monkeypatch)
    cases = [
        (ex_quiver, (2, 5, 6), ((2, 5, 6),)),
        (A2_TILDE, (2, 2, 2), ((1, 1, 1),) * 2),
        (A2_TILDE, (2, 1, 3), ((1, 0, 1), (1, 1, 2))),
        (D4_TILDE, (1, 1, 1, 1, 2), ((1, 1, 1, 1, 2),)),
        (D4_TILDE, (2, 2, 2, 2, 4), ((1, 1, 1, 1, 2),) * 2),
        (D4_TILDE, (2, 1, 1, 1, 3), ((2, 1, 1, 1, 3),)),
        (KRONECKER[3], (40, 100), ((40, 100),)),
        (KRONECKER[3], (3, 3), ((3, 3),)),
    ]
    for q, alpha, parts in cases:
        dec = generic_decomposition(q, alpha, gf)
        assert dec.schur_parts == parts and not any(dec.gamma), (q.arrows, alpha)
        assert is_schur_root(q, alpha, gf) == (len(parts) == 1), (q.arrows, alpha)


def test_closed_form_components_never_sample(ex_quiver, gf, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form component sampled a representation")

    for name in ("random_rep", "fitting_decompose"):
        monkeypatch.setattr(vsi.reps, name, refuse)
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
