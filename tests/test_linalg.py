from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import numpy as np

from vsi.linalg import (
    gf_charpoly,
    gf_det,
    gf_eye,
    gf_inv,
    gf_kernel,
    gf_mat,
    gf_mm,
    gf_poly_divmod,
    gf_poly_eval,
    gf_poly_factors,
    gf_poly_gcd,
    gf_poly_mul,
    gf_poly_roots,
    gf_rank,
    gf_rref,
    gf_solve,
    int_bareiss_det,
    int_rank,
    leading_minors,
    qq_charpoly,
    qq_det,
    qq_inv,
    qq_kernel,
    qq_mat,
    qq_mm,
    qq_poly_factors,
    qq_rank,
    qq_solve,
    rational_roots,
)

P = 32003


def _permanent_style_det(rows) -> Fraction:
    # Leibniz expansion: independent of every elimination shortcut
    n = len(rows)
    out = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        out += sign * term
    return out


def test_bareiss_det_matches_leibniz_on_random_integer_matrices():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert int_bareiss_det(rows) == _permanent_style_det(rows)


def test_bareiss_det_edge_cases():
    assert int_bareiss_det([]) == 1
    assert int_bareiss_det([[7]]) == 7
    assert int_bareiss_det([[1, 2], [2, 4]]) == 0


def test_leading_minors():
    rows = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert leading_minors(rows) == [2, 3, 4]


def test_int_rank_on_known_matrices():
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0, 3], [0, 1, 4]]) == 2
    assert int_rank([[0, 0], [0, 0]]) == 0


def test_gf_rref_produces_reduced_echelon_and_rank():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = gf_mat(P, rng.integers(0, P, size=(m, n)))
        r, pivots = gf_rref(P, a)
        assert gf_rank(P, a) == len(pivots)
        for k, j in enumerate(pivots):
            col = r[:, j]
            assert col[k] == 1 and int(np.count_nonzero(col)) == 1


def test_gf_mm_exact_for_primes_near_two_to_the_31():
    big = 2**31 - 1  # prime; (p-1)^2 is just under 2^62
    a = gf_mat(big, [[big - 1] * 4])
    b = gf_mat(big, [[big - 1]] * 4)
    assert int(gf_mm(big, a, b)[0, 0]) == 4 * (big - 1) ** 2 % big == 4
    rng = np.random.default_rng(11)
    a = rng.integers(0, big, size=(3, 9))
    b = rng.integers(0, big, size=(9, 2))
    expected = [
        [sum(int(a[i, t]) * int(b[t, j]) for t in range(9)) % big for j in range(2)]
        for i in range(3)
    ]
    assert gf_mm(big, a, b).tolist() == expected


def test_gf_kernel_vectors_annihilate_and_span():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        a = gf_mat(P, rng.integers(0, P, size=(m, n)))
        k = gf_kernel(P, a)
        assert k.shape == (n, n - gf_rank(P, a))
        if k.shape[1]:
            assert not gf_mm(P, a, k).any()
            assert gf_rank(P, k) == k.shape[1]


def test_gf_solve_returns_solution_or_detects_inconsistency():
    a = gf_mat(P, [[1, 2], [2, 4]])
    assert gf_solve(P, a, gf_mat(P, [[1], [3]])) is None
    b = gf_mat(P, [[1], [2]])
    x = gf_solve(P, a, b)
    assert x is not None and (gf_mm(P, a, x) == b).all()


def test_gf_det_and_inverse_consistency():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        a = gf_mat(P, rng.integers(0, P, size=(n, n)))
        d = gf_det(P, a)
        inv = gf_inv(P, a)
        if d == 0:
            assert inv is None
        else:
            assert (gf_mm(P, a, inv) == gf_eye(n)).all()
            # det matches the Leibniz oracle reduced mod P
            oracle = _permanent_style_det(a.tolist())
            assert d == int(oracle) % P


def test_gf_charpoly_satisfies_cayley_hamilton():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = gf_mat(P, rng.integers(0, P, size=(n, n)))
        coeffs = gf_charpoly(P, a)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        acc = gf_mat(P, np.zeros((n, n), dtype=np.int64))
        power = gf_eye(n)
        for c in coeffs:
            acc = (acc + c * power) % P
            power = gf_mm(P, power, a)
        assert not acc.any()
        # constant term is (-1)^n det
        assert coeffs[0] == (gf_det(P, a) * pow(-1, n, P)) % P


def test_gf_poly_arithmetic_round_trips():
    rng = random.Random(9)
    for _ in range(20):
        f = [rng.randrange(P) for _ in range(rng.randrange(1, 6))]
        g = [rng.randrange(P) for _ in range(rng.randrange(1, 5))]
        if not any(g):
            g[0] = 1
        quo, rem = gf_poly_divmod(P, f, g)
        back = gf_poly_mul(P, quo, g)
        total = [0] * max(len(back), len(rem), 1)
        for i, c in enumerate(back):
            total[i] = (total[i] + c) % P
        for i, c in enumerate(rem):
            total[i] = (total[i] + c) % P
        while len(total) > 1 and total[-1] == 0:
            total.pop()
        ftrim = list(f)
        while len(ftrim) > 1 and ftrim[-1] == 0:
            ftrim.pop()
        if not any(ftrim):
            ftrim = [0]
        assert total == ftrim


def test_gf_poly_roots_against_brute_force_small_prime():
    p = 101
    rng = random.Random(10)
    for _ in range(15):
        f = [rng.randrange(p) for _ in range(rng.randrange(2, 6))]
        if not any(f[1:]):
            f.append(1)
        brute = sorted(x for x in range(p) if gf_poly_eval(p, f, x) == 0)
        assert gf_poly_roots(p, f) == brute


def test_gf_poly_roots_large_prime_split_from_known_factors():
    # (x - 3)(x - 17)(x - 12345) expanded mod P
    roots = [3, 17, 12345]
    f = [1]
    for r in roots:
        f = gf_poly_mul(P, f, [(-r) % P, 1])
    assert gf_poly_roots(P, f) == sorted(roots)
    # gcd with a shared factor
    g = gf_poly_mul(P, [(-3) % P, 1], [5, 1])
    h = gf_poly_gcd(P, f, g)
    assert h == [(-3) % P, 1]


def test_qq_rank_kernel_solve_mirror_gf_behaviour():
    a = qq_mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert qq_rank(a) == 2
    k = qq_kernel(a)
    assert k.shape == (3, 1)
    assert not any(x != 0 for x in qq_mm(a, k).flat)
    b = qq_mat([[1], [2], [0]])
    x = qq_solve(a, b)
    assert x is not None
    assert all(lhs == rhs for lhs, rhs in zip(qq_mm(a, x).flat, b.flat))
    assert qq_solve(a, qq_mat([[1], [0], [0]])) is None


def test_qq_det_and_inv_with_fractions():
    a = qq_mat([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    assert qq_det(a) == Fraction(1, 3)
    inv = qq_inv(a)
    prod = qq_mm(a, inv)
    assert [x for x in prod.flat] == [1, 0, 0, 1]
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(1, 5)
        rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)] for _ in range(n)]
        assert qq_det(qq_mat(rows)) == _permanent_style_det(rows)


def test_qq_charpoly_on_companion_style_matrix():
    a = qq_mat([[0, -6], [1, 5]])
    # char poly x^2 - 5x + 6
    assert qq_charpoly(a) == [Fraction(6), Fraction(-5), Fraction(1)]
    assert rational_roots(qq_charpoly(a)) == [Fraction(2), Fraction(3)]


def test_rational_roots_filters_irrational_ones():
    # x^2 - 2 has no rational roots; (2x - 1)(x^2 - 2) has one
    assert rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) == []
    coeffs = [Fraction(2), Fraction(-4), Fraction(-1), Fraction(2)]
    assert rational_roots(coeffs) == [Fraction(1, 2)]


def test_gf_poly_factors_round_trip_and_goldens():
    # (x^2 + 1)(x - 3): the quadratic is irreducible since P % 4 == 3
    f = [(-3) % P, 1, (-3) % P, 1]
    facs = gf_poly_factors(P, f)
    assert facs == [([1, 0, 1], 1), ([(-3) % P, 1], 1)]
    # multiplicities: (x - 1)^2 (x + 1)
    f = [1, (-1) % P, (-1) % P, 1]
    facs = gf_poly_factors(P, f)
    assert facs == [([1, 1], 1), ([(-1) % P, 1], 2)]
    prod = [1]
    for fac, mult in facs:
        for _ in range(mult):
            prod = gf_poly_mul(P, prod, fac)
    assert prod == f
    assert gf_poly_factors(P, [7]) == []


def test_qq_poly_factors_monic_and_content_free():
    # 2x^2 - 2 = 2 (x - 1)(x + 1); content goes away, factors come back monic
    facs = qq_poly_factors([Fraction(-2), Fraction(0), Fraction(2)])
    assert facs == [
        ([Fraction(-1), Fraction(1)], 1),
        ([Fraction(1), Fraction(1)], 1),
    ]
    # x^2 - 2 is irreducible over the rationals
    facs = qq_poly_factors([Fraction(-2), Fraction(0), Fraction(1)])
    assert facs == [([Fraction(-2), Fraction(0), Fraction(1)], 1)]
