from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from vsi import GF, QQ
from vsi.linalg import (
    gf_charpoly,
    gf_det,
    gf_eye,
    gf_mat,
    gf_mm,
    gf_poly_divmod,
    gf_poly_factors,
    gf_poly_gcd,
    gf_rref,
    int_bareiss_det,
    int_rank,
    leading_minors,
    poly_mul,
    qq_charpoly,
    qq_det,
    qq_mat,
    qq_poly_factors,
    qq_rref,
)

P = 32003
FIELDS = pytest.mark.parametrize("field", [GF, QQ], ids=lambda f: f.name)


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
        assert GF.rank(a) == len(pivots)
        for k, j in enumerate(pivots):
            col = r[:, j]
            assert col[k] == 1 and int(np.count_nonzero(col)) == 1


def _rref_full_rows(p, a):
    # the textbook elimination that updates whole rows at every pivot
    a = a.copy() % p
    pivots, r = [], 0
    for c in range(a.shape[1]):
        nz = [i for i in range(r, a.shape[0]) if a[i, c]]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] = (a[i] - int(a[i, c]) * a[r]) % p
        pivots.append(c)
        r += 1
        if r == a.shape[0]:
            break
    return a, pivots


@pytest.mark.parametrize("p", [2, 3, P, 2**31 - 1])
def test_gf_rref_matches_whole_row_elimination(p):
    # gf_rref updates only the columns right of each pivot
    rng = np.random.default_rng(p % 1000)
    for _ in range(30):
        m, n = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        a = rng.integers(0, p, size=(m, n))
        a[:, rng.random(n) < 0.3] = 0
        if m > 2:
            a[-1] = (a[0] + a[1]) % p
        r, pivots = gf_rref(p, a)
        ref, ref_pivots = _rref_full_rows(p, a)
        assert pivots == ref_pivots
        assert r.tolist() == ref.tolist()


def _qq_rref_full_rows(a):
    # the textbook elimination over Q that updates whole rows at every pivot
    a = a.copy()
    pivots, r = [], 0
    for c in range(a.shape[1]):
        nz = [i for i in range(r, a.shape[0]) if a[i, c] != 0]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        a[r] = a[r] * (Fraction(1) / a[r, c])
        for i in range(a.shape[0]):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
        if r == a.shape[0]:
            break
    return a, pivots


def test_qq_rref_matches_whole_row_elimination():
    rng = random.Random(13)
    shapes = [(0, 0), (0, 4), (3, 0)]
    shapes += [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(40)]
    for m, n in shapes:
        rows = [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
            for _ in range(m)
        ]
        for j in range(n):
            if rng.random() < 0.3:
                for row in rows:
                    row[j] = Fraction(0)
        if m > 2:
            rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
        a = qq_mat(rows) if m else QQ.zeros(0, n)
        r, pivots = qq_rref(a)
        ref, ref_pivots = _qq_rref_full_rows(a)
        assert r.shape == (m, n)
        assert pivots == ref_pivots
        assert r.tolist() == ref.tolist()
        assert all(type(x) is Fraction for x in r.flat)


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


@FIELDS
def test_kernel_vectors_annihilate_and_span(field):
    a = field.mat_of(3, 3, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert field.rank(a) == 2
    k = field.kernel(a)
    assert k.shape == (3, 1) and field.is_zero(field.mm(a, k))
    rng = np.random.default_rng(6)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        # zeroing about a third of the entries gives rank-deficient cases too
        raw = rng.integers(0, P, size=(m, n)) * rng.integers(0, 3, size=(m, n)).clip(0, 1)
        a = field.mat_of(m, n, raw.tolist())
        k = field.kernel(a)
        assert k.shape == (n, n - field.rank(a))
        if k.shape[1]:
            assert field.is_zero(field.mm(a, k))
            assert field.rank(k) == k.shape[1]


@FIELDS
def test_inverse_column_space_and_matpow(field):
    assert field.inv(field.eye(0)).shape == (0, 0)
    assert field.inv(field.mat_of(2, 2, [[1, 2], [2, 4]])) is None
    rng = np.random.default_rng(12)
    for n in range(1, 5):
        a = field.rand_invertible(rng, n)
        assert field.eq(field.mm(a, field.inv(a)), field.eye(n))
        power = field.eye(n)
        for e in range(5):
            assert field.eq(field.matpow(a, e), power)
            power = field.mm(power, a)
    # columns (1,2,0) and (0,0,1) span the column space of this rank-2 matrix
    a = field.mat_of(3, 3, [[1, 2, 0], [2, 4, 0], [0, 0, 5]])
    basis, pivots = field.column_space(a)
    assert pivots == [0, 2]
    assert field.eq(basis, field.mat_of(3, 2, [[1, 0], [2, 0], [0, 1]]))


def test_gf_det_and_inverse_consistency():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        a = gf_mat(P, rng.integers(0, P, size=(n, n)))
        d = GF.det(a)
        inv = GF.inv(a)
        if d == 0:
            assert inv is None
        else:
            assert (gf_mm(P, a, inv) == gf_eye(n)).all()
            # det matches the Leibniz oracle reduced mod P
            oracle = _permanent_style_det(a.tolist())
            assert d == int(oracle) % P


def _singular_stack(rng, p, t, n):
    """A seeded (t, n, n) stack over GF(p) with singular slices mixed in: a
    zero first column (slice 0), a repeated row (slice 2, for n > 1), a
    product of rank below n mod p (slice 4), and zero-heavy odd slices that
    need row additions to find their pivots."""
    stack = rng.integers(0, p, size=(t, n, n))
    stack[1::2] *= rng.integers(0, 2, size=(len(stack[1::2]), n, n))
    if n:
        stack[0, :, 0] = 0
        stack[2, -1] = stack[2, 0]
        left = rng.integers(0, p, size=(n, n - 1))
        stack[4] = gf_mm(p, left, rng.integers(0, p, size=(n - 1, n)))
    return stack


@pytest.mark.parametrize("p", [P, 2**31 - 1])
def test_stacked_gf_det_equals_the_matrix_det_slice_by_slice(p):
    rng = np.random.default_rng(11)
    for n in range(13):
        stack = _singular_stack(rng, p, 7, n)
        dets = gf_det(p, stack)
        assert dets.shape == (7,) and dets.dtype == np.int64
        for a, d in zip(stack, dets):
            one = gf_det(p, a)
            assert type(one) is int and one == d
            assert d == int_bareiss_det(a.tolist()) % p
        if n:
            assert dets[0] == dets[4] == 0
        if n > 1:
            assert dets[2] == 0
        # any leading shape, and a stack of no matrices
        assert (gf_det(p, stack.reshape(7, 1, n, n)) == dets[:, None]).all()
    assert gf_det(p, np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)


def test_stacked_qq_det_equals_qq_det_slice_by_slice():
    rng = np.random.default_rng(12)
    for n in range(7):
        # rows scaled by -1/2, 1/3, ...: singular slices stay singular
        stack = [
            [[Fraction(int(x) * (-1) ** i, 1 + i % 3) for x in row]
             for i, row in enumerate(a)]
            for a in _singular_stack(rng, 19, 5, n)
        ]
        mats = [qq_mat(rows) if n else QQ.zeros(0, 0) for rows in stack]
        dets = QQ.det(np.stack(mats))
        assert dets.shape == (5,) and dets.dtype == object
        for a, d in zip(mats, dets):
            assert type(d) is Fraction and d == qq_det(a)
        if n:
            assert dets[0] == 0
        if n > 1:
            assert dets[2] == 0


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
        back = poly_mul(P, quo, g)
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


def test_gf_poly_gcd_extracts_shared_factor():
    # (x - 3)(x - 17)(x - 12345) expanded mod P
    f = [1]
    for r in (3, 17, 12345):
        f = poly_mul(P, f, [(-r) % P, 1])
    g = poly_mul(P, [(-3) % P, 1], [5, 1])
    h = gf_poly_gcd(P, f, g)
    assert h == [(-3) % P, 1]


def test_qq_det_and_inv_with_fractions():
    a = qq_mat([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    assert QQ.det(a) == Fraction(1, 3)
    inv = QQ.inv(a)
    prod = QQ.mm(a, inv)
    assert [x for x in prod.flat] == [1, 0, 0, 1]
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(1, 5)
        rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)] for _ in range(n)]
        assert QQ.det(qq_mat(rows)) == _permanent_style_det(rows)


def test_qq_charpoly_on_companion_style_matrix():
    a = qq_mat([[0, -6], [1, 5]])
    # char poly x^2 - 5x + 6
    assert qq_charpoly(a) == [Fraction(6), Fraction(-5), Fraction(1)]


@pytest.mark.parametrize("p", [2, 3, P, 2**31 - 1])
def test_qq_charpoly_reduces_to_gf_charpoly(p):
    # an integer matrix has an integer characteristic polynomial, and
    # reducing its coefficients mod p commutes with taking it
    rng = np.random.default_rng(p % 997)
    for _ in range(30):
        n = int(rng.integers(0, 7))
        a = rng.integers(-9, 10, size=(n, n))
        a[:, rng.random(n) < 0.2] = 0
        coeffs = qq_charpoly(qq_mat(a.tolist()) if n else QQ.zeros(0, 0))
        assert all(type(c) is Fraction and c.denominator == 1 for c in coeffs)
        assert [int(c) % p for c in coeffs] == gf_charpoly(p, a % p)


def test_qq_charpoly_satisfies_cayley_hamilton():
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randrange(1, 6)
        a = qq_mat(
            [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(n)]
        )
        coeffs = qq_charpoly(a)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        acc, power = QQ.zeros(n, n), QQ.eye(n)
        for c in coeffs:
            acc = acc + c * power
            power = QQ.mm(power, a)
        assert all(x == 0 for x in acc.flat)
        assert coeffs[0] == (-1) ** n * QQ.det(a)


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
            prod = poly_mul(P, prod, fac)
    assert prod == f
    assert gf_poly_factors(P, [7]) == []


def _sympy_gf_factors(p, f):
    # the oracle: sympy's factorization, in gf_poly_factors' output format
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(f)), x, domain=sympy.GF(p, symmetric=False))
    out = []
    for fac, mult in poly.factor_list()[1]:
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out.append(([c * inv % p for c in coeffs], int(mult)))
    return sorted(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, P, 2**31 - 1])
def test_gf_poly_factors_match_sympy(p):
    rng = random.Random(p)
    cases = []
    for _ in range(8):
        # products of random factors, some repeated, of degree up to 40
        f = [rng.randrange(1, p)]
        target = rng.randrange(1, 41)
        while len(f) - 1 < target:
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 7))] + [1]
            mult = rng.choice([1, 1, 2, 3])
            if len(f) - 1 + mult * (len(g) - 1) > 40:
                break
            for _ in range(mult):
                f = poly_mul(p, f, g)
        cases.append(f)
    if p < 10:
        # p-th powers, where the derivative vanishes: g(x)^p = g(x^p), times
        # a factor with multiplicity p + 1
        g = [rng.randrange(1, p) for _ in range(4)] + [1]
        gp = [0] * (4 * p + 1)
        gp[::p] = g
        cases.append(gp)
        h = [1, 1]
        for _ in range(p + 1):
            gp = poly_mul(p, gp, h)
        cases.append(gp)
    cases.append([0, 0, 0, 1])  # x^3
    for f in cases:
        f = [c % p for c in f]
        while f[-1] == 0:
            f.pop()
        assert gf_poly_factors(p, f) == _sympy_gf_factors(p, f), f


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
