from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from vsi import (
    GF,
    QQ,
    ParseError,
    derive_rng,
    parse_field,
    prime_field,
)
from vsi.fields import _is_prime


def test_parse_field_variants():
    assert parse_field("q") is QQ
    assert parse_field("QQ") is QQ
    assert parse_field("rationals") is QQ
    assert parse_field("fp") is GF
    assert parse_field("fp:32003") is GF
    assert parse_field("fp:101").p == 101
    assert prime_field(101) is parse_field("fp:101")


def test_parse_field_rejects_bad_specs():
    with pytest.raises(ParseError):
        parse_field("fp:15")
    with pytest.raises(ParseError):
        parse_field("fp:one")
    with pytest.raises(ParseError):
        parse_field("gf8")


def test_prime_field_bounds_primes_below_two_to_the_31():
    assert parse_field("fp:2147483647").p == 2**31 - 1
    with pytest.raises(ParseError, match="too large"):
        parse_field("fp:2147483648")


def test_prime_field_primality_is_exact_miller_rabin():
    # 2047 is a strong pseudoprime to base 2; 561 and 1105 are Carmichael
    for n in (2047, 561, 1105, 1, 0, 32001):
        with pytest.raises(ParseError, match="not prime"):
            prime_field(n)
    assert prime_field(2147483647).p == 2**31 - 1
    assert prime_field(2).p == 2
    trial = [n for n in range(3000) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(3000) if _is_prime(n)] == trial


def test_prime_field_scalar_arithmetic():
    f = prime_field(7)
    assert f.canon(-1) == 6
    assert f.s_mul(3, 5) == 1
    assert f.s_pow(3, -1) == 5
    assert f.s_pow(0, 0) == 1


def test_rationals_scalar_arithmetic():
    assert QQ.canon("3/4") == Fraction(3, 4)
    assert QQ.s_mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.s_pow(Fraction(2), -2) == Fraction(1, 4)


def test_rand_invertible_is_invertible():
    f = prime_field(101)
    rng = derive_rng(4, "inv")
    for n in (1, 2, 5):
        g = f.rand_invertible(rng, n)
        assert f.det(g) != 0


def test_field_equality_and_names():
    assert prime_field(101) == prime_field(101)
    assert prime_field(101) != prime_field(103)
    assert GF.name == "fp:32003"
    assert QQ.name == "q"
    assert GF != QQ


def _entry(field, x):
    # a field element computed without the Field API
    return int(x) % field.char if field.char else Fraction(x)


def _entries(field, a):
    return [[_entry(field, x) for x in row] for row in a.tolist()]


@pytest.mark.parametrize("field", [prime_field(7), GF, QQ], ids=lambda f: f.name)
def test_elementwise_ops_match_entrywise_references(field):
    rng = derive_rng(5, "elementwise", field.name)
    shapes = [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (3, 2)]
    for (m, n), (k, l) in zip(shapes, shapes[::-1] + shapes):
        a, b, c = field.rand_mats(rng, [(m, n), (m, n), (k, l)])
        total = field.add(a, b)
        assert total.shape == (m, n)
        assert _entries(field, total) == [
            [_entry(field, x + y) for x, y in zip(r, s)]
            for r, s in zip(a.tolist(), b.tolist())
        ]
        scalars = (0, 3, -1, field.char + 2) + (() if field.char else (Fraction(2, 3),))
        for scalar in scalars:
            assert _entries(field, field.smul(scalar, a)) == [
                [_entry(field, _entry(field, scalar) * x) for x in r]
                for r in a.tolist()
            ]
        prod = field.kron(a, c)
        assert prod.shape == (m * k, n * l)
        assert _entries(field, prod) == [
            [_entry(field, a[i // k, j // l] * c[i % k, j % l])
             for j in range(n * l)]
            for i in range(m * k)
        ]
        if not field.char:
            assert all(type(x) is Fraction for x in prod.flat)
        assert field.eq(a, a.copy()) and field.eq(total, field.add(b, a))
        if m != n:
            assert not field.eq(a, field.zeros(n, m))
        assert field.is_zero(field.zeros(m, n))
        assert field.is_zero(field.sub(a, a))
        if m and n:
            bumped = a.copy()
            bumped[0, 0] = field.canon(bumped[0, 0] + 1)
            assert not field.eq(a, bumped)
            assert not field.is_zero(field.sub(bumped, a))
    if field.char:
        # entries are compared as field elements, not as stored integers
        p = field.char
        assert field.is_zero(np.array([[p, 2 * p]], dtype=np.int64))
        assert field.eq(np.array([[1, p - 1]], dtype=np.int64),
                        np.array([[p + 1, -1]], dtype=np.int64))
