from __future__ import annotations

from fractions import Fraction

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
    assert f.s_inv(3) == 5
    assert f.s_pow(3, -1) == 5
    assert f.s_pow(0, 0) == 1


def test_rationals_scalar_arithmetic():
    assert QQ.canon("3/4") == Fraction(3, 4)
    assert QQ.s_mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.s_pow(Fraction(2), -2) == Fraction(1, 4)


def test_matrix_string_round_trip():
    for field in (prime_field(101), QQ):
        m = field.rand_mat(derive_rng(3, "roundtrip"), 3, 2)
        back = field.mat_from_str(field.mat_to_str(m), 2)
        assert field.eq(m, back)


def test_mat_from_str_rejects_ragged_rows():
    with pytest.raises(ParseError):
        QQ.mat_from_str([["1", "2"], ["3"]], 2)


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
