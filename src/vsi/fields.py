"""Coefficient fields with a uniform exact-matrix interface.

Two backends: a prime field GF(p) on numpy int64 arrays and the rationals on
numpy object arrays of Fractions.  Everything downstream (representations,
presentations, complexes) talks to a Field instance and never touches the
backend directly, so determinants, kernels and characteristic polynomials stay
exact in both cases.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import ParseError

DEFAULT_PRIME = 32003

_RAND_INT_BOUND = 10**4


def mix_seed(seed: int, *salts) -> int:
    """Stable 64-bit child seed for (seed, salts); hash-based, not Python hash."""
    tag = repr((int(seed),) + salts).encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def derive_rng(seed: int, *salts) -> np.random.Generator:
    """Deterministic child generator for a seed and a tuple of salt values."""
    return np.random.default_rng(mix_seed(seed, *salts))


class Field:
    """Shared scalar conveniences; matrix work lives in the subclasses."""

    name: str
    char: int

    def s_eq(self, a, b) -> bool:
        return self.s_sub(a, b) == self.zero

    def s_sub(self, a, b):
        return self.s_add(a, self.s_neg(b))

    def s_div(self, a, b):
        return self.s_mul(a, self.s_inv(b))

    def s_pow(self, a, e: int):
        if e < 0:
            return self.s_pow(self.s_inv(a), -e)
        out = self.one
        for _ in range(e):
            out = self.s_mul(out, a)
        return out

    def is_zero(self, a: np.ndarray) -> bool:
        return all(self.s_eq(x, self.zero) for x in a.flat)

    def trace(self, a: np.ndarray):
        if a.shape[0] == 0:
            return self.zero
        return self.canon(np.trace(a))

    def eq(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and self.is_zero(self.sub(a, b))

    def to_lists(self, a: np.ndarray) -> list[list]:
        return [[self.canon(x) for x in row] for row in a]

    def mat_to_str(self, a: np.ndarray) -> list[list[str]]:
        return [[self.elem_to_str(x) for x in row] for row in a]

    def mat_from_str(self, rows: list[list[str]], ncols: int) -> np.ndarray:
        parsed = [[self.elem_from_str(x) for x in row] for row in rows]
        if any(len(row) != ncols for row in parsed):
            raise ParseError("ragged matrix rows")
        return self.mat_of(len(parsed), ncols, parsed)

    def mat_of(self, m: int, n: int, rows) -> np.ndarray:
        a = self.zeros(m, n)
        for i in range(m):
            for j in range(n):
                a[i, j] = self.canon(rows[i][j])
        return a

    def __repr__(self) -> str:
        return self.name


# Entries below 2^31 keep every product of two in int64; gf_mm chunks sums.
_PRIME_LIMIT = 2**31


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _PRIME_LIMIT:
            raise ParseError(f"field size {p} is too large: primes must be below 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ParseError(f"field size {p} is not prime")
        self.p = p
        self.char = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    # scalars
    def canon(self, x) -> int:
        return int(x) % self.p

    def s_add(self, a, b):
        return (int(a) + int(b)) % self.p

    def s_neg(self, a):
        return -int(a) % self.p

    def s_mul(self, a, b):
        return int(a) * int(b) % self.p

    def s_inv(self, a):
        return pow(int(a), -1, self.p)

    def s_pow(self, a, e: int):
        return pow(int(a), e, self.p)

    def elem_to_str(self, a) -> str:
        return str(int(a) % self.p)

    def elem_from_str(self, s: str) -> int:
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise ParseError(f"bad field element {s!r}") from exc

    def rand_elem(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.p))

    # matrices
    def zeros(self, m, n):
        return linalg.gf_zeros(m, n)

    def eye(self, n):
        return linalg.gf_eye(n)

    def mm(self, a, b):
        return linalg.gf_mm(self.p, a, b)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def smul(self, c, a):
        return int(c) % self.p * a % self.p

    def kron(self, a, b):
        return np.kron(a, b) % self.p

    def transpose(self, a):
        return a.T.copy()

    def rref(self, a):
        return linalg.gf_rref(self.p, a)

    def rank(self, a):
        return linalg.gf_rank(self.p, a)

    def kernel(self, a):
        return linalg.gf_kernel(self.p, a)

    def solve(self, a, b):
        return linalg.gf_solve(self.p, a, b)

    def column_space(self, a):
        return linalg.gf_column_space(self.p, a)

    def det(self, a):
        return linalg.gf_det(self.p, a)

    def inv(self, a):
        return linalg.gf_inv(self.p, a)

    def matpow(self, a, e):
        return linalg.gf_matpow(self.p, a, e)

    def charpoly(self, a):
        return linalg.gf_charpoly(self.p, a)

    def poly_mul(self, f, g):
        return linalg.gf_poly_mul(self.p, f, g)

    def poly_roots(self, f, seed: int = 0):
        return linalg.gf_poly_roots(self.p, f, seed)

    def poly_factors(self, f):
        return linalg.gf_poly_factors(self.p, f)

    def rand_mat(self, rng: np.random.Generator, m: int, n: int):
        return rng.integers(0, self.p, size=(m, n), dtype=np.int64)

    def rand_invertible(self, rng: np.random.Generator, n: int):
        while True:
            a = self.rand_mat(rng, n, n)
            if self.det(a) != 0:
                return a


class Rationals(Field):
    def __init__(self):
        self.char = 0
        self.name = "q"
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("q")

    # scalars
    def canon(self, x) -> Fraction:
        return Fraction(x)

    def s_add(self, a, b):
        return Fraction(a) + Fraction(b)

    def s_neg(self, a):
        return -Fraction(a)

    def s_mul(self, a, b):
        return Fraction(a) * Fraction(b)

    def s_inv(self, a):
        return Fraction(1) / Fraction(a)

    def s_pow(self, a, e: int):
        return Fraction(a) ** e

    def elem_to_str(self, a) -> str:
        return str(Fraction(a))

    def elem_from_str(self, s: str) -> Fraction:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad field element {s!r}") from exc

    def rand_elem(self, rng: np.random.Generator) -> Fraction:
        return Fraction(int(rng.integers(-_RAND_INT_BOUND, _RAND_INT_BOUND + 1)))

    # matrices
    def zeros(self, m, n):
        return linalg.qq_zeros(m, n)

    def eye(self, n):
        return linalg.qq_eye(n)

    def mm(self, a, b):
        return linalg.qq_mm(a, b)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def smul(self, c, a):
        return Fraction(c) * a

    def kron(self, a, b):
        if 0 in a.shape or 0 in b.shape:
            return self.zeros(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
        return np.kron(a, b)

    def transpose(self, a):
        return a.T.copy()

    def rref(self, a):
        return linalg.qq_rref(a)

    def rank(self, a):
        return linalg.qq_rank(a)

    def kernel(self, a):
        return linalg.qq_kernel(a)

    def solve(self, a, b):
        return linalg.qq_solve(a, b)

    def column_space(self, a):
        return linalg.qq_column_space(a)

    def det(self, a):
        return linalg.qq_det(a)

    def inv(self, a):
        return linalg.qq_inv(a)

    def matpow(self, a, e):
        return linalg.qq_matpow(a, e)

    def charpoly(self, a):
        return linalg.qq_charpoly(a)

    def poly_mul(self, f, g):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] += x * y
        return out

    def poly_roots(self, f, seed: int = 0):
        return linalg.rational_roots(f)

    def poly_factors(self, f):
        return linalg.qq_poly_factors(f)

    def rand_mat(self, rng: np.random.Generator, m: int, n: int):
        raw = rng.integers(-_RAND_INT_BOUND, _RAND_INT_BOUND + 1, size=(m, n))
        a = self.zeros(m, n)
        for i in range(m):
            for j in range(n):
                a[i, j] = Fraction(int(raw[i, j]))
        return a

    def rand_invertible(self, rng: np.random.Generator, n: int):
        while True:
            a = self.rand_mat(rng, n, n)
            if self.det(a) != 0:
                return a


QQ = Rationals()
GF = PrimeField(DEFAULT_PRIME)

_prime_cache: dict[int, PrimeField] = {DEFAULT_PRIME: GF}


def prime_field(p: int) -> PrimeField:
    if p not in _prime_cache:
        _prime_cache[p] = PrimeField(p)
    return _prime_cache[p]


def parse_field(spec: str) -> Field:
    """Field from a CLI-style tag: "q" for rationals, "fp" or "fp:P" for GF(P)."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if s == "fp":
        return GF
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError as exc:
            raise ParseError(f"bad field spec {spec!r}") from exc
        return prime_field(p)
    raise ParseError(f"unknown field {spec!r} (expected 'q' or 'fp:P')")
