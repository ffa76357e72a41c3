"""Coefficient fields with a uniform exact-matrix interface.

Two backends: a prime field GF(p) on numpy int64 arrays and the rationals on
numpy object arrays of Fractions.  Everything downstream (representations,
presentations, complexes) talks to a Field instance and never touches the
backend directly, so determinants, kernels and characteristic polynomials stay
exact in both cases.  Most operations differ between the backends only in
whether results are reduced mod p, so `Field` writes them once over the
characteristic, as `vsi.linalg` does its kernels.
"""

from __future__ import annotations

import hashlib
import itertools
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
    """Operations written once over the per-field primitives.

    `char` is p for GF(p), whose matrices hold entries in [0, p), and 0 for
    Q.  The scalar and elementwise matrix operations are derived here from
    `canon` and `_reduce`; rank, kernel, column space, inverse and matrix
    power from `rref` and `mm`.  Subclasses supply only what differs: scalar
    inverse and power, parsing, flat random draws, `zeros`/`eye`/`mm`, and the
    dispatch of `rref`, `det`, `charpoly` and `poly_factors` to the named
    kernels of `vsi.linalg`.
    """

    name: str
    char: int

    def _reduce(self, a: np.ndarray) -> np.ndarray:
        """`a` with canonical entries: reduced mod p, or as it is over Q."""
        return a % self.char if self.char else a

    # scalars
    def s_add(self, a, b):
        return self.canon(a + b)

    def s_neg(self, a):
        return self.canon(-a)

    def s_mul(self, a, b):
        return self.canon(a * b)

    def s_eq(self, a, b) -> bool:
        return self.canon(a) == self.canon(b)

    def elem_to_str(self, a) -> str:
        return str(self.canon(a))

    # matrices
    def is_zero(self, a: np.ndarray) -> bool:
        return not np.count_nonzero(self._reduce(a))

    def eq(self, a: np.ndarray, b: np.ndarray) -> bool:
        return np.array_equal(self._reduce(a), self._reduce(b))

    def add(self, a, b):
        return self._reduce(a + b)

    def sub(self, a, b):
        return self._reduce(a - b)

    def neg(self, a):
        return self._reduce(-a)

    def smul(self, c, a):
        return self._reduce(self.canon(c) * a)

    def kron(self, a, b):
        """np.kron over the last two axes, as one broadcast product; leading
        (stack) axes broadcast as in matmul."""
        (m, n), (k, l) = a.shape[-2:], b.shape[-2:]
        out = a[..., :, None, :, None] * b[..., None, :, None, :]
        return self._reduce(out.reshape(out.shape[:-4] + (m * k, n * l)))

    def transpose(self, a):
        return a.T.copy()

    def trace(self, a: np.ndarray):
        if a.shape[0] == 0:
            return self.zero
        return self.canon(np.trace(a))

    def poly_mul(self, f, g):
        return linalg.poly_mul(self.char, f, g)

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

    def rank(self, a: np.ndarray) -> int:
        return len(self.rref(a)[1])

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Columns form a basis of the right null space."""
        n = a.shape[1]
        r, pivots = self.rref(a)
        pivset = set(pivots)
        free = [c for c in range(n) if c not in pivset]
        k = self.zeros(n, len(free))
        k[free, range(len(free))] = self.one
        k[pivots] = self.neg(r[: len(pivots)][:, free])
        return k

    def column_space(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced column-echelon basis of the column space, plus its pivot rows."""
        r, pivots = self.rref(a.T)
        return r[: len(pivots)].T.copy(), pivots

    def inv(self, a: np.ndarray) -> np.ndarray | None:
        n = a.shape[0]
        r, pivots = self.rref(np.concatenate([a, self.eye(n)], axis=1))
        if pivots[:n] != list(range(n)):
            return None
        return r[:, n:]

    def matpow(self, a: np.ndarray, e: int) -> np.ndarray:
        result = self.eye(a.shape[0])
        while e:
            if e & 1:
                result = self.mm(result, a)
            a = self.mm(a, a)
            e >>= 1
        return result

    def rand_mats(self, rng: np.random.Generator, shapes) -> list[np.ndarray]:
        """Uniform random matrices of the given (m, n) shapes from one draw.

        PCG64 keeps its spare 32-bit half-word in the generator state, so the
        values equal those of one draw per shape, in order.
        """
        sizes = [m * n for m, n in shapes]
        flat = self._draw(rng, sum(sizes))
        ends = itertools.accumulate(sizes)
        return [
            flat[end - size : end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)
        ]

    def rand_invertible(self, rng: np.random.Generator, n: int) -> np.ndarray:
        while True:
            (a,) = self.rand_mats(rng, [(n, n)])
            if self.det(a) != 0:
                return a

    def __repr__(self) -> str:
        return self.name


# Entries below 2^31 keep every product of two in int64; gf_mm chunks sums.
_PRIME_LIMIT = 2**31

# Miller-Rabin with these bases is exact below 3,215,031,751, the least strong
# pseudoprime to all four (Jaeschke 1993), which covers every p < 2^31.
_MILLER_RABIN_BASES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 3,215,031,751."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _PRIME_LIMIT:
            raise ParseError(f"field size {p} is too large: primes must be below 2^31")
        if not _is_prime(p):
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

    def s_inv(self, a):
        return pow(int(a), -1, self.p)

    def s_pow(self, a, e: int):
        return pow(int(a), e, self.p)

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

    def rref(self, a):
        return linalg.gf_rref(self.p, a)

    def det(self, a):
        return linalg.gf_det(self.p, a)

    def charpoly(self, a):
        return linalg.gf_charpoly(self.p, a)

    def poly_factors(self, f):
        return linalg.gf_poly_factors(self.p, f)

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(0, self.p, size=size, dtype=np.int64)


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

    def s_inv(self, a):
        return Fraction(1) / Fraction(a)

    def s_pow(self, a, e: int):
        return Fraction(a) ** e

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

    def rref(self, a):
        return linalg.qq_rref(a)

    def det(self, a):
        """qq_det of a matrix, or an object array of qq_det per matrix of an
        (..., n, n) stack."""
        if a.ndim == 2:
            return linalg.qq_det(a)
        out = np.empty(a.shape[:-2], dtype=object)
        for i in np.ndindex(out.shape):
            out[i] = linalg.qq_det(a[i])
        return out

    def charpoly(self, a):
        return linalg.qq_charpoly(a)

    def poly_factors(self, f):
        return linalg.qq_poly_factors(f)

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raw = rng.integers(-_RAND_INT_BOUND, _RAND_INT_BOUND + 1, size=size)
        return np.array([Fraction(x) for x in raw.tolist()], dtype=object)


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
