"""Exact kernels: elimination, products, determinants, polynomials.

Plain python ints serve Euler matrices and Bareiss determinants.  A field is
given by its characteristic `char`: char = p > 0 means numpy int64 arrays with
entries reduced mod p (`gf_mm` sums long products in chunks so they stay in
64 bits), and char = 0 means numpy object arrays of Fractions for the
rational field.  Row reduction, the characteristic polynomial and polynomial
product, difference and scaling are written once over `char`; `gf_rref`,
`qq_rref`, `gf_charpoly` and `qq_charpoly` are their entry points.  The
kernels branch on `char` inline: passing reduction and inverse callables
instead made 200 GF(32003) eliminations of 20x28 and 60x64 matrices 17% and
8% slower (2-vCPU Xeon host).  Operations derived from these kernels (rank,
kernel, column space, inverse, matrix power) are written once on
`vsi.fields.Field`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

import numpy as np


# ---------------------------------------------------------------- integers


def int_bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [[int(x) for x in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    A = qq_mat([[Fraction(x) for x in r] for r in rows])
    return len(qq_rref(A)[1])


def leading_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    return [
        int_bareiss_det([r[: k + 1] for r in rows[: k + 1]]) for k in range(len(rows))
    ]


# ---------------------------------------------------------------- GF(p)
# numpy int64 arrays with entries reduced mod p


def gf_mat(p: int, rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p


def gf_zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def gf_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def gf_mm(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product mod p, of matrices or of stacks (..., m, k) @ (..., k, n) with
    broadcast leading axes.  Entries are below p, so an int64 dot product of
    length k is exact while k*(p-1)^2 < 2^63; longer ones are summed in
    chunks."""
    k = a.shape[-1]
    if k * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    step = (2**63 - 1) // (p - 1) ** 2
    out = (a[..., :step] @ b[..., :step, :]) % p
    for s in range(step, k, step):
        out = (out + (a[..., s : s + step] @ b[..., s : s + step, :]) % p) % p
    return out


def gf_det(p: int, a: np.ndarray):
    """Determinant mod p of an (n, n) matrix, as an int, or of every matrix
    of an (..., n, n) stack, as an int64 array of the leading shape.

    One column-by-column elimination serves the whole stack, each matrix
    with its own pivots.  A zero pivot is replaced by adding the first row
    below it with a nonzero entry in its column, which keeps the
    determinant; a matrix with no such row is singular, its determinant is
    marked 0 and it is carried along (its column below the pivot is zero, so
    the update changes nothing).  Entries below the pivots are never read
    again, so they are left as they are."""
    *lead, m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    count = prod(lead)
    a = a.reshape(count, n, n) % p
    det = np.ones(count, dtype=np.int64)
    for c in range(n):
        missing = a[:, c, c] == 0
        if missing.any():
            below = c + (a[:, c:, c] != 0).argmax(axis=1)
            added = a[np.arange(count), below] * missing[:, None]
            a[:, c] = (a[:, c] + added) % p
        piv = a[:, c, c]
        det = det * piv % p
        if c + 1 < n:
            inv = np.array([pow(x, -1, p) if x else 0 for x in piv.tolist()])
            factors = a[:, c + 1 :, c, None] * inv[:, None, None] % p
            rest = a[:, c + 1 :, c + 1 :] - factors * a[:, None, c, c + 1 :]
            a[:, c + 1 :, c + 1 :] = rest % p
    if not lead:
        return int(det[0])
    return det.reshape(lead)


def gf_matpow(p: int, a: np.ndarray, e: int) -> np.ndarray:
    """a^e mod p by squaring; the Frobenius matrix of polynomial factoring
    is built from one such power (`Field.matpow` serves representations)."""
    result = gf_eye(a.shape[0])
    base = a % p
    while e:
        if e & 1:
            result = gf_mm(p, result, base)
        base = gf_mm(p, base, base)
        e >>= 1
    return result


# ---------------------------------------------------------------- rationals
# numpy object arrays holding Fractions


def qq_mat(rows) -> np.ndarray:
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = np.empty((m, n), dtype=object)
    for i in range(m):
        for j in range(n):
            a[i, j] = Fraction(rows[i][j])
    return a


def qq_zeros(m: int, n: int) -> np.ndarray:
    return np.full((m, n), Fraction(0), dtype=object)


def qq_eye(n: int) -> np.ndarray:
    a = qq_zeros(n, n)
    for i in range(n):
        a[i, i] = Fraction(1)
    return a


def qq_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of matrices or of stacks, leading axes broadcast as in matmul."""
    if a.shape[-1] == 0:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.full(shape + (a.shape[-2], b.shape[-1]), Fraction(0), dtype=object)
    return a @ b


def qq_det(a: np.ndarray) -> Fraction:
    """Determinant by Bareiss on the rows scaled to integers.

    Unlike row reduction, the determinant keeps one algorithm per field.
    Elimination on Fractions reduces every updated entry by a gcd at every
    step; Bareiss keeps each intermediate an integer minor and divides
    exactly.  On a 2-vCPU Xeon host, for matrices with entries in [-9, 9],
    Fraction elimination took 0.008 s at n = 20 and 0.084 s at n = 40, and
    Bareiss 0.002 s and 0.011 s.  GF(p) entries stay below p, so `gf_det`
    eliminates mod p.
    """
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    denom = 1
    rows = []
    for i in range(n):
        scale = lcm(*(Fraction(a[i, j]).denominator for j in range(n)))
        rows.append([int(Fraction(a[i, j]) * scale) for j in range(n)])
        denom *= scale
    return Fraction(int_bareiss_det(rows), denom)


# ---------------------------------------------------------------- both fields
# Written once over the characteristic char: p for GF(p), 0 for Q.
# Polynomials are coefficient lists, low degree first, trimmed: python
# ints reduced mod p, or Fractions.


def _rref(char: int, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a copy of `a`, and its pivot columns."""
    a = a.copy()  # C order whatever the layout of `a`, since rows are updated
    if char:
        a %= char
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        # the pivot row is zero left of c, so only columns c: change
        if char:
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, char) % char
        else:
            a[r, c:] = a[r, c:] * (Fraction(1) / a[r, c])
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            upd = a[rows, c:] - np.outer(a[rows, c], a[r, c:])
            if char:
                upd %= char
            a[rows, c:] = upd
            del upd  # not alive while the next pivot's update is built
        pivots.append(c)
        r += 1
    return a, pivots


def gf_rref(p: int, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    return _rref(p, a)


def qq_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    return _rref(0, a)


def _trim(f: list) -> list:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_sub(char: int, f: list, g: list) -> list:
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % char if char else out[i] - c
    return _trim(out)


def poly_scale(char: int, c, f: list) -> list:
    return _trim([c * x % char for x in f] if char else [c * x for x in f])


def poly_mul(char: int, f: list, g: list) -> list:
    out = [0 if char else Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([c % char for c in out] if char else out)


def _charpoly(char: int, a: np.ndarray) -> list:
    """Characteristic polynomial via Hessenberg reduction, monic, low first."""
    n = a.shape[0]
    one = 1 if char else Fraction(1)
    if n == 0:
        return [one]
    h = a.copy()
    if char:
        h %= char
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1 :, j])[0]
        if nz.size == 0:
            continue
        pr = j + 1 + int(nz[0])
        if pr != j + 1:
            h[[j + 1, pr]] = h[[pr, j + 1]]
            h[:, [j + 1, pr]] = h[:, [pr, j + 1]]
        piv = h[j + 1, j]
        inv = pow(int(piv), -1, char) if char else Fraction(1) / piv
        for i in range(j + 2, n):
            f = int(h[i, j]) * inv % char if char else h[i, j] * inv
            if f:
                # the column update reads row i, so row i is stored first
                row = h[i] - f * h[j + 1]
                h[i] = row % char if char else row
                col = h[:, j + 1] + f * h[:, i]
                h[:, j + 1] = col % char if char else col
    h = h.tolist()  # python ints or Fractions
    polys = [[one]]
    for k in range(1, n + 1):
        term = poly_mul(char, [-h[k - 1][k - 1], one], polys[k - 1])
        prod_sub = one
        for i in range(k - 1, 0, -1):
            prod_sub = prod_sub * h[i][i - 1]
            coef = h[i - 1][k - 1] * prod_sub
            if char:
                prod_sub, coef = prod_sub % char, coef % char
            if coef:
                term = poly_sub(char, term, poly_scale(char, coef, polys[i - 1]))
        polys.append(term)
    return polys[n]


def gf_charpoly(p: int, a: np.ndarray) -> list[int]:
    return _charpoly(p, a)


def qq_charpoly(a: np.ndarray) -> list[Fraction]:
    return _charpoly(0, a)


# ---------------------------------------------------------------- GF(p) polys


def gf_poly_divmod(p: int, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    f = list(f)
    g = _trim(list(g))
    if g == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, p)
    dq = len(f) - len(g)
    if dq < 0:
        return [0], _trim(f)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        # entries are reduced only when read, as leading coefficients or at the end
        c = f[k + len(g) - 1] % p * inv % p
        quo[k] = c
        if c:
            for i, gc in enumerate(g):
                f[k + i] -= c * gc
    return _trim(quo), _trim([c % p for c in f[: len(g) - 1]] or [0])


def gf_poly_gcd(p: int, f: list[int], g: list[int]) -> list[int]:
    f, g = _trim(list(f)), _trim(list(g))
    while g != [0]:
        f, g = g, gf_poly_divmod(p, f, g)[1]
    if f != [0]:
        f = poly_scale(p, pow(f[-1], -1, p), f)
    return f


# ------------------------------------------------------ GF(p) factoring
# Squarefree, distinct-degree and equal-degree (Cantor-Zassenhaus) splitting,
# as in von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14.


def _gf_quo(p: int, f: list[int], g: list[int]) -> list[int]:
    return gf_poly_divmod(p, f, g)[0]


def _gf_squarefree(p: int, f: list[int]) -> list[tuple[list[int], int]]:
    """Pairs (g, m) with f = prod g^m, each g monic, squarefree and coprime
    to the others, for a monic nonconstant f."""
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    if df == [0]:
        # every exponent is a multiple of p: f is the p-th power of f[::p]
        return [(g, m * p) for g, m in _gf_squarefree(p, f[::p])]
    out = []
    c = gf_poly_gcd(p, f, df)
    w = _gf_quo(p, f, c)
    i = 1
    while len(w) > 1:
        y = gf_poly_gcd(p, w, c)
        z = _gf_quo(p, w, y)
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        c = _gf_quo(p, c, y)
    if len(c) > 1:
        out += [(g, m * p) for g, m in _gf_squarefree(p, c[::p])]
    return out


def _gf_companion(p: int, h: list[int]) -> np.ndarray:
    """Matrix of multiplication by x on GF(p)[x]/(h), monic h of degree n,
    in the basis 1, x, ..., x^(n-1)."""
    n = len(h) - 1
    comp = gf_zeros(n, n)
    comp[1:, :-1] = gf_eye(n - 1)
    comp[:, -1] = [(-c) % p for c in h[:-1]]
    return comp


def _gf_krylov(p: int, op: np.ndarray, f: list[int]) -> np.ndarray:
    """Columns f, op f, op^2 f, ..., for f a coefficient list."""
    n = op.shape[0]
    col = gf_zeros(n, 1)
    col[: len(f), 0] = f
    out = gf_zeros(n, n)
    for j in range(n):
        out[:, j] = col[:, 0]
        col = gf_mm(p, op, col)
    return out


def _gf_frobenius(p: int, h: list[int]) -> np.ndarray:
    """Matrix of a -> a^p on GF(p)[x]/(h): column j is x^(pj) mod h, built
    from the p-th power of the companion matrix (multiplication by x^p)."""
    return _gf_krylov(p, gf_matpow(p, _gf_companion(p, h), p), [1])


def _gf_distinct_degree(p: int, h: list[int]) -> list[tuple[list[int], int]]:
    """Pairs (g, d): g is the product of the degree-d irreducible factors of
    the monic squarefree h, found as gcd(h, x^(p^d) - x)."""
    n = len(h) - 1
    if n == 1:
        return [(h, 1)]
    frob = _gf_frobenius(p, h)
    xpow = gf_zeros(n, 1)  # x^(p^d) mod h, starting at d = 0
    xpow[1, 0] = 1
    out = []
    rest = h
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        xpow = gf_mm(p, frob, xpow)
        diff = [int(c) for c in xpow[:, 0]]
        diff[1] = (diff[1] - 1) % p
        g = gf_poly_gcd(p, rest, _trim(diff))
        if len(g) > 1:
            out.append((g, d))
            rest = _gf_quo(p, rest, g)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _gf_equal_degree(
    p: int, h: list[int], d: int, rng: random.Random
) -> list[list[int]]:
    """The monic irreducible factors of h, a product of distinct degree-d
    ones (Cantor-Zassenhaus; the trace map a + a^2 + ... + a^(2^(d-1))
    replaces the power a^((p^d-1)/2) when p = 2)."""
    n = len(h) - 1
    if n == d:
        return [h]
    if p == 2:
        frob = _gf_frobenius(p, h)
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if p == 2:
            # t = a + a^2 + ... + a^(2^(d-1)) by Horner in the Frobenius matrix
            col = gf_zeros(n, 1)
            col[: len(a), 0] = a
            t = col
            for _ in range(d - 1):
                t = (col + gf_mm(p, frob, t)) % p
            t = _trim([int(c) for c in t[:, 0]])
        else:
            # a^e mod h is the first column of the e-th power of the
            # multiplication-by-a matrix
            mult = _gf_krylov(p, _gf_companion(p, h), a)
            power = gf_matpow(p, mult, (p**d - 1) // 2)
            t = poly_sub(p, _trim([int(c) for c in power[:, 0]]), [1])
        g = gf_poly_gcd(p, h, t)
        if 1 < len(g) < len(h):
            break
    return _gf_equal_degree(p, g, d, rng) + _gf_equal_degree(
        p, _gf_quo(p, h, g), d, rng
    )


def gf_poly_factors(p: int, f: list[int]) -> list[tuple[list[int], int]]:
    """Distinct monic irreducible factors of f over GF(p) with multiplicities,
    each as an ascending coefficient list, sorted.  The equal-degree step
    draws from a generator seeded by f, so the work done is a function of f."""
    f = _trim([int(c) % p for c in f])
    if len(f) == 1:
        return []
    f = poly_scale(p, pow(f[-1], -1, p), f)
    rng = random.Random(repr((p, f)))
    out = []
    for g, mult in _gf_squarefree(p, f):
        for h, d in _gf_distinct_degree(p, g):
            out += [(fac, mult) for fac in _gf_equal_degree(p, h, d, rng)]
    return sorted(out)


# ---------------------------------------------------------------- Q factoring


def qq_poly_factors(
    coeffs: Sequence[Fraction],
) -> list[tuple[list[Fraction], int]]:
    """Distinct monic irreducible factors over the rationals with
    multiplicities (delegated to sympy), ascending coefficients, sorted."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x**i
        for i, c in enumerate(coeffs)
    )
    if expr == 0:
        return []
    out = []
    for fac, mult in sympy.Poly(expr, x, domain="QQ").factor_list()[1]:
        fr = [
            Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())
        ]
        if len(fr) == 1:
            continue
        lead = fr[-1]
        out.append(([c / lead for c in fr], int(mult)))
    return sorted(out)
