"""Exact linear algebra kernels.

Three coefficient domains, three backends: plain python ints (Euler matrices,
Bareiss determinants), numpy int64 arrays reduced mod a prime (all products fit
in 64 bits for p = 32003 at any inner dimension reachable here), and numpy
object arrays of Fractions for the rational field.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
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


def gf_mat(p: int, rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p


def gf_zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def gf_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def gf_mm(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product mod p.  Entries are below p, so an int64 dot product of length
    k is exact while k*(p-1)^2 < 2^63; longer ones are summed in chunks."""
    k = a.shape[1]
    if k * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    step = (2**63 - 1) // (p - 1) ** 2
    out = gf_zeros(a.shape[0], b.shape[1])
    for s in range(0, k, step):
        out = (out + (a[:, s : s + step] @ b[s : s + step]) % p) % p
    return out


def gf_rref(p: int, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = a.copy() % p
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
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def gf_rank(p: int, a: np.ndarray) -> int:
    return len(gf_rref(p, a)[1])


def gf_kernel(p: int, a: np.ndarray) -> np.ndarray:
    """Columns form a basis of the right null space."""
    _, n = a.shape
    r, pivots = gf_rref(p, a)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    k = np.zeros((n, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        k[fc, j] = 1
        for i, pc in enumerate(pivots):
            k[pc, j] = (-r[i, fc]) % p
    return k


def gf_solve(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a@x = b (free variables zero), or None."""
    m, n = a.shape
    aug = np.concatenate([a % p, b % p], axis=1)
    r, pivots = gf_rref(p, aug)
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x


def gf_column_space(p: int, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced column-echelon basis of the column space, plus its pivot rows."""
    r, pivots = gf_rref(p, a.T)
    return r[: len(pivots)].T.copy(), pivots


def gf_det(p: int, a: np.ndarray) -> int:
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1 % p
    a = a.copy() % p
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = c + int(nz[0])
        if pr != c:
            a[[c, pr]] = a[[pr, c]]
            det = (-det) % p
        piv = int(a[c, c])
        det = det * piv % p
        rows = np.nonzero(a[c + 1 :, c])[0] + c + 1
        if rows.size:
            factors = a[rows, c] * pow(piv, -1, p) % p
            a[rows] = (a[rows] - np.outer(factors, a[c])) % p
    return det


def gf_inv(p: int, a: np.ndarray) -> np.ndarray | None:
    n = a.shape[0]
    r, pivots = gf_rref(p, np.concatenate([a % p, gf_eye(n)], axis=1))
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return None
    return r[:, n:]


def gf_matpow(p: int, a: np.ndarray, e: int) -> np.ndarray:
    result = gf_eye(a.shape[0])
    base = a % p
    while e:
        if e & 1:
            result = gf_mm(p, result, base)
        base = gf_mm(p, base, base)
        e >>= 1
    return result


# ---------------------------------------------------------------- GF(p) polys
# coefficient lists, low degree first, trimmed


def _gf_trim(f: list[int]) -> list[int]:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def gf_poly_add(p: int, f: list[int], g: list[int]) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return _gf_trim(out)


def gf_poly_sub(p: int, f: list[int], g: list[int]) -> list[int]:
    return gf_poly_add(p, f, [(-c) % p for c in g])


def gf_poly_scale(p: int, c: int, f: list[int]) -> list[int]:
    return _gf_trim([c * x % p for x in f])


def gf_poly_mul(p: int, f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _gf_trim(out)


def gf_poly_divmod(p: int, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    f = list(f)
    g = _gf_trim(list(g))
    if g == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, p)
    dq = len(f) - len(g)
    if dq < 0:
        return [0], _gf_trim(f)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = f[k + len(g) - 1] * inv % p
        quo[k] = c
        if c:
            for i, gc in enumerate(g):
                f[k + i] = (f[k + i] - c * gc) % p
    return _gf_trim(quo), _gf_trim(f[: len(g) - 1] or [0])


def gf_poly_gcd(p: int, f: list[int], g: list[int]) -> list[int]:
    f, g = _gf_trim(list(f)), _gf_trim(list(g))
    while g != [0]:
        f, g = g, gf_poly_divmod(p, f, g)[1]
    if f != [0]:
        f = gf_poly_scale(p, pow(f[-1], -1, p), f)
    return f


def gf_poly_powmod(p: int, base: list[int], e: int, mod: list[int]) -> list[int]:
    result = [1]
    base = gf_poly_divmod(p, base, mod)[1]
    while e:
        if e & 1:
            result = gf_poly_divmod(p, gf_poly_mul(p, result, base), mod)[1]
        base = gf_poly_divmod(p, gf_poly_mul(p, base, base), mod)[1]
        e >>= 1
    return result


def gf_poly_eval(p: int, f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def gf_charpoly(p: int, a: np.ndarray) -> list[int]:
    """Characteristic polynomial via Hessenberg reduction, monic, low first."""
    n = a.shape[0]
    if n == 0:
        return [1]
    h = a.copy() % p
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1 :, j])[0]
        if nz.size == 0:
            continue
        pr = j + 1 + int(nz[0])
        if pr != j + 1:
            h[[j + 1, pr]] = h[[pr, j + 1]]
            h[:, [j + 1, pr]] = h[:, [pr, j + 1]]
        inv = pow(int(h[j + 1, j]), -1, p)
        for i in range(j + 2, n):
            f = int(h[i, j]) * inv % p
            if f:
                h[i] = (h[i] - f * h[j + 1]) % p
                h[:, j + 1] = (h[:, j + 1] + f * h[:, i]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        term = gf_poly_mul(p, [(-int(h[k - 1, k - 1])) % p, 1], polys[k - 1])
        prod_sub = 1
        for i in range(k - 1, 0, -1):
            prod_sub = prod_sub * int(h[i, i - 1]) % p
            coef = int(h[i - 1, k - 1]) * prod_sub % p
            if coef:
                term = gf_poly_sub(p, term, gf_poly_scale(p, coef, polys[i - 1]))
        polys.append(term)
    return polys[n]


_BRUTE_ROOT_BOUND = 3000


def gf_poly_roots(p: int, f: list[int], seed: int = 0) -> list[int]:
    """Distinct roots in GF(p), via gcd with x^p-x and equal-degree splitting."""
    f = _gf_trim([c % p for c in f])
    if len(f) == 1:
        return []
    roots: set[int] = set()
    t = 0
    while t < len(f) and f[t] == 0:
        t += 1
    if t:
        roots.add(0)
        f = f[t:]
    if len(f) == 1:
        return sorted(roots)
    if p <= _BRUTE_ROOT_BOUND:
        roots.update(x for x in range(p) if gf_poly_eval(p, f, x) == 0)
        return sorted(roots)
    f = gf_poly_scale(p, pow(f[-1], -1, p), f)
    xp = gf_poly_powmod(p, [0, 1], p, f)
    g = gf_poly_gcd(p, gf_poly_sub(p, xp, [0, 1]), f)
    if len(g) == 1:
        return sorted(roots)
    rng = random.Random(seed ^ 0x9E3779B9)
    stack = [g]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d == 0:
            continue
        if d == 1:
            roots.add((-h[0] * pow(h[1], -1, p)) % p)
            continue
        while True:
            shift = rng.randrange(p)
            w = gf_poly_powmod(p, [shift, 1], (p - 1) // 2, h)
            w = gf_poly_sub(p, w, [1])
            w = gf_poly_gcd(p, w, h)
            if 0 < len(w) - 1 < d:
                stack.append(w)
                stack.append(gf_poly_divmod(p, h, w)[0])
                break
    return sorted(roots)


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
    if a.shape[1] == 0:
        return qq_zeros(a.shape[0], b.shape[1])
    return a.dot(b)


def qq_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = a.copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * (Fraction(1) / Fraction(a[r, c]))
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - Fraction(a[i, c]) * a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def qq_rank(a: np.ndarray) -> int:
    return len(qq_rref(a)[1])


def qq_kernel(a: np.ndarray) -> np.ndarray:
    _, n = a.shape
    r, pivots = qq_rref(a)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    k = qq_zeros(n, len(free))
    for j, fc in enumerate(free):
        k[fc, j] = Fraction(1)
        for i, pc in enumerate(pivots):
            k[pc, j] = -Fraction(r[i, fc])
    return k


def qq_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    m, n = a.shape
    aug = np.concatenate([a, b], axis=1)
    r, pivots = qq_rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    x = qq_zeros(n, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x


def qq_column_space(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    r, pivots = qq_rref(a.T)
    return r[: len(pivots)].T.copy(), pivots


def qq_det(a: np.ndarray) -> Fraction:
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


def qq_inv(a: np.ndarray) -> np.ndarray | None:
    n = a.shape[0]
    r, pivots = qq_rref(np.concatenate([a, qq_eye(n)], axis=1))
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return None
    return r[:, n:]


def qq_matpow(a: np.ndarray, e: int) -> np.ndarray:
    result = qq_eye(a.shape[0])
    base = a
    while e:
        if e & 1:
            result = qq_mm(result, base)
        base = qq_mm(base, base)
        e >>= 1
    return result


def qq_charpoly(a: np.ndarray) -> list[Fraction]:
    """Hessenberg characteristic polynomial over the rationals."""
    n = a.shape[0]
    if n == 0:
        return [Fraction(1)]
    h = a.copy()
    for j in range(n - 2):
        pr = next((i for i in range(j + 1, n) if h[i, j] != 0), None)
        if pr is None:
            continue
        if pr != j + 1:
            h[[j + 1, pr]] = h[[pr, j + 1]]
            h[:, [j + 1, pr]] = h[:, [pr, j + 1]]
        for i in range(j + 2, n):
            if h[i, j] != 0:
                f = Fraction(h[i, j]) / Fraction(h[j + 1, j])
                h[i] = h[i] - f * h[j + 1]
                h[:, j + 1] = h[:, j + 1] + f * h[:, i]
    zero, one = Fraction(0), Fraction(1)

    def pmul(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
        out = [zero] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] += x * y
        return out

    polys: list[list[Fraction]] = [[one]]
    for k in range(1, n + 1):
        term = pmul([-Fraction(h[k - 1, k - 1]), one], polys[k - 1])
        prod_sub = one
        for i in range(k - 1, 0, -1):
            prod_sub = prod_sub * Fraction(h[i, i - 1])
            coef = Fraction(h[i - 1, k - 1]) * prod_sub
            if coef:
                contrib = [coef * c for c in polys[i - 1]]
                for idx, c in enumerate(contrib):
                    term[idx] -= c
        polys.append(term)
    return polys[n]


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Distinct rational roots of an exact polynomial (delegated to sympy)."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x**i
        for i, c in enumerate(coeffs)
    )
    if expr == 0:
        return []
    found = sympy.roots(sympy.Poly(expr, x), filter="Q")
    return sorted(Fraction(int(r.p), int(r.q)) for r in found)


def gf_poly_factors(p: int, f: list[int]) -> list[tuple[list[int], int]]:
    """Distinct monic irreducible factors of f over GF(p) with multiplicities
    (delegated to sympy), each as an ascending coefficient list, sorted."""
    import sympy

    f = _gf_trim([c % p for c in f])
    if len(f) == 1:
        return []
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        list(reversed(f)), x, domain=sympy.GF(p, symmetric=False)
    )
    out = []
    for fac, mult in poly.factor_list()[1]:
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        if len(coeffs) == 1:
            continue
        inv = pow(coeffs[-1], -1, p)
        out.append(([c * inv % p for c in coeffs], int(mult)))
    return sorted(out)


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
