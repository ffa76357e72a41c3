"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed changes by a third or more
over tens of seconds, and process CPU time changes with it (the slowdown is
contention for the core, not time stolen from the process).  Raw times from
two runs minutes apart are then mostly a measure of the neighbours.  So the
worker interleaves short slices of this kernel with the timed operations, and
run.py scales every time of a pass by (REFERENCE_S / s) ** EXPONENT, where s
is the median slice time of the pass: times are reported at the host speed at
which one slice takes REFERENCE_S.

The kernel's time swings more than vsi's: fitted over about 200 passes of the
four workloads on a shared 2-vCPU Xeon VM, log(pass time) moved by 0.6 to 1.0
(mostly about 0.7) of log(slice time), and the spread of same-plan passes
left after scaling was least for exponents of 0.7 to 0.8.  A faster vsi still
shows in full: the exponent applies to the host's speed, not to the program's.

The kernel does the kinds of work vsi's hot paths do, in fixed amounts and
without vsi: row reduction of small int64 matrices mod p in numpy, dense
polynomial factoring mod p in sympy's cache-free list arithmetic, Fraction row
reduction, and tuple and dict work over small integer vectors.  It never
changes, so a faster vsi shows in full.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

P = 32003
# Seconds one slice takes at the reference speed; it sets the scale of the
# reported times only, not their ratios.
REFERENCE_S = 0.008
# How strongly a pass's times follow the slice time (see above).
EXPONENT = 0.75

_rng = random.Random(20031)
_MATRICES = [np.array([[_rng.randrange(P) for _ in range(16)] for _ in range(12)],
                      dtype=np.int64) for _ in range(8)]
_POLY = [1] + [_rng.randrange(P) for _ in range(9)]
_FRACTIONS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(6)]
              for _ in range(6)]
_VECTORS = [tuple(_rng.randint(-3, 3) for _ in range(6)) for _ in range(60)]


def _gf_rref(a: np.ndarray) -> int:
    a = a.copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if not len(nz):
            continue
        k = r + int(nz[0])
        a[[r, k]] = a[[k, r]]
        a[r] = a[r] * pow(int(a[r, c]), P - 2, P) % P
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if len(rows):
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % P
        r += 1
        if r == m:
            break
    return r


def _qq_rank(rows) -> int:
    a = [list(row) for row in rows]
    rank = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _vector_work() -> int:
    seen: dict[tuple, int] = {}
    for u in _VECTORS:
        for v in _VECTORS[:6]:
            w = tuple(x + y for x, y in zip(u, v))
            seen[w] = seen.get(w, 0) + sum(x * y for x, y in zip(u, w))
    return len(seen)


def kernel() -> int:
    """One slice of fixed work; returns a checksum so nothing is skipped."""
    # imported here so that run.py, which needs only REFERENCE_S, stays light
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    out = sum(_gf_rref(a) for a in _MATRICES)
    out += len(gf_factor(_POLY, P, ZZ)[1])
    out += _qq_rank(_FRACTIONS)
    return out + _vector_work()


def timed_slice() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
