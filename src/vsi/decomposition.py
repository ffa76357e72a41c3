"""Generic decomposition of virtual dimension vectors and D(beta) supports.

Generic answers do not depend on the field, as Schofield's criteria hold in
every characteristic.  The generic decomposition is deterministic on every
acyclic quiver: the canonical pair (mu, gamma) is split off first, and mu is
reduced a pair of roots at a time to the explicit rule on a generalized
Kronecker quiver (Derksen-Weyman; see `_rank_two_reduction`).  Its parts are
Schur roots with no generic ext between any two (Kac), so a Schur test is a
decomposition too.
D(beta) is cut out by one Euler-form equality and one inequality per generic
subrepresentation vector, decided by the ext-vanishing criterion.  Generic
ext is read off the parts on a Dynkin quiver and sampled over `fields.GF`
elsewhere, whatever field is passed.  Membership in D(beta) on a Dynkin
quiver needs no such system: it is read off the parts of the vector's
generic decomposition (see `d_membership`); elsewhere it is tested against
the halfspaces.  The randomized support test first looks for a set of
vertices closed under arrows inside supp(beta) whose subrepresentation
forces a kernel on every Hom(phi, V) (see `vanishing_certificate`); such a
vanishing verdict is exact and draws nothing.  Otherwise it samples over the
caller's field: its trials come from one generator per call and are
evaluated as one stacked elimination (see `supp_test_randomized`).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, VsiError, ZeroVectorError
from .fields import GF, Field, derive_rng, mix_seed
from .presentations import (
    _euler_transpose_apply,
    canonical_decomp,
    hom_stack,
    path_pairs,
    sorted_slots,
)
from .quiver import (
    DimVector,
    Quiver,
    apply_int_matrix,
    check_dim_vector,
    euler_data,
    euler_form,
    is_dynkin,
)
from .reps import check_nonneg, generic_ext


def cached_generic_ext(
    q: Quiver, a: DimVector, b: DimVector, field: Field, trials: int = 3
) -> int:
    """Generic ext(a, b), the same over every `field`: on a Dynkin quiver the sum
    of max(0, -<x, y>) over the generic parts x of a and y of b (Schofield),
    each distinct pair once, weighted by multiplicities; elsewhere generic_ext
    over GF, memoized."""
    a, b = check_nonneg(q, a), check_nonneg(q, b)
    if is_dynkin(q):
        xs, ys = (
            Counter(generic_decomposition(q, v, field).schur_parts).items()
            for v in (a, b)
        )
        return sum(
            m * k * max(0, -euler_form(q, x, y)) for x, m in xs for y, k in ys
        )
    return _sampled_ext(q, a, b, trials)


@functools.lru_cache(maxsize=1 << 12)  # a support bench pass samples 212
def _sampled_ext(q: Quiver, a: DimVector, b: DimVector, trials: int) -> int:
    seed = mix_seed(0, "pairext", q.names, q.arrows, a, b)
    return generic_ext(q, a, b, GF, seed, trials)


@dataclass(frozen=True)
class GenericDecomposition:
    """alpha = sum of schur_parts - (E^t)^{-1} gamma, parts sorted."""

    alpha: DimVector
    schur_parts: tuple[DimVector, ...]
    gamma: DimVector

    def reconstruct(self, q: Quiver) -> DimVector:
        total = [0] * q.n
        for part in self.schur_parts:
            for v in range(q.n):
                total[v] += part[v]
        shift = apply_int_matrix(euler_data(q).et_inv, self.gamma)
        return tuple(total[v] - shift[v] for v in range(q.n))


def generic_decomposition(
    q: Quiver, a, field: Field, seed: int = 0, max_retries: int = 10
) -> GenericDecomposition:
    """Decompose alpha into Schur roots minus a shifted-projective part.

    Deterministic and exact on every acyclic quiver: `field`, `seed` and
    `max_retries` do not change it.  The canonical pair (mu, gamma) is split
    off first, then mu is reduced a pair of roots at a time to the generic
    decomposition on a generalized Kronecker quiver (`_rank_two_reduction`).
    """
    return _decompose(q, check_dim_vector(q, a))


@functools.lru_cache(maxsize=1 << 14)
def _decompose(q: Quiver, a: DimVector) -> GenericDecomposition:
    mu, gamma = canonical_decomp(q, a)
    parts = _rank_two_reduction(q, mu)
    return GenericDecomposition(alpha=a, schur_parts=tuple(sorted(parts)), gamma=gamma)


_MAX_PARTS = 2**20  # as many Schur parts as a Dynkin decomposition lists


def _rank_two_reduction(q: Quiver, mu: DimVector) -> list[DimVector]:
    """The canonical decomposition of mu >= 0 (Derksen-Weyman, Compositio
    Math. 133, 2002).

    A list of (root s, E s, multiplicity) entries starts at the simple roots
    of supp(mu), sinks first, and keeps <s, t> = 0 whenever s comes before
    t.  While some i < j has <s_j, s_i> < 0, the nearest such pair (then the
    first) spans a generalized Kronecker quiver with -<s_j, s_i> arrows, s_j
    at the source; their multiplicities decompose there (`_kronecker_parts`)
    into at most two new roots, listed so that <first, second> = 0 if either
    order allows it.  The new roots replace the pair, after the entries
    between them that must stay ahead and before the others.  At the end an
    imaginary non-isotropic root s with multiplicity c is the one part c s.
    """
    e = euler_data(q).e
    entries = [
        ([int(v == w) for w in range(q.n)], [row[v] for row in e], mu[v])
        for v in reversed(range(q.n))
        if mu[v]
    ]

    def form(t, u):  # <s, s'> = s . E s' for entries (s, ...), (s', E s', ...)
        return sum(x * y for x, y in zip(t[0], u[1]))

    while True:
        pair = next(
            (
                (i, i + gap)
                for gap in range(1, len(entries))
                for i in range(len(entries) - gap)
                if form(entries[i + gap], entries[i]) < 0
            ),
            None,
        )
        if pair is None:
            break
        i, j = pair
        (si, ei, y), (sj, ej, x) = entries[i], entries[j]
        new = [
            (
                [a * u + b * w for u, w in zip(sj, si)],
                [a * u + b * w for u, w in zip(ej, ei)],
                c,
            )
            for (a, b), c in _kronecker_parts(-form(entries[j], entries[i]), x, y)
        ]
        if len(new) == 2 and form(new[0], new[1]) != 0 == form(new[1], new[0]):
            new.reverse()
        # an entry between s_i and s_j with <s_j, t> != 0 cannot follow the
        # new roots, so it goes ahead of them with every entry it must follow
        between = entries[i + 1 : j]
        ahead = [form(entries[j], t) != 0 for t in between]
        for k in reversed(range(len(between))):
            for l in range(k):
                ahead[l] |= ahead[k] and form(between[k], between[l]) != 0
        if any(a and form(t, entries[i]) for a, t in zip(ahead, between)):
            raise InvariantViolationError(f"no orthogonal order of the roots of {mu}")
        entries[i : j + 1] = (
            [t for a, t in zip(ahead, between) if a]
            + new
            + [t for a, t in zip(ahead, between) if not a]
        )
    terms = [
        (s, c) if form((s, es), (s, es)) >= 0 else ([c * x for x in s], 1)
        for s, es, c in entries
    ]
    if sum(c for _, c in terms) > _MAX_PARTS:
        raise VsiError(f"{mu} has more than {_MAX_PARTS} Schur parts")
    return [tuple(s) for s, c in terms for _ in range(c)]


def _kronecker_parts(m: int, x: int, y: int) -> list[tuple[tuple[int, int], int]]:
    """Generic parts of (x, y), not both 0, on the Kronecker quiver with
    m >= 1 arrows, x at the source, as (root, count) terms with count > 0.

    m = 2 and x = y: x copies of the isotropic root (1, 1).  m >= 3 and Tits
    form x^2 + y^2 - mxy < 0: (x, y) itself.  Otherwise a r_k + b r_{k+1} with
    a, b >= 0 for the two consecutive real roots whose cone holds (x, y): if
    y >= x the preprojective ones (0, 1), (1, m), r_{k+1} = m r_k - r_{k-1},
    else their mirror images, the preinjective ones.  det(r_k, r_{k+1}) = -1
    for every k, so a and b are integer Cramer coordinates.
    """
    if x > y:
        return [((s, t), c) for (t, s), c in _kronecker_parts(m, y, x)]
    if m == 2 and x == y:
        return [((1, 1), x)]
    if x * x + y * y - m * x * y < 0:
        return [((x, y), 1)]
    if m == 2:  # r_k = (k, k + 1): start at the pair that holds (x, y)
        k = x // (y - x)
        lo, hi = (k, k + 1), (k + 1, k + 2)
    else:  # the slopes fall geometrically, so few steps
        lo, hi = (0, 1), (1, m)
    while y * hi[0] - x * hi[1] < 0:  # (x, y) lies below hi's ray
        lo, hi = hi, (m * hi[0] - lo[0], m * hi[1] - lo[1])
    terms = [(lo, y * hi[0] - x * hi[1]), (hi, x * lo[1] - y * lo[0])]
    return [(root, c) for root, c in terms if c]


def is_schur_root(
    q: Quiver, a, field: Field, seed: int = 0, trials: int = 3
) -> bool:
    """Whether a >= 0 is a Schur root: its generic decomposition is (a,).
    `field`, `seed` and `trials` do not change it."""
    a = check_nonneg(q, a)
    if all(x == 0 for x in a):
        raise ZeroVectorError("the zero vector is not a root")
    return generic_decomposition(q, a, field).schur_parts == (a,)


def subrep_test(q: Quiver, b_sub, b, field: Field) -> bool:
    """Whether the general representation of b has a subrep of dimension b_sub
    (ext(b_sub, b - b_sub) = 0 generically; `field` does not change it)."""
    b_sub = check_nonneg(q, b_sub)
    b = check_nonneg(q, b)
    if any(s > t for s, t in zip(b_sub, b)):
        return False
    rest = tuple(t - s for s, t in zip(b_sub, b))
    return cached_generic_ext(q, b_sub, rest, field) == 0


@dataclass(frozen=True)
class HalfSpaceSystem:
    """D(beta) as {x : equality . x = 0, ineq . x <= 0 for each inequality}."""

    beta: DimVector
    equality: DimVector
    inequalities: tuple[DimVector, ...]
    subreps: tuple[DimVector, ...]

    def contains(self, a) -> bool:
        if sum(e * x for e, x in zip(self.equality, a)) != 0:
            return False
        return all(
            sum(r * x for r, x in zip(row, a)) <= 0 for row in self.inequalities
        )


def d_beta_halfspaces(q: Quiver, b, field: Field) -> HalfSpaceSystem:
    """Equality E.beta and one inequality E.beta' per subrep vector beta'
    (the same over every `field`, as `cached_generic_ext` is)."""
    b = check_nonneg(q, b)
    if all(x == 0 for x in b):
        raise ZeroVectorError("D(beta) needs a nonzero beta")
    e = euler_data(q).e
    boxes = [range(x + 1) for x in b]
    # 0 and beta itself only repeat the trivial row and the equality
    subreps = tuple(
        bp
        for bp in itertools.product(*boxes)
        if any(bp) and bp != b and subrep_test(q, bp, b, field)
    )
    return HalfSpaceSystem(
        beta=b,
        equality=apply_int_matrix(e, b),
        inequalities=tuple(apply_int_matrix(e, bp) for bp in subreps),
        subreps=subreps,
    )


def d_membership(q: Quiver, a, b, field: Field) -> bool:
    """Whether a lies in D(b); exact, and the same over every `field`.

    On a Dynkin quiver, by parts: C_V on a general presentation of a is
    block-diagonal over the generic parts of a (the Canonical Decomposition
    Theorem), so a is in D(b) iff every shifted part v has b_v = 0 and every
    distinct Schur part p has <p, b> = 0 = ext(p, b).  Elsewhere, an integer
    test against the halfspace system of D(b).
    """
    b = check_nonneg(q, b)
    if all(x == 0 for x in b):
        raise ZeroVectorError("D(beta) needs a nonzero beta")
    a = check_dim_vector(q, a)
    if not is_dynkin(q):
        return _halfspaces(q, b).contains(a)
    dec = generic_decomposition(q, a, field)
    return all(b[v] == 0 for v in range(q.n) if dec.gamma[v]) and all(
        euler_form(q, p, b) == 0 and cached_generic_ext(q, p, b, field) == 0
        for p in dict.fromkeys(dec.schur_parts)
    )


@functools.lru_cache(maxsize=1 << 8)  # off Dynkin; a support bench pass builds 12
def _halfspaces(q: Quiver, b: DimVector) -> HalfSpaceSystem:
    return d_beta_halfspaces(q, b, GF)


@functools.lru_cache(maxsize=1 << 8)
def _closed_sets(q: Quiver, support: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The nonempty T within `support` with no arrow from T into support - T,
    fewest vertices first."""
    heads = {v: {h for t, h in q.arrows if t == v and h in support} for v in support}
    return tuple(
        t
        for k in range(1, len(support) + 1)
        for t in itertools.combinations(support, k)
        if all(heads[v].issubset(t) for v in t)
    )


def vanishing_certificate(q: Quiver, a, b) -> DimVector | None:
    """b|T, the restriction of b to a set T of vertices, proving that C_V
    vanishes on R^min(a) for every V of dimension b over every field; None if
    no such T exists or <a, b> != 0.

    T ranges over the nonempty subsets of supp(b) with no arrow from T into
    supp(b) - T, fewest vertices first, and must have <a, b|T> > 0.  Then
    V_T, the sum of the V_w over T, is a subrepresentation of every V of
    dimension b, as V is 0 off supp(b), and Hom(phi, V) maps
    Hom(P(gamma0), V_T), of dimension sum_T gamma0_w b_w, into
    Hom(P(gamma1), V_T), which is smaller by sum_T (E^t a)_w b_w = <a, b|T>:
    every det Hom(phi, V) is 0 (King, Quart. J. Math. 45, 1994;
    Derksen-Weyman, J. AMS 13, 2000).  Not every vanishing C_V has such a
    T: on the example quiver, (2, 1, 2) against (1, 2, 2) has none.
    """
    a = check_dim_vector(q, a)
    b = check_nonneg(q, b)
    eta = _euler_transpose_apply(q, a)
    if sum(x * y for x, y in zip(eta, b)) != 0:
        return None
    support = tuple(v for v in range(q.n) if b[v])
    for t in _closed_sets(q, support):
        if sum(eta[v] * b[v] for v in t) > 0:
            return tuple(b[v] if v in t else 0 for v in range(q.n))
    return None


# Trials stacked into one elimination: a large `trials` is evaluated a chunk at
# a time, so memory stays at _TRIAL_CHUNK Hom matrices.
_TRIAL_CHUNK = 8


def supp_test_randomized(
    q: Quiver, a, b, field: Field, seed: int = 0, trials: int = 5
) -> bool:
    """Nonvanishing of the semi-invariant C_V on R^min(a) for general V.

    A weight mismatch <a, b> != 0 counts as vanishing, and a = 0 gives the
    empty determinant 1.  A vanishing verdict that `vanishing_certificate`
    proves is returned before any draw, whatever `trials` is.  Otherwise
    `trials` independent uniform pairs (phi, V) are drawn over `field`, and
    the test reports whether any det Hom(phi, V) is nonzero.  The pairs come
    from one generator per call, drawn and evaluated up to _TRIAL_CHUNK at a
    time: one `rand_mats` draw, one `hom_stack` and one stacked `Field.det`
    per chunk, stopping at the first chunk with a nonzero determinant.
    """
    a = check_dim_vector(q, a)
    b = check_nonneg(q, b)
    if trials < 1:
        raise VsiError(f"trials must be >= 1, got {trials}")
    if all(x == 0 for x in b):
        raise ZeroVectorError("support test needs a nonzero beta")
    if all(x == 0 for x in a):
        return True
    if euler_form(q, a, b) != 0:
        return False
    if vanishing_certificate(q, a, b) is not None:
        return False
    eta = _euler_transpose_apply(q, a)
    g0 = tuple(max(x, 0) for x in eta)
    g1 = tuple(max(-x, 0) for x in eta)
    pairs = path_pairs(q)
    shapes = [(g0[u], g1[v]) for u, v, paths in pairs for _ in paths]
    shapes += [(b[h], b[t]) for t, h in q.arrows]
    slots0, slots1 = sorted_slots(q, g0), sorted_slots(q, g1)
    rng = derive_rng(seed, "supp", q.names, q.arrows, a, b, field.name)
    for start in range(0, trials, _TRIAL_CHUNK):
        count = min(_TRIAL_CHUNK, trials - start)
        flat = field.rand_mats(rng, [(count * r, c) for r, c in shapes])
        mats = iter([m.reshape(count, *shape) for m, shape in zip(flat, shapes)])
        blocks = {
            (u, v): tuple(itertools.islice(mats, len(paths)))
            for u, v, paths in pairs
        }
        h = hom_stack(q, field, count, slots0, slots1, blocks, list(mats), b)
        if np.count_nonzero(field.det(h)):
            return True
    return False
