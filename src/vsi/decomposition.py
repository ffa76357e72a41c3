"""Generic decomposition of virtual dimension vectors and D(beta) supports.

Generic answers do not depend on the field, as Schofield's criteria hold in
every characteristic.  On a Dynkin quiver they are closed-form, read off the
facet cone of the tilting complex that holds the vector.  Elsewhere the
canonical pair (mu, gamma) is split off first, and mu lives on the full
subquiver on its support, a direct sum of connected components with no ext
between them.  A Dynkin component (a single vertex included) is read off its
own facet cone, and a generalized Kronecker component (two vertices, m >= 2
arrows) follows the explicit rank-2 rule (Schofield; Derksen-Weyman).  Only
what is left, the non-Dynkin components of three or more vertices, is
sampled over `fields.GF`, whatever field is passed: sample a random
representation, break it into indecomposables, and certify the result (Schur
parts, vanishing generic ext both ways, support disjointness).
D(beta) is cut out by one Euler-form equality and one inequality per generic
subrepresentation vector, decided by the ext-vanishing criterion.  Membership
in D(beta) on a Dynkin quiver needs no such system: it is read off the parts
of the vector's generic decomposition (see `d_membership`); elsewhere it is
tested against the halfspaces.  The randomized support test samples over the
caller's field instead: its trials come from one generator per call and are
evaluated as one stacked elimination (see `supp_test_randomized`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionUnstableError,
    InvariantViolationError,
    SplitFailureError,
    VsiError,
    ZeroVectorError,
)
from .fields import GF, Field, derive_rng, mix_seed
from .presentations import (
    canonical_decomp,
    hom_stack,
    minimal_decomp,
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
    tits_form,
)
from .reps import (
    check_nonneg,
    end_dim,
    fitting_decompose,
    generic_ext,
    random_rep,
)


def cached_generic_ext(
    q: Quiver, a: DimVector, b: DimVector, field: Field, trials: int = 3
) -> int:
    """Generic ext(a, b), the same over every `field`: on a Dynkin quiver the sum
    of max(0, -<x, y>) over the generic parts x of a and y of b (Schofield),
    elsewhere generic_ext over GF, memoized."""
    a, b = check_nonneg(q, a), check_nonneg(q, b)
    if is_dynkin(q):
        xs, ys = (generic_decomposition(q, v, field).schur_parts for v in (a, b))
        return sum(max(0, -euler_form(q, x, y)) for x in xs for y in ys)
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

    `field` does not change it.  On a Dynkin quiver this is `walk_locate`.
    Elsewhere each support component of the canonical mu that is Dynkin or
    has two vertices is closed-form (`_closed_form`); the rest of mu is
    sampled over GF, decomposed, and its part list validated, resampling on
    any failure.
    """
    a = check_dim_vector(q, a)
    if is_dynkin(q):
        from .cluster import walk_locate  # cluster imports this module

        return walk_locate(q, a)
    mu, gamma = canonical_decomp(q, a)
    parts: list[DimVector] = []
    rest = [0] * q.n
    for comp in _support_components(q, mu):
        rule = _closed_form(q, comp)
        if rule is None:
            for v in comp:
                rest[v] = mu[v]
        else:
            parts += _component_parts(q, comp, rule, mu)
    if any(rest):
        parts += _sampled_parts(q, tuple(rest), gamma, seed, max_retries)
    return GenericDecomposition(alpha=a, schur_parts=tuple(sorted(parts)), gamma=gamma)


def _sampled_parts(q, mu, gamma, seed, max_retries) -> list[DimVector]:
    gamma_support = {v for v in range(q.n) if gamma[v]}
    failure = "no samples taken"
    for retry in range(max_retries):
        m = random_rep(q, mu, GF, mix_seed(seed, "gd-sample", retry))
        try:
            summands = fitting_decompose(m, mix_seed(seed, "gd-fit", retry))
        except SplitFailureError as exc:
            failure = str(exc)
            continue
        parts, failure = _expand_summands(q, summands)
        failure = failure or _validate_parts(q, parts, gamma_support)
        if failure is None:
            return parts
    raise DecompositionUnstableError(
        f"validation failed for mu={mu} after {max_retries} samples: {failure}"
    )


def _support_components(q: Quiver, a: DimVector) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components of the full subquiver on
    supp(a), each in q's order."""
    left = [v for v in range(q.n) if a[v]]
    comps = []
    while left:
        comp = {left[0]}
        grown = True
        while grown:
            new = {
                h if t in comp else t
                for t, h in q.arrows
                if a[t] and a[h] and (t in comp) != (h in comp)
            }
            grown = bool(new)
            comp |= new
        comps.append(tuple(sorted(comp)))
        left = [v for v in left if v not in comp]
    return comps


@functools.lru_cache(maxsize=1 << 8)
def _closed_form(q: Quiver, comp: tuple[int, ...]):
    """The generic decomposition on the full subquiver of q on the connected
    vertex set `comp`, as a map from a vector listed in comp's order to the
    list of its Schur parts in the same order; None where only sampling
    answers (a non-Dynkin component of three or more vertices).

    Two vertices joined by m >= 2 arrows, which all run from comp[0] to
    comp[1] since q's order is topological, follow `_kronecker_parts`.  A
    Dynkin component is `walk_locate` on the subquiver, which keeps comp's
    order: it is topological, and a quiver breaks ties by input order.
    """
    arrows = [(t, h) for t, h in q.arrows if t in comp and h in comp]
    if len(comp) == 2 and len(arrows) >= 2:
        return lambda x: _kronecker_parts(len(arrows), *x)
    sub = Quiver(
        [q.names[v] for v in comp], [(q.names[t], q.names[h]) for t, h in arrows]
    )
    if not is_dynkin(sub):
        return None
    from .cluster import walk_locate  # cluster imports this module

    return lambda x: list(walk_locate(sub, x).schur_parts)


def _component_parts(q, comp, rule, mu) -> list[DimVector]:
    """The closed-form parts of mu on `comp`, as vectors on q; raises
    InvariantViolationError unless they sum to mu there."""
    x = tuple(mu[v] for v in comp)
    local = rule(x)
    if tuple(map(sum, zip(*local))) != x:
        raise InvariantViolationError(f"closed-form parts {local} do not sum to {x}")
    parts = []
    for part in local:
        full = [0] * q.n
        for v, c in zip(comp, part):
            full[v] = c
        parts.append(tuple(full))
    return parts


_MAX_PARTS = 2**20  # as many Schur parts as a Dynkin decomposition lists


def _kronecker_parts(m: int, x: int, y: int) -> list[tuple[int, int]]:
    """Generic parts of (x, y), not both 0, on the Kronecker quiver with
    m >= 2 arrows, x at the source.

    m = 2 and x = y: x copies of the isotropic root (1, 1).  m >= 3 and Tits
    form x^2 + y^2 - mxy < 0: (x, y) itself.  Otherwise a r_k + b r_{k+1} with
    a, b >= 0 for the two consecutive real roots whose cone holds (x, y): if
    y >= x the preprojective ones (0, 1), (1, m), r_{k+1} = m r_k - r_{k-1},
    else their mirror images, the preinjective ones.  det(r_k, r_{k+1}) = -1
    for every k, so a and b are integer Cramer coordinates.
    """
    if x > y:
        return [(s, t) for t, s in _kronecker_parts(m, y, x)]
    if m == 2 and x == y:
        terms = [((1, 1), x)]
    elif x * x + y * y - m * x * y < 0:
        terms = [((x, y), 1)]
    else:
        if m == 2:  # r_k = (k, k + 1): start at the pair that holds (x, y)
            k = x // (y - x)
            lo, hi = (k, k + 1), (k + 1, k + 2)
        else:  # the slopes fall geometrically, so few steps
            lo, hi = (0, 1), (1, m)
        while y * hi[0] - x * hi[1] < 0:  # (x, y) lies below hi's ray
            lo, hi = hi, (m * hi[0] - lo[0], m * hi[1] - lo[1])
        terms = [(lo, y * hi[0] - x * hi[1]), (hi, x * lo[1] - y * lo[0])]
    if sum(t for _, t in terms) > _MAX_PARTS:
        raise VsiError(f"{(x, y)} has more than {_MAX_PARTS} Schur parts")
    return [root for root, t in terms for _ in range(t)]


def _expand_summands(q, summands):
    """Dimension-vector parts of (summand, End dimension) pairs, Galois
    orbits expanded.

    A summand with End = k contributes its dimension vector.  A summand whose
    End has dimension d > 1 must be an orbit of d conjugate Schur summands
    defined over a degree-d extension (the general picture over GF(p) when an
    isotropic Schur root repeats; a base-field sample cannot separate the
    conjugates) and contributes d copies of dim/d.  Anything else is a
    validation failure, reported as the second return value.
    """
    parts: list[DimVector] = []
    for s, d in summands:
        if d == 1:
            parts.append(s.dim)
            continue
        if any(x % d for x in s.dim):
            return None, f"summand {s.dim} has End of dim {d} not dividing it"
        reduced = tuple(x // d for x in s.dim)
        if not is_schur_root(q, reduced, GF):
            return None, f"summand {s.dim} does not reduce to a Schur root"
        parts.extend([reduced] * d)
    return sorted(parts), None


def _validate_parts(q, parts, gamma_support) -> str | None:
    for part in parts:
        if any(part[v] and v in gamma_support for v in range(q.n)):
            return f"part {part} meets the shifted-projective support"
    for i, j in itertools.combinations(range(len(parts)), 2):
        for x, y in ((parts[i], parts[j]), (parts[j], parts[i])):
            if cached_generic_ext(q, x, y, GF) != 0:
                return f"generic ext between parts {x} and {y} is nonzero"
    return None


def is_schur_root(
    q: Quiver, a, field: Field, seed: int = 0, trials: int = 3
) -> bool:
    """Dynkin: Tits form 1, whatever the seed.  Elsewhere: a disconnected
    support is never Schur; a connected one with a closed form (Dynkin or two
    vertices) is Schur iff it is its own only part; otherwise some sampled
    representation of a over GF (whatever `field` is) has End = k."""
    a = check_nonneg(q, a)
    if all(x == 0 for x in a):
        raise ZeroVectorError("the zero vector is not a root")
    if is_dynkin(q):
        return tits_form(q, a) == 1
    comps = _support_components(q, a)
    if len(comps) > 1:
        return False
    rule = _closed_form(q, comps[0])
    if rule is not None:
        x = tuple(a[v] for v in comps[0])
        return rule(x) == [x]
    return any(
        end_dim(random_rep(q, a, GF, mix_seed(seed, "schur", t))) == 1
        for t in range(trials)
    )


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
    Schur part p has <p, b> = 0 = ext(p, b).  Elsewhere, an integer test
    against the halfspace system of D(b).
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
        for p in dec.schur_parts
    )


@functools.lru_cache(maxsize=1 << 8)  # off Dynkin; a support bench pass builds 12
def _halfspaces(q: Quiver, b: DimVector) -> HalfSpaceSystem:
    return d_beta_halfspaces(q, b, GF)


# Trials stacked into one elimination: a large `trials` is evaluated a chunk at
# a time, so memory stays at _TRIAL_CHUNK Hom matrices.
_TRIAL_CHUNK = 8


def supp_test_randomized(
    q: Quiver, a, b, field: Field, seed: int = 0, trials: int = 5
) -> bool:
    """Nonvanishing of the semi-invariant C_V on R^min(a) for general V.

    Draws `trials` independent uniform pairs (phi, V) over `field` and
    reports whether any det Hom(phi, V) is nonzero; a weight mismatch
    <a, b> != 0 counts as vanishing, and a = 0 gives the empty determinant 1.
    The pairs come from one generator per call, drawn and evaluated up to
    _TRIAL_CHUNK at a time: one `rand_mats` draw, one `hom_stack` and one
    stacked `Field.det` per chunk, stopping at the first chunk with a
    nonzero determinant.
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
    dec = minimal_decomp(q, a)
    g0, g1 = dec.gamma0, dec.gamma1
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
