"""Generic decomposition of virtual dimension vectors and D(beta) supports.

The generic decomposition of alpha is computed the way it is defined: split
off the canonical pair (mu, gamma), sample a random representation of mu,
break it into indecomposables, and certify the result (Schur parts, vanishing
generic ext in both orders, support disjointness).  D(beta) is cut out by one
Euler-form equality and one inequality per generic subrepresentation vector,
the latter decided by the ext-vanishing criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DecompositionUnstableError,
    SplitFailureError,
    ZeroVectorError,
)
from .fields import Field, mix_seed
from .presentations import (
    canonical_decomp,
    cv_value,
    minimal_decomp,
    random_presentation,
)
from .quiver import (
    DimVector,
    Quiver,
    apply_int_matrix,
    check_dim_vector,
    euler_data,
    euler_form,
)
from .reps import (
    check_nonneg,
    end_dim,
    fitting_decompose,
    generic_ext,
    random_rep,
)

_ext_cache: dict[tuple, int] = {}


def cached_generic_ext(
    q: Quiver, a: DimVector, b: DimVector, field: Field, trials: int = 3
) -> int:
    """generic_ext with a deterministic derived seed, memoized per (a, b)."""
    key = (q, field.name, a, b, trials)
    if key not in _ext_cache:
        seed = mix_seed(0, "pairext", q.names, q.arrows, a, b)
        _ext_cache[key] = generic_ext(q, a, b, field, seed, trials)
    return _ext_cache[key]


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

    Samples a random representation of the canonical mu, decomposes it, and
    validates the part list; resamples on any validation failure.
    """
    a = check_dim_vector(q, a)
    mu, gamma = canonical_decomp(q, a)
    gamma_support = {v for v in range(q.n) if gamma[v]}
    last_failure = "no samples taken"
    for retry in range(max_retries):
        m = random_rep(q, mu, field, mix_seed(seed, "gd-sample", retry))
        try:
            summands = fitting_decompose(m, mix_seed(seed, "gd-fit", retry))
        except SplitFailureError as exc:
            last_failure = str(exc)
            continue
        parts, failure = _expand_summands(q, field, summands)
        if failure is None:
            failure = _validate_parts(q, field, parts, gamma_support)
        if failure is None:
            return GenericDecomposition(
                alpha=a, schur_parts=tuple(parts), gamma=gamma
            )
        last_failure = failure
    raise DecompositionUnstableError(
        f"validation failed for alpha={a} after {max_retries} samples: "
        f"{last_failure}"
    )


def _expand_summands(q, field, summands):
    """Dimension-vector parts of a summand list, Galois orbits expanded.

    A summand with End = k contributes its dimension vector.  A summand whose
    End has dimension d > 1 must be an orbit of d conjugate Schur summands
    defined over a degree-d extension (the general picture over GF(p) when an
    isotropic Schur root repeats; a base-field sample cannot separate the
    conjugates) and contributes d copies of dim/d.  Anything else is a
    validation failure, reported as the second return value.
    """
    parts: list[DimVector] = []
    for s in summands:
        d = end_dim(s)
        if d == 1:
            parts.append(s.dim)
            continue
        if any(x % d for x in s.dim):
            return None, f"summand {s.dim} has End of dim {d} not dividing it"
        reduced = tuple(x // d for x in s.dim)
        if not is_schur_root(q, reduced, field):
            return None, f"summand {s.dim} does not reduce to a Schur root"
        parts.extend([reduced] * d)
    return sorted(parts), None


def _validate_parts(q, field, parts, gamma_support) -> str | None:
    for part in parts:
        if any(part[v] and v in gamma_support for v in range(q.n)):
            return f"part {part} meets the shifted-projective support"
    for i, j in itertools.combinations(range(len(parts)), 2):
        for x, y in ((parts[i], parts[j]), (parts[j], parts[i])):
            if cached_generic_ext(q, x, y, field) != 0:
                return f"generic ext between parts {x} and {y} is nonzero"
    return None


def is_schur_root(
    q: Quiver, a, field: Field, seed: int = 0, trials: int = 3
) -> bool:
    """True if some sampled representation of a has trivial endomorphisms."""
    a = check_nonneg(q, a)
    if all(x == 0 for x in a):
        raise ZeroVectorError("the zero vector is not a root")
    return any(
        end_dim(random_rep(q, a, field, mix_seed(seed, "schur", t))) == 1
        for t in range(trials)
    )


def subrep_test(q: Quiver, b_sub, b, field: Field) -> bool:
    """Whether the general representation of b has a subrep of dimension b_sub
    (ext-vanishing criterion: ext(b_sub, b - b_sub) = 0 generically)."""
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
    """Equality E.beta and one inequality E.beta' per subrep vector beta'."""
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


_halfspace_cache: dict[tuple, HalfSpaceSystem] = {}


def d_membership(q: Quiver, a, b, field: Field) -> bool:
    """Exact integer test of a against the halfspace system of D(b)."""
    a = check_dim_vector(q, a)
    key = (q, field.name, tuple(int(x) for x in b))
    if key not in _halfspace_cache:
        _halfspace_cache[key] = d_beta_halfspaces(q, b, field)
    return _halfspace_cache[key].contains(a)


def supp_test_randomized(
    q: Quiver, a, b, field: Field, seed: int = 0, trials: int = 5
) -> bool:
    """Nonvanishing of the semi-invariant C_V on R^min(a) for general V.

    Samples (phi, V) pairs and reports whether any determinant is nonzero;
    a weight mismatch <a, b> != 0 counts as vanishing, and a = 0 gives the
    empty determinant 1.
    """
    a = check_dim_vector(q, a)
    b = check_nonneg(q, b)
    if all(x == 0 for x in b):
        raise ZeroVectorError("support test needs a nonzero beta")
    if all(x == 0 for x in a):
        return True
    if euler_form(q, a, b) != 0:
        return False
    dec = minimal_decomp(q, a)
    for t in range(trials):
        phi = random_presentation(dec, field, mix_seed(seed, "supp-phi", t))
        v = random_rep(q, b, field, mix_seed(seed, "supp-v", t))
        if not field.s_eq(cv_value(phi, v), field.zero):
            return True
    return False
