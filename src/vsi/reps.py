"""Concrete quiver representations: Hom/Ext spaces, sampling, Fitting splits.

A representation assigns a matrix of shape dim[head] x dim[tail] to each arrow.
Hom(M, N) is computed as the exact kernel of the commutation system
f_{ha} M_a = N_a f_{ta}; everything generic is realized by sampling over a
large prime field (or the rationals) with deterministic seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooSmallError,
    InvariantViolationError,
    NegativeDimensionError,
    QuiverMismatchError,
    SplitFailureError,
    VsiError,
)
from .fields import Field, derive_rng, mix_seed
from .quiver import DimVector, Quiver, check_dim_vector, euler_form


def check_nonneg(q: Quiver, a) -> DimVector:
    a = check_dim_vector(q, a)
    if any(x < 0 for x in a):
        raise NegativeDimensionError(f"negative entry in dimension vector {a}")
    return a


class Representation:
    """Immutable tuple of per-arrow matrices over an exact field."""

    __slots__ = ("quiver", "field", "dim", "mats")

    def __init__(self, quiver: Quiver, field: Field, dim, mats):
        self.quiver = quiver
        self.field = field
        self.dim = check_nonneg(quiver, dim)
        mats = tuple(mats)
        if len(mats) != len(quiver.arrows):
            raise DimensionMismatchError(
                f"{len(mats)} matrices for {len(quiver.arrows)} arrows"
            )
        for k, (t, h) in enumerate(quiver.arrows):
            if mats[k].shape != (self.dim[h], self.dim[t]):
                raise DimensionMismatchError(
                    f"arrow {k}: matrix shape {mats[k].shape}, "
                    f"expected {(self.dim[h], self.dim[t])}"
                )
        self.mats = mats

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def __repr__(self) -> str:
        return f"Representation(dim={self.dim}, field={self.field.name})"


def _check_pair(m: Representation, n: Representation) -> None:
    if m.quiver != n.quiver:
        raise QuiverMismatchError("representations live on different quivers")
    if m.field != n.field:
        raise FieldMismatchError(f"fields differ: {m.field.name} vs {n.field.name}")


def zero_rep(q: Quiver, field: Field) -> Representation:
    dim = (0,) * q.n
    return Representation(q, field, dim, tuple(field.zeros(0, 0) for _ in q.arrows))


def random_rep(q: Quiver, a, field: Field, seed: int) -> Representation:
    """Entry-wise random representation of dimension vector a, seed-determined."""
    a = check_nonneg(q, a)
    rng = derive_rng(seed, "rep", q.names, q.arrows, a, field.name)
    mats = field.rand_mats(rng, [(a[h], a[t]) for t, h in q.arrows])
    return Representation(q, field, a, mats)


def random_glpoint(q: Quiver, a, field: Field, seed: int) -> list[np.ndarray]:
    """Random per-vertex invertible matrices g_v of sizes a_v."""
    a = check_nonneg(q, a)
    rng = derive_rng(seed, "gl", q.names, a, field.name)
    return [field.rand_invertible(rng, a[v]) for v in range(q.n)]


def conjugate_rep(m: Representation, g: list[np.ndarray]) -> Representation:
    """The base-change action: (g.M)_a = g_{ha} M_a g_{ta}^{-1}."""
    q, f = m.quiver, m.field
    inverses = []
    for v in range(q.n):
        inv = f.inv(g[v])
        if inv is None:
            raise InvariantViolationError(f"singular matrix at vertex {v}")
        inverses.append(inv)
    mats = tuple(
        f.mm(g[h], f.mm(m.mats[k], inverses[t]))
        for k, (t, h) in enumerate(q.arrows)
    )
    return Representation(q, f, m.dim, mats)


def direct_sum(m: Representation, n: Representation) -> Representation:
    _check_pair(m, n)
    q, f = m.quiver, m.field
    dim = tuple(m.dim[v] + n.dim[v] for v in range(q.n))
    mats = []
    for k, (t, h) in enumerate(q.arrows):
        blk = f.zeros(dim[h], dim[t])
        blk[: m.dim[h], : m.dim[t]] = m.mats[k]
        blk[m.dim[h] :, m.dim[t] :] = n.mats[k]
        mats.append(blk)
    return Representation(q, f, dim, tuple(mats))


# ---------------------------------------------------------------- Hom and Ext


@dataclass(frozen=True)
class HomSpace:
    """Basis of Hom(M, N); each element is one matrix f_v per vertex."""

    source: Representation
    target: Representation
    basis: tuple[tuple[np.ndarray, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _hom_system(m: Representation, n: Representation) -> np.ndarray:
    """Commutation constraints on the stacked row-major vectors of (f_v)_v."""
    q, f = m.quiver, m.field
    sizes = [n.dim[v] * m.dim[v] for v in range(q.n)]
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    nrows = sum(n.dim[h] * m.dim[t] for t, h in q.arrows)
    a = f.zeros(nrows, offs[-1])
    r = 0
    for k, (t, h) in enumerate(q.arrows):
        rk = n.dim[h] * m.dim[t]
        if rk:
            if sizes[h]:
                a[r : r + rk, offs[h] : offs[h + 1]] = f.kron(
                    f.eye(n.dim[h]), f.transpose(m.mats[k])
                )
            if sizes[t]:
                a[r : r + rk, offs[t] : offs[t + 1]] = f.neg(
                    f.kron(n.mats[k], f.eye(m.dim[t]))
                )
        r += rk
    return a


def hom_space(m: Representation, n: Representation) -> HomSpace:
    _check_pair(m, n)
    q, f = m.quiver, m.field
    kern = f.kernel(_hom_system(m, n))
    offs = [0]
    for v in range(q.n):
        offs.append(offs[-1] + n.dim[v] * m.dim[v])
    basis = []
    for j in range(kern.shape[1]):
        col = kern[:, j]
        basis.append(
            tuple(
                col[offs[v] : offs[v + 1]].reshape(n.dim[v], m.dim[v]).copy()
                for v in range(q.n)
            )
        )
    return HomSpace(source=m, target=n, basis=tuple(basis))


def hom_dim(m: Representation, n: Representation) -> int:
    _check_pair(m, n)
    a = _hom_system(m, n)
    return a.shape[1] - m.field.rank(a)


def ext_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1 = dim Hom - <dim M, dim N>, exact for path algebras."""
    e = hom_dim(m, n) - euler_form(m.quiver, m.dim, n.dim)
    if e < 0:
        raise InvariantViolationError(f"negative ext dimension {e}")
    return e


def end_dim(m: Representation) -> int:
    return hom_dim(m, m)


# ------------------------------------------------------- generic hom and ext


def generic_hom(
    q: Quiver, a, b, field: Field, seed: int = 0, trials: int = 3
) -> int:
    """Hom dimension of a general pair, as a min over sampled pairs."""
    a = check_nonneg(q, a)
    b = check_nonneg(q, b)
    if trials < 1:
        raise VsiError(f"trials must be >= 1, got {trials}")
    best = None
    for t in range(trials):
        m = random_rep(q, a, field, mix_seed(seed, "gh-left", t))
        n = random_rep(q, b, field, mix_seed(seed, "gh-right", t))
        d = hom_dim(m, n)
        best = d if best is None else min(best, d)
        if best == max(0, euler_form(q, a, b)):
            break
    return best


def generic_ext(
    q: Quiver, a, b, field: Field, seed: int = 0, trials: int = 3
) -> int:
    """Ext dimension of a general pair; hom and ext minimize simultaneously."""
    return generic_hom(q, a, b, field, seed, trials) - euler_form(q, a, b)


# ------------------------------------------------------ Fitting decomposition


def _restrict(
    m: Representation, bases: list[np.ndarray], projs: list[np.ndarray]
) -> Representation:
    """Subrepresentation on per-vertex column bases, given left inverses
    projs[v] of bases[v]; the subspaces must be invariant, which is checked."""
    q, f = m.quiver, m.field
    dim = tuple(bases[v].shape[1] for v in range(q.n))
    mats = []
    for k, (t, h) in enumerate(q.arrows):
        image = f.mm(m.mats[k], bases[t])
        sol = f.mm(projs[h], image)
        if not f.eq(f.mm(bases[h], sol), image):
            raise InvariantViolationError("claimed invariant subspace is not one")
        mats.append(sol)
    return Representation(q, f, dim, tuple(mats))


def _compress(
    s: Representation,
    endos: HomSpace,
    incl: list[np.ndarray],
    projs: list[np.ndarray],
) -> HomSpace:
    """End(s) for a direct summand s of M, from a basis of End(M).

    The compressions projs.phi.incl span End(s) because projs.incl = id.  One
    rref of their stacked vectors, columns reversed, then reversed back, gives
    the basis hom_space(s, s) returns: a kernel basis is the basis of the
    solution space that is reduced on the last possible coordinates.
    """
    q, f = s.quiver, s.field
    e = endos.dimension
    offs = [0]
    for v in range(q.n):
        offs.append(offs[-1] + s.dim[v] ** 2)
    vecs = f.zeros(e, offs[-1])
    for v in range(q.n):
        d, n = s.dim[v], incl[v].shape[0]
        if d:
            # all of End(M) at once: phi_i.incl stacked, then proj applied to
            # them side by side
            right = f.mm(np.concatenate([phi[v] for phi in endos.basis]), incl[v])
            right = right.reshape(e, n, d).transpose(1, 0, 2).reshape(n, e * d)
            both = f.mm(projs[v], right).reshape(d, e, d).transpose(1, 0, 2)
            vecs[:, offs[v] : offs[v + 1]] = both.reshape(e, d * d)
    r, pivots = f.rref(vecs[:, ::-1])
    basis = tuple(
        tuple(
            row[offs[v] : offs[v + 1]].reshape(s.dim[v], s.dim[v]).copy()
            for v in range(q.n)
        )
        for row in r[: len(pivots)][::-1, ::-1]
    )
    return HomSpace(source=s, target=s, basis=basis)


def _split(
    m: Representation,
    endos: HomSpace,
    kers: list[np.ndarray],
    images: list[np.ndarray],
) -> list[tuple[Representation, HomSpace]]:
    """The summands of M = L + R on complementary invariant column bases,
    each with its End compressed from End(M)."""
    f = m.field
    left_projs, right_projs = [], []
    for v in range(m.quiver.n):
        inv = f.inv(np.concatenate([kers[v], images[v]], axis=1))
        if inv is None:
            raise InvariantViolationError("claimed summands are not complementary")
        left_projs.append(inv[: kers[v].shape[1]])
        right_projs.append(inv[kers[v].shape[1] :])
    out = []
    for bases, projs in ((kers, left_projs), (images, right_projs)):
        s = _restrict(m, bases, projs)
        out.append((s, _compress(s, endos, bases, projs)))
    return out


def random_endomorphism(m: Representation, endos: HomSpace, rng) -> list[np.ndarray]:
    """Random combination of an endomorphism basis, as per-vertex matrices."""
    f = m.field
    coeffs = f.mat_of(1, endos.dimension, [[f.rand_elem(rng) for _ in endos.basis]])
    return [
        f.mm(coeffs, np.stack([elem[v].reshape(-1) for elem in endos.basis]))
        .reshape(m.dim[v], m.dim[v])
        for v in range(m.quiver.n)
    ]


def _poly_at_matrix(field: Field, coeffs, a: np.ndarray) -> np.ndarray:
    """Evaluate an ascending-coefficient polynomial at a square matrix."""
    n = a.shape[0]
    acc = field.zeros(n, n)
    eye = field.eye(n)
    for c in reversed(coeffs):
        acc = field.add(field.mm(acc, a), field.smul(c, eye))
    return acc


def _radical_quotient_commutative(field: Field, endos: HomSpace) -> bool:
    """Whether End modulo its radical is commutative, i.e. End has no
    matrix-algebra factor.

    The radical here is that of the trace form tr(xy), which equals the
    Jacobson radical in characteristic 0 and in characteristic p larger than
    the matrix size; x and y commute modulo it iff tr([x, y] z) = 0 for all z.
    """

    def pair_trace(xs, ys):
        t = field.zero
        for x, y in zip(xs, ys):
            t = field.s_add(t, field.trace(field.mm(x, y)))
        return t

    basis = endos.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm = [
                field.sub(field.mm(x, y), field.mm(y, x))
                for x, y in zip(basis[i], basis[j])
            ]
            for z in basis:
                if pair_trace(comm, z) != field.zero:
                    return False
    return True


def fitting_decompose(
    m: Representation, seed: int = 0, max_retries: int = 20
) -> list[tuple[Representation, int]]:
    """Direct summands indecomposable over the base field, each with the
    dimension of its End, via Fitting splits.

    For each irreducible factor g of the characteristic polynomial of a
    random psi in End(M), ker g(psi)^N and im g(psi)^N (N = total dimension)
    are invariant and complementary, so a proper primary component splits M.
    A summand is a leaf when End = k, or when fresh samples keep producing a
    single irreducible factor and End modulo its radical is commutative: End
    is then local, though over GF(p) the residue field may be a proper
    extension (a degree-d factor, End a degree-d field).  That radical test
    needs the characteristic to exceed the total dimension, so a smaller
    prime is refused with FieldTooSmallError when End is not k.  Failure to
    split within max_retries raises SplitFailureError.
    """
    total = m.total_dim
    if total == 0:
        return []
    endos = hom_space(m, m)
    if endos.dimension > 1 and 0 < m.field.char <= total:
        raise FieldTooSmallError(
            f"cannot decompose dim {m.dim} over {m.field.name}: the Fitting "
            f"leaf test needs p = {m.field.char} to exceed the total "
            f"dimension {total}"
        )
    return _fitting(m, endos, seed, max_retries)


def _fitting(
    m: Representation, endos: HomSpace, seed: int, max_retries: int
) -> list[tuple[Representation, int]]:
    if endos.dimension == 1:
        return [(m, 1)]
    q, f = m.quiver, m.field
    total = m.total_dim
    single_factor_streak = 0
    commutative_quotient = None
    for attempt in range(max_retries):
        rng = derive_rng(seed, "fitting", m.dim, attempt)
        psi = random_endomorphism(m, endos, rng)
        chi = [f.one]
        for v in range(q.n):
            if m.dim[v]:
                chi = f.poly_mul(chi, f.charpoly(psi[v]))
        factors = f.poly_factors(chi)
        whole_kernel_factors = 0
        for fac, _mult in factors:
            powers = [
                f.matpow(_poly_at_matrix(f, fac, psi[v]), total)
                for v in range(q.n)
            ]
            kers = [f.kernel(b) for b in powers]
            kdim = sum(k.shape[1] for k in kers)
            if kdim == total:
                whole_kernel_factors += 1
                continue
            if kdim == 0:
                continue
            images = [f.column_space(b)[0] for b in powers]
            (left, left_endos), (right, right_endos) = _split(m, endos, kers, images)
            sub_seed = mix_seed(seed, "split", m.dim, attempt)
            return _fitting(left, left_endos, sub_seed, max_retries) + _fitting(
                right, right_endos, sub_seed + 1, max_retries
            )
        if len(factors) == 1 and whole_kernel_factors == 1:
            # psi generates a field acting on all of M; if fresh samples keep
            # doing that and End has no matrix-algebra factor, End is local
            # and M is indecomposable over the base field (w.h.p.)
            if commutative_quotient is None:
                commutative_quotient = _radical_quotient_commutative(f, endos)
            if commutative_quotient:
                single_factor_streak += 1
                if single_factor_streak >= 3:
                    return [(m, endos.dimension)]
        else:
            single_factor_streak = 0
    raise SplitFailureError(
        f"no splitting endomorphism found for dim {m.dim} in {max_retries} tries"
    )


# ---------------------------------------------------------------- JSON I/O


def rep_to_json(m: Representation) -> str:
    import json

    f = m.field
    return json.dumps(
        {
            "dim": list(m.dim),
            "mats": {str(k): f.mat_to_str(m.mats[k]) for k in range(len(m.mats))},
        }
    )


def rep_from_json(q: Quiver, field: Field, text: str) -> Representation:
    import json

    from .errors import ParseError

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad representation JSON: {exc}") from None
    if not isinstance(data, dict) or "dim" not in data or "mats" not in data:
        raise ParseError("representation JSON needs 'dim' and 'mats'")
    dim = check_nonneg(q, data["dim"])
    mats = []
    for k, (t, h) in enumerate(q.arrows):
        rows = data["mats"].get(str(k))
        if rows is None:
            mats.append(field.zeros(dim[h], dim[t]))
            continue
        if len(rows) != dim[h]:
            raise ParseError(f"arrow {k}: {len(rows)} rows, expected {dim[h]}")
        mats.append(field.mat_from_str(rows, dim[t]))
    return Representation(q, field, dim, tuple(mats))
