"""Projective presentations, their determinantal invariants, and stabilization.

A map P(gamma1) -> P(gamma0) is stored as path-coefficient blocks: for each
vertex pair (u, v) and each path p: u -> v, a matrix whose (i, j) entry is the
coefficient of f_p in the component from the j-th P(v) summand to the i-th
P(u) summand (f_p prepends p, so composition is path concatenation).

Summand order matters for determinants: each presentation carries explicit
slot tuples listing the projective summands of both sides.  Fresh objects use
vertex-sorted slots; stabilization appends its new summands at the end, which
is exactly what makes cv_value(stabilize(phi, gamma)) equal cv_value(phi) on
the nose rather than up to sign.

The matrix of Hom(phi, V) is built in one place, `hom_stack`, for a stack
of pairs (phi, V) along a leading trial axis: the randomized support test
evaluates all of its trials as one stack, and `hom_matrix` (behind
`cv_value`) is the stack of one.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NonSquareWeightError,
    QuiverMismatchError,
)
from .fields import Field, derive_rng
from .quiver import (
    DimVector,
    Quiver,
    apply_int_matrix,
    check_dim_vector,
    euler_data,
    euler_form,
)
from .reps import Representation, check_nonneg

Slots = tuple[int, ...]


def sorted_slots(q: Quiver, gamma) -> Slots:
    gamma = check_nonneg(q, gamma)
    out: list[int] = []
    for v in range(q.n):
        out.extend([v] * gamma[v])
    return tuple(out)


def slot_counts(q: Quiver, slots: Slots) -> DimVector:
    counts = [0] * q.n
    for v in slots:
        if not 0 <= v < q.n:
            raise DimensionMismatchError(f"slot vertex {v} out of range")
        counts[v] += 1
    return tuple(counts)


def _euler_transpose_apply(q: Quiver, a) -> DimVector:
    e = euler_data(q).e
    return apply_int_matrix(tuple(zip(*e)), a)


@dataclass(frozen=True)
class ProjDecomp:
    """A pair (gamma0, gamma1) >= 0 with E^t alpha = gamma0 - gamma1."""

    quiver: Quiver
    alpha: DimVector
    gamma0: DimVector
    gamma1: DimVector

    def __post_init__(self):
        check_nonneg(self.quiver, self.gamma0)
        check_nonneg(self.quiver, self.gamma1)
        lhs = _euler_transpose_apply(self.quiver, self.alpha)
        rhs = tuple(a - b for a, b in zip(self.gamma0, self.gamma1))
        if lhs != rhs:
            raise DimensionMismatchError(
                f"E^t{self.alpha} = {lhs} but gamma0 - gamma1 = {rhs}"
            )


def minimal_decomp(q: Quiver, a) -> ProjDecomp:
    """Positive/negative split of E^t a; the unique disjoint-support pair."""
    a = check_dim_vector(q, a)
    eta = _euler_transpose_apply(q, a)
    gamma0 = tuple(max(x, 0) for x in eta)
    gamma1 = tuple(max(-x, 0) for x in eta)
    return ProjDecomp(q, a, gamma0, gamma1)


def canonical_decomp(q: Quiver, a) -> tuple[DimVector, DimVector]:
    """The unique (mu, gamma) >= 0 with disjoint supports and
    a = mu - (E^t)^{-1} gamma.

    Repeatedly clear the minimal negative coordinate v by adding a multiple of
    column v of (E^t)^{-1}; that column is supported on vertices >= v, so each
    vertex is processed at most once.
    """
    a = check_dim_vector(q, a)
    et_inv = euler_data(q).et_inv
    cur = list(a)
    gamma = [0] * q.n
    for _ in range(q.n):
        v = next((i for i in range(q.n) if cur[i] < 0), None)
        if v is None:
            break
        c = -cur[v]
        for r in range(q.n):
            cur[r] += c * et_inv[r][v]
        gamma[v] += c
    if any(x < 0 for x in cur):
        raise AssertionError("canonical decomposition failed to terminate")
    return tuple(cur), tuple(gamma)


def canonical_proj_decomp(q: Quiver, a) -> ProjDecomp:
    """R^can(a): the decomposition (mu, mu - E^t mu + gamma)."""
    a = check_dim_vector(q, a)
    mu, gamma = canonical_decomp(q, a)
    et_mu = _euler_transpose_apply(q, mu)
    gamma1 = tuple(mu[v] - et_mu[v] + gamma[v] for v in range(q.n))
    return ProjDecomp(q, a, mu, gamma1)


@functools.lru_cache(maxsize=64)
def path_pairs(q: Quiver) -> tuple[tuple[int, int, tuple], ...]:
    """(u, v, paths u -> v) for each vertex pair joined by a path, in order."""
    return tuple(
        (u, v, q.paths(u, v))
        for u in range(q.n)
        for v in range(q.n)
        if q.paths(u, v)
    )


class Presentation:
    """An element of R(gamma0, gamma1) with an explicit summand order."""

    __slots__ = ("quiver", "field", "slots0", "slots1", "gamma0", "gamma1", "blocks")

    def __init__(
        self,
        quiver: Quiver,
        field: Field,
        slots0: Slots,
        slots1: Slots,
        blocks: dict[tuple[int, int], tuple] | None = None,
    ):
        self.quiver = quiver
        self.field = field
        self.slots0 = tuple(int(v) for v in slots0)
        self.slots1 = tuple(int(v) for v in slots1)
        self.gamma0 = slot_counts(quiver, self.slots0)
        self.gamma1 = slot_counts(quiver, self.slots1)
        filled: dict[tuple[int, int], tuple] = {}
        for u, v, paths in path_pairs(quiver):
            shape = (self.gamma0[u], self.gamma1[v])
            given = blocks.get((u, v)) if blocks else None
            mats = []
            for i in range(len(paths)):
                mat = None if given is None else given[i]
                if mat is None:
                    mat = field.zeros(*shape)
                elif mat.shape != shape:
                    raise DimensionMismatchError(
                        f"block ({u},{v}) path {i}: shape {mat.shape}, "
                        f"expected {shape}"
                    )
                mats.append(mat)
            filled[(u, v)] = tuple(mats)
        self.blocks = filled

    @property
    def alpha(self) -> DimVector:
        diff = tuple(a - b for a, b in zip(self.gamma0, self.gamma1))
        return apply_int_matrix(euler_data(self.quiver).et_inv, diff)

    @property
    def decomp(self) -> ProjDecomp:
        return ProjDecomp(self.quiver, self.alpha, self.gamma0, self.gamma1)

    def block(self, u: int, v: int, path_idx: int) -> np.ndarray:
        return self.blocks[(u, v)][path_idx]

    def __repr__(self) -> str:
        return (
            f"Presentation(gamma0={self.gamma0}, gamma1={self.gamma1}, "
            f"field={self.field.name})"
        )


def _check_phi_pair(a, b) -> None:
    if a.quiver != b.quiver:
        raise QuiverMismatchError("presentations live on different quivers")
    if a.field != b.field:
        raise FieldMismatchError(f"fields differ: {a.field.name} vs {b.field.name}")


def random_presentation(
    decomp: ProjDecomp,
    field: Field,
    seed: int,
    slots0: Slots | None = None,
    slots1: Slots | None = None,
) -> Presentation:
    """Entry-wise random element of R(gamma0, gamma1), seed-determined."""
    q = decomp.quiver
    if slots0 is None:
        slots0 = sorted_slots(q, decomp.gamma0)
    if slots1 is None:
        slots1 = sorted_slots(q, decomp.gamma1)
    rng = derive_rng(
        seed, "pres", q.names, q.arrows, decomp.gamma0, decomp.gamma1, field.name
    )
    g0, g1 = slot_counts(q, slots0), slot_counts(q, slots1)
    pairs = path_pairs(q)
    mats = iter(field.rand_mats(
        rng, [(g0[u], g1[v]) for u, v, paths in pairs for _ in paths]
    ))
    blocks = {
        (u, v): tuple(itertools.islice(mats, len(paths))) for u, v, paths in pairs
    }
    return Presentation(q, field, slots0, slots1, blocks)


def identity_presentation(
    q: Quiver, field: Field, gamma, slots: Slots | None = None
) -> Presentation:
    gamma = check_nonneg(q, gamma)
    if slots is None:
        slots = sorted_slots(q, gamma)
    blocks = {
        (v, v): (field.eye(gamma[v]),) for v in range(q.n) if q.paths(v, v)
    }
    return Presentation(q, field, slots, slots, blocks)


def random_aut(
    q: Quiver, gamma, field: Field, seed: int, slots: Slots | None = None
) -> Presentation:
    """Random automorphism of P(gamma): invertible constant-path diagonal
    blocks, arbitrary path coefficients elsewhere."""
    gamma = check_nonneg(q, gamma)
    if slots is None:
        slots = sorted_slots(q, gamma)
    rng = derive_rng(seed, "aut", q.names, q.arrows, gamma, field.name)
    blocks: dict[tuple[int, int], tuple] = {}
    for u in range(q.n):
        for v in range(q.n):
            paths = q.paths(u, v)
            if not paths:
                continue
            if u == v:
                blocks[(u, v)] = (field.rand_invertible(rng, gamma[v]),)
            else:
                blocks[(u, v)] = tuple(
                    field.rand_mats(rng, [(gamma[u], gamma[v])] * len(paths))
                )
    return Presentation(q, field, slots, slots, blocks)


def compose(outer: Presentation, inner: Presentation) -> Presentation:
    """outer after inner; coefficients convolve over path concatenation."""
    _check_phi_pair(outer, inner)
    if outer.gamma1 != inner.gamma0:
        raise DimensionMismatchError(
            f"cannot compose: {outer.gamma1} vs {inner.gamma0}"
        )
    q, f = outer.quiver, outer.field
    blocks: dict[tuple[int, int], tuple] = {}
    for (u, v), paths in (
        ((u, v), q.paths(u, v)) for u in range(q.n) for v in range(q.n)
    ):
        if not paths:
            continue
        mats = []
        for path in paths:
            acc = f.zeros(outer.gamma0[u], inner.gamma1[v])
            for cut in range(len(path) + 1):
                prefix, suffix = path[:cut], path[cut:]
                mid = u if cut == 0 else q.arrows[path[cut - 1]][1]
                a = outer.block(u, mid, q.path_index(u, mid, prefix))
                b = inner.block(mid, v, q.path_index(mid, v, suffix))
                acc = f.add(acc, f.mm(a, b))
            mats.append(acc)
        blocks[(u, v)] = tuple(mats)
    return Presentation(q, f, outer.slots0, inner.slots1, blocks)


def apply_action(g0: Presentation, phi: Presentation, g1: Presentation) -> Presentation:
    """(g0, g1) . phi = g0 phi g1; both g's must be automorphism-shaped."""
    return compose(compose(g0, phi), g1)


def chi_value(g: Presentation, sigma):
    """Character chi_sigma(g) = prod_v det(g_vv)^{sigma_v}."""
    q, f = g.quiver, g.field
    sigma = check_dim_vector(q, sigma)
    out = f.one
    for v in range(q.n):
        d = f.det(g.block(v, v, 0))
        out = f.s_mul(out, f.s_pow(d, sigma[v]))
    return out


def stabilize(phi: Presentation, gamma) -> Presentation:
    """Direct sum with the identity of P(gamma), new summands appended last."""
    q, f = phi.quiver, phi.field
    gamma = check_nonneg(q, gamma)
    extra = sorted_slots(q, gamma)
    slots0 = phi.slots0 + extra
    slots1 = phi.slots1 + extra
    blocks: dict[tuple[int, int], tuple] = {}
    for (u, v), mats in phi.blocks.items():
        shape = (phi.gamma0[u] + gamma[u], phi.gamma1[v] + gamma[v])
        new_mats = []
        for i, old in enumerate(mats):
            blk = f.zeros(*shape)
            blk[: phi.gamma0[u], : phi.gamma1[v]] = old
            if u == v and i == 0:
                for j in range(gamma[v]):
                    blk[phi.gamma0[v] + j, phi.gamma1[v] + j] = f.one
            new_mats.append(blk)
        blocks[(u, v)] = tuple(new_mats)
    return Presentation(q, f, slots0, slots1, blocks)


# ------------------------------------------------------------ canonical maps


def canonical_presentation(m: Representation) -> Presentation:
    """The presentation P(alpha - E^t alpha) -> P(alpha) with cokernel M.

    For each arrow a: u -> v the domain gains alpha_u copies of P(v); they map
    by -f_a into the matching copies of P(u) and by M_a into the copies of
    P(v).
    """
    q, f = m.quiver, m.field
    alpha = m.dim
    slots0 = sorted_slots(q, alpha)
    slots1: list[int] = []
    segments: list[tuple[int, int]] = []  # (arrow index, column offset)
    gamma1 = [0] * q.n
    for v in range(q.n):
        for k in sorted(k for k, (t, h) in enumerate(q.arrows) if h == v):
            segments.append((k, gamma1[v]))
            width = alpha[q.arrows[k][0]]
            slots1.extend([v] * width)
            gamma1[v] += width
    offsets = dict()
    for k, off in segments:
        offsets[k] = off
    blocks: dict[tuple[int, int], dict[int, np.ndarray]] = defaultdict(dict)
    for k, (u, v) in enumerate(q.arrows):
        width = alpha[u]
        if width == 0:
            continue
        off = offsets[k]
        arrow_idx = q.path_index(u, v, (k,))
        blk = blocks[(u, v)].get(arrow_idx)
        if blk is None:
            blk = f.zeros(alpha[u], gamma1[v])
        for j in range(width):
            blk[j, off + j] = f.s_neg(f.one)
        blocks[(u, v)][arrow_idx] = blk
        if alpha[v]:
            const = blocks[(v, v)].get(0)
            if const is None:
                const = f.zeros(alpha[v], gamma1[v])
            const[:, off : off + width] = m.mats[k]
            blocks[(v, v)][0] = const
    packed = {
        key: tuple(sub.get(i) for i in range(len(q.paths(*key))))
        for key, sub in blocks.items()
    }
    return Presentation(q, f, slots0, tuple(slots1), packed)


def zeta(m: Representation) -> Presentation:
    return canonical_presentation(m)


# -------------------------------------------------------- vertex-level view


def projective_basis(q: Quiver, slots: Slots, w: int) -> list[tuple[int, tuple]]:
    """Basis of P(slots) at vertex w: (slot position, path slots[s] -> w)."""
    out = []
    for s, u in enumerate(slots):
        for p in q.paths(u, w):
            out.append((s, p))
    return out


def presentation_vertex_matrices(phi: Presentation) -> list[np.ndarray]:
    """The map P(gamma1) -> P(gamma0) on path bases, one matrix per vertex."""
    q, f = phi.quiver, phi.field
    bases0 = [projective_basis(q, phi.slots0, w) for w in range(q.n)]
    bases1 = [projective_basis(q, phi.slots1, w) for w in range(q.n)]
    index0 = [{key: i for i, key in enumerate(b)} for b in bases0]
    occ0: dict[int, list[int]] = defaultdict(list)
    occ1: dict[int, list[int]] = defaultdict(list)
    for s, u in enumerate(phi.slots0):
        occ0[u].append(s)
    for s, v in enumerate(phi.slots1):
        occ1[v].append(s)
    mats = [
        f.zeros(len(bases0[w]), len(bases1[w])) for w in range(q.n)
    ]
    col_pos = [
        {key: i for i, key in enumerate(b)} for b in bases1
    ]
    for (u, v), path_mats in phi.blocks.items():
        paths = q.paths(u, v)
        for pi, coeffs in enumerate(path_mats):
            if phi.field.is_zero(coeffs):
                continue
            r = paths[pi]
            for i, s0 in enumerate(occ0[u]):
                for j, s1 in enumerate(occ1[v]):
                    c = coeffs[i, j]
                    if f.s_eq(c, f.zero):
                        continue
                    for w in range(q.n):
                        for x in q.paths(v, w):
                            row = index0[w][(s0, r + x)]
                            col = col_pos[w][(s1, x)]
                            mats[w][row, col] = f.s_add(mats[w][row, col], c)
    return mats


def cokernel(phi: Presentation) -> Representation:
    """The representation P(gamma0) / im(phi), with explicit structure maps."""
    q, f = phi.quiver, phi.field
    bases0 = [projective_basis(q, phi.slots0, w) for w in range(q.n)]
    index0 = [{key: i for i, key in enumerate(b)} for b in bases0]
    phi_mats = presentation_vertex_matrices(phi)
    reducers = []
    kept_rows: list[list[int]] = []
    for w in range(q.n):
        echelon, pivot_rows = f.column_space(phi_mats[w])
        pivset = set(pivot_rows)
        kept_rows.append([r for r in range(len(bases0[w])) if r not in pivset])
        reducers.append((echelon, pivot_rows))

    def project(w: int, cols: np.ndarray) -> np.ndarray:
        echelon, pivot_rows = reducers[w]
        if echelon.shape[1]:
            cols = f.sub(cols, f.mm(echelon, cols[pivot_rows, :]))
        return cols[kept_rows[w], :]

    dims = tuple(len(kept) for kept in kept_rows)
    mats = []
    for k, (t, h) in enumerate(q.arrows):
        arrow_map = f.zeros(len(bases0[h]), dims[t])
        for col, r in enumerate(kept_rows[t]):
            s, p = bases0[t][r]
            arrow_map[index0[h][(s, p + (k,))], col] = f.one
        mats.append(project(h, arrow_map))
    return Representation(q, f, dims, tuple(mats))


# ------------------------------------------------------------ semi-invariants


def _vertex_grouped(slots: Slots, beta: DimVector) -> tuple[list[int], list | None]:
    """Lay out beta[v] rows per slot with each vertex's slots contiguous: the
    start of each vertex's group followed by the total, and the grouped
    position of every row in slot order (None when the slots are already
    vertex-sorted)."""
    starts = [0]
    for v in range(len(beta)):
        starts.append(starts[-1] + slots.count(v) * beta[v])
    if all(s <= t for s, t in zip(slots, slots[1:])):
        return starts, None
    order: list[int] = []
    nxt = list(starts)
    for s in slots:
        order.extend(range(nxt[s], nxt[s] + beta[s]))
        nxt[s] += beta[s]
    return starts, order


def hom_stack(
    q: Quiver,
    f: Field,
    trials: int,
    slots0: Slots,
    slots1: Slots,
    blocks: dict[tuple[int, int], tuple],
    v_mats,
    beta: DimVector,
) -> np.ndarray:
    """The matrices of Hom(phi, V) for `trials` pairs (phi, V) that share
    their slots and dim V = beta, as one array (trials, rows, columns).

    `blocks` holds phi's path-coefficient blocks as in `Presentation.blocks`
    and `v_mats` V's arrow matrices, each with a leading trial axis.  Rows
    run over (slots1, V-basis), columns over (slots0, V-basis); the block for
    slots (s0 at u, s1 at v) is sum_p phi_p[occ(s0), occ(s1)] * V_p.  With
    each side's slots grouped by vertex, the blocks of the pair (u, v) form
    the single rectangle sum_p kron(phi_p^t, V_p); one row and one column
    permutation then restore the slot order."""
    row0, row_order = _vertex_grouped(slots1, beta)
    col0, col_order = _vertex_grouped(slots0, beta)
    h = f.zeros(trials * row0[-1], col0[-1]).reshape(trials, row0[-1], col0[-1])
    for (u, v), path_mats in blocks.items():
        if beta[u] == 0 or beta[v] == 0:
            continue
        acc = None
        for path, coeffs in zip(q.paths(u, v), path_mats):
            if f.is_zero(coeffs):
                continue
            v_path = f.eye(beta[u])
            for k in path:
                v_path = f.mm(v_mats[k], v_path)
            term = f.kron(coeffs.swapaxes(-1, -2), v_path)
            acc = term if acc is None else f.add(acc, term)
        if acc is not None:
            r, c = acc.shape[-2:]
            h[:, row0[v] : row0[v] + r, col0[u] : col0[u] + c] = acc
    if row_order is not None:
        h = h[:, row_order]
    if col_order is not None:
        h = h[:, :, col_order]
    return h


def hom_matrix(phi: Presentation, v_rep: Representation) -> np.ndarray:
    """The matrix of Hom(phi, V): `hom_stack` of the single pair."""
    if phi.quiver != v_rep.quiver:
        raise QuiverMismatchError("presentation and representation quiver differ")
    if phi.field != v_rep.field:
        raise FieldMismatchError(
            f"fields differ: {phi.field.name} vs {v_rep.field.name}"
        )
    blocks = {key: tuple(m[None] for m in mats) for key, mats in phi.blocks.items()}
    v_mats = [m[None] for m in v_rep.mats]
    return hom_stack(
        phi.quiver, phi.field, 1, phi.slots0, phi.slots1, blocks, v_mats, v_rep.dim
    )[0]


def cv_value(phi: Presentation, v_rep: Representation):
    """det Hom(phi, V); defined exactly when <alpha, dim V> = 0."""
    h = hom_matrix(phi, v_rep)
    if h.shape[0] != h.shape[1]:
        pairing = euler_form(phi.quiver, phi.alpha, v_rep.dim)
        raise NonSquareWeightError(
            f"<alpha, dim V> = {pairing}; hom matrix is {h.shape[0]}x{h.shape[1]}"
        )
    return phi.field.det(h)

