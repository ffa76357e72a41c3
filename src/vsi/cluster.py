"""Cluster tilting complexes of Dynkin quivers, sphere checks, wall labels.

Vertices are the positive roots plus one shifted projective per quiver vertex;
faces are the pairwise-compatible subsets, so the complex is the clique
complex of the compatibility graph and facets are its maximal cliques.  The
lambda map sends a root vertex to its own vector and a shifted vertex to minus
the projective vector; ridges (codimension-one faces) get labeled by the
positive roots whose support cone D(beta) contains them.

The face cones partition R^n and each facet's lambda vectors form a Z-basis,
so one certified table of integer facet inverses answers every cone question
exactly: `locate`, `ridge_cone_contains`, `verify_sphere`'s covering
certificate, which samples nothing, and `wall_labels`, which reads the label
of the ridge "facet f without vertex k" as E^-1 times row k of f's inverse.
One sort of those ridge rows (`TiltingComplex.ridge_table`) serves the walls,
the sphere checks, `ridges` and `ridge_facets`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decomposition import GenericDecomposition, cached_generic_ext, is_schur_root
from .errors import (
    EmptyLabelError,
    InvariantViolationError,
    NotASimplexError,
    NotDynkinError,
    UnsupportedDimensionError,
    VsiError,
    ZeroCoefficientsError,
)
from .fields import Field
from .quiver import (
    DimVector,
    Quiver,
    check_dim_vector,
    euler_data,
    is_dynkin,
    proj_vector,
    symmetrized_euler,
)


def _require_dynkin(q: Quiver) -> None:
    if not is_dynkin(q):
        raise NotDynkinError(f"{q!r} is not a Dynkin quiver")


def positive_roots(q: Quiver) -> tuple[DimVector, ...]:
    """Close the simples under s_i(x) = x - (Cx)_i e_i; lexicographic order."""
    _require_dynkin(q)
    cartan = symmetrized_euler(q)
    seen: set[DimVector] = set()
    frontier: list[DimVector] = [
        tuple(1 if i == v else 0 for i in range(q.n)) for v in range(q.n)
    ]
    while frontier:
        x = frontier.pop()
        if x in seen or any(c < 0 for c in x):
            continue
        seen.add(x)
        cx = [sum(cartan[i][j] * x[j] for j in range(q.n)) for i in range(q.n)]
        for i in range(q.n):
            y = tuple(x[j] - (cx[i] if j == i else 0) for j in range(q.n))
            if y not in seen:
                frontier.append(y)
    return tuple(sorted(seen))


# ------------------------------------------------------------------ vertices


@dataclass(frozen=True)
class ComplexVertex:
    """A positive root ("root") or a shifted projective P(v)[1] ("shifted")."""

    kind: str
    vector: DimVector
    vertex: int | None = None

    @property
    def lam(self) -> DimVector:
        """The lambda-map direction: beta, or -dim P(v) for shifted vertices."""
        if self.kind == "shifted":
            return tuple(-x for x in self.vector)
        return self.vector


def complex_vertices(q: Quiver) -> tuple[ComplexVertex, ...]:
    roots = positive_roots(q)
    shifted = tuple(
        ComplexVertex(kind="shifted", vector=proj_vector(q, v), vertex=v)
        for v in range(q.n)
    )
    return tuple(ComplexVertex(kind="root", vector=r) for r in roots) + shifted


def _shifted_compatible(x: ComplexVertex, y: ComplexVertex) -> bool:
    """Root beta against shifted P(v)[1]: beta_v = 0.  Two shifted: always."""
    if x.kind == "shifted" and y.kind == "shifted":
        return True
    root, shifted = (y, x) if x.kind == "shifted" else (x, y)
    return root.vector[shifted.vertex] == 0


def compatible(q: Quiver, x: ComplexVertex, y: ComplexVertex, field: Field) -> bool:
    """Pairwise virtual semi-tilting condition, via field-free `cached_generic_ext`.

    Two roots: vanishing generic ext both ways; a shifted vertex follows
    `_shifted_compatible`.  Holds on any acyclic quiver; `build_complex` uses
    the Dynkin closed form instead.
    """
    if x.kind == "shifted" or y.kind == "shifted":
        return _shifted_compatible(x, y)
    return (
        cached_generic_ext(q, x.vector, y.vector, field) == 0
        and cached_generic_ext(q, y.vector, x.vector, field) == 0
    )


# ------------------------------------------------------------------- complex


@dataclass(frozen=True)
class TiltingComplex:
    """The complex, with `inverses[f]` the integer inverse of facet f's lambda
    matrix (column k the lambda vector of `facets[f][k]`)."""

    quiver: Quiver
    vertices: tuple[ComplexVertex, ...]
    facets: tuple[tuple[int, ...], ...]
    compat: tuple[tuple[bool, ...], ...]
    inverses: np.ndarray = dataclasses.field(compare=False, repr=False)

    @functools.cached_property
    def ridge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_sort_rows` of the rows "facet f without its vertex k" (row
        n*f + k).  Facets are sorted, so equal ridges are equal rows, which
        the one sort makes adjacent; `ridges`, `ridge_facets`, `wall_labels`
        and `verify_sphere` all read it."""
        n = self.quiver.n
        facets = np.array(self.facets, dtype=np.min_scalar_type(len(self.vertices)))
        facets = facets.reshape(-1, n)
        drop = [[j for j in range(n) if j != k] for k in range(n)]
        return _sort_rows(facets[:, drop].reshape(len(facets) * n, n - 1))

    @functools.cached_property
    def ridge_facets(self) -> dict[tuple[int, ...], list[int]]:
        """Each ridge (sorted) with the indices of the facets containing it,
        in ascending order."""
        _, order, first = self.ridge_table
        holders = (order // self.quiver.n).tolist()
        runs = np.append(np.flatnonzero(first), len(order)).tolist()
        return {
            ridge: holders[a:b]
            for ridge, a, b in zip(self.ridges(), runs, runs[1:])
        }

    def ridges(self) -> tuple[tuple[int, ...], ...]:
        rows, _, first = self.ridge_table
        return tuple(map(tuple, rows[first].tolist()))

    def is_face(self, vertex_set) -> bool:
        s = set(vertex_set)
        return any(s.issubset(facet) for facet in self.facets)


def _max_cliques(adj: list[set[int]], n: int) -> list[tuple[int, ...]]:
    """Maximal cliques, pivoting search, deterministic order.

    Vertex sets are bitmasks (bit v for vertex v); the pivot is the lowest
    vertex of p | x with the most neighbours in p.
    """
    nbrs = [sum(1 << u for u in a) for a in adj]
    cliques: list[tuple[int, ...]] = []

    def expand(r: tuple[int, ...], p: int, x: int) -> None:
        if not p | x:
            cliques.append(tuple(sorted(r)))
            return
        rest, most = p | x, -1
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if (nbrs[u] & p).bit_count() > most:
                most, pivot = (nbrs[u] & p).bit_count(), u
        rest = p & ~nbrs[pivot]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            expand(r + (v,), p & nbrs[v], x & nbrs[v])
            p ^= low
            x |= low

    expand((), (1 << n) - 1, 0)
    return sorted(cliques)


def primitive_ray(vec) -> DimVector:
    g = math.gcd(*(int(x) for x in vec))
    if g == 0:
        raise ZeroCoefficientsError("zero vector has no ray")
    return tuple(int(x) // g for x in vec)


@functools.lru_cache(maxsize=64)
def _fan(q: Quiver) -> tuple[tuple[ComplexVertex, ...], np.ndarray]:
    """q's complex vertices and their compatibility matrix, in closed form.

    The AR quiver of a Dynkin quiver is directed, so hom and ext between
    indecomposables are never both nonzero: ext(a, b) = max(0, -<a, b>), and
    two roots are compatible iff both forms are >= 0.  A root and a shifted
    vertex follow `_shifted_compatible`.
    """
    _require_dynkin(q)
    verts = complex_vertices(q)
    vec = np.array([v.vector for v in verts], dtype=np.int64)
    form = vec @ np.array(euler_data(q).e, dtype=np.int64) @ vec.T
    compat = (form >= 0) & (form.T >= 0)
    root = np.array([v.kind == "root" for v in verts])
    for j, v in enumerate(verts):
        if v.kind == "shifted":
            compat[j] = compat[:, j] = ~root | (vec[:, v.vertex] == 0)
    np.fill_diagonal(compat, False)
    compat.flags.writeable = False
    return verts, compat


# Largest |entry| of a lambda matrix, of a certified inverse, or of a point
# whose facet coordinates are taken in int64: n * 2^20 * 2^20 < 2^63 for any
# n below 2^23, so no product below can wrap around.  Also the longest part
# list `locate` will build.
_INT64_BOUND = 2**20


def _lam_rows(n: int, verts) -> np.ndarray:
    """The lambda vectors of `verts` as the rows of an int64 (len, n) array."""
    return np.array([v.lam for v in verts], dtype=np.int64).reshape(-1, n)


def _facet_inverses(n: int, verts, facets) -> np.ndarray:
    """The certified integer inverse of each facet's lambda matrix.

    One batched float inverse of the facet lambda matrices L, rounded, is
    kept only where the int64 product L @ M equals the identity; an integer
    inverse exists exactly when |det L| = 1, so any other facet raises
    InvariantViolationError.
    """
    lam = _lam_rows(n, verts)
    mats = lam[np.array(facets, dtype=np.int64).reshape(-1, n)].transpose(0, 2, 1)
    approx = mats.astype(float)
    # a zero pivot would make the batched inverse raise; such a facet keeps
    # the identity here and then fails the certificate
    approx[np.linalg.det(approx) == 0] = np.eye(n)
    # clipping keeps the product in range; an integer M with L @ M = I is the
    # inverse whatever rounding and clipping did to reach it
    inverses = np.nan_to_num(np.rint(np.linalg.inv(approx)))
    inverses = np.clip(inverses, -_INT64_BOUND, _INT64_BOUND).astype(np.int64)
    certified = (mats @ inverses == np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    if not certified.all():
        bad = facets[int(np.argmin(certified))]
        raise InvariantViolationError(
            f"facet {tuple(bad)} has a lambda matrix with |det| != 1"
        )
    return inverses


def build_complex(q: Quiver, field: Field | None, seed: int = 0) -> TiltingComplex:
    """Clique complex of the compatibility graph, with build-time invariants.

    Compatibility is exact Euler-form arithmetic and nothing is sampled, so
    neither `field` nor `seed` has any effect.  Every maximal clique must
    have exactly n vertices whose lambda vectors form a Z-basis, certified
    by the facet inverse table.
    """
    verts, compat = _fan(q)
    adj = [set(np.flatnonzero(row).tolist()) for row in compat]
    facets = _max_cliques(adj, len(verts))
    for facet in facets:
        if len(facet) != q.n:
            raise InvariantViolationError(
                f"maximal clique {facet} has size {len(facet)}, not {q.n}"
            )
    return TiltingComplex(
        q,
        verts,
        tuple(facets),
        tuple(map(tuple, compat.tolist())),
        _facet_inverses(q.n, verts, facets),
    )


def _coordinates(inverses: np.ndarray, x: DimVector) -> np.ndarray:
    """Exact coordinates M @ x on each facet of the stack: int64 while |x|
    is within the bound the inverses were certified under, Python ints beyond."""
    if max(map(abs, x), default=0) <= _INT64_BOUND:
        return inverses @ np.array(x, dtype=np.int64)
    return inverses.astype(object) @ np.array(x, dtype=object)


def _read_facet(q: Quiver, x: DimVector, vertices, coords) -> GenericDecomposition:
    """A root vertex with coordinate t gives t copies of its root, a shifted
    P(v)[1] gives gamma_v = t; VsiError past 2^20 parts."""
    parts: list[DimVector] = []
    gamma = [0] * q.n
    for v, t in zip(vertices, coords):
        if v.kind == "shifted":
            gamma[v.vertex] = int(t)
        elif len(parts) + t > _INT64_BOUND:
            raise VsiError(f"{x} has more than {_INT64_BOUND} Schur parts")
        else:
            parts.extend([v.vector] * int(t))
    return GenericDecomposition(x, tuple(sorted(parts)), tuple(gamma))


def locate(c: TiltingComplex, x) -> GenericDecomposition:
    """The generic decomposition of x read off the first facet whose cone
    contains it.  Exact for every integer x."""
    x = check_dim_vector(c.quiver, x)
    coords = _coordinates(c.inverses, x)
    inside = np.flatnonzero((coords >= 0).all(axis=1))
    if not inside.size:
        raise InvariantViolationError(f"no facet cone contains {x}")
    fi = int(inside[0])
    return _read_facet(c.quiver, x, [c.vertices[i] for i in c.facets[fi]], coords[fi])


# ------------------------------------------------------------------- lambda


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere with an exact integer ray representative."""

    coords: tuple[float, ...]
    ray: DimVector


def _to_sphere(vec) -> SpherePoint:
    ray = primitive_ray(vec)
    norm = math.sqrt(sum(x * x for x in ray))
    return SpherePoint(coords=tuple(x / norm for x in ray), ray=ray)


def lambda_point(c: TiltingComplex, coeffs: dict[int, Fraction]) -> SpherePoint:
    """Normalized image of sum_i t_i lambda(x_i) for coefficients on a face."""
    support = [i for i, t in coeffs.items() if Fraction(t) != 0]
    if not support:
        raise ZeroCoefficientsError("all lambda coefficients vanish")
    if any(Fraction(t) < 0 for t in coeffs.values()):
        raise ZeroCoefficientsError("lambda coefficients must be nonnegative")
    if not c.is_face(support):
        raise NotASimplexError(f"vertex set {sorted(support)} is not a face")
    n = c.quiver.n
    combo = [Fraction(0)] * n
    for i in support:
        t = Fraction(coeffs[i])
        for r, x in enumerate(c.vertices[i].lam):
            combo[r] += t * x
    denom_lcm = math.lcm(*(x.denominator for x in combo))
    return _to_sphere([int(x * denom_lcm) for x in combo])


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class SphereReport:
    euler_characteristic: int
    face_counts: tuple[int, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows in lexicographic order, the permutation that sorts them, and
    a mask of the sorted rows that differ from the row before.  One lexsort,
    which radix sorts the narrowest unsigned type."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows, order, new


def _connected(m: int, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the graph on nodes 0..m-1 with edges a[i]-b[i] is connected.
    Each node takes the least label at the ends of its edges, then the label
    of its label, until no label changes; then each component has one."""
    labels = np.arange(m)
    while True:
        low = np.minimum(labels[a], labels[b])
        new = labels.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if (new == labels).all():
            return not (labels > 0).any()
        labels = new


def verify_sphere(c: TiltingComplex, samples: int = 200) -> SphereReport:
    """All structural sphere checks for a built Dynkin complex, exact and
    deterministic; `samples` has no effect.

    Some facet, purity, every ridge in exactly two facets, facet-adjacency
    connectivity, Euler characteristic of S^{n-1}, injectivity of lambda on
    vertices, and a covering certificate.  The facet cones are unimodular
    (`build_complex` certifies their inverses); if the two facets at every
    ridge lie on opposite sides of it, and p, the sum of the projectives'
    dimension vectors, has coordinates >= 0 on exactly one facet and > 0
    there, the cones form a complete fan that covers every point of R^n
    once (De Loera-Rambau-Santos, Triangulations, ch. 4).
    """
    q = c.quiver
    n = q.n
    failures: list[str] = []
    if not c.facets:
        failures.append("no facets")
    if any(len(f) != n for f in c.facets):
        failures.append("impure: facet of wrong size")
    facets = np.array(c.facets, dtype=np.min_scalar_type(len(c.vertices)))
    facets = facets.reshape(-1, n)
    ridges, order, first = c.ridge_table
    sizes = np.diff(np.append(np.flatnonzero(first), len(ridges)))
    if (sizes != 2).any():
        failures.append(f"{np.sum(sizes != 2)} ridges not in exactly 2 facets")
    # each pair of equal rows: facet f leaves out its vertex k, g its vertex j
    pair = np.flatnonzero(~first[1:])
    (f, k), (g, j) = divmod(order[pair], n), divmod(order[pair + 1], n)
    if not _connected(len(facets), f, g):
        failures.append("facet adjacency graph is disconnected")
    # on opposite sides, g's other vertex has coordinate k < 0 on f's basis
    lam = _lam_rows(n, c.vertices)
    apex = np.einsum("ij,ij->i", c.inverses[f, k], lam[facets[g, j]])
    if (apex >= 0).any():
        failures.append(f"{np.sum(apex >= 0)} ridges with both facets on one side")
    p = tuple(map(sum, zip(*(proj_vector(q, v) for v in range(n)))))
    coords = _coordinates(c.inverses, p)
    inside = (coords >= 0).all(axis=1)
    if np.count_nonzero(inside) != 1 or not (coords[inside] > 0).all():
        failures.append(f"{p} is not inside exactly one facet cone")
    # distinct faces, largest first: k-faces are k-subsets of (k + 1)-faces
    face_counts = [int(np.count_nonzero(_sort_rows(facets)[2]))]
    faces = ridges[first]
    for k in range(n - 1, 0, -1):
        if k < n - 1:  # the ridges are sorted and distinct already
            cols = list(itertools.combinations(range(k + 1), k))
            faces, _, new = _sort_rows(faces[:, cols].reshape(-1, k))
            faces = faces[new]
        face_counts.insert(0, len(faces))
    chi = sum((-1) ** k * face_counts[k] for k in range(n))
    expected_chi = 1 + (-1) ** (n - 1)
    if chi != expected_chi:
        failures.append(f"Euler characteristic {chi}, expected {expected_chi}")
    rays = [_to_sphere(v.lam).ray for v in c.vertices]
    if len(set(rays)) != len(rays):
        failures.append("lambda is not injective on vertices")
    return SphereReport(
        euler_characteristic=chi,
        face_counts=tuple(face_counts),
        failures=tuple(failures),
    )


# ------------------------------------------------------------------- walls


def wall_labels(
    c: TiltingComplex,
) -> dict[tuple[int, ...], tuple[DimVector, ...]]:
    """For each ridge in sorted order, the positive roots beta with every
    lambda vector of the ridge perpendicular to it (<lam, beta> = 0); nonempty
    by the wall theorem.

    Read off the certified inverse table: for the ridge "facet f without its
    vertex k", row k of f's inverse is the m with m . lam_i = delta_ik on f, so
    b = E^-1 m^t has <lam_i, b> = delta_ik.  The ridge's perpendicular line is
    spanned by b, which is primitive, so the label is (b,) (sign made
    positive) when b is a root vertex, and there is none otherwise.  One
    batched product gives every b; a second certifies <lam_i, b> = 0 on the
    ridge, so a tampered table raises InvariantViolationError."""
    q, n = c.quiver, c.quiver.n
    rows, order, first = c.ridge_table
    ridges = rows[first]
    f, k = divmod(order[first], n)
    d = euler_data(q)
    e = np.array(d.e, dtype=np.int64).reshape(n, n)
    vecs = c.inverses[f, k] @ np.array(d.e_inv, dtype=np.int64).reshape(n, n).T
    vecs[vecs.sum(axis=1) < 0] *= -1
    lam = _lam_rows(n, c.vertices)
    off = np.einsum("rij,rj->ri", lam[ridges], vecs @ e.T).any(axis=1)
    if off.any():
        r = int(np.argmax(off))
        raise InvariantViolationError(
            f"ridge {tuple(ridges[r].tolist())} is not perpendicular to "
            f"{tuple(vecs[r].tolist())}"
        )
    roots = {v.vector: (v.vector,) for v in c.vertices if v.kind == "root"}
    out: dict[tuple[int, ...], tuple[DimVector, ...]] = {}
    for ridge, b in zip(c.ridges(), map(tuple, vecs.tolist())):
        if b not in roots:
            raise EmptyLabelError(f"ridge {ridge} received no label")
        out[ridge] = roots[b]
    return out


def ridge_cone_contains(c: TiltingComplex, ridge, point) -> bool:
    """Exact test: is the point a nonnegative combination of the ridge's
    lambda vectors?  On a facet containing the ridge (any face works), the
    point's integer coordinates must vanish off the ridge and be >= 0 on it.
    NotASimplexError if the vertex set is not a face."""
    point = check_dim_vector(c.quiver, point)
    face = tuple(sorted(ridge))
    holders = c.ridge_facets.get(face) or [
        fi for fi, facet in enumerate(c.facets) if set(face).issubset(facet)
    ]
    if not holders:
        raise NotASimplexError(f"vertex set {list(face)} is not a face")
    fi = holders[0]
    coords = _coordinates(c.inverses[fi], point)
    return all(
        t >= 0 if i in face else t == 0 for i, t in zip(c.facets[fi], coords)
    )


# ------------------------------------------------------------------ oracle


def polygon_triangulation_count(m: int) -> int:
    """Number of triangulations of a convex m-gon, by the fan recurrence.

    Independent of any closed form: T(2) = T(3) = 1 and
    T(m) = sum_k T(k) * T(m - k + 1) over the triangle on the base edge.
    """
    if m < 2:
        raise ValueError("need at least a digon")
    table = [0] * (m + 1)
    table[2] = 1
    if m >= 3:
        table[3] = 1
    for size in range(4, m + 1):
        table[size] = sum(
            table[k] * table[size - k + 1] for k in range(2, size)
        )
    return table[m]


def linear_type_a_facet_count(n: int) -> int:
    """Facet count of the A_n complex via the triangulation oracle."""
    return polygon_triangulation_count(n + 3)


# ------------------------------------------------------------------- export


def complex_to_json(c: TiltingComplex) -> str:
    q = c.quiver
    data = {
        "schema": 1,
        "vertices": [
            {
                "kind": v.kind,
                "vector": list(v.vector),
                "vertex": q.names[v.vertex] if v.vertex is not None else None,
            }
            for v in c.vertices
        ],
        "facets": [list(f) for f in c.facets],
        "walls": [
            {"ridge": list(ridge), "labels": [list(b) for b in labels]}
            for ridge, labels in wall_labels(c).items()
        ],
    }
    return json.dumps(data, indent=2)


def export_complex(c: TiltingComplex, fmt: str) -> str:
    """json (full data), obj (n = 3 sphere mesh), svg (n = 2 polygon)."""
    fmt = fmt.lower()
    if fmt == "json":
        return complex_to_json(c)
    n = c.quiver.n
    points = [_to_sphere(v.lam).coords for v in c.vertices]
    if fmt == "obj":
        if n != 3:
            raise UnsupportedDimensionError(f"obj export needs rank 3, got {n}")
        lines = [f"v {p[0]:.9f} {p[1]:.9f} {p[2]:.9f}" for p in points]
        lines += [
            "f " + " ".join(str(i + 1) for i in facet) for facet in c.facets
        ]
        return "\n".join(lines) + "\n"
    if fmt == "svg":
        if n != 2:
            raise UnsupportedDimensionError(f"svg export needs rank 2, got {n}")
        size, radius = 400, 160
        placed = {
            i: (
                size / 2 + radius * p[0],
                size / 2 - radius * p[1],
            )
            for i, p in enumerate(points)
        }
        segments = [
            f'<line x1="{placed[a][0]:.2f}" y1="{placed[a][1]:.2f}" '
            f'x2="{placed[b][0]:.2f}" y2="{placed[b][1]:.2f}" '
            'stroke="black" stroke-width="2"/>'
            for a, b in c.facets
        ]
        dots = [
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>'
            for x, y in placed.values()
        ]
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">\n'
            + "\n".join(segments + dots)
            + "\n</svg>\n"
        )
    raise UnsupportedDimensionError(f"unknown export format {fmt!r}")


# ------------------------------------------------------------------ truncate


def truncated_compatibility(
    q: Quiver, field: Field, seed: int = 0, bound: int = 3
) -> dict:
    """Exploratory mode for non-Dynkin quivers: Schur roots with entries up to
    `bound`, shifted projectives, and their compatibility graph.  No sphere or
    facet-size guarantees are made; cliques are reported as found.  The
    answer does not depend on `field` or `seed`.  A negative bound is a
    VsiError."""
    if bound < 0:
        raise VsiError(f"truncation bound must be >= 0, got {bound}")
    candidates = [
        a
        for a in itertools.product(range(bound + 1), repeat=q.n)
        if any(a)
        and is_schur_root(q, a, field)
    ]
    verts = tuple(
        ComplexVertex(kind="root", vector=a) for a in candidates
    ) + tuple(
        ComplexVertex(kind="shifted", vector=proj_vector(q, v), vertex=v)
        for v in range(q.n)
    )
    nv = len(verts)
    adj: list[set[int]] = [set() for _ in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            if compatible(q, verts[i], verts[j], field):
                adj[i].add(j)
                adj[j].add(i)
    cliques = _max_cliques(adj, nv)
    return {
        "vertices": verts,
        "cliques": tuple(cliques),
        "clique_sizes": tuple(sorted({len(cl) for cl in cliques})),
    }
