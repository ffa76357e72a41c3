"""Cluster tilting complexes of Dynkin quivers, sphere checks, wall labels.

Vertices are the positive roots plus one shifted projective per quiver vertex;
faces are the pairwise-compatible subsets, so the complex is the clique
complex of the compatibility graph and facets are its maximal cliques.  The
lambda map sends a root vertex to its own vector and a shifted vertex to minus
the projective vector; ridges (codimension-one faces) get labeled by the
positive roots whose support cone D(beta) contains them.

The face cones partition R^n and each facet's lambda vectors form a Z-basis,
so one certified table of integer facet inverses answers every cone question
exactly: `locate`, `ridge_cone_contains` and `verify_sphere`'s covering test.
`walk_locate` finds the facet cone of a vector without listing the facets;
the decomposition module asks it every Dynkin decomposition and generic ext.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random
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
from .fields import Field, mix_seed
from .quiver import (
    DimVector,
    Quiver,
    check_dim_vector,
    euler_data,
    euler_form,
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
    seed: int
    vertices: tuple[ComplexVertex, ...]
    facets: tuple[tuple[int, ...], ...]
    compat: tuple[tuple[bool, ...], ...]
    inverses: np.ndarray = dataclasses.field(compare=False, repr=False)

    @functools.cached_property
    def ridge_facets(self) -> dict[tuple[int, ...], list[int]]:
        """Each ridge (sorted) with the indices of the facets containing it."""
        out: dict[tuple[int, ...], list[int]] = {}
        for fi, facet in enumerate(self.facets):
            for ridge in itertools.combinations(facet, len(facet) - 1):
                out.setdefault(ridge, []).append(fi)
        return out

    def ridges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.ridge_facets))

    def is_face(self, vertex_set) -> bool:
        s = set(vertex_set)
        return any(s.issubset(facet) for facet in self.facets)


def _max_cliques(adj: list[set[int]], n: int) -> list[tuple[int, ...]]:
    """Maximal cliques, pivoting search, deterministic order."""
    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: (len(p & adj[v]), -v))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
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


def _facet_inverses(n: int, verts, facets) -> np.ndarray:
    """The certified integer inverse of each facet's lambda matrix.

    One batched float inverse of the facet lambda matrices L, rounded, is
    kept only where the int64 product L @ M equals the identity; an integer
    inverse exists exactly when |det L| = 1, so any other facet raises
    InvariantViolationError.
    """
    lam = np.array([v.lam for v in verts], dtype=np.int64).reshape(-1, n)
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

    Compatibility is exact Euler-form arithmetic, so `field` is not used;
    `seed` picks `verify_sphere`'s covering samples.  Every maximal clique
    must have exactly n vertices whose lambda vectors form a Z-basis,
    certified by the facet inverse table.
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
        seed,
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


def walk_locate(q: Quiver, x) -> GenericDecomposition:
    """`locate` on q's complex without listing its facets (Catalan(n + 1)
    of them on A_n).  Walks the segment from a point p inside the projectives'
    cone to x: the coordinate that first falls to 0 names the ridge crossed,
    and the one other vertex compatible with that ridge replaces it, a
    unimodular flip.  A line crosses each wall hyperplane <., beta> = 0 once,
    so there is at most one flip per positive root.  If the segment meets a
    face of codimension 2, p moves along the moment curve."""
    return _walk(q, check_dim_vector(q, x))


@functools.lru_cache(maxsize=1 << 14)
def _walk(q: Quiver, x: DimVector) -> GenericDecomposition:
    verts, compat = _fan(q)
    n = q.n
    e = euler_data(q).e
    start = [verts.index(ComplexVertex("root", proj_vector(q, v))) for v in range(n)]
    for r in range(2, 34):
        facet = list(start)
        # row k: row k of the facet's inverse (E^t, as the projectives' lambda
        # matrix is (E^t)^-1), then coordinate k of p and of x
        rows = [
            [e[j][k] for j in range(n)]
            + [r**k, sum(e[j][k] * x[j] for j in range(n))]
            for k in range(n)
        ]
        for _ in range(len(verts)):
            coords = [row[-1] for row in rows]
            leaving = [k for k in range(n) if coords[k] < 0]
            if not leaving:
                return _read_facet(q, x, [verts[i] for i in facet], coords)
            # coordinate k falls from p's to x's and is 0 at t = cp/(cp - cx)
            times = sorted(
                (Fraction(rows[k][-2], rows[k][-2] - coords[k]), k) for k in leaving
            )
            if len(times) > 1 and times[0][0] == times[1][0]:
                break  # the segment meets a face of codimension 2
            k = times[0][1]
            ridge = facet[:k] + facet[k + 1 :]
            others = [int(u) for u in np.flatnonzero(compat[ridge].all(axis=0))]
            others.remove(facet[k])
            if len(others) != 1:
                raise InvariantViolationError(f"ridge {ridge} is not in 2 facets")
            u = others[0]
            a = [sum(m * y for m, y in zip(row, verts[u].lam)) for row in rows]
            if a[k] != -1:
                raise InvariantViolationError(f"flip of {facet} at {k} not unimodular")
            # lam(u) = sum_j a_j lam(facet[j]) with a_k = -1: coordinate k
            # changes sign and every other one gains a_j times it
            pivot = [-y for y in rows[k]]
            rows = [
                pivot if j == k else [y - a[j] * z for y, z in zip(rows[j], pivot)]
                for j in range(n)
            ]
            facet[k] = u
        else:
            raise InvariantViolationError(f"the walk to {x} crossed a wall twice")
    raise InvariantViolationError(f"every segment to {x} met a face of codimension 2")


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


def verify_sphere(c: TiltingComplex, samples: int = 200) -> SphereReport:
    """All structural sphere checks for a built Dynkin complex.

    Some facet, purity, every ridge in exactly two facets, facet-adjacency
    connectivity, Euler characteristic of S^{n-1}, injectivity of lambda on
    vertices, and an exact covering test: each of `samples` random integer
    vectors has coordinates >= 0 on some facet and > 0 on at most one.
    """
    q = c.quiver
    n = q.n
    failures: list[str] = []
    if not c.facets:
        failures.append("no facets")
    if any(len(f) != n for f in c.facets):
        failures.append("impure: facet of wrong size")
    bad = [r for r, members in c.ridge_facets.items() if len(members) != 2]
    if bad:
        failures.append(f"{len(bad)} ridges not in exactly 2 facets")
    # connectivity of the facet adjacency graph (shared ridge = adjacency)
    seen = {0} if c.facets else set()
    queue = list(seen)
    while queue:
        facet = c.facets[queue.pop()]
        for ridge in itertools.combinations(facet, len(facet) - 1):
            for nxt in set(c.ridge_facets[ridge]) - seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != len(c.facets):
        failures.append("facet adjacency graph is disconnected")
    # distinct faces, largest first: k-faces are k-subsets of (k + 1)-faces;
    # facets are sorted, so equal faces are equal rows, which one lexsort per k
    # makes adjacent (it radix sorts the narrowest unsigned type)
    faces = np.array(c.facets, dtype=np.min_scalar_type(len(c.vertices))).reshape(-1, n)
    face_counts = []
    for k in range(n, 0, -1):
        cols = list(itertools.combinations(range(faces.shape[1]), k))
        faces = faces[:, cols].reshape(-1, k)
        faces = faces[np.lexsort(faces.T[::-1])]
        new = (faces[1:] != faces[:-1]).any(axis=1)
        faces = np.concatenate([faces[:1], faces[1:][new]])
        face_counts.insert(0, len(faces))
    chi = sum((-1) ** k * face_counts[k] for k in range(n))
    expected_chi = 1 + (-1) ** (n - 1)
    if chi != expected_chi:
        failures.append(f"Euler characteristic {chi}, expected {expected_chi}")
    rays = [_to_sphere(v.lam).ray for v in c.vertices]
    if len(set(rays)) != len(rays):
        failures.append("lambda is not injective on vertices")
    # a few hundred small integers: the standard library generator will do
    rng = random.Random(mix_seed(c.seed, "covering", q.names, q.arrows))
    checked = 0
    while checked < samples:
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        if not any(x):
            continue
        checked += 1
        coords = _coordinates(c.inverses, x)
        if not (coords >= 0).all(axis=1).any() or (coords > 0).all(axis=1).sum() > 1:
            failures.append(f"{x} lies in no facet cone, or inside two")
            break
    return SphereReport(
        euler_characteristic=chi,
        face_counts=tuple(face_counts),
        failures=tuple(failures),
    )


# ------------------------------------------------------------------- walls


def wall_labels(
    c: TiltingComplex,
) -> dict[tuple[int, ...], tuple[DimVector, ...]]:
    """For each ridge, the positive roots beta with all lambda vectors
    perpendicular to beta (<lam, beta> = 0), in root order; nonempty by the
    wall theorem."""
    q = c.quiver
    roots = positive_roots(q)
    perp = [
        {k for k, beta in enumerate(roots) if euler_form(q, v.lam, beta) == 0}
        for v in c.vertices
    ]
    everything = set(range(len(roots)))
    out: dict[tuple[int, ...], tuple[DimVector, ...]] = {}
    for ridge in c.ridges():
        common = everything.intersection(*(perp[i] for i in ridge))
        if not common:
            raise EmptyLabelError(f"ridge {ridge} received no label")
        out[ridge] = tuple(roots[k] for k in sorted(common))
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
    facet-size guarantees are made; cliques are reported as found.  A
    negative bound is a VsiError."""
    if bound < 0:
        raise VsiError(f"truncation bound must be >= 0, got {bound}")
    candidates = [
        a
        for a in itertools.product(range(bound + 1), repeat=q.n)
        if any(a)
        and is_schur_root(q, a, field, seed=mix_seed(seed, "trunc", a), trials=3)
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
