"""Cluster tilting complexes of Dynkin quivers, sphere checks, wall labels.

Vertices are the positive roots plus one shifted projective per quiver vertex;
faces are the pairwise-compatible subsets, so the complex is the clique
complex of the compatibility graph and facets are its maximal cliques.  The
lambda map sends a root vertex to its own vector and a shifted vertex to minus
the projective vector; ridges (codimension-one faces) get labeled by the
positive roots whose support cone D(beta) contains them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .decomposition import cached_generic_ext, generic_decomposition
from .errors import (
    EmptyLabelError,
    InvariantViolationError,
    NotASimplexError,
    NotDynkinError,
    ParseError,
    UnsupportedDimensionError,
    ZeroCoefficientsError,
)
from .fields import QQ, Field, derive_rng, mix_seed
from .quiver import (
    DimVector,
    Quiver,
    check_dim_vector,
    euler_data,
    euler_form,
    proj_vector,
)
from .reps import end_dim, ext_dim, random_rep


def symmetrized_euler(q: Quiver) -> list[list[int]]:
    e = euler_data(q).e
    return [[e[i][j] + e[j][i] for j in range(q.n)] for i in range(q.n)]


def is_dynkin(q: Quiver) -> bool:
    """Positive definiteness of E + E^t, by exact leading principal minors."""
    return all(m > 0 for m in linalg.leading_minors(symmetrized_euler(q)))


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


def _schur_witness(q: Quiver, a: DimVector, field: Field, seed: int, tries: int = 50):
    for t in range(tries):
        m = random_rep(q, a, field, mix_seed(seed, "witness", a, t))
        if end_dim(m) == 1:
            return m
    raise InvariantViolationError(f"no Schur representation found for {a}")


_exact_ext_cache: dict[tuple, int] = {}


def exact_root_ext(q: Quiver, a: DimVector, b: DimVector, field: Field, seed: int = 0):
    """Deterministic oracle: ext between the unique indecomposables.

    On a Dynkin quiver each positive root has one indecomposable up to
    isomorphism, so ext_dim between Schur witnesses is exact, not sampled.
    """
    key = (q, field.name, a, b)
    if key not in _exact_ext_cache:
        ma = _schur_witness(q, a, field, seed)
        mb = _schur_witness(q, b, field, seed + 1)
        _exact_ext_cache[key] = ext_dim(ma, mb)
    return _exact_ext_cache[key]


def _shifted_compatible(x: ComplexVertex, y: ComplexVertex) -> bool:
    """Root beta against shifted P(v)[1]: beta_v = 0.  Two shifted: always."""
    if x.kind == "shifted" and y.kind == "shifted":
        return True
    root, shifted = (y, x) if x.kind == "shifted" else (x, y)
    return root.vector[shifted.vertex] == 0


def compatible(
    q: Quiver, x: ComplexVertex, y: ComplexVertex, field: Field, seed: int = 0
) -> bool:
    """Pairwise virtual semi-tilting condition, with sampled generic ext.

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
    quiver: Quiver
    field: Field
    seed: int
    vertices: tuple[ComplexVertex, ...]
    facets: tuple[tuple[int, ...], ...]
    compat: tuple[tuple[bool, ...], ...]

    def ridges(self) -> tuple[tuple[int, ...], ...]:
        seen: set[tuple[int, ...]] = set()
        for facet in self.facets:
            for ridge in itertools.combinations(facet, len(facet) - 1):
                seen.add(ridge)
        return tuple(sorted(seen))

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
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise ZeroCoefficientsError("zero vector has no ray")
    return tuple(int(x) // g for x in vec)


def _dynkin_compatible(q: Quiver, x: ComplexVertex, y: ComplexVertex) -> bool:
    """Closed form on a Dynkin quiver.  The AR quiver is directed, so hom and
    ext between indecomposables are never both nonzero: ext(a, b) =
    max(0, -<a, b>), and two roots are compatible iff both forms are >= 0."""
    if x.kind == "shifted" or y.kind == "shifted":
        return _shifted_compatible(x, y)
    return (
        euler_form(q, x.vector, y.vector) >= 0
        and euler_form(q, y.vector, x.vector) >= 0
    )


def build_complex(q: Quiver, field: Field, seed: int = 0) -> TiltingComplex:
    """Clique complex of the compatibility graph, with build-time invariants.

    Compatibility is exact Euler-form arithmetic, so the complex does not
    depend on `field` or `seed`; both are kept for `verify_sphere`'s covering
    test.  Every maximal clique must have exactly n vertices whose lambda
    vectors form a Z-basis (|det| = 1).
    """
    _require_dynkin(q)
    verts = complex_vertices(q)
    nv = len(verts)
    adj: list[set[int]] = [set() for _ in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            if _dynkin_compatible(q, verts[i], verts[j]):
                adj[i].add(j)
                adj[j].add(i)
    facets = _max_cliques(adj, nv)
    for facet in facets:
        if len(facet) != q.n:
            raise InvariantViolationError(
                f"maximal clique {facet} has size {len(facet)}, not {q.n}"
            )
        det = linalg.int_bareiss_det([verts[i].lam for i in facet])
        if abs(det) != 1:
            raise InvariantViolationError(
                f"facet {facet} has lambda determinant {det}, not +-1"
            )
    compat = tuple(tuple(j in adj[i] for j in range(nv)) for i in range(nv))
    return TiltingComplex(
        quiver=q,
        field=field,
        seed=seed,
        vertices=verts,
        facets=tuple(facets),
        compat=compat,
    )


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
    denom_lcm = 1
    for x in combo:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
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


def _collect_faces(c: TiltingComplex) -> set[tuple[int, ...]]:
    """Nonempty faces as sorted tuples (facets are sorted, so combinations are)."""
    faces: set[tuple[int, ...]] = set()
    for facet in c.facets:
        for size in range(1, len(facet) + 1):
            faces.update(itertools.combinations(facet, size))
    return faces


def verify_sphere(c: TiltingComplex, samples: int = 200) -> SphereReport:
    """All structural sphere checks for a built Dynkin complex.

    Purity, every ridge in exactly two facets, facet-adjacency connectivity,
    Euler characteristic of S^{n-1}, injectivity of lambda on vertices, and a
    covering test: the generic decomposition of each of `samples` random
    integer vectors must be supported on a face.
    """
    q = c.quiver
    n = q.n
    failures: list[str] = []
    if any(len(f) != n for f in c.facets):
        failures.append("impure: facet of wrong size")
    by_ridge: dict[tuple[int, ...], list[int]] = {}
    for fi, facet in enumerate(c.facets):
        for ridge in itertools.combinations(facet, n - 1):
            by_ridge.setdefault(ridge, []).append(fi)
    bad = [r for r, members in by_ridge.items() if len(members) != 2]
    if bad:
        failures.append(f"{len(bad)} ridges not in exactly 2 facets")
    # connectivity of the facet adjacency graph (shared ridge = adjacency)
    if c.facets:
        neighbors: list[set[int]] = [set() for _ in c.facets]
        for members in by_ridge.values():
            for a, b in itertools.combinations(members, 2):
                neighbors[a].add(b)
                neighbors[b].add(a)
        seen = {0}
        queue = [0]
        while queue:
            cur = queue.pop()
            for nxt in neighbors[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(seen) != len(c.facets):
            failures.append("facet adjacency graph is disconnected")
    faces = _collect_faces(c)
    face_counts = [0] * n
    for face in faces:
        face_counts[len(face) - 1] += 1
    chi = sum((-1) ** k * face_counts[k] for k in range(n))
    expected_chi = 1 + (-1) ** (n - 1)
    if chi != expected_chi:
        failures.append(f"Euler characteristic {chi}, expected {expected_chi}")
    rays = [_to_sphere(v.lam).ray for v in c.vertices]
    if len(set(rays)) != len(rays):
        failures.append("lambda is not injective on vertices")
    # covering: random integer vectors decompose over a single face
    rng = derive_rng(c.seed, "covering", q.names, q.arrows)
    root_index = {
        v.vector: i for i, v in enumerate(c.vertices) if v.kind == "root"
    }
    shifted_index = {
        v.vertex: i for i, v in enumerate(c.vertices) if v.kind == "shifted"
    }
    checked = 0
    while checked < samples:
        x = tuple(int(e) for e in rng.integers(-6, 7, size=n))
        if not any(x):
            continue
        checked += 1
        dec = generic_decomposition(
            q, x, c.field, seed=mix_seed(c.seed, "covering", x)
        )
        support = set()
        missing = False
        for part in set(dec.schur_parts):
            if part not in root_index:
                failures.append(f"part {part} of {x} is not a complex vertex")
                missing = True
                break
            support.add(root_index[part])
        if missing:
            break
        for v in range(n):
            if dec.gamma[v]:
                support.add(shifted_index[v])
        if not c.is_face(support):
            failures.append(f"decomposition support of {x} is not a face")
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
    """Exact test: is the point a nonnegative rational combination of the
    ridge's lambda vectors?"""
    point = check_dim_vector(c.quiver, point)
    cols = [c.vertices[i].lam for i in ridge]
    a = QQ.mat_of(c.quiver.n, len(cols), [[col[r] for col in cols] for r in range(c.quiver.n)])
    b = QQ.mat_of(c.quiver.n, 1, [[x] for x in point])
    sol = QQ.solve(a, b)
    if sol is None:
        return False
    return all(sol[i, 0] >= 0 for i in range(len(cols)))


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


def complex_to_json(c: TiltingComplex, walls: bool = True) -> str:
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
    }
    if walls:
        data["walls"] = [
            {"ridge": list(ridge), "labels": [list(b) for b in labels]}
            for ridge, labels in wall_labels(c).items()
        ]
    return json.dumps(data, indent=2)


def complex_from_json(q: Quiver, field: Field, text: str) -> TiltingComplex:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad complex JSON: {exc}") from None
    if not isinstance(data, dict) or "vertices" not in data or "facets" not in data:
        raise ParseError("complex JSON needs 'vertices' and 'facets'")
    verts = []
    for entry in data["vertices"]:
        vertex = entry.get("vertex")
        verts.append(
            ComplexVertex(
                kind=entry["kind"],
                vector=tuple(int(x) for x in entry["vector"]),
                vertex=q.index(vertex) if vertex is not None else None,
            )
        )
    facets = tuple(tuple(int(i) for i in f) for f in data["facets"])
    nv = len(verts)
    compat = tuple(
        tuple(
            i != j and any(i in f and j in f for f in facets)
            for j in range(nv)
        )
        for i in range(nv)
    )
    return TiltingComplex(
        quiver=q,
        field=field,
        seed=0,
        vertices=tuple(verts),
        facets=facets,
        compat=compat,
    )


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
    facet-size guarantees are made; cliques are reported as found."""
    from .decomposition import is_schur_root

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
            if compatible(q, verts[i], verts[j], field, seed):
                adj[i].add(j)
                adj[j].add(i)
    cliques = _max_cliques(adj, nv)
    return {
        "vertices": verts,
        "cliques": tuple(cliques),
        "clique_sizes": tuple(sorted({len(cl) for cl in cliques})),
    }
