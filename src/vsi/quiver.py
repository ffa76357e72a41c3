"""Finite acyclic quivers and their homological bookkeeping.

Vertices carry a fixed total order: a topological order of the arrows with ties
broken by input order.  Every dimension vector in this package is indexed by
that order, and the Euler matrix is upper unitriangular with respect to it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    OrientedCycleError,
    ParseError,
    UnknownVertexError,
)
from .linalg import leading_minors

DimVector = tuple[int, ...]
Path = tuple[int, ...]  # arrow indices, traversed left to right


def _topological_order(n: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for t, h in pairs:
        out[t].append(h)
        indeg[h] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        changed = False
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort()
    if len(order) < n:
        raise OrientedCycleError("arrow set admits an oriented cycle")
    return order


class Quiver:
    """A finite quiver without oriented cycles.

    `names` lists the vertices in the canonical order; `arrows` keeps the input
    arrow order with endpoints re-indexed into the canonical order.
    """

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str]]):
        names = [str(v) for v in vertices]
        if not names:
            raise ParseError("quiver needs at least one vertex")
        if len(set(names)) != len(names):
            raise ParseError("duplicate vertex names")
        pos = {nm: i for i, nm in enumerate(names)}
        pairs = []
        for t, h in arrows:
            t, h = str(t), str(h)
            if t not in pos:
                raise UnknownVertexError(f"unknown vertex {t!r}")
            if h not in pos:
                raise UnknownVertexError(f"unknown vertex {h!r}")
            pairs.append((pos[t], pos[h]))
        order = _topological_order(len(names), pairs)
        rank = [0] * len(names)
        for new, old in enumerate(order):
            rank[old] = new
        self.names: tuple[str, ...] = tuple(names[old] for old in order)
        self.arrows: tuple[tuple[int, int], ...] = tuple(
            (rank[t], rank[h]) for t, h in pairs
        )
        self._pos = {nm: i for i, nm in enumerate(self.names)}
        self._out: list[list[int]] = [[] for _ in self.names]
        for k, (t, _h) in enumerate(self.arrows):
            self._out[t].append(k)
        self._paths: dict[tuple[int, int], tuple[Path, ...]] = {}
        self._path_pos: dict[tuple[int, int], dict[Path, int]] = {}
        self._euler: EulerData | None = None

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[str(name)]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {name!r}") from None

    def paths(self, u: int, v: int) -> tuple[Path, ...]:
        """All directed paths u -> v as arrow-index tuples, deterministic order.

        The empty path sits at u == v; otherwise paths are ordered by first
        arrow (input order), then recursively.
        """
        key = (u, v)
        if key not in self._paths:
            if u == v:
                found: list[Path] = [()]
            else:
                found = []
                for k in self._out[u]:
                    for rest in self.paths(self.arrows[k][1], v):
                        found.append((k,) + rest)
            self._paths[key] = tuple(found)
            self._path_pos[key] = {p: i for i, p in enumerate(self._paths[key])}
        return self._paths[key]

    def path_index(self, u: int, v: int, path: Path) -> int:
        self.paths(u, v)
        return self._path_pos[(u, v)][path]

    def __repr__(self) -> str:
        arr = ", ".join(f"{self.names[t]}->{self.names[h]}" for t, h in self.arrows)
        return f"Quiver([{', '.join(self.names)}], [{arr}])"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quiver)
            and self.names == other.names
            and self.arrows == other.arrows
        )

    def __hash__(self) -> int:
        return hash((self.names, self.arrows))


def load_quiver(text: str) -> Quiver:
    """Parse a quiver from JSON or from the one-arrow-per-line format.

    JSON: {"vertices": ["1","2"], "arrows": [["1","2"], ...]}, names strings
    or integers.  Line format: `1 -> 2` per line (vertices inferred,
    first-appearance order); blank lines and lines starting with `#` are
    skipped.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty quiver description")
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad quiver JSON: {exc}") from None
        if not isinstance(data, dict) or not all(
            isinstance(data.get(k), list) for k in ("vertices", "arrows")
        ):
            raise ParseError("quiver JSON needs 'vertices' and 'arrows' lists")
        arrows = []
        for entry in data["arrows"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ParseError(f"bad arrow entry {entry!r}")
            arrows.append((_json_name(entry[0]), _json_name(entry[1])))
        return Quiver([_json_name(v) for v in data["vertices"]], arrows)
    vertices: list[str] = []
    arrows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ParseError(f"bad arrow line {line!r}")
        t, _, h = line.partition("->")
        t, h = t.strip(), h.strip()
        if not t or not h:
            raise ParseError(f"bad arrow line {line!r}")
        for nm in (t, h):
            if nm not in vertices:
                vertices.append(nm)
        arrows.append((t, h))
    return Quiver(vertices, arrows)


def _json_name(x) -> str:
    """A vertex name from quiver JSON: a string or an integer (not a bool)."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ParseError(f"vertex names must be strings or integers, got {x!r}")
    return str(x)


@dataclass(frozen=True)
class EulerData:
    """E together with the two inverses used everywhere downstream."""

    e: tuple[DimVector, ...]
    e_inv: tuple[DimVector, ...]
    et_inv: tuple[DimVector, ...]


def check_dim_vector(q: Quiver, a: Sequence[int]) -> DimVector:
    if len(a) != q.n:
        raise DimensionMismatchError(f"vector length {len(a)} != {q.n} vertices")
    try:
        return tuple(int(x) for x in a)
    except (TypeError, ValueError):
        raise DimensionMismatchError(f"non-integer entry in {a!r}") from None


def euler_matrix(q: Quiver) -> tuple[DimVector, ...]:
    """E = Id minus the arrow-count matrix; upper unitriangular."""
    m = [[1 if i == j else 0 for j in range(q.n)] for i in range(q.n)]
    for t, h in q.arrows:
        m[t][h] -= 1
    return tuple(tuple(row) for row in m)


def _unitriangular_inverse(m: Sequence[Sequence[int]]) -> tuple[DimVector, ...]:
    # exact back substitution; m is upper triangular with unit diagonal
    n = len(m)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            s = sum(m[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -s
    return tuple(tuple(row) for row in inv)


def euler_data(q: Quiver) -> EulerData:
    if q._euler is None:
        e = euler_matrix(q)
        e_inv = _unitriangular_inverse(e)
        et_inv = tuple(zip(*e_inv))  # inverse of the transpose
        q._euler = EulerData(e=e, e_inv=e_inv, et_inv=et_inv)
    return q._euler


def euler_form(q: Quiver, a: Sequence[int], b: Sequence[int]) -> int:
    """The nonsymmetric form <a,b> = a^t E b (= hom - ext for modules)."""
    a = check_dim_vector(q, a)
    b = check_dim_vector(q, b)
    e = euler_data(q).e
    return sum(a[i] * e[i][j] * b[j] for i in range(q.n) for j in range(q.n))


def tits_form(q: Quiver, a: Sequence[int]) -> int:
    return euler_form(q, a, a)


def symmetrized_euler(q: Quiver) -> list[list[int]]:
    e = euler_data(q).e
    return [[e[i][j] + e[j][i] for j in range(q.n)] for i in range(q.n)]


@functools.lru_cache(maxsize=64)
def is_dynkin(q: Quiver) -> bool:
    """Positive definiteness of E + E^t, by exact leading principal minors."""
    return all(m > 0 for m in leading_minors(symmetrized_euler(q)))


def apply_int_matrix(m: Sequence[DimVector], a: Sequence[int]) -> DimVector:
    return tuple(sum(row[j] * a[j] for j in range(len(a))) for row in m)


def proj_vector(q: Quiver, v: int | str) -> DimVector:
    """dim P(v): column v of (E^t)^{-1}."""
    i = q.index(v) if isinstance(v, str) else int(v)
    et_inv = euler_data(q).et_inv
    return tuple(et_inv[r][i] for r in range(q.n))


def inj_vector(q: Quiver, v: int | str) -> DimVector:
    """dim I(v): column v of E^{-1}."""
    i = q.index(v) if isinstance(v, str) else int(v)
    e_inv = euler_data(q).e_inv
    return tuple(e_inv[r][i] for r in range(q.n))


def tau(q: Quiver, a: Sequence[int]) -> DimVector:
    """Coxeter transform -E^{-1}E^t on dimension vectors."""
    a = check_dim_vector(q, a)
    d = euler_data(q)
    et_a = apply_int_matrix(tuple(zip(*d.e)), a)
    return tuple(-x for x in apply_int_matrix(d.e_inv, et_a))


def tau_inverse(q: Quiver, a: Sequence[int]) -> DimVector:
    a = check_dim_vector(q, a)
    d = euler_data(q)
    e_a = apply_int_matrix(d.e, a)
    return tuple(-x for x in apply_int_matrix(d.et_inv, e_a))


def path_count(q: Quiver, u: int, v: int) -> int:
    """Number of directed paths u -> v, read off E^{-1}."""
    return euler_data(q).e_inv[u][v]


def example_quiver() -> Quiver:
    """The bundled three-vertex example 1 -> 2 => 3 used throughout the docs."""
    return Quiver(["1", "2", "3"], [("1", "2"), ("2", "3"), ("2", "3")])
