"""Quiver arithmetic the benchmark checks answers with, independent of vsi.

Everything here is plain integer code written from the definitions: the
Euler form of an acyclic quiver, its Tits form, positive roots of a Dynkin
quiver by closing the simple roots under reflections, and the face counts of
a simplicial complex given by its facets.  None of it calls the program.
"""

from __future__ import annotations

import itertools

# Facet counts of the cluster complexes of types A5, D5 and E6 (Fomin and
# Zelevinsky, Ann. of Math. 158, 2003); they do not depend on orientation.
FACET_COUNTS = {"A5": 132, "D5": 182, "E6": 833}


class QuiverSpec:
    """A quiver as the benchmark describes it: names, arrows, a label."""

    def __init__(self, label: str, names, arrows):
        self.label = label
        self.names = tuple(names)
        self.arrows = tuple(tuple(a) for a in arrows)
        index = {v: i for i, v in enumerate(self.names)}
        self.n = len(self.names)
        self.edges = tuple((index[t], index[h]) for t, h in self.arrows)
        e = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        for t, h in self.edges:
            e[t][h] -= 1
        self.euler = tuple(tuple(row) for row in e)

    def key(self) -> str:
        return self.label + ":" + ",".join(t + ">" + h for t, h in self.arrows)

    def form(self, a, b) -> int:
        """<a, b> = sum_v a_v b_v - sum over arrows t -> h of a_t b_h."""
        return sum(a[i] * self.euler[i][j] * b[j]
                   for i in range(self.n) for j in range(self.n))

    def tits(self, a) -> int:
        return self.form(a, a)

    def transpose_apply(self, a):
        """E^t a, the map that sends sum(parts) - alpha to gamma."""
        return tuple(sum(self.euler[i][j] * a[i] for i in range(self.n))
                     for j in range(self.n))

    def projective(self, v: int) -> tuple:
        """dim P(v): the number of paths from v to each vertex."""
        counts = [0] * self.n

        def walk(u):
            counts[u] += 1
            for t, h in self.edges:
                if t == u:
                    walk(h)

        walk(v)
        return tuple(counts)

    def canonical_mu(self, a) -> tuple:
        """mu of the unique a = mu - sum_v gamma_v dim P(v) with mu, gamma >= 0
        of disjoint supports: clear negative entries in vertex order (P(v) is
        supported on v and its successors, so cleared entries stay cleared)."""
        cur = list(a)
        for v in self.order():
            if cur[v] < 0:
                c = -cur[v]
                p = self.projective(v)
                cur = [x + c * y for x, y in zip(cur, p)]
        return tuple(cur)

    def order(self) -> list[int]:
        """A topological order of the vertices (arrows point forward)."""
        indeg = [0] * self.n
        for _, h in self.edges:
            indeg[h] += 1
        ready = [v for v in range(self.n) if indeg[v] == 0]
        out = []
        while ready:
            u = ready.pop()
            out.append(u)
            for t, h in self.edges:
                if t == u:
                    indeg[h] -= 1
                    if indeg[h] == 0:
                        ready.append(h)
        return out

    def positive_roots(self) -> tuple:
        """Positive roots of a Dynkin quiver: the reflection orbit of the
        simple roots under s_i(x) = x - (C x)_i e_i, C = E + E^t."""
        cartan = [[self.euler[i][j] + self.euler[j][i] for j in range(self.n)]
                  for i in range(self.n)]
        simples = [tuple(int(i == v) for i in range(self.n))
                   for v in range(self.n)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            x = frontier.pop()
            for i in range(self.n):
                c = sum(cartan[i][j] * x[j] for j in range(self.n))
                y = tuple(x[j] - c * (j == i) for j in range(self.n))
                if all(v >= 0 for v in y) and any(y) and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))


def face_counts(facets, dim: int) -> list[int]:
    """f-vector (vertices, edges, ...) of the complex generated by facets."""
    faces = set()
    for facet in facets:
        for size in range(1, len(facet) + 1):
            faces.update(frozenset(s) for s in itertools.combinations(facet, size))
    counts = [0] * dim
    for face in faces:
        counts[len(face) - 1] += 1
    return counts


def ridges_of(facets) -> set:
    return {frozenset(r) for f in facets
            for r in itertools.combinations(sorted(f), len(f) - 1)}
