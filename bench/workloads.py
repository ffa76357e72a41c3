"""The four benchmark workloads: seeded plans, timed operations, answer checks.

Inputs come from fixed pools that are generated here from constant pool
seeds; a run's seed picks a plan from the pools (which vectors, quivers,
orientations and program seeds), and the program sees only the inputs.  The
pools are finite so that every answer a plan can ask for has a committed
digest in answers.json; make_answers.py regenerates that file.

Answers are checked twice.  Checks written from the definitions in oracle.py
do not trust the program; the committed digests catch a change of answer.
The digests cover only answers that do not depend on the field or on the
program's sampling seed: sorted decomposition parts, facets and walls as sets
of lambda vectors, subrepresentation vectors and membership verdicts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

import calibrate
from oracle import FACET_COUNTS, QuiverSpec, face_counts, ridges_of

WORKLOADS = ("decompose", "complex", "support", "rationals")

FP = "fp:32003"

A3 = QuiverSpec("A3", "123", [("1", "2"), ("2", "3")])
D4 = QuiverSpec("D4", "1234", [("1", "4"), ("2", "4"), ("3", "4")])
EX = QuiverSpec("EX", "123", [("1", "2"), ("2", "3"), ("2", "3")])
D5 = QuiverSpec("D5", "12345", [("1", "3"), ("2", "3"), ("3", "4"), ("4", "5")])
E6 = QuiverSpec("E6", "123456",
                [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("6", "3")])
# The warm-up quiver; no workload uses it.
WARMUP = QuiverSpec("A2", "12", [("2", "1")])

DYNKIN_EDGES = {
    "A5": [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")],
    "D5": [("1", "3"), ("2", "3"), ("3", "4"), ("4", "5")],
    "E6": [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("6", "3")],
}

# Plan sizes.  decompose: the cost of one decomposition grows steeply and
# unevenly with |mu|, the total dimension of the sampled representation, and
# varies with the program seed, so a plain draw of a few vectors would make a
# plan's cost mostly luck.  Each plan therefore takes, per quiver, a fixed
# core of pool vectors at evenly spaced ranks by |mu| (the largest included)
# under fixed program seeds, which carries most of the cost, and one seeded
# draw from each of a few strata of the lighter two thirds of the rest, under
# seeded program seeds.  The draws are a fifth of the operations, so that the
# fixed core sets most of the median latency.
DECOMPOSE_CORE, DECOMPOSE_DRAWS, DECOMPOSE_SEEDS = 8, 2, 2
# Pool vectors have |mu| <= 32: the rare vector above it costs seconds per
# call and would dominate any plan that drew it.
DECOMPOSE_MAX_MU = 32
# complex: the orientations (see orientation()) of each Dynkin type in every
# plan; the seed picks the program seeds and the order.  They are fixed
# because the cost differs between orientations of one type, and with seeded
# picks the median operation hinged on the seed.  The facet-count oracle
# holds for every orientation.
COMPLEX_ORIENTATIONS = {"A5": (0, 5), "D5": (0, 5), "E6": (21,)}
# support: betas per pool, questions per beta.  Every plan takes the E6
# highest root and all six betas just past it, the costliest D(beta) builds,
# so that the tail always measures the same kind of build.  Questions on EX
# and D4 cost about twice those on E6 roots below the highest; every plan
# takes all EX and D4 betas, so that the median falls in the middle of their
# questions, not on the edge between the two groups, where it would hinge on
# which betas the seed picked.
SUPPORT_BETAS = {"EX": 12, "D4": 12, "E6-root": 8, "E6-high": 1, "E6-past": 6}
SUPPORT_QUESTIONS = 16
# rationals: halfspace betas per quiver.  Every plan also takes all positive
# roots of A3 and D4, each under RATIONAL_ROOT_SEEDS seeded program seeds, so
# that the median operation is always a root, and all doubled simple roots
# under program seed 0, so that the failures over Q are the same in every
# plan (a sample of a decomposition that fails can, rarely, split by luck).
# Root decompositions vary in cost with the program seed; with two seeds per
# root the median moved by 13% with the run's seed.
RATIONAL_BETAS = 3
RATIONAL_ROOT_SEEDS = 4

# Seconds between calibration slices in the timed phase (one slice takes
# about 8 ms, so they cost about 4% of a pass).
CALIBRATE_EVERY_S = 0.2

POOL_VECTORS = 100
POOL_ALPHAS = 100


def vec_key(v) -> str:
    return ",".join(str(x) for x in v)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def orientation(kind: str, mask: int) -> QuiverSpec:
    """Orientation number `mask` of a Dynkin tree: bit k reverses edge k."""
    edges = DYNKIN_EDGES[kind]
    arrows = [(h, t) if mask >> k & 1 else (t, h)
              for k, (t, h) in enumerate(edges)]
    names = sorted({v for e in edges for v in e})
    return QuiverSpec(kind, names, arrows)


# -------------------------------------------------------------------- pools


def decompose_pool(spec: QuiverSpec) -> list[tuple]:
    """Distinct vectors with entries in [-6, 6] and |mu| at most
    DECOMPOSE_MAX_MU, sorted by |mu| from the largest."""
    rng = random.Random("decompose-pool:" + spec.key())
    seen: list[tuple] = []
    while len(seen) < POOL_VECTORS:
        a = tuple(rng.randint(-6, 6) for _ in range(spec.n))
        if (any(a) and a not in seen
                and sum(spec.canonical_mu(a)) <= DECOMPOSE_MAX_MU):
            seen.append(a)
    return sorted(seen, key=lambda a: (-sum(spec.canonical_mu(a)), a))


def support_betas() -> dict[str, list[tuple]]:
    rng = random.Random("support-betas")
    pools: dict[str, list[tuple]] = {"EX": [], "D4": []}
    for label, spec, tops in (("EX", EX, (2, 3, 4)), ("D4", D4, (2, 2, 2, 3))):
        while len(pools[label]) < 12:
            b = tuple(rng.randint(0, t) for t in tops)
            if any(b) and b not in pools[label]:
                pools[label].append(b)
    roots = E6.positive_roots()
    high = max(roots, key=sum)
    pools["E6-root"] = [r for r in roots if r != high]
    pools["E6-high"] = [high]
    pools["E6-past"] = [tuple(h + (i == v) for i, h in enumerate(high))
                        for v in range(E6.n)]
    return pools


def alpha_pool(spec: QuiverSpec, beta) -> list[tuple]:
    """Vectors alpha with <alpha, beta> = 0 and entries at most 6: lattice
    points of the hyperplane with mixed signs, nonnegative ones and, on
    Dynkin quivers, sums of one or two positive roots perpendicular to beta,
    taken in turn."""
    rng = random.Random("alphas:" + spec.key() + ":" + vec_key(beta))
    w = [sum(spec.euler[i][j] * beta[j] for j in range(spec.n))
         for i in range(spec.n)]
    pivot = min((i for i in range(spec.n) if w[i]), key=lambda i: abs(w[i]))
    free = [i for i in range(spec.n) if i != pivot]

    box = 6 if spec.n <= 4 else 3  # keeps the E6 enumeration small

    def lattice(lo):
        found = []
        for values in itertools.product(range(lo, box + 1), repeat=len(free)):
            rest = sum(v * w[i] for v, i in zip(values, free))
            if rest % w[pivot] or abs(rest // w[pivot]) > 6:
                continue
            a = [0] * spec.n
            for v, i in zip(values, free):
                a[i] = v
            a[pivot] = -rest // w[pivot]
            if any(a):
                found.append(tuple(a))
        return found

    perp = ([r for r in spec.positive_roots() if spec.form(r, beta) == 0]
            if spec is not EX else [])
    sums = sorted({tuple(x + y for x, y in zip(r, s))
                   for r in perp for s in perp + [(0,) * spec.n]})
    sources = [lattice(-box), lattice(0), sums]
    for src in sources:
        rng.shuffle(src)
    out: list[tuple] = []
    seen: set[tuple] = set()
    while len(out) < POOL_ALPHAS and any(sources):
        for src in sources:
            while src and src[-1] in seen:
                src.pop()
            if src and len(out) < POOL_ALPHAS:
                seen.add(src[-1])
                out.append(src.pop())
    return out


def rational_pool() -> dict[str, list[tuple]]:
    """Decomposition inputs over Q: positive roots, which are Schur and must
    decompose to themselves, and doubled simple roots, whose mu has a
    repeated summand (Fitting over Q cannot split S (+) S today)."""
    pools = {}
    for spec in (A3, D4):
        pools[spec.label + "-root"] = list(spec.positive_roots())
        pools[spec.label + "-double"] = [
            tuple(2 * (i == v) for i in range(spec.n)) for v in range(spec.n)]
    return pools


SPECS = {"A3": A3, "D4": D4, "EX": EX, "D5": D5, "E6": E6}


# -------------------------------------------------------------------- plans


def make_plan(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")

    def prog_seed():
        return rng.randrange(1 << 20)

    if workload == "decompose":
        ops = []
        for spec in (A3, D4, EX, D5):
            pool = decompose_pool(spec)
            core = [pool[i * len(pool) // DECOMPOSE_CORE]
                    for i in range(DECOMPOSE_CORE)]
            rest = [a for a in pool if a not in core]
            light = rest[len(rest) // 3:]
            draws = [rng.choice(light[k * len(light) // DECOMPOSE_DRAWS:
                                      (k + 1) * len(light) // DECOMPOSE_DRAWS])
                     for k in range(DECOMPOSE_DRAWS)]
            for a in core:
                ops.append({"quiver": spec.label, "alpha": a,
                            "seeds": list(range(DECOMPOSE_SEEDS))})
            for a in draws:
                ops.append({"quiver": spec.label, "alpha": a,
                            "seeds": [prog_seed() for _ in range(DECOMPOSE_SEEDS)]})
        rng.shuffle(ops)
    elif workload == "complex":
        ops = []
        for kind, masks in COMPLEX_ORIENTATIONS.items():
            for mask in masks:
                ops.append({"kind": kind, "mask": mask, "seed": prog_seed()})
        rng.shuffle(ops)
    elif workload == "support":
        pools = support_betas()
        ops = []
        for pool, count in SUPPORT_BETAS.items():
            for b in rng.sample(pools[pool], count):
                spec = SPECS[pool.split("-")[0]]
                pool_alphas = alpha_pool(spec, b)
                picks = rng.sample(range(len(pool_alphas)), SUPPORT_QUESTIONS)
                ops.append({"quiver": spec.label, "beta": b, "picks": picks,
                            "alphas": [pool_alphas[i] for i in picks],
                            "seed": prog_seed()})
        rng.shuffle(ops)
    elif workload == "rationals":
        betas = support_betas()
        pools = rational_pool()
        ops = []
        for label in ("EX", "D4"):
            for b in rng.sample(betas[label], RATIONAL_BETAS):
                ops.append({"op": "halfspaces", "quiver": label, "beta": b})
        for label in ("A3", "D4"):
            for a in pools[label + "-root"] * RATIONAL_ROOT_SEEDS:
                ops.append({"op": "decompose", "quiver": label, "alpha": a,
                            "seed": prog_seed()})
            for a in pools[label + "-double"]:
                ops.append({"op": "decompose", "quiver": label, "alpha": a,
                            "seed": 0})
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops}


# ------------------------------------------------------------- timed phase


class Failed:
    """Marks an operation that raised VsiError; it has no answer to check."""

    def __init__(self, kind: str):
        self.kind = kind


class OpClock:
    """Closed-loop timing of unit operations, one after another.

    Between operations, at least every CALIBRATE_EVERY_S, it times one slice
    of the calibration kernel; the slices' wall and CPU time is kept apart so
    the worker can take it out of the timed phase."""

    def __init__(self, lib, tracer=None):
        self.lib = lib
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.slices: list[float] = []
        self.slice_wall = 0.0
        self.slice_cpu = 0.0
        self._next_slice = 0.0

    def calibrate(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.slices.append(calibrate.timed_slice())
        t1 = time.perf_counter()
        self.slice_wall += t1 - t0
        self.slice_cpu += time.process_time() - c0
        self._next_slice = t1 + CALIBRATE_EVERY_S

    def call(self, fn, *args, **kwargs):
        if time.perf_counter() >= self._next_slice:
            self.calibrate()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted - 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except self.lib.VsiError as exc:
            out = Failed(type(exc).__name__)
        self.latencies.append(time.perf_counter() - t0)
        if isinstance(out, Failed):
            self._fail(out.kind)
        return out

    def skip(self):
        """An operation that cannot run because the one it needs failed."""
        self.attempted += 1
        self._fail("skipped")
        return Failed("skipped")

    def _fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1


class Bound:
    """A spec's quiver in vsi.  vsi numbers vertices in its own canonical
    order; vectors are translated at this boundary, so plans, checks and
    digests all use the benchmark's vertex order."""

    def __init__(self, lib, spec: QuiverSpec):
        self.spec = spec
        self.q = lib.Quiver(list(spec.names), [tuple(a) for a in spec.arrows])
        self.pos = [self.q.names.index(v) for v in spec.names]

    def put(self, v) -> tuple:
        out = [0] * len(self.pos)
        for i, p in enumerate(self.pos):
            out[p] = v[i]
        return tuple(out)

    def get(self, w) -> tuple:
        return tuple(int(w[p]) for p in self.pos)


def warm_up(lib) -> None:
    """One call on a quiver no workload uses; pulls in the lazy sympy import
    of polynomial factoring without filling any cache key a workload uses."""
    lib.generic_decomposition(Bound(lib, WARMUP).q, (2, 1),
                              lib.parse_field(FP), seed=0)


def run_plan(lib, plan: dict, clock: OpClock) -> list:
    """Run every operation of the plan; returns the raw answers in order.
    Each quiver is built once, as a caller reusing it would."""
    workload = plan["workload"]
    fp = lib.parse_field(FP)
    bound: dict[str, Bound] = {}

    def quiver(spec: QuiverSpec) -> Bound:
        if spec.key() not in bound:
            bound[spec.key()] = Bound(lib, spec)
        return bound[spec.key()]

    out = []
    if workload == "decompose":
        for op in plan["ops"]:
            g = quiver(SPECS[op["quiver"]])
            a = g.put(op["alpha"])
            out.append([clock.call(lib.generic_decomposition, g.q, a, fp, seed=s)
                        for s in op["seeds"]])
    elif workload == "complex":
        for op in plan["ops"]:
            g = quiver(orientation(op["kind"], op["mask"]))
            c = clock.call(lib.build_complex, g.q, fp, seed=op["seed"])
            if isinstance(c, Failed):
                out.append((c, clock.skip(), clock.skip()))
                continue
            walls = clock.call(lib.wall_labels, c)
            report = clock.call(lib.verify_sphere, c, samples=0)
            out.append((c, walls, report))
    elif workload == "support":
        for op in plan["ops"]:
            g = quiver(SPECS[op["quiver"]])
            q, b, s = g.q, g.put(op["beta"]), op["seed"]

            def question(a):
                member = lib.d_membership(q, a, b, fp)
                sampled = lib.supp_test_randomized(q, a, b, fp, seed=s, trials=5)
                if sampled != member:
                    # the acceptance suite's retry rule: any of three fresh
                    # seeds reproducing the exact verdict settles it
                    return member, any(
                        lib.supp_test_randomized(q, a, b, fp, seed=s + k, trials=5)
                        == member for k in (1, 2, 3))
                return member, True

            alphas = [g.put(a) for a in op["alphas"]]
            out.append([clock.call(question, a) for a in alphas])
    elif workload == "rationals":
        qq = lib.parse_field("q")
        for op in plan["ops"]:
            g = quiver(SPECS[op["quiver"]])
            if op["op"] == "halfspaces":
                out.append(clock.call(lib.d_beta_halfspaces, g.q,
                                      g.put(op["beta"]), qq))
            else:
                out.append(clock.call(lib.generic_decomposition, g.q,
                                      g.put(op["alpha"]), qq, seed=op["seed"]))
    return out


# ------------------------------------------------------------ answer checks


def decomposition_answer(g: Bound, dec) -> dict:
    return {"parts": sorted(list(g.get(p)) for p in dec.schur_parts),
            "gamma": list(g.get(dec.gamma))}


def check_decomposition(spec: QuiverSpec, alpha, answer: dict) -> list[str]:
    """Definition-level checks of one generic decomposition."""
    errors = []
    parts = [tuple(p) for p in answer["parts"]]
    gamma = tuple(answer["gamma"])
    where = f"{spec.label} alpha={vec_key(alpha)}"
    if any(x < 0 for x in gamma) or any(x < 0 for p in parts for x in p):
        errors.append(f"{where}: negative entry in the answer")
    total = [sum(p[v] for p in parts) for v in range(spec.n)]
    if spec.transpose_apply([t - a for t, a in zip(total, alpha)]) != gamma:
        errors.append(f"{where}: parts minus (E^t)^-1 gamma is not alpha")
    if any(p[v] and gamma[v] for p in parts for v in range(spec.n)):
        errors.append(f"{where}: a part meets the support of gamma")
    if any(not any(p) for p in parts):
        errors.append(f"{where}: zero part")
    if spec is not EX and any(spec.tits(p) != 1 for p in parts):
        errors.append(f"{where}: a part is not a real root")
    return errors


def complex_answer(g: Bound, c, walls) -> dict:
    """Facets and walls as sets of lambda vectors, in the bench's order."""
    lam = [g.get(tuple(-x for x in v.vector) if v.kind == "shifted" else v.vector)
           for v in c.vertices]
    return {
        "facets": sorted(sorted(list(lam[i]) for i in f) for f in c.facets),
        "walls": sorted([sorted(list(lam[i]) for i in r),
                         sorted(list(g.get(b)) for b in bs)]
                        for r, bs in walls.items()),
    }


def check_complex(spec: QuiverSpec, answer: dict, report) -> list[str]:
    errors = []
    where = spec.key()
    n = spec.n
    roots = set(spec.positive_roots())
    facets = [[tuple(x) for x in f] for f in answer["facets"]]
    vertices = sorted({x for f in facets for x in f})
    expected = sorted(roots | {tuple(-x for x in spec.projective(v))
                               for v in range(n)})
    if vertices != expected:
        errors.append(f"{where}: vertices are not the roots and shifted projectives")
    if len(facets) != FACET_COUNTS[spec.label]:
        errors.append(f"{where}: {len(facets)} facets, "
                      f"expected {FACET_COUNTS[spec.label]}")
    counts = face_counts(facets, n)
    chi = sum((-1) ** k * counts[k] for k in range(n))
    if chi != 1 + (-1) ** (n - 1):
        errors.append(f"{where}: Euler characteristic {chi}")
    walls = {frozenset(tuple(x) for x in r): [tuple(b) for b in bs]
             for r, bs in answer["walls"]}
    if set(walls) != ridges_of(facets):
        errors.append(f"{where}: labelled walls are not the ridges")
    for ridge, labels in walls.items():
        if not labels:
            errors.append(f"{where}: a ridge has no label")
            break
        if any(b not in roots or any(spec.form(x, b) for x in ridge)
               for b in labels):
            errors.append(f"{where}: a ridge has a wrong label")
            break
    if report.failures or report.euler_characteristic != chi:
        errors.append(f"{where}: verify_sphere disagrees: {report.failures}")
    return errors


def check_answers(lib, plan: dict, answers: list, committed: dict) -> list[str]:
    """Every check of one plan's answers; returns the failures found."""
    workload = plan["workload"]
    errors: list[str] = []

    def against(table, key, value):
        want = committed[table].get(key)
        if want is None:
            errors.append(f"no committed answer for {table} {key}")
        elif want != value:
            errors.append(f"{table} {key}: answer differs from the committed digest")

    if workload == "decompose":
        for op, decs in zip(plan["ops"], answers):
            g = Bound(lib, SPECS[op["quiver"]])
            shapes = set()
            for d in decs:
                if isinstance(d, Failed):
                    continue
                answer = decomposition_answer(g, d)
                errors += check_decomposition(g.spec, op["alpha"], answer)
                shapes.add(digest(answer))
            if len(shapes) > 1:
                errors.append(f"{g.spec.label} alpha={vec_key(op['alpha'])}: "
                              "parts differ between seeds")
            for h in shapes:
                against("decompose", f"{g.spec.label}|{vec_key(op['alpha'])}", h)
    elif workload == "complex":
        for op, (c, walls, report) in zip(plan["ops"], answers):
            if any(isinstance(x, Failed) for x in (c, walls, report)):
                continue
            g = Bound(lib, orientation(op["kind"], op["mask"]))
            answer = complex_answer(g, c, walls)
            errors += check_complex(g.spec, answer, report)
            against("complex", f"{op['kind']}|{op['mask']}", digest(answer))
    elif workload == "support":
        for op, verdicts in zip(plan["ops"], answers):
            key = f"{op['quiver']}|{vec_key(op['beta'])}"
            want = committed["support"].get(key)
            if want is None:
                errors.append(f"no committed answer for support {key}")
                continue
            for a, i, v in zip(op["alphas"], op["picks"], verdicts):
                if isinstance(v, Failed):
                    continue
                member, agreed = v
                if not agreed:
                    errors.append(f"{key} alpha={vec_key(a)}: membership and "
                                  "the randomized test disagree")
                if want[i] != "01"[member]:
                    errors.append(f"support {key} alpha={vec_key(a)}: verdict "
                                  "differs from the committed one")
    elif workload == "rationals":
        fp = lib.parse_field(FP)
        for op, got in zip(plan["ops"], answers):
            if isinstance(got, Failed):
                continue
            g = Bound(lib, SPECS[op["quiver"]])
            label = g.spec.label
            if op["op"] == "halfspaces":
                b = tuple(op["beta"])
                ref = lib.d_beta_halfspaces(g.q, g.put(b), fp)
                if (got.subreps, got.equality, got.inequalities) != (
                        ref.subreps, ref.equality, ref.inequalities):
                    errors.append(f"{label} beta={vec_key(b)}: Q and {FP} "
                                  "halfspace systems differ")
                against("halfspaces", f"{label}|{vec_key(b)}",
                        digest(sorted(list(g.get(s)) for s in got.subreps)))
            else:
                a = tuple(op["alpha"])
                answer = decomposition_answer(g, got)
                errors += check_decomposition(g.spec, a, answer)
                try:
                    ref = lib.generic_decomposition(g.q, g.put(a), fp,
                                                    seed=op["seed"])
                except lib.VsiError as exc:
                    errors.append(f"{label} alpha={vec_key(a)}: {FP} "
                                  f"reference failed: {exc}")
                    continue
                if answer != decomposition_answer(g, ref):
                    errors.append(f"{label} alpha={vec_key(a)}: Q and {FP} "
                                  "decompositions differ")
                against("decompose", f"{label}|{vec_key(a)}", digest(answer))
    return errors
