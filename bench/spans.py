"""Outside-in span tracing of vsi's public functions.

The benchmark wraps each traced function at every vsi module that binds it
by name (for example `decomposition` binds `generic_ext` from `reps`, and
`cluster` binds `cached_generic_ext`), so calls between modules and recursive
calls are both recorded.  Spans (name, start, end, parent, op id) are kept in
flat integer arrays while the timed phase runs and are written out after it.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# <module>.<function> pairs, by the module that defines the function.
TRACED = (
    "quiver.euler_form",
    "quiver.tits_form",
    "fields.mix_seed",
    "linalg.gf_rref",
    "linalg.gf_det",
    "linalg.gf_charpoly",
    "linalg.gf_matpow",
    "linalg.gf_poly_factors",
    "linalg.int_rank",
    "linalg.qq_rref",
    "linalg.qq_charpoly",
    "linalg.qq_poly_factors",
    "reps.random_rep",
    "reps.hom_dim",
    "reps.hom_space",
    "reps.generic_ext",
    "reps.fitting_decompose",
    "presentations.random_presentation",
    "presentations.hom_matrix",
    "presentations.cv_value",
    "decomposition.cached_generic_ext",
    "decomposition.is_schur_root",
    "decomposition.generic_decomposition",
    "decomposition.d_beta_halfspaces",
    "decomposition.d_membership",
    "decomposition.supp_test_randomized",
    "cluster.complex_vertices",
    "cluster.positive_roots",
    "cluster.compatible",
    "cluster.build_complex",
    "cluster.wall_labels",
    "cluster.verify_sphere",
)

# Functions whose input size is summed as rows x columns of the matrix.
CELLS = {"linalg.gf_rref": 1, "linalg.qq_rref": 0}

# ratio name -> (child, parent): 1 - (child calls made directly under the
# parent) / (parent calls), the share of parent calls the cache answered.
CACHE_RATIOS = {
    "decomposition.ext_cache_hit_ratio":
        ("reps.generic_ext", "decomposition.cached_generic_ext"),
    "decomposition.halfspace_cache_hit_ratio":
        ("decomposition.d_beta_halfspaces", "decomposition.d_membership"),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cells = {n: 0 for n in CELLS}
        self._stack: list[int] = []

    def _wrap(self, label: str, fn):
        tag = TRACED.index(label)
        cell_arg = CELLS.get(label)
        stack, clock = self._stack, time.perf_counter_ns
        names, parents, opids = self.name, self.parent, self.opid
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if cell_arg is not None:
                shape = args[cell_arg].shape
                self.cells[label] += shape[0] * shape[1]
            i = len(names)
            names.append(tag)
            parents.append(stack[-1] if stack else -1)
            opids.append(self.op)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded vsi module."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "vsi" or k.startswith("vsi."))]
        for label in TRACED:
            mod, fn_name = label.split(".")
            fn = getattr(sys.modules["vsi." + mod], fn_name)
            wrapper = self._wrap(label, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)

    def summary(self) -> dict:
        """Per-function call counts and self times, plus the derived ratios."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(TRACED))
        self_s = np.bincount(name, weights=self_ns, minlength=len(TRACED)) / 1e9
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        out = {}
        for k, label in enumerate(TRACED):
            out[label + ".calls"] = int(calls[k])
            out[label + ".self_s"] = float(self_s[k])
        for label in CELLS:
            out[label + ".cells"] = self.cells[label]

        def under(child_label, parent_label):
            return int(np.count_nonzero(
                (name == TRACED.index(child_label))
                & (parent_name == TRACED.index(parent_label))))

        def ratio(num, den):
            return num / den if den else 0.0

        for ratio_name, (c, p) in CACHE_RATIOS.items():
            base = out[p + ".calls"]
            out[ratio_name] = 1.0 - ratio(under(c, p), base) if base else 0.0
        fit = TRACED.index("reps.fitting_decompose")
        top_fits = int(np.count_nonzero(
            (name == fit) & (parent_name != fit)))
        out["decomposition.samples_per_call"] = ratio(
            top_fits, out["decomposition.generic_decomposition.calls"])
        out["cluster.attempts_per_build"] = ratio(
            out["cluster.complex_vertices.calls"],
            out["cluster.build_complex.calls"])
        out["traced_self_s"] = float(self_ns.sum()) / 1e9
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            labels=np.array(TRACED),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
