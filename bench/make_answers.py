"""Regenerate answers.json, the committed digests of every answer a plan can
ask for, from the vsi source tree next to this directory.

    python3 bench/make_answers.py

Run it only when the pools in workloads.py change.  A change to vsi that
alters one of these answers is a correctness change, not a reason to run it.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import vsi  # noqa: E402
from workloads import (  # noqa: E402
    A3, D4, D5, DYNKIN_EDGES, EX, FP, SPECS, Bound, alpha_pool, complex_answer,
    decompose_pool, decomposition_answer, digest, orientation, rational_pool,
    support_betas, vec_key,
)


def main() -> int:
    fp = vsi.parse_field(FP)
    out = {"decompose": {}, "complex": {}, "support": {}, "halfspaces": {}}

    def decompose(spec, a):
        g = Bound(vsi, spec)
        dec = vsi.generic_decomposition(g.q, g.put(a), fp, seed=0)
        out["decompose"][f"{spec.label}|{vec_key(a)}"] = digest(
            decomposition_answer(g, dec))

    for spec in (A3, D4, EX, D5):
        for a in decompose_pool(spec):
            decompose(spec, a)
    for label, vectors in rational_pool().items():
        for a in vectors:
            decompose(SPECS[label.split("-")[0]], a)
    print("decompose done", file=sys.stderr)

    for kind, edges in DYNKIN_EDGES.items():
        for mask in range(1 << len(edges)):
            g = Bound(vsi, orientation(kind, mask))
            c = vsi.build_complex(g.q, fp)
            out["complex"][f"{kind}|{mask}"] = digest(
                complex_answer(g, c, vsi.wall_labels(c)))
        print(kind, "done", file=sys.stderr)

    for pool, betas in support_betas().items():
        spec = SPECS[pool.split("-")[0]]
        g = Bound(vsi, spec)
        for b in betas:
            key = f"{spec.label}|{vec_key(b)}"
            out["support"][key] = "".join(
                "01"[vsi.d_membership(g.q, g.put(a), g.put(b), fp)]
                for a in alpha_pool(spec, b))
            if pool in ("EX", "D4"):
                system = vsi.d_beta_halfspaces(g.q, g.put(b), fp)
                out["halfspaces"][key] = digest(
                    sorted(list(g.get(s)) for s in system.subreps))
    print("support done", file=sys.stderr)

    with open(os.path.join(BENCH, "answers.json"), "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
