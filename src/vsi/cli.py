"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad input, undefined value), 2
verification failure (an invariant or golden check did not hold).  Only
`cv` depends on --field; generic answers sample over fp:32003, and on a
Dynkin quiver only `cv` samples.  Randomized subcommands are deterministic
given --seed; VSI_SEED overrides the default seed when the flag is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cluster import (
    build_complex,
    export_complex,
    linear_type_a_facet_count,
    positive_roots,
    truncated_compatibility,
    verify_sphere,
    wall_labels,
)
from .decomposition import (
    d_beta_halfspaces,
    d_membership,
    generic_decomposition,
    supp_test_randomized,
)
from .errors import (
    DecompositionUnstableError,
    EmptyLabelError,
    InvariantViolationError,
    ParseError,
    SplitFailureError,
    VsiError,
)
from .fields import parse_field
from .presentations import (
    canonical_decomp,
    canonical_proj_decomp,
    cv_value,
    minimal_decomp,
    random_presentation,
)
from .quiver import Quiver, euler_data, example_quiver, load_quiver
from .reps import random_rep

_VERIFICATION_ERRORS = (
    InvariantViolationError,
    SplitFailureError,
    DecompositionUnstableError,
    EmptyLabelError,
)


def _parse_vec(text: str, n: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad vector {text!r} (expected comma-separated integers)")
    if len(vec) != n:
        raise ParseError(f"vector {text!r} has {len(vec)} entries, expected {n}")
    return vec


def _load(args) -> Quiver:
    if args.quiver is None:
        return example_quiver()
    with open(args.quiver, "r", encoding="utf-8") as fh:
        return load_quiver(fh.read())


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _fmt_vec(v) -> str:
    return ",".join(str(x) for x in v)


def _matrix_lines(name: str, rows) -> list[str]:
    out = [f"{name}:"]
    for row in rows:
        out.append("  " + " ".join(f"{x:4d}" for x in row))
    return out


def _cmd_euler(args) -> int:
    q = _load(args)
    d = euler_data(q)
    lines = [f"vertices: {' '.join(q.names)}"]
    lines += _matrix_lines("E", d.e)
    lines += _matrix_lines("E^-1", d.e_inv)
    lines += _matrix_lines("(E^t)^-1", d.et_inv)
    _emit(
        args,
        {
            "vertices": list(q.names),
            "e": [list(r) for r in d.e],
            "e_inv": [list(r) for r in d.e_inv],
            "et_inv": [list(r) for r in d.et_inv],
        },
        lines,
    )
    return 0


def _cmd_roots(args) -> int:
    q = _load(args)
    roots = positive_roots(q)
    lines = [f"{len(roots)} positive roots"] + [
        "  " + _fmt_vec(r) for r in roots
    ]
    _emit(args, {"roots": [list(r) for r in roots]}, lines)
    return 0


def _cmd_decompose(args) -> int:
    q = _load(args)
    alpha = _parse_vec(args.alpha, q.n)
    field = parse_field(args.field)
    dec = generic_decomposition(q, alpha, field, seed=args.seed)
    lines = [f"alpha = {_fmt_vec(alpha)}"]
    lines += [f"  part  {_fmt_vec(p)}" for p in dec.schur_parts]
    lines.append(f"  gamma {_fmt_vec(dec.gamma)}")
    _emit(
        args,
        {
            "alpha": list(alpha),
            "parts": [list(p) for p in dec.schur_parts],
            "gamma": list(dec.gamma),
            "seed": args.seed,
        },
        lines,
    )
    return 0


def _cmd_canres(args) -> int:
    q = _load(args)
    alpha = _parse_vec(args.alpha, q.n)
    mu, gamma = canonical_decomp(q, alpha)
    can = canonical_proj_decomp(q, alpha)
    mind = minimal_decomp(q, alpha)
    lines = [
        f"alpha   = {_fmt_vec(alpha)}",
        f"mu      = {_fmt_vec(mu)}",
        f"gamma   = {_fmt_vec(gamma)}",
        f"R^can   = ({_fmt_vec(can.gamma0)}),({_fmt_vec(can.gamma1)})",
        f"R^min   = ({_fmt_vec(mind.gamma0)}),({_fmt_vec(mind.gamma1)})",
    ]
    _emit(
        args,
        {
            "alpha": list(alpha),
            "mu": list(mu),
            "gamma": list(gamma),
            "can": [list(can.gamma0), list(can.gamma1)],
            "min": [list(mind.gamma0), list(mind.gamma1)],
        },
        lines,
    )
    return 0


def _cmd_cv(args) -> int:
    q = _load(args)
    alpha = _parse_vec(args.alpha, q.n)
    beta = _parse_vec(args.beta, q.n)
    field = parse_field(args.field)
    phi = random_presentation(minimal_decomp(q, alpha), field, args.seed)
    v = random_rep(q, beta, field, args.seed)
    value = cv_value(phi, v)
    nonzero = supp_test_randomized(
        q, alpha, beta, field, seed=args.seed, trials=args.trials
    )
    lines = [
        f"C_V sample value = {field.elem_to_str(value)}",
        f"nonvanishing     = {str(nonzero).lower()} ({args.trials} trials)",
        f"weight           = {_fmt_vec(beta)}",
    ]
    _emit(
        args,
        {
            "value": field.elem_to_str(value),
            "nonvanishing": nonzero,
            "trials": args.trials,
            "weight": list(beta),
        },
        lines,
    )
    return 0


def _cmd_support(args) -> int:
    q = _load(args)
    alpha = _parse_vec(args.alpha, q.n)
    beta = _parse_vec(args.beta, q.n)
    field = parse_field(args.field)
    member = d_membership(q, alpha, beta, field)
    lines = [f"member:{str(member).lower()}"]
    payload = {"member": member}
    if args.halfspaces or args.format == "json":
        system = d_beta_halfspaces(q, beta, field)
        payload["equality"] = list(system.equality)
        payload["inequalities"] = [list(r) for r in system.inequalities]
        if args.halfspaces:
            lines.append(f"equality:   {_fmt_vec(system.equality)} . alpha = 0")
            for row in system.inequalities:
                lines.append(f"inequality: {_fmt_vec(row)} . alpha <= 0")
    _emit(args, payload, lines)
    return 0


def _cmd_complex(args) -> int:
    q = _load(args)
    field = parse_field(args.field)
    if args.action == "truncate":
        report = truncated_compatibility(q, field, seed=args.seed, bound=args.bound)
        verts = report["vertices"]
        lines = [f"{len(verts)} vertices, cliques sizes {report['clique_sizes']}"]
        _emit(
            args,
            {
                "vertices": [
                    {"kind": v.kind, "vector": list(v.vector)} for v in verts
                ],
                "cliques": [list(cl) for cl in report["cliques"]],
            },
            lines,
        )
        return 0
    c = build_complex(q, field, seed=args.seed)
    if args.action == "build":
        lines = [
            f"vertices: {len(c.vertices)}",
            f"ridges:   {len(c.ridges())}",
            f"facets:   {len(c.facets)}",
        ]
        _emit(
            args,
            {
                "vertices": len(c.vertices),
                "ridges": len(c.ridges()),
                "facets": [list(f) for f in c.facets],
            },
            lines,
        )
        return 0
    if args.action == "verify":
        report = verify_sphere(c)
        lines = [
            f"euler characteristic: {report.euler_characteristic}",
            f"face counts:          {report.face_counts}",
        ]
        lines += [f"FAIL: {f}" for f in report.failures]
        if report.ok:
            lines.append("all sphere checks passed")
        _emit(
            args,
            {
                "euler_characteristic": report.euler_characteristic,
                "face_counts": list(report.face_counts),
                "failures": list(report.failures),
                "ok": report.ok,
            },
            lines,
        )
        return 0 if report.ok else 2
    if args.action == "walls":
        labels = wall_labels(c)
        lines = []
        for ridge, roots in labels.items():
            names = " ".join("(" + _fmt_vec(b) + ")" for b in roots)
            lines.append(f"ridge {list(ridge)}: {names}")
        _emit(
            args,
            {
                "walls": [
                    {"ridge": list(r), "labels": [list(b) for b in roots]}
                    for r, roots in labels.items()
                ]
            },
            lines,
        )
        return 0
    if args.action == "export":
        sys.stdout.write(export_complex(c, args.export_format))
        return 0
    raise ParseError(f"unknown complex action {args.action!r}")


def _selftest_checks():
    q = example_quiver()
    d = euler_data(q)
    yield (
        "euler matrices of the example quiver",
        d.e == ((1, -1, 0), (0, 1, -2), (0, 0, 1))
        and d.e_inv == ((1, 1, 2), (0, 1, 2), (0, 0, 1))
        and d.et_inv == ((1, 0, 0), (1, 1, 0), (2, 2, 1)),
    )
    mu, gamma = canonical_decomp(q, (1, 2, -3))
    can = canonical_proj_decomp(q, (1, 2, -3))
    mind = minimal_decomp(q, (1, 2, -3))
    yield (
        "canonical and minimal decompositions of (1,2,-3)",
        mu == (1, 2, 0)
        and gamma == (0, 0, 3)
        and (can.gamma0, can.gamma1) == ((1, 2, 0), (0, 1, 7))
        and (mind.gamma0, mind.gamma1) == ((1, 1, 0), (0, 0, 7)),
    )
    field = parse_field("fp:32003")
    system = d_beta_halfspaces(q, (0, 1, 2), field)
    grid_ok = True
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            for a3 in range(-3, 4):
                a = (a1, a2, a3)
                reference = 2 * a3 == 3 * a2 + a1 and a2 >= a1
                if system.contains(a) != reference:
                    grid_ok = False
    yield ("support system of beta=(0,1,2) matches its closed form", grid_ok)
    yield (
        "membership examples for D((0,1,2))",
        system.contains((-1, -1, -2)) and system.contains((-2, 0, -1)),
    )
    a2q = Quiver(["1", "2"], [("1", "2")])
    c = build_complex(a2q, field)
    yield (
        "pentagon counts for the rank-2 complex",
        len(c.vertices) == 5 and len(c.facets) == 5,
    )
    a3q = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
    c3 = build_complex(a3q, field)
    yield (
        "rank-3 complex counts and the triangulation oracle",
        len(c3.vertices) == 9
        and len(c3.ridges()) == 21
        and len(c3.facets) == 14
        and linear_type_a_facet_count(3) == 14,
    )
    e6q = Quiver(
        ["1", "2", "3", "4", "5", "6"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("6", "3")],
    )
    c6 = build_complex(e6q, field)
    report = verify_sphere(c6, samples=0)
    try:
        labelled = len(wall_labels(c6)) == len(c6.ridges())
    except EmptyLabelError:
        labelled = False
    yield (
        "E6 complex: 833 facets, a sphere of Euler characteristic 0, "
        "every ridge labelled",
        len(c6.facets) == 833
        and report.ok
        and report.euler_characteristic == 0
        and labelled,
    )


def _cmd_selftest(args) -> int:
    failures = 0
    for name, ok in _selftest_checks():
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 2
    print("selftest passed")
    return 0


_DEFAULTS = {
    "quiver": None,
    "field": "fp:32003",
    "seed": None,
    "trials": 3,
    "format": "text",
}


def _common_options() -> argparse.ArgumentParser:
    """Shared flags, accepted before or after the subcommand.

    Defaults are SUPPRESS so a flag given in one position is not clobbered by
    the other; missing values are filled from _DEFAULTS after parsing.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiver",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="quiver file (JSON or 'u -> v' lines); default: bundled example",
    )
    common.add_argument(
        "--field",
        default=argparse.SUPPRESS,
        help="field of cv: 'q' or 'fp:P' (default fp:32003)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="randomization seed (default: VSI_SEED or 0)",
    )
    common.add_argument(
        "--trials",
        type=int,
        default=argparse.SUPPRESS,
        help="samples per randomized verdict, at least 1 (default 3)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="vsi",
        description="Quiver semi-invariants: decompositions, support cones, "
        "and cluster tilting complexes.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("euler", help="print E, E^-1 and (E^t)^-1", parents=[common])
    sub.add_parser(
        "roots", help="positive roots of a Dynkin quiver", parents=[common]
    )

    p = sub.add_parser(
        "decompose", help="generic decomposition of alpha", parents=[common]
    )
    p.add_argument("alpha", help="comma-separated integers")

    p = sub.add_parser(
        "canres",
        help="canonical and minimal projective decompositions",
        parents=[common],
    )
    p.add_argument("alpha", help="comma-separated integers")

    p = sub.add_parser(
        "cv", help="sample a semi-invariant value C_V", parents=[common]
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser(
        "support", help="membership of alpha in D(beta)", parents=[common]
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument(
        "--halfspaces", action="store_true", help="print the halfspace system"
    )

    p = sub.add_parser(
        "complex", help="cluster tilting complex operations", parents=[common]
    )
    p.add_argument(
        "action", choices=("build", "verify", "walls", "export", "truncate")
    )
    p.add_argument(
        "--export-format",
        dest="export_format",
        choices=("json", "obj", "svg"),
        default="json",
        help="export format (complex export)",
    )
    p.add_argument(
        "--bound", type=int, default=3, help="entry bound (complex truncate)"
    )

    sub.add_parser(
        "selftest", help="run the built-in golden checks", parents=[common]
    )
    return parser


_DISPATCH = {
    "euler": _cmd_euler,
    "roots": _cmd_roots,
    "decompose": _cmd_decompose,
    "canres": _cmd_canres,
    "cv": _cmd_cv,
    "support": _cmd_support,
    "complex": _cmd_complex,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for key, value in _DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if args.seed is None:
            env = os.environ.get("VSI_SEED", "0")
            try:
                args.seed = int(env)
            except ValueError:
                raise ParseError(f"VSI_SEED={env!r} is not an integer") from None
        parse_field(args.field)
        return _DISPATCH[args.command](args)
    except _VERIFICATION_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except VsiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
