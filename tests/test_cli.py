from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vsi
from vsi import build_complex, load_quiver, wall_labels
from vsi.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_euler_text_and_json(capsys):
    code, out, _ = _run(capsys, "euler")
    assert code == 0
    assert "E:" in out and "(E^t)^-1:" in out
    code, out, _ = _run(capsys, "--format", "json", "euler")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["e"] == [[1, -1, 0], [0, 1, -2], [0, 0, 1]]
    assert data["e_inv"] == [[1, 1, 2], [0, 1, 2], [0, 0, 1]]
    assert data["et_inv"] == [[1, 0, 0], [1, 1, 0], [2, 2, 1]]


def test_global_flags_accepted_after_subcommand(capsys, tmp_path):
    path = tmp_path / "a2.quiver"
    path.write_text("1 -> 2\n", encoding="utf-8")
    code, out, _ = _run(capsys, "roots", "--quiver", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["roots"] == [[0, 1], [1, 0], [1, 1]]


def test_canres_golden(capsys):
    code, out, _ = _run(capsys, "--format", "json", "canres", "1,2,-3")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == [1, 2, 0]
    assert data["gamma"] == [0, 0, 3]
    assert data["can"] == [[1, 2, 0], [0, 1, 7]]
    assert data["min"] == [[1, 1, 0], [0, 0, 7]]


def test_decompose_reports_parts_and_gamma(capsys):
    code, out, _ = _run(capsys, "--format", "json", "decompose", "--", "-1,2,3")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["parts"]) == [[0, 1, 2], [0, 2, 3]]
    assert data["gamma"] == [1, 0, 0]


def test_support_membership_and_halfspaces(capsys):
    code, out, _ = _run(
        capsys, "support", "--alpha=-1,-1,-2", "--beta", "0,1,2", "--halfspaces"
    )
    assert code == 0
    assert "member:true" in out
    assert "equality:   -1,-3,2" in out
    code, out, _ = _run(
        capsys, "--format", "json", "support", "--alpha=-1,0,-2", "--beta", "0,1,2"
    )
    assert code == 0
    assert json.loads(out)["member"] is False


def test_cv_reports_value_and_weight(capsys):
    code, out, _ = _run(
        capsys, "--format", "json", "cv", "--alpha=-1,-1,-2", "--beta", "0,1,2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == [0, 1, 2]
    assert data["nonvanishing"] is True
    assert data["value"] != "0"


def test_complex_subcommands(capsys, tmp_path):
    path = tmp_path / "a3.quiver"
    path.write_text("1 -> 2\n2 -> 3\n", encoding="utf-8")
    code, out, _ = _run(capsys, "--quiver", str(path), "complex", "build")
    assert code == 0
    assert "facets:   14" in out
    code, out, _ = _run(capsys, "--quiver", str(path), "complex", "verify")
    assert code == 0
    assert "all sphere checks passed" in out
    code, out, _ = _run(
        capsys, "--quiver", str(path), "--format", "json", "complex", "walls"
    )
    assert code == 0
    walls = json.loads(out)["walls"]
    assert len(walls) == 21 and all(w["labels"] for w in walls)
    code, out, _ = _run(
        capsys, "--quiver", str(path), "complex", "export", "--export-format", "obj"
    )
    assert code == 0
    assert out.startswith("v ")


def test_complex_export_json_matches_the_built_complex(capsys, tmp_path):
    path = tmp_path / "a3.quiver"
    path.write_text("a -> b\nc -> b\n", encoding="utf-8")
    code, out, _ = _run(
        capsys, "--quiver", str(path), "complex", "export", "--export-format", "json"
    )
    assert code == 0
    data = json.loads(out)
    q = load_quiver(path.read_text(encoding="utf-8"))
    c = build_complex(q, None)
    assert data["schema"] == 1
    assert [v["kind"] for v in data["vertices"]] == ["root"] * 6 + ["shifted"] * 3
    assert [v["vertex"] for v in data["vertices"]] == [None] * 6 + list(q.names)
    assert [tuple(v["vector"]) for v in data["vertices"]] == [
        v.vector for v in c.vertices
    ]
    assert [tuple(f) for f in data["facets"]] == list(c.facets)
    walls = {
        tuple(w["ridge"]): tuple(tuple(b) for b in w["labels"]) for w in data["walls"]
    }
    assert walls == wall_labels(c)


@pytest.mark.parametrize("field", ["fp:2", "fp:3"])
def test_d4_complex_builds_over_small_primes(capsys, tmp_path, field):
    # the complex comes from Euler-form arithmetic, so it is field-free
    path = tmp_path / "d4.quiver"
    path.write_text("1 -> 4\n2 -> 4\n3 -> 4\n", encoding="utf-8")
    build = ("--quiver", str(path), "--format", "json", "complex", "build")
    code, out, err = _run(capsys, "--field", field, *build)
    assert code == 0, err
    facets = json.loads(out)["facets"]
    assert len(facets) == 50
    code, out, _ = _run(capsys, "--field", "fp:32003", *build)
    assert code == 0
    assert json.loads(out)["facets"] == facets


def test_small_prime_decompose_matches_the_default(capsys):
    # generic answers sample over fp:32003 whatever --field says, so the
    # Fitting leaf test's bound on p never refuses a CLI decomposition
    argv = ("--format", "json", "decompose", "--", "-1,2,3")
    code, out, err = _run(capsys, "--field", "fp:2", *argv)
    assert code == 0, err
    small = json.loads(out)
    code, out, _ = _run(capsys, "--field", "fp:32003", *argv)
    assert code == 0
    assert small == json.loads(out)
    assert sorted(small["parts"]) == [[0, 1, 2], [0, 2, 3]]


def test_example_repeated_summand_decomposes_over_q(capsys):
    code, out, err = _run(
        capsys, "--field", "q", "--format", "json", "decompose", "--", "2,0,0"
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["parts"] == [[1, 0, 0], [1, 0, 0]]
    assert data["gamma"] == [0, 0, 0]


def test_small_prime_support_matches_the_default(capsys):
    # over fp:2 the sampled D(beta) once said member:true here
    code, out, err = _run(
        capsys, "--field", "fp:2", "support", "--alpha", "2,1,2", "--beta", "1,2,2"
    )
    assert code == 0, err
    assert out.splitlines() == ["member:false"]


@pytest.mark.parametrize("field", ["fp:2", "fp:3"])
def test_d4_complex_verify_over_small_primes(capsys, tmp_path, field):
    # the covering test reads the facet table, so no field is sampled
    path = tmp_path / "d4.quiver"
    path.write_text("1 -> 4\n2 -> 4\n3 -> 4\n", encoding="utf-8")
    code, out, err = _run(
        capsys, "--quiver", str(path), "--field", field, "complex", "verify"
    )
    assert code == 0, err
    assert "all sphere checks passed" in out


def test_e8_complex_verify_over_fp2(capsys, tmp_path):
    path = tmp_path / "e8.quiver"
    path.write_text(
        "1 -> 2\n2 -> 3\n3 -> 4\n4 -> 5\n5 -> 6\n6 -> 7\n8 -> 3\n",
        encoding="utf-8",
    )
    code, out, err = _run(
        capsys, "--quiver", str(path), "--field", "fp:2", "complex", "verify"
    )
    assert code == 0, err
    assert "all sphere checks passed" in out


def test_dynkin_repeated_summand_decomposes_over_q(capsys, tmp_path):
    # read off the facet cone; the sampled Fitting split is not used here
    path = tmp_path / "a3.quiver"
    path.write_text("1 -> 2\n2 -> 3\n", encoding="utf-8")
    code, out, err = _run(
        capsys, "--quiver", str(path), "--field", "q", "--format", "json",
        "decompose", "--", "2,0,0",
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["parts"] == [[1, 0, 0], [1, 0, 0]]
    assert data["gamma"] == [0, 0, 0]


def test_a14_decompose_needs_no_complex(capsys, tmp_path):
    # A14's complex has about 9.7 million facets; decompose never lists them
    path = tmp_path / "a14.quiver"
    path.write_text("".join(f"{i} -> {i + 1}\n" for i in range(1, 14)))
    t0 = time.perf_counter()
    code, out, err = _run(
        capsys, "--quiver", str(path), "--field", "fp:2", "--format", "json",
        "decompose", "--", ",".join(["1"] * 14),
    )
    assert code == 0, err
    assert json.loads(out)["parts"] == [[1] * 14]
    assert time.perf_counter() - t0 < 5


def test_kronecker_decompose_is_closed_form(capsys, tmp_path):
    # three arrows 1 => 2: (40, 100) has Tits form -400 and is its own only
    # part (a 140-dimensional sample would take minutes); (13, 40) lies in
    # the cone of the real roots (0, 1) and (1, 3)
    path = tmp_path / "k3.quiver"
    path.write_text("1 -> 2\n" * 3)
    code, out, err = _run(capsys, "--quiver", str(path), "decompose", "--", "40,100")
    assert code == 0, err
    assert out.splitlines() == ["alpha = 40,100", "  part  40,100", "  gamma 0,0"]
    code, out, err = _run(
        capsys, "--quiver", str(path), "--format", "json", "decompose", "--", "13,40"
    )
    assert code == 0, err
    assert json.loads(out)["parts"] == [[0, 1]] + [[1, 3]] * 13


def test_large_prime_decomposes_like_the_default(capsys):
    argv = ("--format", "json", "decompose", "--", "-1,2,3")
    code, out, err = _run(capsys, "--field", "fp:2147483647", *argv)
    assert code == 0, err
    big = json.loads(out)
    code, out, _ = _run(capsys, "--field", "fp:32003", *argv)
    assert code == 0
    small = json.loads(out)
    assert sorted(big["parts"]) == sorted(small["parts"]) == [[0, 1, 2], [0, 2, 3]]
    assert big["gamma"] == small["gamma"] == [1, 0, 0]


def test_too_large_prime_exits_one_promptly(capsys):
    start = time.perf_counter()
    code, _, err = _run(capsys, "--field", "fp:2305843009213693951", "euler")
    assert code == 1 and "too large" in err
    assert time.perf_counter() - start < 5


def test_domain_errors_exit_one(capsys, tmp_path):
    # non-Dynkin default quiver
    code, _, err = _run(capsys, "roots")
    assert code == 1 and "error:" in err
    # missing quiver file
    code, _, err = _run(capsys, "--quiver", str(tmp_path / "nope"), "euler")
    assert code == 1
    # malformed vector
    code, _, err = _run(capsys, "canres", "1,2f,3")
    assert code == 1
    # wrong vector length
    code, _, err = _run(capsys, "canres", "1,2")
    assert code == 1
    # nonsquare weight for cv
    code, _, err = _run(capsys, "cv", "--alpha", "1,2,-3", "--beta", "0,1,2")
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": "12", "arrows": [["1", "2"]]}',
        '{"vertices": "10", "arrows": []}',
        '{"vertices": ["1", "2"], "arrows": "12"}',
    ],
    ids=["vertices-string", "vertices-digits", "arrows-string"],
)
def test_quiver_json_without_lists_exits_one(capsys, tmp_path, text):
    path = tmp_path / "bad.quiver"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "--quiver", str(path), "euler")
    assert code == 1 and not out
    assert "'vertices' and 'arrows' lists" in err


def test_complex_truncate_refuses_a_negative_bound(capsys):
    code, out, err = _run(capsys, "complex", "truncate", "--bound", "-1")
    assert code == 1 and not out
    assert "bound must be >= 0" in err


def test_bad_field_spec_exits_one(capsys):
    code, _, err = _run(capsys, "--field", "fp:15", "euler")
    assert code == 1 and "error:" in err


def test_selftest_passes(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in out
    assert out.count("ok:") == 7
    assert "ok: E6 complex" in out


def test_entry_point_and_seed_env(tmp_path):
    # The child must import the same vsi as this process, also when the suite
    # runs from a checkout with a relative PYTHONPATH; nothing else is inherited.
    paths = [str(Path(vsi.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": os.pathsep.join(paths),
        "VSI_SEED": "7",
    }
    env_seed = subprocess.run(
        [sys.executable, "-m", "vsi.cli", "--format", "json", "decompose", "2,-3,4"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert env_seed.returncode == 0, env_seed.stderr
    assert json.loads(env_seed.stdout)["seed"] == 7
    flag = subprocess.run(
        [
            sys.executable,
            "-m",
            "vsi.cli",
            "--seed",
            "3",
            "--format",
            "json",
            "decompose",
            "2,-3,4",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert flag.returncode == 0, flag.stderr
    assert json.loads(flag.stdout)["seed"] == 3


def test_complex_truncate_on_default_quiver(capsys):
    code, out, _ = _run(capsys, "--format", "json", "complex", "truncate", "--bound", "2")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["cliques"]


def test_gf_decomposition_does_not_import_sympy(tmp_path):
    # sympy serves only the rationals; the GF(p) path factors in-house
    script = (
        "import sys\n"
        "from vsi import example_quiver, generic_decomposition, parse_field\n"
        "fp = parse_field('fp:32003')\n"
        "dec = generic_decomposition(example_quiver(), (-1, 2, 3), fp)\n"
        "assert len(dec.schur_parts) == 2, dec\n"
        "print('library', 'sympy' in sys.modules)\n"
        "from vsi.cli import main\n"
        "code = main(['decompose', '--', '-1,2,3'])\n"
        "print('cli', code, 'sympy' in sys.modules)\n"
    )
    paths = [str(Path(vsi.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "library False" in lines
    assert "cli 0 False" in lines


def test_q_answers_do_not_import_sympy(tmp_path):
    # decompose and support sample over fp:32003 whatever --field says, so no
    # CLI answer factors a polynomial over Q
    script = (
        "import sys\n"
        "from vsi.cli import main\n"
        "print(main(['--field', 'q', 'decompose', '--', '2,0,0']))\n"
        "print(main(['--field', 'q', 'support', '--halfspaces',\n"
        "            '--alpha=-1,-1,-2', '--beta', '0,1,2']))\n"
        "print('sympy', 'sympy' in sys.modules)\n"
    )
    paths = [str(Path(vsi.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "member:true" in lines
    assert lines.count("0") == 2
    assert lines[-1] == "sympy False"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cv_refuses_fewer_than_one_trial(capsys, trials):
    code, out, err = _run(
        capsys, "--trials", trials, "cv", "--alpha=-1,-1,-2", "--beta", "0,1,2"
    )
    assert code == 1 and out == ""
    assert "trials" in err


def test_non_integer_seed_env_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("VSI_SEED", "1.5")
    code, out, err = _run(capsys, "--format", "json", "decompose", "--", "1,1,1")
    assert code == 1 and out == ""
    assert "VSI_SEED" in err


@pytest.mark.parametrize(
    "quiver, seed, alpha, beta, value",
    [
        (None, 5, "-3,-1,-3", "0,1,2", "57014998961664"),
        (None, 11, "-3,0,-2", "0,2,3",
         "12584094476247748366949105285122296376415764800"),
        ("1 -> 4\n2 -> 4\n3 -> 4\n", 0, "0,2,2,2", "1,1,1,2",
         "-2887031989648589617291124736"),
    ],
)
def test_cv_over_q_golden_values(capsys, tmp_path, quiver, seed, alpha, beta, value):
    # exact C_V sample values over Q: the draws are seeded, so the value is
    # a function of (quiver, alpha, beta, seed)
    argv = ["--field", "q", "--format", "json", "--seed", str(seed)]
    if quiver is not None:
        path = tmp_path / "q.quiver"
        path.write_text(quiver, encoding="utf-8")
        argv += ["--quiver", str(path)]
    code, out, err = _run(capsys, *argv, "cv", f"--alpha={alpha}", "--beta", beta)
    assert code == 0, err
    data = json.loads(out)
    assert data["value"] == value and data["nonvanishing"] is True


@pytest.mark.parametrize(
    "field, alpha, beta, value",
    [
        ("fp:32003", "-3,0,-3", "0,3,3", "21366"),
        ("fp:32003", "-3,0,-3", "0,2,2", "19876"),
        ("fp:2147483647", "-3,0,-2", "0,2,3", "499445272"),
    ],
)
def test_cv_over_gf_golden_values(capsys, field, alpha, beta, value):
    # exact C_V sample values over GF(p), fixed before the random matrices of
    # a sample were drawn in one call; they pin every seeded draw
    code, out, err = _run(
        capsys, "--field", field, "--seed", "7", "cv", f"--alpha={alpha}",
        "--beta", beta,
    )
    assert code == 0, err
    assert out.splitlines()[0] == f"C_V sample value = {value}"


def test_cv_with_a_million_trials_stacks_a_bounded_chunk(capsys, monkeypatch):
    # trials are stacked a fixed-size chunk at a time, and a member stops at
    # the first chunk with a nonzero determinant
    from vsi import decomposition

    chunks = []
    real = decomposition.hom_stack

    def recorded(*args):
        h = real(*args)
        chunks.append(h.shape[0])
        return h

    monkeypatch.setattr(decomposition, "hom_stack", recorded)
    code, out, err = _run(
        capsys, "--trials", "1000000", "cv", "--alpha=-1,-1,-2", "--beta", "0,1,2"
    )
    assert code == 0, err
    assert "nonvanishing     = true (1000000 trials)" in out
    assert chunks == [decomposition._TRIAL_CHUNK]


def test_support_membership_needs_no_halfspaces(capsys, tmp_path, monkeypatch):
    # text output without --halfspaces answers from d_membership alone
    import vsi.cli

    def refuse(*args, **kwargs):
        raise AssertionError("support built the halfspace system")

    monkeypatch.setattr(vsi.cli, "d_beta_halfspaces", refuse)
    path = tmp_path / "d4.quiver"
    path.write_text("1 -> 4\n2 -> 4\n3 -> 4\n", encoding="utf-8")
    d4 = ["--quiver", str(path)]
    for quiver, alpha, beta, member in (
        ([], "-1,-1,-2", "0,1,2", "true"),
        ([], "-1,0,-2", "0,1,2", "false"),
        (d4, "1,1,1,2", "0,0,0,1", "false"),
        (d4, "1,0,0,1", "0,1,0,1", "true"),
    ):
        code, out, err = _run(
            capsys, *quiver, "support", f"--alpha={alpha}", "--beta", beta
        )
        assert code == 0, err
        assert out == f"member:{member}\n"


def test_support_zero_beta_exits_one(capsys):
    for extra in ([], ["--halfspaces"]):
        code, out, err = _run(
            capsys, "support", "--alpha=-1,-1,-2", "--beta", "0,0,0", *extra
        )
        assert code == 1 and out == ""
        assert "D(beta) needs a nonzero beta" in err
