import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from baerkit import baer, selftest, semidirect, subgroups
from baerkit.cli import main
from baerkit.presentations import parse_input_file
from baerkit.semidirect import build_semidirect

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestMultiplier:
    def test_free_abelian_rank_three_refused_quickly(self, tmp_path, capsys):
        # An infinite group is refused at the first class bound whose
        # quotient is infinite, not after trying every bound up to kmax.
        grp = tmp_path / "z3.grp"
        grp.write_text("group Z3\n  gen a b c\n  rel [a,b], [a,c], [b,c]\nend\n")
        rc, _, err = run_cli(["multiplier", "--file", str(grp)], capsys)
        assert rc == 3
        assert "--class-bound" in err

    def test_failing_class_bound_refused(self, tmp_path, capsys):
        grp = tmp_path / "d8.grp"
        grp.write_text("group D8\n  gen a b\n  rel a^4, b^2, b^-1 a b a\nend\n")
        rc, out, err = run_cli(
            ["multiplier", "--file", str(grp), "--class-bound", "1"], capsys
        )
        assert (rc, out) == (3, "group D8: 2 generators, 3 relators\n")
        assert err == (
            "class bound: --class-bound 1 fails verification for 'D8' "
            "(lattice deficient at degree 2)\n"
        )

    def test_cyclic_high_c(self, capsys):
        rc, out, _ = run_cli(
            ["multiplier", "--file", str(DATA / "z5.grp"), "--class-c", "3"],
            capsys,
        )
        assert rc == 0
        assert "invariants: free_rank=0 torsion=[]" in out

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.grp"
        bad.write_text("group G\n  gen x\n  rel q\nend\n")
        rc, _, err = run_cli(["multiplier", "--file", str(bad)], capsys)
        assert rc == 2
        assert "line 3" in err

    def test_missing_file(self, capsys):
        rc, _, _ = run_cli(["multiplier", "--file", "/nonexistent.grp"], capsys)
        assert rc == 2


class TestSemidirect:
    def test_build_only(self, capsys):
        rc, out, _ = run_cli(
            ["semidirect", "--file", str(DATA / "d8.grp")], capsys
        )
        assert rc == 0
        assert "a^-2 b^-1 a^-1 b a" in out

    def test_failing_class_bound_refused(self, capsys):
        rc, out, err = run_cli(
            [
                "semidirect", "--file", str(DATA / "d8.grp"), "--verify",
                "--class-bound", "1", "--format", "machine",
            ],
            capsys,
        )
        assert rc == 3
        assert out == (
            "command=semidirect\ngroup=Z2_on_Z4\ngenerators=a,b\n"
            "relators_acted=a^4\nrelators_acting=b^2\n"
            "relators_twist=a^-2 b^-1 a^-1 b a\n"
        )
        assert err == (
            "class bound: --class-bound 1 fails verification for 'Z2_on_Z4' "
            "(lattice deficient at degree 2)\n"
        )

    def test_infinite_acted_group_builds(self, tmp_path, capsys):
        # The acted group's class bound is certified once, without a
        # finiteness search over every bound up to kmax.
        grp = tmp_path / "z3_by_z2.grp"
        grp.write_text(
            "group A\n  gen a1 a2 a3\n  rel [a1,a2], [a1,a3], [a2,a3]\nend\n"
            "group B\n  gen b\n  rel b^2\nend\n"
            "action B on A\n"
            + "".join(
                f"  b : a{i} -> a{i}\n  inverse b : a{i} -> a{i}\n"
                for i in (1, 2, 3)
            )
            + "end\n"
        )
        rc, out, _ = run_cli(["semidirect", "--file", str(grp)], capsys)
        assert rc == 0
        assert "combined group" in out

    def test_bad_action_exit_five(self, tmp_path, capsys):
        text = (DATA / "d8.grp").read_text().replace("a -> a^-1", "a -> a^2")
        bad = tmp_path / "bad_action.grp"
        bad.write_text(text)
        rc, _, err = run_cli(["semidirect", "--file", str(bad)], capsys)
        assert rc == 5
        assert "surjectivity" in err

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize(
        "blocks, message",
        [
            (
                "group B\n  gen a\n  rel a^2\nend\naction B on A\n",
                "line 9: groups 'B' and 'A' share generator 'a'",
            ),
            (
                "group B\n  gen b\n  rel b^2\nend\naction A on A\n",
                "semidirect expects two group blocks and one action block",
            ),
            ("action A on A\n", "semidirect expects two group blocks and one action block"),
        ],
        ids=["shared-name", "self-action", "one-group"],
    )
    def test_shared_generator_names_refused(self, tmp_path, capsys, fmt, blocks, message):
        # The combined alphabet needs disjoint names: refused as input
        # before any output, not as a traceback after the action check.
        grp = tmp_path / "shared.grp"
        grp.write_text("group A\n  gen a\n  rel a^2\nend\n" + blocks + "  a : a -> a\nend\n")
        rc, out, err = run_cli(["semidirect", "--file", str(grp), "--format", fmt], capsys)
        assert (rc, out) == (2, "")
        assert err == f"parse error: {message}\n"


def cyclic_action(n, acting_rels, images):
    """Z_n acted on by an acting group with the given relators, without an
    inverse table; images maps each acting generator to an exponent r of
    a -> a^r."""
    return (
        f"group A\n  gen a\n  rel a^{n}\nend\n"
        f"group B\n  gen {' '.join(images)}\n  rel {acting_rels}\nend\n"
        "action B on A\n"
        + "".join(f"  {b} : a -> a^{r}\n" for b, r in images.items())
        + "end\n"
    )


def run_subprocess(argv, timeout=60):
    """One CLI run in its own interpreter, so that a hang fails the test."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "baerkit", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestActionReach:
    """Actions whose substituted words grow like r^j are validated on group
    elements, so these finish in seconds (each took minutes, or did not
    finish, when words were substituted into words)."""

    @pytest.mark.parametrize(
        "n, m", [(32, 8), (1024, 256)], ids=["z32_by_z8", "z1024_by_z256"]
    )
    def test_power_action_builds(self, tmp_path, n, m):
        grp = tmp_path / "power.grp"
        grp.write_text(cyclic_action(n, f"b^{m}", {"b": 5}))
        proc = run_subprocess(["semidirect", "--file", str(grp)])
        assert proc.returncode == 0, proc.stderr
        assert "combined group" in proc.stdout

    def test_order_above_search_bound_refused(self, tmp_path):
        # 2 has order 4098 modulo the prime 4099, above the order search's
        # bound, and b^-2 needs the inverse of b.
        grp = tmp_path / "z4099.grp"
        grp.write_text(cyclic_action(4099, "b^-2", {"b": 2}))
        proc = run_subprocess(["semidirect", "--file", str(grp)])
        assert proc.returncode == 5
        assert "cannot invert the action of 'b'" in proc.stderr

    def test_computed_inverse_verifies(self, tmp_path):
        grp = tmp_path / "z2sq_on_z8.grp"
        grp.write_text(
            cyclic_action(8, "b1^2, b2^2, [b1,b2]", {"b1": 3, "b2": 5})
        )
        proc = run_subprocess(
            [
                "semidirect", "--file", str(grp), "--class-c", "1",
                "--verify", "--format", "machine",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict=pass" in proc.stdout


class TestDihedralReach:
    """Dihedral groups of class up to 7.  Above the certified cap the
    working closure starts from the lower-central term the certificate puts
    in the relator closure, and every closure takes its queue by least
    leading content, so each run takes seconds on a 2-vCPU host.  With a
    first-in, first-out queue each of d128_c3, d256_c1 and d256_c2 ran past
    60 s, which the timeout is there to catch.

    D256 at c = 3 expects the engine's own answer, Z2 x Z2 x Z8, the same
    as D16, D64 and D128 give.  It takes about 15 s since the Smith diagonal
    is read off alternating Hermite forms; the whole-matrix Smith form used
    before did not finish its 284 x 221 presentation in 420 s."""

    @pytest.mark.parametrize("order, c, extra, torsion", [
        (64, 3, [], "2,2,8"),
        (128, 2, [], "2,4"),
        (128, 3, [], "2,2,8"),
        (256, 1, ["--kmax", "7"], "2"),
        (256, 2, ["--kmax", "7"], "2,4"),
        (256, 3, ["--class-bound", "7"], "2,2,8"),
    ], ids=["d64_c3", "d128_c2", "d128_c3", "d256_c1", "d256_c2", "d256_c3"])
    def test_multiplier(self, tmp_path, order, c, extra, torsion):
        grp = tmp_path / f"d{order}.grp"
        grp.write_text(
            f"group D{order}\n  gen a b\n  rel a^{order // 2}, b^2, b^-1 a b a\nend\n"
        )
        proc = run_subprocess(
            ["multiplier", "--file", str(grp), "--class-c", str(c), *extra,
             "--format", "machine"]
        )
        assert proc.returncode == 0, proc.stderr
        assert f"torsion={torsion}" in proc.stdout.splitlines()


class TestRankThreeReach:
    """D32 x Z2 at c = 3, in the class-7 ambient on three generators: Z2^17
    x Z8, the same answer as a run at class bound 5 gives.  Its towers
    insert mostly at the top level, which keeps rows only; with series tags
    on the top rows this run took 4.6-8.2 s on a 2-vCPU host, and 2.0-3.3 s
    without."""

    def test_multiplier_c3(self, tmp_path):
        grp = tmp_path / "d32_x_z2.grp"
        grp.write_text(
            "group D32xZ2\n  gen a b z\n"
            "  rel a^16, b^2, b^-1 a b a, z^2, [a,z], [b,z]\nend\n"
        )
        proc = run_subprocess(
            ["multiplier", "--file", str(grp), "--class-c", "3", "--format", "machine"]
        )
        assert proc.returncode == 0, proc.stderr
        assert f"torsion={'2,' * 17}8" in proc.stdout.splitlines()


class TestCyclicReach:
    """Each subgroup sizes its levels from the ambient's Lyndon bases.  When
    every subgroup and every copy evaluated Witt's formula for each degree,
    this run took more than 70 s on a 2-vCPU host, which the 60 s timeout is
    there to catch."""

    def test_multiplier_class_c_1000(self):
        proc = run_subprocess(
            ["multiplier", "--file", str(DATA / "z5.grp"), "--class-c", "1000",
             "--format", "machine"]
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "free_rank=0" in lines and "torsion=" in lines


class TestLyndon:
    def test_listing(self, capsys):
        rc, out, _ = run_cli(["lyndon", "--letters", "2", "--weight", "3"], capsys)
        assert rc == 0
        assert "witt=2" in out
        assert "aab" in out and "abb" in out
        assert "[a,[a,b]]" in out

    def test_degree_one(self, capsys):
        rc, out, _ = run_cli(["lyndon", "--letters", "2", "--weight", "1"], capsys)
        assert rc == 0
        assert "witt=2" in out

    def test_witt_count_three_letters(self, capsys):
        rc, out, _ = run_cli(["lyndon", "--letters", "3", "--weight", "3"], capsys)
        assert rc == 0
        assert "witt=8" in out

    def test_capacity_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("BAERKIT_CAP_GUARD", "10")
        rc, _, err = run_cli(["lyndon", "--letters", "4", "--weight", "6"], capsys)
        assert rc == 4
        assert "budget" in err

    @pytest.mark.parametrize("value", ["abc", "1e5", ""])
    def test_capacity_guard_not_an_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BAERKIT_CAP_GUARD", value)
        rc, _, err = run_cli(["lyndon", "--letters", "2", "--weight", "3"], capsys)
        assert rc == 2
        assert err == (
            f"error: BAERKIT_CAP_GUARD must be an integer, got {value!r}\n"
        )

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_capacity_guard_below_one(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BAERKIT_CAP_GUARD", value)
        rc, out, err = run_cli(["lyndon", "--letters", "2", "--weight", "3"], capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: c, kmax, and the cap guard must be >= 1\n"


class TestCapacityGuardReach:
    """The guards decide from bit lengths, without summing cap powers, and
    write a count too long to print as a power of the rank.  The first and
    third runs ended in a traceback with exit 1 (the count had more digits
    than int-to-str conversion allows); the second took more than 20 s
    summing powers of 2 before its guard fired."""

    KLEIN = str(DATA / "klein.grp")

    @pytest.mark.parametrize("argv, message", [
        (
            ["multiplier", "--file", KLEIN, "--class-bound", "1", "--class-c", "15000"],
            "job needs more than 2^15001 monomials (n=2, cap=15001), budget is 50000",
        ),
        (
            ["multiplier", "--file", KLEIN, "--class-bound", "1", "--class-c", "1000000"],
            "job needs more than 2^1000001 monomials (n=2, cap=1000001), "
            "budget is 50000",
        ),
        (
            ["lyndon", "--letters", "3", "--weight", "10000"],
            "degree-10000 basis over 3 letters needs 3^10000 monomials, "
            "budget is 50000",
        ),
    ], ids=["class_c_15000", "class_c_1000000", "weight_10000"])
    def test_refused_quickly(self, argv, message):
        proc = run_subprocess(argv, timeout=10)
        assert proc.returncode == 4
        assert proc.stderr == f"capacity guard: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (
            ["multiplier", "--file", KLEIN, "--class-bound", "1", "--class-c", "100"],
            f"job needs {2 ** 102 - 2} monomials (n=2, cap=101), budget is 50000",
        ),
        (
            ["lyndon", "--letters", "3", "--weight", "20"],
            "degree-20 basis over 3 letters needs 3486784401 monomials, "
            "budget is 50000",
        ),
        (
            # 2^14000 has 4,215 digits, under the 4,300-digit limit.
            ["lyndon", "--letters", "2", "--weight", "14000"],
            f"degree-14000 basis over 2 letters needs {2 ** 14000} monomials, "
            "budget is 50000",
        ),
    ], ids=["class_c_100", "weight_20", "weight_14000"])
    def test_printable_counts_keep_their_text(self, argv, message):
        proc = run_subprocess(argv, timeout=10)
        assert proc.returncode == 4
        assert proc.stderr == f"capacity guard: {message}\n"


def test_huge_exponent_refused_while_parsing(tmp_path):
    # The relator used to be expanded letter by letter, which ended in a
    # MemoryError traceback and exit 1.
    grp = tmp_path / "huge.grp"
    grp.write_text("group Z\n  gen a\n  rel a^1000000000039\nend\n")
    proc = run_subprocess(["multiplier", "--file", str(grp)], timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "parse error: line 3: word would have 1000000000039 letters, "
        "more than 1000000\n"
    )


@pytest.mark.parametrize("through", [False, True])
def test_monomial_count_matches_sum(through):
    for n in range(1, 6):
        for top in range(1, 40):
            count = sum(n ** m for m in range(1, top + 1)) if through else n ** top
            for budget in {1, 50, 50_000, max(count - 1, 1), count, count + 1}:
                got = subgroups.monomials_over_budget(n, top, budget, through)
                assert got == (str(count) if count > budget else None)


class TestSelftestCommand:
    def test_machine_line_shape(self, capsys):
        rc, out, _ = run_cli(["selftest", "--format", "machine"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert all(
            line.startswith("check=") and ("status=pass" in line or "status=fail" in line)
            for line in lines[:-1]
        )
        assert lines[-1].startswith("checks=")

    def test_injected_cap_guard_aborts(self, capsys, monkeypatch):
        monkeypatch.setenv("BAERKIT_CAP_GUARD", "1")
        rc, _, err = run_cli(["selftest"], capsys)
        assert rc == 4
        assert "capacity guard" in err

    def test_failing_check_is_reported(self, capsys, monkeypatch):
        # A failing check is reported with its message, the checks after it
        # still run, and the run exits 1.  Two real checks follow the
        # planted one; tests/test_catalogue.py runs every check.
        def planted(budget):
            raise AssertionError("planted failure")

        checks = [("planted/fails", planted)] + selftest.iter_checks()[:2]
        monkeypatch.setattr(selftest, "_CHECKS", checks)
        rc, out, _ = run_cli(["selftest", "--format", "machine"], capsys)
        assert rc == 1
        assert out.splitlines() == [
            "check=planted/fails status=fail",
            *(f"check={name} status=pass" for name, _ in checks[1:]),
            f"checks={len(checks)} failures=1",
        ]
        rc, out, _ = run_cli(["selftest"], capsys)
        assert rc == 1
        assert out.splitlines()[0] == "check planted/fails: fail (planted failure)"
        assert out.splitlines()[-1] == f"selftest: {len(checks)} checks, 1 failures"


def test_console_script_runs():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "baerkit", "lyndon", "--letters", "2", "--weight", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "witt=1" in proc.stdout


def test_usage_kept_under_optimize():
    # python -OO drops docstrings; --help and the usage line of an argv
    # error must not depend on them.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*argv):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env
        )

    plain, optimized = run("-m", "baerkit", "--help"), run("-OO", "-m", "baerkit", "--help")
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)
    assert plain.stdout.startswith("usage: baerkit COMMAND [OPTIONS]\n")
    refused = run("-OO", "-m", "baerkit", "multiplier")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.splitlines()[0] == (
        "usage: baerkit multiplier --file F [--class-c C] [--class-bound K] "
        "[--kmax N] [--format FMT]"
    )


def test_import_leaves_selftest_unloaded():
    # Only the selftest command loads the check catalogue, and reading argv
    # loads neither argparse nor gettext, whose first import costs
    # milliseconds in every process.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    klein = str(DATA / "klein.grp")
    for run in ("", f"baerkit.cli.main(['multiplier', '--file', {klein!r}])"):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                f"import sys, baerkit.cli; {run}\n"
                "print([m for m in ('baerkit.selftest', 'argparse', 'gettext') "
                "if m in sys.modules])",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", run


def test_benchmark_worker_installs_tracing():
    # The benchmark's traced run wraps engine functions by name; a rename
    # breaks this import-only run.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert "trace" in report


def test_determinism_of_machine_reports(capsys):
    argv = [
        "semidirect", "--file", str(DATA / "d8.grp"),
        "--class-c", "1", "--verify", "--format", "machine",
    ]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert (rc1, out1) == (rc2, out2)


def golden_cases():
    """Case name -> argv: `multiplier` on each one-group input and
    `semidirect --verify` on each input with an action, at c = 1 and 2 in
    both formats; the infinite inputs (zz*.grp) also run with
    `--class-bound 1`.  Each input with an action also runs `semidirect`
    without `--verify`, and `lyndon` lists 2 letters at weight 3 and 27
    letters at weight 1 (the `g26` spellings), in both formats."""
    cases = {}
    for path in sorted(DATA.glob("*.grp")):
        text = path.read_text()
        has_action = any(line.startswith("action") for line in text.splitlines())
        command = ["semidirect", "--verify"] if has_action else ["multiplier"]
        bounds = [[]] + ([["--class-bound", "1"]] if path.name.startswith("zz") else [])
        for c in ("1", "2"):
            for fmt in ("text", "machine"):
                for bound in bounds:
                    name = " ".join([path.name, f"c={c}", fmt, *bound])
                    cases[name] = [
                        command[0], "--file", str(path), *command[1:],
                        "--class-c", c, "--format", fmt, *bound,
                    ]
        for fmt in ("text", "machine") if has_action else ():
            cases[f"{path.name} build {fmt}"] = [
                "semidirect", "--file", str(path), "--format", fmt,
            ]
    for n, m in (("2", "3"), ("27", "1")):
        for fmt in ("text", "machine"):
            cases[f"lyndon letters={n} weight={m} {fmt}"] = [
                "lyndon", "--letters", n, "--weight", m, "--format", fmt,
            ]
    return cases


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


GOLDEN_CASES = golden_cases()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden(name):
    # tests/cli_golden.json maps each case to its run_captured result (exit
    # code, stdout, stderr); default output must stay byte-identical across
    # refactors, so rewrite it only for an intended output change.
    golden = json.loads(GOLDEN.read_text())
    assert run_captured(GOLDEN_CASES[name]) == golden[name]


class TestArgv:
    """The option table reads argv as argparse did: the same argvs are
    accepted with the same meaning, and the same ones refused with exit 2."""

    D8, ZZ, KLEIN = (str(DATA / name) for name in ("d8.grp", "zz.grp", "klein.grp"))

    @pytest.mark.parametrize("row, argv", [
        ("d8.grp c=2 machine",
         ["semidirect", f"--file={D8}", "--verify", "--class-c=2", "--format=machine"]),
        ("d8.grp c=2 machine",
         ["semidirect", "--fi", D8, "--ve", "--class-c", "2", "--fo", "machine",
          "--k", "6"]),
        ("d8.grp c=2 machine",
         ["semidirect", "--file", KLEIN, "--class-c", "1", "--format", "text",
          "--verify", "--file", D8, "--class-c", "2", "--format", "machine", "--verify"]),
        ("d8.grp c=2 machine",
         ["semidirect", "--format", "machine", "--class-c", "2", "--verify", "--file", D8]),
        ("zz.grp c=2 text --class-bound 1",
         ["multiplier", "--class-b=1", "--kmax", "3", "--kmax=2", "--fil", ZZ,
          "--class-c", "2"]),
    ], ids=["equals", "prefixes", "repeated", "shuffled", "mixed"])
    def test_accepted_forms(self, row, argv):
        # Each argv means the golden row's spelled-out argv.
        assert run_captured(argv) == json.loads(GOLDEN.read_text())[row]

    @pytest.mark.parametrize("argv, named", [
        ([], "command"),
        (["frobnicate"], "'frobnicate'"),
        (["--verify", "selftest"], "--verify"),
        (["multiplier", "--file", KLEIN, "--frob"], "--frob"),
        (["multiplier", "--file", KLEIN, "--frob=1"], "--frob=1"),
        (["selftest", "extra"], "extra"),
        (["lyndon", "--letters", "2", "--weight", "2", "--verify"], "--verify"),
        (["multiplier", "--file"], "--file"),
        (["multiplier", "--file", "--class-c", "2"], "--file"),
        (["multiplier", "--file", KLEIN, "--class-c", "two"], "--class-c"),
        (["multiplier", "--file", KLEIN, "--class-c", "1.5"], "--class-c"),
        (["multiplier", "--file", KLEIN, "--kmax", "0"], "--kmax"),
        (["lyndon", "--letters", "-2", "--weight", "3"], "--letters"),
        (["selftest", "--format", "xml"], "--format"),
        (["multiplier", "--class-c", "2"], "--file"),
        (["lyndon", "--weight", "3"], "--letters"),
        (["multiplier", "--file", KLEIN, "--class", "2"], "--class"),
        (["semidirect", "--file", D8, "--f", "text"], "--f"),
        (["semidirect", "--file", D8, "--verify=yes"], "--verify"),
        (["multiplier", "--file", KLEIN, "--"], "--"),
    ], ids=[
        "no-command", "unknown-command", "option-before-command", "unknown-option",
        "unknown-option-with-value", "stray-value", "other-command-option",
        "missing-value", "option-as-value", "non-integer", "non-integer-float",
        "zero", "negative", "bad-format", "missing-file", "missing-letters",
        "ambiguous-prefix", "ambiguous-short-prefix", "flag-with-value",
        "double-dash",
    ])
    def test_malformed_refused(self, capsys, argv, named):
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("usage: baerkit")
        prog, _, message = err.splitlines()[-1].partition(": error: ")
        assert re.fullmatch(r"baerkit( [a-z]+)?", prog)
        assert named in message

    def test_argv_error_before_cap_guard_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BAERKIT_CAP_GUARD", "abc")
        rc, out, err = run_cli(["lyndon", "--letters", "0", "--weight", "3"], capsys)
        assert (rc, out) == (2, "")
        assert "--letters" in err and "BAERKIT_CAP_GUARD" not in err

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["multiplier", "-h"],
        ["lyndon", "--letters", "2", "--help", "--weight", "x"],
        ["semidirect", "--class-c", "2", "--h"],
    ])
    def test_help(self, capsys, argv):
        rc, out, err = run_cli(argv, capsys)
        assert (rc, err) == (0, "")
        assert "usage:" in out.lower()


class TestClosureReuse:
    """At --class-c 1 the working cap k + 1 is the cap at which the class
    bound was certified, so the certificate's relator closure is the working
    one: each presentation's relators are closed once per cap."""

    @staticmethod
    def relator_closures(monkeypatch, argv, presentations):
        """Run the CLI, counting the insert_and_close calls that close one
        of the presentations' relator lists, keyed by (name, cap); a call
        counts for the first presentation whose relators it closes, with
        or without a base (a working closure above the certificate's cap
        starts from the lower-central term it contains)."""
        original = subgroups.insert_and_close
        calls = []

        def counting(base, ambient, elements):
            elements = list(elements)
            calls.append((ambient.n, ambient.cap, elements))
            return original(base, ambient, elements)

        for module in (subgroups, baer, semidirect):
            monkeypatch.setattr(module, "insert_and_close", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        counts = {}
        for n, cap, elements in calls:
            amb = subgroups.AmbientContext(n, cap)
            for pres in presentations:
                if pres.rank == n and elements == [
                    amb.element_of_word(r) for r in pres.relators
                ]:
                    key = (pres.name, cap)
                    counts[key] = counts.get(key, 0) + 1
                    break
        return counts

    @pytest.mark.parametrize("name,relators", [
        ("D8", "a^4, b^2, b^-1 a b a"),
        ("Z4byZ4", "a^4, b^4, b^-1 a b a"),
    ])
    def test_multiplier(self, tmp_path, monkeypatch, name, relators):
        text = f"group {name}\n  gen a b\n  rel {relators}\nend\n"
        grp = tmp_path / f"{name}.grp"
        grp.write_text(text)
        pres = parse_input_file(text).presentations[0]
        argv = ["multiplier", "--file", str(grp), "--class-c", "1"]
        # Class 2: bounds 1 and 2 are tried at caps 2 and 3; the invariant
        # works at cap 3.
        assert self.relator_closures(monkeypatch, argv, [pres]) == {
            (name, 2): 1, (name, 3): 1,
        }

    # Cyclic factors certify at class 1 (cap 2), where the acted one is also
    # checked for the action and the acting one's invariant is computed; a
    # class-2 product certifies at cap 3, its working cap, where the acting
    # factor is closed once more for the decomposition.  In z4_by_z4 both
    # factors are Z4 on one letter, so their closures are the same
    # computation: the two at cap 2 are one per factor.  z2_on_z2sq is
    # abelian: everything works at cap 2.
    @pytest.mark.parametrize("path,expected", [
        ("d8.grp", {("Z4", 2): 1, ("Z2", 2): 1, ("Z2", 3): 1,
                    ("Z2_on_Z4", 2): 1, ("Z2_on_Z4", 3): 1}),
        ("z4_by_z4.grp", {("A", 2): 2, ("A", 3): 1,
                          ("B_on_A", 2): 1, ("B_on_A", 3): 1}),
        ("z2_on_z2sq.grp", {("A", 2): 1, ("B", 2): 1, ("B_on_A", 2): 1}),
    ])
    def test_semidirect_verify(self, monkeypatch, path, expected):
        spec = parse_input_file((DATA / path).read_text()).action
        combined = build_semidirect(spec).combined
        argv = ["semidirect", "--file", str(DATA / path), "--class-c", "1", "--verify"]
        counts = self.relator_closures(
            monkeypatch, argv, [spec.acted, spec.acting, combined]
        )
        assert counts == expected
