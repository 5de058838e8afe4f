"""Command line behavior: payloads and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lkcds
from conftest import tampered_path5_closure
from workloads import grid_graph
from lkcds.cli import main
from lkcds.cores import DISCONNECTED
from lkcds.graphs import MAX_VERTICES, parse_graph, serialize_graph
from lkcds.kernel import KernelInstance, params_from, parse_kernel


@pytest.fixture()
def c6_file(tmp_path):
    p = tmp_path / "c6.txt"
    p.write_text("p 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    return str(p)


@pytest.fixture()
def sc_file(tmp_path):
    p = tmp_path / "sc.txt"
    p.write_text("u 3 3 2\n0 1\n1 2\n2\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kernelize_stdout_and_out_match(capsys, tmp_path, c6_file):
    args = ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7"]
    code, out, err = run(capsys, args)
    assert code == 0
    assert out.startswith("lkcds/1\n")
    assert "kernel:" in err
    target = tmp_path / "kern.txt"
    code2, out2, _ = run(capsys, args + ["--out", str(target)])
    assert code2 == 0 and out2 == ""
    assert target.read_text() == out
    inst = parse_kernel(out)
    assert inst.params.k == 2


def test_verify_reports_items(capsys, c6_file):
    code, out, _ = run(
        capsys, ["verify", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7"]
    )
    assert code == 0
    assert out.splitlines() == ["item1: pass", "item2: pass", "item3: pass"]


def test_verify_names_the_failed_item(capsys, tmp_path, monkeypatch):
    p5 = tmp_path / "p5.txt"
    p5.write_text("p 5 4\n0 1\n1 2\n2 3\n3 4\n")
    monkeypatch.setattr(
        "lkcds.kernel.build_closure", lambda *args: tampered_path5_closure()
    )
    code, out, err = run(
        capsys, ["verify", "--input", str(p5), "--k", "2", "--r", "1", "--alpha", "7"]
    )
    assert code == 1
    assert out.splitlines() == ["item1: pass", "item2: pass", "item3: FAIL"]
    assert "item3: kept tree (0, 1, 2) is disconnected" in err


def test_solve_and_budget(capsys, c6_file):
    code, out, _ = run(capsys, ["solve", "--input", c6_file, "--k", "4", "--r", "1"])
    assert code == 0
    assert out.startswith("found ")
    code, _, err = run(
        capsys,
        ["solve", "--input", c6_file, "--k", "4", "--r", "1", "--budget-nodes", "1"],
    )
    assert code == 3


def test_solve_prints_an_empty_answer_bare(capsys, tmp_path, c6_file):
    empty = tmp_path / "empty.txt"
    empty.write_text("p 0 0\n")
    for argv in (
        ["solve", "--input", str(empty), "--k", "1", "--r", "1"],
        ["solve", "--input", c6_file, "--k", "1", "--r", "1", "--z", ""],
    ):
        assert run(capsys, argv)[:2] == (0, "found\n")


def test_solve_with_annotated_set(capsys, c6_file):
    code, out, _ = run(
        capsys,
        ["solve", "--input", c6_file, "--k", "2", "--r", "1", "--z", "0,1"],
    )
    assert code == 0
    assert out.startswith("found ")


def test_lift_roundtrip(capsys, tmp_path, c6_file):
    kern = tmp_path / "kern.txt"
    code, _, _ = run(
        capsys,
        ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7",
         "--out", str(kern)],
    )
    assert code == 0
    code, out, err = run(
        capsys,
        ["lift", "--input", c6_file, "--kernel", str(kern),
         "--solution", "0 1 2 3"],
    )
    assert code == 0
    assert out.startswith("lifted ")
    assert "value=3" in err


def test_lift_refuses_a_bent_kernel_without_traceback(capsys, tmp_path, c6_file):
    kern = tmp_path / "kern.txt"
    args = ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7"]
    assert run(capsys, [*args, "--out", str(kern)])[0] == 0
    text = kern.read_text()
    assert "[Z]\n0 1 2 3 4 5\n" in text
    lift = ["lift", "--input", c6_file, "--kernel", str(kern), "--solution", "0"]
    # a second [Z] line is refused, not read in place of the first
    kern.write_text(text.replace("[Z]\n", "[Z]\n0\n"))
    code, out, err = run(capsys, lift)
    assert (code, out) == (2, "")
    assert err == f"error: {kern}: [Z] holds 2 lines, not one\n"
    # a kernel whose annotated set no longer forces domination parses, and
    # lift names the broken guarantee
    kern.write_text(text.replace("[Z]\n0 1 2 3 4 5\n", "[Z]\n0\n"))
    code, out, err = run(capsys, lift)
    assert (code, out) == (1, "")
    assert err == (
        "error: lift rejected the data: "
        "a budget solution of the kernel fails to dominate the host\n"
    )


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[map]\n0 0\n", "[map]\n0 7\n0 0\n", "[map] repeats the kernel vertex 0"),
        ("[Z]\n0 1", "[Z]\n0 0 1", "[Z] repeats the vertex 0"),
        ("[Z]\n0 1 2 3 4 5\n", "[Z]\n\n", "[Z] holds 0 lines, not one"),
        ("[params]\n", "[extra]\n[params]\n", "unknown section [extra]"),
        ("alpha 7\n", "alpha 1/0\n",
         "bad parameter block: approximation factor 1/0 has a zero denominator"),
        ("mode closure\n", "", "bad parameter block: [params] lacks the key 'mode'"),
        ("[params]\n", "[params]\nbeta 2\n",
         "bad parameter block: [params] holds the unknown key 'beta'"),
        ("\n5 5\n", "\n5 9\n",
         "[map] sends kernel vertex 5 to 9, outside the host's vertices 0..5"),
    ],
    ids=["map", "Z", "empty-Z", "section", "alpha-zero", "no-mode", "unknown-key",
         "map-host"],
)
def test_lift_refuses_a_kernel_file_it_would_merge(
    capsys, tmp_path, c6_file, old, new, message
):
    kern = tmp_path / "kern.txt"
    args = ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7"]
    assert run(capsys, [*args, "--out", str(kern)])[0] == 0
    text = kern.read_text()
    assert old in text
    kern.write_text(text.replace(old, new))
    code, out, err = run(
        capsys,
        ["lift", "--input", c6_file, "--kernel", str(kern), "--solution", "0 1 2 3"],
    )
    assert (code, out) == (2, "")
    assert err == f"error: {kern}: {message}\n"


def test_gen_writes_parseable_graph(capsys, sc_file):
    code, out, err = run(capsys, ["gen", "--input", sc_file, "--r", "2"])
    assert code == 0
    g = parse_graph(out)
    assert g.n > 8
    assert "regime=backward-only" in err
    assert "k_out=3" in err


@pytest.mark.parametrize(
    "cover, r, size",
    [
        # one vertex per element, then the guard and its pendant
        ("u 200000 0 0\n", 1, 200_002),
        # 3 sets, 3 elements and 9 edges, each edge subdivided by r - 1
        ("u 3 3 2\n0 1\n1 2\n2\n", 2000, 8 + 9 * 1999),
        # 1 set, 1 element and 3 edges
        ("u 1 1 0\n0\n", 3334, 4 + 3 * 3333),
    ],
)
def test_gen_refuses_an_oversized_instance(capsys, tmp_path, cover, r, size):
    path = tmp_path / "sc.txt"
    path.write_text(cover)
    code, out, err = run(capsys, ["gen", "--input", str(path), "--r", str(r)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: hardness instance has {size} vertices, "
        f"more than the {MAX_VERTICES} this tool accepts\n"
    )


@pytest.mark.parametrize("cover, r", [("u 9998 0 0\n", 1), ("u 1 1 0\n0\n", 3333)])
def test_gen_accepts_an_instance_at_the_vertex_cap(capsys, tmp_path, cover, r):
    path = tmp_path / "sc.txt"
    path.write_text(cover)
    code, out, _ = run(capsys, ["gen", "--input", str(path), "--r", str(r)])
    assert code == 0
    assert parse_graph(out).n == MAX_VERTICES


def test_core_and_stats_commands(capsys, c6_file):
    code, out, _ = run(
        capsys,
        ["core", "--input", c6_file, "--k", "2", "--r", "1", "--core-mode", "exact"],
    )
    assert code == 0 and out.strip()
    code, out, _ = run(
        capsys, ["profile-stats", "--input", c6_file, "--r", "1", "--z", "0 3"]
    )
    assert code == 0
    assert out.splitlines()[0] == "blockers 2"
    # a repeated blocker counts once, as in the classes printed after it
    code, out, _ = run(
        capsys, ["profile-stats", "--input", c6_file, "--r", "1", "--z=0,0"]
    )
    assert code == 0
    assert out.splitlines()[0] == "blockers 1"
    code, out, _ = run(capsys, ["wcol-report", "--input", c6_file, "--s", "2"])
    assert code == 0
    assert out.splitlines()[0].startswith("wcol 2 ")
    code, out, _ = run(
        capsys,
        ["closure-stats", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7"],
    )
    assert code == 0
    assert any(ln.startswith("closure_vertices ") for ln in out.splitlines())


def test_closure_stats_counts_only_trees_that_hold_a_free_vertex(capsys, tmp_path):
    # lollipop-4-4 at alpha 13, r = 1 has cap 4, so every blocker is a group;
    # the trees of blockers alone are searched but not kept
    lollipop = tmp_path / "lollipop.txt"
    lollipop.write_text(
        "p 8 10\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n5 6\n6 7\n"
    )
    code, out, _ = run(
        capsys,
        ["closure-stats", "--input", str(lollipop), "--k", "1", "--r", "1",
         "--alpha", "13"],
    )
    assert code == 0
    stats = dict(line.split() for line in out.splitlines())
    assert (stats["blockers"], stats["groups"], stats["terminals"]) == ("6", "7", "1")
    assert (stats["candidate_subsets"], stats["kept_trees"]) == ("43", "12")


def test_closure_stats_counts_the_bundle_search_at_cap_4(capsys, tmp_path):
    # the 12x12 grid at r = 2, alpha 22 has cap 4: 140 blocker groups and 4
    # classes, so these counts pin how many bundles the search grows
    grid = tmp_path / "grid.txt"
    grid.write_text(serialize_graph(grid_graph(12, 12)))
    code, out, _ = run(
        capsys,
        ["closure-stats", "--input", str(grid), "--k", "16", "--r", "2",
         "--alpha", "22"],
    )
    assert code == 0
    stats = dict(line.split() for line in out.splitlines())
    assert (stats["blockers"], stats["classes"], stats["groups"]) == ("140", "4", "144")
    assert (stats["candidate_subsets"], stats["kept_trees"]) == ("6999", "636")
    assert (stats["pruned_pairs"], stats["terminals"]) == ("8894", "4")


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("junk junk junk\n")
    code, _, err = run(
        capsys, ["kernelize", "--input", str(bad), "--k", "2", "--r", "1", "--alpha", "7"]
    )
    assert code == 2
    assert "error:" in err
    code, _, _ = run(
        capsys,
        ["kernelize", "--input", str(tmp_path / "missing.txt"), "--k", "2",
         "--r", "1", "--alpha", "7"],
    )
    assert code == 2
    big = tmp_path / "big.txt"
    big.write_text("p 10001 0\n")
    code, out, err = run(
        capsys, ["kernelize", "--input", str(big), "--k", "2", "--r", "1", "--alpha", "7"]
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: {big}: graph has 10001 vertices, more than the 10000 this tool "
        "accepts\n"
    )


def test_too_deep_exact_search_exits_2(capsys, tmp_path):
    # the connected cover of a 1,200-vertex path starts at size 1,198,
    # deeper than Python's default recursion limit
    path = tmp_path / "p1200.txt"
    path.write_text("p 1200 1199\n" + "".join(f"{i} {i + 1}\n" for i in range(1199)))
    code, out, err = run(
        capsys, ["solve", "--input", str(path), "--k", "1200", "--r", "1"]
    )
    assert (code, out) == (2, "")
    assert err == "error: the exact search is too deep for this input\n"


def test_bad_values_exit_2_without_traceback(capsys, tmp_path, c6_file):
    junk = tmp_path / "junk.txt"
    junk.write_text("junk\n")
    code, _, err = run(capsys, ["gen", "--input", str(junk), "--r", "2"])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    for argv in (
        ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7/0"],
        ["core", "--input", c6_file, "--k", "-1", "--r", "1"],
        ["solve", "--input", c6_file, "--k", "-1", "--r", "1"],
        ["solve", "--input", c6_file, "--k", "3", "--r", "1", "--budget-nodes", "-3"],
        ["solve", "--input", c6_file, "--k", "2", "--r", "-1"],
        ["solve", "--input", c6_file, "--k", "3", "--r", "1", "--z", "-1"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
    # a negative target is named like a too-large one
    assert "target vertex -1 out of range" in err
    code, _, err = run(
        capsys, ["profile-stats", "--input", c6_file, "--r", "1", "--z=0,9"]
    )
    assert code == 2
    assert err == "error: blocker 9 out of range\n"
    code, out, err = run(
        capsys, ["profile-stats", "--input", c6_file, "--r", "1", "--z", "1,x"]
    )
    assert (code, out) == (2, "")
    assert err == "error: bad vertex list '1,x'\n"
    for z in ("0", ""):  # with no blockers there is no flood to refuse r
        code, _, err = run(
            capsys, ["profile-stats", "--input", c6_file, "--r", "-1", "--z", z]
        )
        assert code == 2
        assert err == "error: radius must be nonnegative\n"
    kern = tmp_path / "kern.txt"
    code, _, _ = run(
        capsys,
        ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--alpha", "7",
         "--out", str(kern)],
    )
    assert code == 0
    for solution, bad in (("-1 0", -1), ("0 99", 99)):
        code, _, err = run(
            capsys,
            ["lift", "--input", c6_file, "--kernel", str(kern), "--solution", solution],
        )
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"vertex {bad} is not a kernel vertex" in err
        assert "the kernel has vertices 0..5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernelize", "--k", "2", "--r", "1", "--alpha", "7", "--jobs", "2"],
        ["verify", "--k", "2", "--r", "1", "--alpha", "7", "--out", "x"],
        ["core", "--k", "2", "--r", "1", "--seed", "1"],
        ["kernelize", "--k", "2", "--r", "1", "--alpha", "7", "--budget-nodes", "5"],
        ["core", "--k", "2", "--r", "1", "--alpha", "7"],
        ["profile-stats", "--r", "1", "--k", "2", "--epsilon", "1"],
        ["kernelize", "--k", "2", "--r", "1", "--alpha", "7", "--core-mode", "trivial"],
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, c6_file, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--input", c6_file] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice: 'trivial'" in err


def test_profile_stats_takes_exactly_one_of_z_and_k(capsys, c6_file):
    base = ["profile-stats", "--input", c6_file, "--r", "1"]
    for extra, complaint in (
        (["--z", "0", "--k", "2"], "argument --k: not allowed with argument --z"),
        ([], "one of the arguments --z --k is required"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        assert complaint in capsys.readouterr().err
    code, out, _ = run(capsys, base + ["--k", "2"])
    assert code == 0 and out.startswith("blockers ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["profile-stats", "--r", "1", "--z", "0", "--core-mode", "exact"],
         "--core-mode"),
        (["wcol-report", "--s", "2", "--order", "bfs", "--seed", "5"], "--seed"),
    ],
)
def test_flags_read_only_with_another_flag_are_refused(capsys, c6_file, argv, flag):
    code, out, err = run(capsys, argv[:1] + ["--input", c6_file] + argv[1:])
    assert (code, out) == (2, "")
    assert flag in err


def test_random_order_seed_defaults_to_zero(capsys, c6_file):
    base = ["wcol-report", "--input", c6_file, "--s", "2", "--order", "random"]
    assert run(capsys, base) == run(capsys, base + ["--seed", "0"])


def test_alpha_epsilon_are_exclusive(capsys, c6_file):
    code, _, err = run(
        capsys,
        ["kernelize", "--input", c6_file, "--k", "2", "--r", "1",
         "--alpha", "7", "--epsilon", "6"],
    )
    assert code == 2
    code, _, err = run(
        capsys, ["kernelize", "--input", c6_file, "--k", "2", "--r", "1"]
    )
    assert code == 2
    code, _, _ = run(
        capsys,
        ["kernelize", "--input", c6_file, "--k", "2", "--r", "1", "--epsilon", "6"],
    )
    assert code == 0


def test_rejection_exit_code(capsys, tmp_path):
    disc = tmp_path / "disc.txt"
    disc.write_text("0 1\n2 3\n")
    code, _, err = run(
        capsys,
        ["kernelize", "--input", str(disc), "--k", "2", "--r", "1", "--alpha", "7"],
    )
    assert code == 10
    assert "rejected" in err


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("command", ["core", "profile-stats", "kernelize"])
def test_core_commands_reject_a_disconnected_host(capsys, tmp_path, command, mode):
    # one reason from every command, before the exact cover test runs
    disc = tmp_path / "disc.txt"
    disc.write_text("p 7 4\n0 1\n1 2\n4 5\n5 6\n")
    alpha = ["--alpha", "7"] if command == "kernelize" else []
    for k in ("1", "3"):
        code, out, err = run(
            capsys,
            [command, "--input", str(disc), "--k", k, "--r", "1", "--core-mode", mode,
             *alpha],
        )
        assert (code, out) == (10, "")
        assert err == f"error: rejected: {DISCONNECTED}\n"


@pytest.mark.parametrize("command", ["core", "profile-stats"])
def test_core_commands_refuse_the_empty_graph(capsys, tmp_path, command):
    empty = tmp_path / "empty.txt"
    empty.write_text("p 0 0\n")
    code, out, err = run(
        capsys, [command, "--input", str(empty), "--k", "1", "--r", "1"]
    )
    assert (code, out) == (2, "")
    assert err == "error: cannot find a core of the empty graph\n"


def test_trivial_kernel_commands(capsys, tmp_path):
    # alpha=14 lets the shortcut catch the star's one-vertex optimum
    star = tmp_path / "star.txt"
    star.write_text("p 6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    args = ["--input", str(star), "--k", "2", "--r", "1", "--alpha", "14"]
    code, out, err = run(capsys, ["verify", *args])
    assert (code, out, err) == (0, "replay: pass\n", "")
    code, out, _ = run(capsys, ["closure-stats", *args])
    assert (code, out) == (0, "trivial kernel; no closure built\n")
    kern = tmp_path / "kern.txt"
    assert run(capsys, ["kernelize", *args, "--out", str(kern)])[0] == 0
    lift = ["lift", "--input", str(star), "--kernel", str(kern), "--solution", "0"]
    assert run(capsys, lift)[:2] == (0, "lifted 0\n")
    kern.write_text(kern.read_text().replace("solution 0", "solution 1"))
    code, _, err = run(capsys, lift)
    assert code == 2
    assert "solution line disagrees with the vertex map" in err


def test_verify_fails_a_trivial_kernel_whose_replay_does_not_dominate(
    capsys, tmp_path, monkeypatch
):
    # the star's leaf 1 within k = 2 replays a connected set that misses
    # leaves 2..5
    star = tmp_path / "star.txt"
    star.write_text("p 6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    leaf = KernelInstance(
        graph=parse_graph("p 1 0\n"),
        annotated=(0,),
        params=params_from(2, 1, alpha=14),
        vertex_map=(1,),
        mode="trivial",
        core="shortcut",
    )
    monkeypatch.setattr("lkcds.cli.kernelize", lambda *args, **kwargs: leaf)
    code, out, err = run(
        capsys, ["verify", "--input", str(star), "--k", "2", "--r", "1", "--alpha", "14"]
    )
    assert (code, out) == (1, "replay: FAIL\n")
    assert err == "  replay: it does not 1-dominate the host\n"


def test_large_alpha_keeps_bundles_within_the_steiner_limit(capsys, tmp_path):
    p12 = tmp_path / "p12.txt"
    p12.write_text("p 12 11\n" + "".join(f"{v} {v + 1}\n" for v in range(11)))
    code, out, _ = run(
        capsys, ["verify", "--input", str(p12), "--k", "3", "--r", "1", "--alpha", "28"]
    )
    assert code == 0
    assert out.splitlines() == ["item1: pass", "item2: pass", "item3: pass"]


def test_dimacs_format_flag(capsys, tmp_path):
    p = tmp_path / "c4.gr"
    p.write_text("c tiny\np gr 4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(
        capsys,
        ["solve", "--input", str(p), "--format", "dimacs", "--k", "2", "--r", "1"],
    )
    assert code == 0 and out.startswith("found ")
    # sniffing picks dimacs up from the header too
    code, out, _ = run(capsys, ["solve", "--input", str(p), "--k", "2", "--r", "1"])
    assert code == 0 and out.startswith("found ")


def test_console_script_runs():
    # the child interpreter must find the same lkcds as this one
    src = str(Path(lkcds.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lkcds.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "kernelize" in proc.stdout
