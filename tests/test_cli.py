import os
import subprocess
import sys

import pytest

import chain_census
from chain_census import layered
from chain_census.cli import main
from chain_census.io import write_points, write_tree
from chain_census.constructions import gen_star, gen_unit_rich_grid
from chain_census.layered import LabeledTree, make_layer, path_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenerateCount:
    def test_planar_round_trip(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "planar-chain", "--k", "2", "--n", "6",
        )
        assert code == 0
        manifest = out.strip()
        assert os.path.exists(manifest)
        code, out = run(capsys, "count", "--manifest", manifest)
        assert code == 0
        assert out.strip() == "36"

    def test_count_walks_flag(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "3d-even", "--k", "2", "--n", "3",
        )
        manifest = out.strip()
        code, out = run(capsys, "count", "--manifest", manifest, "--walks")
        assert code == 0
        assert "chains 9" in out and "walks 9" in out

    def test_tree_construction_round_trip(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "star-paths", "--l", "2", "--n", "6",
        )
        assert code == 0 and out == f"{tmp_path / 'star-paths.tree'}\n"
        argv = ["count-tree", "--tree", out.strip()]
        for i in range(1, 8):
            argv += ["--layer", str(tmp_path / f"star-paths-layer{i}.pts")]
        code, out = run(capsys, *argv)
        assert code == 0 and out == "216\n"

    def test_threads_flag_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--threads", "2", "count", "--manifest", str(tmp_path / "manifest.txt")])


class TestTreeAndSetOps:
    def test_count_tree_star(self, tmp_path, capsys):
        res = gen_star(2, 10)
        tpath = tmp_path / "star.tree"
        write_tree(tpath, res.tree, "exact")
        layer_paths = []
        for i, layer in enumerate(res.layers):
            p = tmp_path / f"layer{i}.pts"
            write_points(p, layer.points, "exact")
            layer_paths.append(str(p))
        argv = ["count-tree", "--tree", str(tpath)]
        for p in layer_paths:
            argv += ["--layer", p]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.strip() == "25"

    def test_count_tree_tolerance_wider_than_spec_allows(self, tmp_path, capsys):
        # eps = 0.5 with d2 = 1 breaks DistanceSpec's eps < d2/100 rule;
        # count-tree only compares distances, so it still counts
        corners = make_layer([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        p = tmp_path / "square.pts"
        write_points(p, corners.points, "float")
        tpath = tmp_path / "path.tree"
        write_tree(tpath, path_tree((1.0, 1.0)), "float")
        code, out = run(
            capsys, "--mode", "tol:0.5", "count-tree", "--tree", str(tpath), "--set", str(p)
        )
        assert code == 0 and out.strip() == "8"

    @pytest.mark.parametrize("mode, want", [("tol:1.5", "104"), ("tol:0.5", "32")])
    def test_count_tree_tolerance_on_rational_coordinates(self, tmp_path, capsys, mode, want):
        # an exact file under a tolerance is compared in float64; at 1.5
        # the edge at squared distance 1 also takes 0 (a point and itself)
        # and 2, the edge at 2 also takes 1
        grid = make_layer([(x, y) for y in range(2) for x in range(4)])
        p = tmp_path / "grid.pts"
        write_points(p, grid.points, "exact")
        tpath = tmp_path / "path.tree"
        write_tree(tpath, path_tree((1, 2)), "exact")
        code, out = run(capsys, "--mode", mode, "count-tree", "--tree", str(tpath), "--set", str(p))
        assert code == 0 and out.strip() == want

    def test_count_tree_set_with_repeated_distances(self, tmp_path, capsys):
        # one layer on all six vertices and four edges at squared distance 1:
        # the count recorded when every edge ran the pair kernel itself
        p = tmp_path / "grid.pts"
        write_points(p, make_layer([(x, y) for y in range(3) for x in range(4)]).points, "exact")
        tpath = tmp_path / "tree.tree"
        write_tree(tpath, LabeledTree(6, ((0, 1, 1), (1, 2, 1), (1, 3, 2), (3, 4, 1), (0, 5, 1))), "exact")
        assert run(capsys, "count-tree", "--tree", str(tpath), "--set", str(p)) == (0, "464\n")

    def test_incidences(self, tmp_path, capsys):
        corners = make_layer([(0, 0), (1, 0), (1, 1), (0, 1)])
        p = tmp_path / "sq.pts"
        write_points(p, corners.points, "exact")
        code, out = run(capsys, "incidences", "--a", str(p), "--b", str(p), "--d2", "1")
        assert code == 0 and out.strip() == "8"

    def test_rich(self, tmp_path, capsys):
        grid = gen_unit_rich_grid(16)
        p = tmp_path / "g.pts"
        write_points(p, grid.points, "exact")
        code, out = run(
            capsys, "rich", "--target", str(p), "--ref", str(p), "--d2", "1", "--r", "3"
        )
        assert code == 0
        assert int(out.splitlines()[0]) > 0


class TestDecomposeExperimentVerify:
    def test_decompose(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "orthogonal", "--k", "1", "--n", "4",
        )
        manifest = out.strip()
        code, out = run(capsys, "--eps", "0.5", "decompose", "--manifest", manifest)
        assert code == 0
        assert out.startswith("classes ")

    def test_experiment_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code, _ = run(
            capsys,
            "--out", str(csv_path),
            "experiment", "--construction", "3d-even", "--k", "2", "--n-list", "4,8,16",
        )
        assert code == 0
        text = csv_path.read_text()
        assert text.splitlines()[0] == "construction,k,n,chains,walks,incidences"
        assert "3d-even,2,8,64,64," in text

    def test_experiment_timings_column(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "experiment", "--construction", "3d-even", "--k", "2",
            "--n-list", "4,8,16", "--timings",
        )
        assert code == 0
        assert out.splitlines()[0].endswith(",seconds")

    def test_verify_pass_and_fail_exit_codes(self, capsys):
        code, out = run(
            capsys, "verify", "--claim", "closed-form",
            "--construction", "planar-chain", "--k", "2", "--n", "12",
        )
        assert code == 0 and out.startswith("PASS")
        code, out = run(
            capsys, "verify", "--claim", "floor",
            "--construction", "planar-chain", "--k", "3", "--n", "6",
        )
        assert code == 0 and out.startswith("PASS")

    def test_verify_covering_via_manifest(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "orthogonal", "--k", "1", "--n", "4",
        )
        manifest = out.strip()
        code, out = run(
            capsys, "--eps", "0.5", "verify", "--claim", "covering", "--manifest", manifest
        )
        assert code == 0 and out.startswith("PASS")

    def test_decimal_eps_is_the_decimal(self, tmp_path, capsys):
        # --eps 0.1 is 1/10: as the double nearest it, a fraction over 2^55,
        # the covering search raised class sizes to the 2^55-th power
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "3d-odd-regular", "--k", "3", "--n", "64",
        )
        manifest = out.strip()
        proc = run_process("--eps", "0.1", "decompose", "--manifest", manifest, timeout=20)
        assert proc.returncode == 0 and proc.stdout.startswith("classes 14\nsequence 0,2/5,1/10,1/10;")
        proc = run_process("--eps", "1/10", "verify", "--claim", "covering", "--manifest", manifest, timeout=20)
        assert proc.stdout == "PASS computed=(39744, 3) expected=(39744, 41) (14 covering classes)\n"

    def test_verify_covering_line(self, tmp_path, capsys):
        code, out = run(
            capsys,
            "--out", str(tmp_path),
            "generate", "--construction", "3d-odd-regular", "--k", "3", "--n", "64",
        )
        code, out = run(
            capsys, "--eps", "0.25", "verify", "--claim", "covering", "--manifest", out.strip()
        )
        assert code == 0
        assert out == "PASS computed=(39744, 3) expected=(39744, 17) (8 covering classes)\n"

    @pytest.mark.parametrize("verb", ["count --walks", "decompose"])
    def test_repeated_layers_run_the_kernel_once(self, tmp_path, capsys, monkeypatch, verb):
        # four layers of one file at one distance: three positions, one pair
        run(capsys, "--out", str(tmp_path), "generate", "--construction", "3d-odd-regular", "--k", "3", "--n", "64")
        calls, kernel = [], layered._pair_lists
        monkeypatch.setattr(layered, "_pair_lists", lambda *a, **kw: calls.append(a[2]) or kernel(*a, **kw))
        command, *flags = verb.split()
        code, out = run(capsys, command, "--manifest", str(tmp_path / "manifest.txt"), *flags)
        assert code == 0 and out.startswith(("chains 39744", "classes 8"))
        assert len(calls) == 1


VERIFY_LINES = {
    "closed-form planar-chain 2 12": "PASS computed=144 expected=144 (planar k=2 count = n^2)",
    "closed-form 3d-even 4 5": "PASS computed=125 expected=125 (3d even count = n^(k/2+1))",
    "closed-form orthogonal 3 12": "PASS computed=1800 expected=1800 (alternating tuple formula)",
    "closed-form star 3 12": "PASS computed=64 expected=64 (star count = (n/l)^l)",
    "floor planar-chain 3 6": "PASS computed=36 expected=36 (count >= n^(floor((k+1)/3)+1))",
    "floor planar-k1 4 16":
        "PASS computed=768 expected=768 (count >= n^((k-1)/3) * preserved incidences)",
    "floor split 0 100": "PASS computed=4 expected=45/121 "
        "(preserved >= E/(2*ceil(2.2*10/eps)^2), diameter bound verified on return)",
    "floor 3d-odd-regular 3 64":
        "PASS computed=39744 expected=1728 (count >= |core|*(min_degree-k)^k)",
    "floor 3d-odd-sphere 3 16":
        "PASS computed=256 expected=256 (count >= n^((k-1)/2) * sphere incidences)",
    "floor star-paths 2 6": "PASS computed=216 expected=216 (joints-fixed floor)",
}


@pytest.mark.parametrize("argv", list(VERIFY_LINES))
def test_verify_lines(capsys, argv):
    claim, construction, k, n = argv.split()
    eps = "1.0" if construction == "split" else "0.25"
    code, out = run(
        capsys, "--seed", "0", "--eps", eps, "verify", "--claim", claim,
        "--construction", construction, "--k", k, "--n", n,
    )
    assert code == 0
    assert out == VERIFY_LINES[argv] + "\n"


def run_process(*argv, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chain_census.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "chain_census.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            "verify --claim floor --construction bogus",
            2,
            "chain-census verify: error: argument --construction: invalid choice: 'bogus'",
        ),
        (
            "generate --construction bogus",
            2,
            "chain-census generate: error: argument --construction: invalid choice: 'bogus'",
        ),
        ("verify --claim floor", 1, "floor verification needs --construction"),
        (
            "verify --claim closed-form --construction planar-chain --k 3",
            1,
            "no closed-form registered for 'planar-chain' at k=3",
        ),
        (
            "verify --claim closed-form --construction 3d-odd-regular --k 3 --n 64",
            1,
            "no closed-form registered for '3d-odd-regular'",
        ),
        (
            "generate --construction 3d-odd-regular --k 3 --n 8 --d 9 --l 5 --delta2 7",
            2,
            "chain-census: error: --l, --d, --delta2 have no effect on generate --construction 3d-odd-regular",
        ),
        (
            "generate --construction orthogonal --k 1 --n 4 --variant center-fixed",
            2,
            "chain-census: error: --variant has no effect on generate --construction orthogonal",
        ),
        (
            "verify --claim covering --manifest m.txt --construction star --k 3 --n 8",
            2,
            "chain-census: error: --construction, --k, --n have no effect on verify --claim covering",
        ),
        ("generate --construction orthogonal --n 3", 1, "n must be even and >= 2"),
        ("generate --construction planar-chain --k 2 --delta2 1,0", 1, "squared distances must be positive"),
        ("generate --construction planar-chain --k 2 --delta2 abc,1", 1, "could not convert string to float: 'abc'"),
        ("generate --construction planar-chain --k 2 --delta2 1/0,1", 1, "zero denominator in '1/0'"),
        ("generate --construction star --l 3 --n 10", 1, "n must be divisible by l"),
        (
            "experiment --construction planar-chain --k 2 --n-list 4,x",
            1,
            "invalid literal for int() with base 10: 'x'",
        ),
        ("--eps 1/0 decompose --manifest m.txt", 2, "chain-census: error: argument --eps: eps must be a finite number, got '1/0'"),
        ("--eps inf decompose --manifest m.txt", 2, "chain-census: error: argument --eps: eps must be a finite number, got 'inf'"),
    ],
    ids=[
        "unknown-verify", "unknown-generate", "missing", "planar-k3", "no-certificate",
        "generate-unread", "generate-variant", "covering-unread",
        "generate-odd-n", "generate-zero-delta2", "generate-bad-delta2", "generate-zero-denominator", "generate-star-n",
        "experiment-bad-n-list", "eps-zero-denominator", "eps-infinite",
    ],
)
def test_bad_construction_is_one_error_line(argv, code, message):
    proc = run_process(*argv.split())
    assert proc.returncode == code and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if not ln.startswith(("usage:", " "))]
    assert len(errors) == 1 and errors[0].startswith(message)


@pytest.mark.parametrize(
    "verb",
    ["incidences --a {p} --b {p}", "rich --target {p} --ref {p} --r 1"],
    ids=["incidences", "rich"],
)
@pytest.mark.parametrize(
    "d2, message",
    [("1/0", "zero denominator in '1/0'"), ("1/x", "bad rational '1/x'")],
    ids=["zero-denominator", "bad-rational"],
)
def test_bad_d2_is_one_error_line(tmp_path, verb, d2, message):
    p = tmp_path / "sq.pts"
    write_points(p, make_layer([(0, 0), (1, 0)]).points, "exact")
    proc = run_process(*verb.format(p=p).split(), "--d2", d2)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


@pytest.mark.parametrize(
    "verb",
    [
        "count --manifest {missing}",
        "decompose --manifest {missing}",
        "verify --claim covering --manifest {missing}",
        "count-tree --tree {tree} --set {missing}",
        "count-tree --tree {missing} --set {pts}",
        "incidences --a {pts} --b {missing} --d2 1",
        "rich --target {missing} --ref {pts} --d2 1 --r 1",
    ],
    ids=["count", "decompose", "verify-covering", "count-tree-set", "count-tree-tree", "incidences", "rich"],
)
def test_missing_file_is_one_error_line(tmp_path, verb):
    pts, tree, missing = tmp_path / "sq.pts", tmp_path / "path.tree", tmp_path / "nope"
    write_points(pts, make_layer([(0, 0), (1, 0)]).points, "exact")
    write_tree(tree, path_tree((1,)), "exact")
    proc = run_process(*verb.format(pts=pts, tree=tree, missing=missing).split())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"[Errno 2] No such file or directory: '{missing}'"]


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("k 2\ndim 2\nmode exact\ndelta2 1 1\nlayer 1 sq.pts\nlayer 2 sq.pts\n", "{m}: missing layer(s) [3]"),
        ("k 1\ndim 2\nmode exact\ndelta2 1\nlayer 1 sq.pts\nlayer 2 gone.pts\n",
         "[Errno 2] No such file or directory: '{d}/gone.pts'"),
        ("k 1\ndim 2\nmode exact\ndelta2 1\nlayer 1 sq.pts\nlayer 2 bad.pts\n",
         "{d}/bad.pts: malformed header 'dim 2 count'"),
    ],
    ids=["missing-layer", "missing-layer-file", "malformed-layer-file"],
)
@pytest.mark.parametrize("verb", ["count", "decompose"])
def test_bad_manifest_is_one_error_line(tmp_path, verb, manifest, message):
    write_points(tmp_path / "sq.pts", make_layer([(0, 0), (1, 0)]).points, "exact")
    (tmp_path / "bad.pts").write_text("dim 2 count\n")
    m = tmp_path / "manifest.txt"
    m.write_text(manifest)
    proc = run_process(verb, "--manifest", str(m))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [message.format(m=m, d=tmp_path)]


@pytest.mark.parametrize(
    "line, first, message",
    [
        ("layer 5 nonexistent.pts", False, "{m}: layer(s) [5] beyond 1..2"),
        ("layer 5 nonexistent.pts", True, "{m}: layer(s) [5] beyond 1..2"),
        ("bogus line here", False, "{m}: unknown line 'bogus line here'"),
        ("bogus line here", True, "{m}: unknown line 'bogus line here'"),
        ("k 9", False, "{m}: repeated k line 'k 9'"),
        ("layer 2 sq.pts", False, "{m}: repeated layer line 'layer 2 sq.pts'"),
    ],
    ids=["layer-past-k-appended", "layer-past-k-prepended", "unknown-key-appended", "unknown-key-prepended",
         "repeated-key", "repeated-layer"],
)
def test_refused_manifest_line_is_one_error_line(tmp_path, line, first, message):
    write_points(tmp_path / "sq.pts", make_layer([(0, 0), (1, 0)]).points, "exact")
    lines = ["k 1", "dim 2", "mode exact", "delta2 1", "layer 1 sq.pts", "layer 2 sq.pts"]
    m = tmp_path / "manifest.txt"
    m.write_text("\n".join([line, *lines] if first else [*lines, line]) + "\n")
    proc = run_process("count", "--manifest", str(m))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [message.format(m=m)]


HELP_VERBS = ("generate", "count", "count-tree", "incidences", "rich", "decompose", "experiment", "verify")


def test_help_texts_are_pinned(capsys, monkeypatch):
    # the top-level and every verb's help at 80 columns, as recorded while
    # the parser still built every verb's arguments on each call; argparse
    # wraps long usage lines differently from Python 3.13 on
    golden = "help-3.13.txt" if sys.version_info >= (3, 13) else "help.txt"
    monkeypatch.setenv("COLUMNS", "80")
    got = []
    for argv in (["--help"], *([verb, "--help"] for verb in HELP_VERBS)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        got.append(f"$ chain-census {' '.join(argv)}\n{capsys.readouterr().out}")
    with open(os.path.join(os.path.dirname(__file__), "golden", golden)) as fh:
        assert "".join(got) == fh.read()


@pytest.mark.parametrize(
    "argv, files, message",
    [
        ("count --manifest {d}/m.txt", {"m.txt": "k x\ndim 2\nmode exact\ndelta2 1\nlayer 1 sq.pts\nlayer 2 sq.pts\n"},
         "{d}/m.txt: invalid literal for int() with base 10: 'x'"),
        ("count --manifest {d}/m.txt", {"m.txt": "k 1\ndim 2\nmode exact\ndelta2 1\nlayer 1 sq.pts\nlayer 2 twice.pts\n",
                                        "twice.pts": "dim 2 count 2 mode exact\n0 0\n0 0\n"},
         "{d}/m.txt: layer 2: duplicate point coordinates"),
        ("count-tree --tree {d}/t.tree --set {d}/sq.pts", {"t.tree": "vertices 2\nedge 1 x 1\n"},
         "{d}/t.tree: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["manifest-bad-k", "manifest-duplicate-point", "tree-bad-vertex"],
)
def test_bad_file_value_is_one_error_line(tmp_path, argv, files, message):
    write_points(tmp_path / "sq.pts", make_layer([(0, 0), (1, 0)]).points, "exact")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = run_process(*argv.format(d=tmp_path).split())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [message.format(d=tmp_path)]


@pytest.mark.parametrize(
    "argv",
    [
        "generate --construction planar-chain",
        "count --manifest m.txt",
        "decompose --manifest m.txt",
        "experiment --construction 3d-even --k 2 --n-list 4,8,16",
        "verify --claim closed-form --construction planar-chain",
        "verify --claim floor --construction planar-chain",
        "verify --claim covering --manifest m.txt",
    ],
)
def test_mode_refused_where_it_has_no_effect(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "tol:0.001", *argv.split()])
    assert exc.value.code == 2
    verb = " ".join(argv.split()[: 3 if argv.startswith("verify") else 1])
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: --mode has no effect on {verb}")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--eps 0.9", "count --manifest m.txt"),
        ("--eps 0.9", "count-tree --tree t.tree --set p.pts"),
        ("--eps 0.9", "incidences --a p.pts --b p.pts --d2 1"),
        ("--eps 0.9", "rich --target p.pts --ref p.pts --d2 1 --r 1"),
        ("--out x.txt", "count --manifest m.txt"),
        ("--out x.txt", "count-tree --tree t.tree --set p.pts"),
        ("--out x.txt", "incidences --a p.pts --b p.pts --d2 1"),
        ("--out x.txt", "rich --target p.pts --ref p.pts --d2 1 --r 1"),
        ("--out x.txt", "decompose --manifest m.txt"),
        ("--out x.txt", "verify --claim covering --manifest m.txt"),
    ],
)
def test_global_flag_refused_where_it_has_no_effect(capsys, flag, argv):
    with pytest.raises(SystemExit) as exc:
        main([*flag.split(), *argv.split()])
    assert exc.value.code == 2
    verb = " ".join(argv.split()[: 3 if argv.startswith("verify") else 1])
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {flag.split()[0]} has no effect on {verb}")


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf", "abc"])
def test_mode_tolerance_must_be_finite_and_positive(tmp_path, eps):
    p = tmp_path / "tri.pts"
    write_points(p, make_layer([(0, 0), (1, 0), (0, 5)]).points, "exact")
    proc = run_process("--mode", f"tol:{eps}", "incidences", "--a", str(p), "--b", str(p), "--d2", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if not ln.startswith(("usage:", " "))]
    assert errors == ["chain-census: error: argument --mode: mode must be 'exact' or 'tol:<eps>' with a finite eps > 0"]


def test_mode_exact_compares_floats_exactly(tmp_path, capsys):
    # one corner of the unit square is off by 1e-12: within the default
    # tolerance of float files, but not at distance 1 exactly
    p = tmp_path / "sq.pts"
    p.write_text("dim 2 count 4 mode float\n0 0\n1 0\n0 1\n1.000000000001 1\n")
    argv = ["incidences", "--a", str(p), "--b", str(p), "--d2", "1"]
    assert run(capsys, *argv) == (0, "8\n")
    assert run(capsys, "--mode", "exact", *argv) == (0, "4\n")
    code, out = run(capsys, "--mode", "exact", "rich", "--target", str(p), "--ref", str(p), "--d2", "1", "--r", "2")
    assert code == 0 and out == "1\n0 0\n"
