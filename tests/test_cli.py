import os
import subprocess
import sys

import pytest

import chain_census
from chain_census import experiment
from chain_census.cli import main
from chain_census.io import write_points, write_tree
from chain_census.constructions import gen_star, gen_unit_rich_grid
from chain_census.layered import make_layer, path_tree


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

    def test_verify_richness_files(self, tmp_path, capsys):
        grid = gen_unit_rich_grid(25)
        p = tmp_path / "g.pts"
        write_points(p, grid.points, "exact")
        code, out = run(
            capsys, "verify", "--claim", "richness",
            "--a", str(p), "--b", str(p), "--d2", str(grid.popular_d2),
        )
        assert code == 0 and out.startswith("PASS")

    def test_verify_richness_violation_fails(self, tmp_path, capsys, monkeypatch):
        def violated(*args):
            raise RuntimeError("richness bound violated at r=2: 2*3 vs 5 vs 9")

        monkeypatch.setattr(experiment, "check_richness_bound", violated)
        p = tmp_path / "sq.pts"
        write_points(p, make_layer([(0, 0), (1, 0), (1, 1), (0, 1)]).points, "exact")
        code, out = run(
            capsys, "verify", "--claim", "richness", "--a", str(p), "--b", str(p), "--d2", "1"
        )
        assert code == 1
        assert out == "FAIL computed=None expected=1.0 (richness bound violated at r=2: 2*3 vs 5 vs 9)\n"


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


def run_process(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chain_census.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "chain_census.cli", *argv], capture_output=True, text=True, env=env
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
        (
            "verify --claim richness --a a.pts --b b.pts --d2 1 --k 3",
            2,
            "chain-census: error: --k has no effect on verify --claim richness",
        ),
    ],
    ids=[
        "unknown-verify", "unknown-generate", "missing", "planar-k3", "no-certificate",
        "generate-unread", "generate-variant", "covering-unread", "richness-unread",
    ],
)
def test_bad_construction_is_one_error_line(argv, code, message):
    proc = run_process(*argv.split())
    assert proc.returncode == code and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if not ln.startswith(("usage:", " "))]
    assert len(errors) == 1 and errors[0].startswith(message)


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


def test_mode_honoured_by_verify_richness(tmp_path, capsys):
    p = tmp_path / "sq.pts"
    write_points(p, make_layer([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).points, "float")
    code, out = run(
        capsys, "--mode", "tol:0.001", "verify", "--claim", "richness",
        "--a", str(p), "--b", str(p), "--d2", "1",
    )
    assert code == 0 and out.startswith("PASS")
