import os

import pytest

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
