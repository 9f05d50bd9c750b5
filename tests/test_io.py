from fractions import Fraction

import pytest

from chain_census.constructions import gen_3d_odd_regular, gen_planar_chain, gen_star
from chain_census.io import (
    FileFormatError,
    read_manifest,
    read_points,
    read_tree,
    write_manifest,
    write_points,
    write_tree,
)
from chain_census.layered import count_chains, count_tree_embeddings, make_layer

F = Fraction


class TestPointFiles:
    def test_exact_round_trip_bytes(self, tmp_path):
        pts = make_layer([(F(1, 2), F(1, 2)), (3, -4), (F(-7, 3), 0)]).points
        path = tmp_path / "a.pts"
        write_points(path, pts, "exact")
        loaded, mode = read_points(path)
        assert mode == "exact"
        assert [p.coords for p in loaded] == [p.coords for p in pts]
        second = tmp_path / "b.pts"
        write_points(second, loaded, "exact")
        assert path.read_bytes() == second.read_bytes()

    def test_float_round_trip_bytes(self, tmp_path):
        pts = make_layer([(0.1, 0.2), (1 / 3, 2 / 7)]).points
        path = tmp_path / "a.pts"
        write_points(path, pts, "float")
        loaded, mode = read_points(path)
        assert mode == "float"
        assert [p.coords for p in loaded] == [p.coords for p in pts]
        second = tmp_path / "b.pts"
        write_points(second, loaded, "float")
        assert path.read_bytes() == second.read_bytes()

    def test_single_rational_example(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("dim 2 count 1 mode exact\n1/2 1/2\n")
        pts, mode = read_points(path)
        assert pts[0].coords == (F(1, 2), F(1, 2))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("dim 2 points 1 mode exact\n0 0\n")
        with pytest.raises(FileFormatError):
            read_points(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("dim 2 count 2 mode exact\n1/2 1/2\n")
        with pytest.raises(FileFormatError):
            read_points(path)

    def test_coordinate_count_mismatch(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("dim 2 count 1 mode exact\n1/2 1/2 1/2\n")
        with pytest.raises(FileFormatError):
            read_points(path)

    def test_zero_denominator(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("dim 2 count 1 mode exact\n1/0 1\n")
        with pytest.raises(FileFormatError):
            read_points(path)


    @pytest.mark.parametrize("line", ["nan 0", "1 inf"])
    def test_non_finite_float_rejected(self, tmp_path, line):
        path = tmp_path / "p.pts"
        path.write_text(f"dim 2 count 2 mode float\n0 0\n{line}\n")
        with pytest.raises(FileFormatError, match="line 3: non-finite coordinate"):
            read_points(path)

class TestManifests:
    def test_round_trip_exact(self, tmp_path):
        cfg = gen_planar_chain(2, None, 5, 0.25)
        mpath = tmp_path / "manifest.txt"
        write_manifest(mpath, cfg, tmp_path)
        loaded = read_manifest(mpath)
        assert loaded.k == cfg.k
        assert loaded.spec.delta2 == cfg.spec.delta2
        assert count_chains(loaded) == count_chains(cfg)

    def test_round_trip_tolerant(self, tmp_path):
        cfg = gen_planar_chain(3, None, 4, 0.25)
        mpath = tmp_path / "manifest.txt"
        write_manifest(mpath, cfg, tmp_path)
        loaded = read_manifest(mpath)
        assert loaded.spec.eps == cfg.spec.eps
        assert count_chains(loaded) == count_chains(cfg)

    def test_repeated_layers_alias_one_file(self, tmp_path):
        res = gen_3d_odd_regular(3, 27)
        mpath = tmp_path / "manifest.txt"
        write_manifest(mpath, res.config, tmp_path)
        pts_files = list(tmp_path.glob("*.pts"))
        assert len(pts_files) == 1
        text = mpath.read_text()
        assert text.count("layer ") == 4
        loaded = read_manifest(mpath)
        assert count_chains(loaded) == count_chains(res.config)

    def test_missing_layer(self, tmp_path):
        cfg = gen_planar_chain(1, None, 3, 0.25)
        mpath = tmp_path / "manifest.txt"
        write_manifest(mpath, cfg, tmp_path)
        lines = [
            ln for ln in mpath.read_text().splitlines() if not ln.startswith("layer 2")
        ]
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_manifest(mpath)

    def test_delta_count_mismatch(self, tmp_path):
        cfg = gen_planar_chain(1, None, 3, 0.25)
        mpath = tmp_path / "manifest.txt"
        write_manifest(mpath, cfg, tmp_path)
        text = mpath.read_text().replace("k 1", "k 2")
        mpath.write_text(text)
        with pytest.raises(FileFormatError):
            read_manifest(mpath)


class TestTreeFiles:
    def test_round_trip(self, tmp_path):
        res = gen_star(3, 12)
        tpath = tmp_path / "star.tree"
        write_tree(tpath, res.tree, "exact")
        tree = read_tree(tpath)
        assert tree.vertex_count == res.tree.vertex_count
        assert tree.edges == res.tree.edges
        got = count_tree_embeddings(res.layers, tree, res.spec)
        assert got == res.closed_form

    def test_bad_line(self, tmp_path):
        tpath = tmp_path / "bad.tree"
        tpath.write_text("vertices 2\nedge 1 2\n")
        with pytest.raises(FileFormatError):
            read_tree(tpath)
