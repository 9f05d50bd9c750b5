from fractions import Fraction

import pytest

from chain_census.constructions import gen_3d_odd_regular, gen_orthogonal_circles, gen_planar_chain, gen_star
from chain_census.io import (
    FileFormatError,
    _parse_exact,
    read_coords,
    read_manifest,
    read_points,
    read_tree,
    write_manifest,
    write_points,
    write_tree,
)
from chain_census.layered import (
    _coord_classes,
    count_chains,
    count_chains_and_walks,
    count_tree_embeddings,
    make_config,
    make_layer,
)

from oracles import enumerate_chains

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


BIG = 2**70 + 1
WHOLE = ["0", "-0", "+3", "007", "-12", str(BIG), str(-BIG)]
TOKENS = WHOLE + ["2/4", "-1/2", "1/-2", "4/2", f"{BIG}/3"]


class TestExactTokens:
    """read_points gives each exact token the value and type _parse_exact
    gives it, and for a bad one its error, after the file and the line."""

    @pytest.mark.parametrize("tokens", [WHOLE, TOKENS], ids=["whole", "mixed"])
    def test_values_and_types(self, tmp_path, tokens):
        path = tmp_path / "t.pts"
        path.write_text(f"dim {len(tokens)} count 2 mode exact\n{' '.join(tokens)}\n{' '.join(tokens[::-1])}\n")
        (first, second), _ = read_points(path)
        want = [_parse_exact(t) for t in tokens]
        assert list(first.coords) == want and list(map(type, first.coords)) == list(map(type, want))
        assert list(second.coords) == want[::-1] and list(map(type, second.coords)) == list(map(type, want[::-1]))

    @pytest.mark.parametrize("before", ["1 0", "1/2 0"], ids=["after-whole", "after-rational"])
    @pytest.mark.parametrize("tok", ["1/0", "1/2/3", "abc", "1.5"])
    def test_bad_token_error(self, tmp_path, before, tok):
        path = tmp_path / "bad.pts"
        path.write_text(f"dim 2 count 3 mode exact\n0 0\n{before}\n{tok} 0\n")
        with pytest.raises(ValueError) as want:
            _parse_exact(tok)
        with pytest.raises(FileFormatError) as got:
            read_points(path)
        assert str(got.value) == f"{path}: line 4: {want.value}"

    @pytest.mark.parametrize(
        "body, message",
        [("0 0\n1\nabc 0\n", "line 3 has 1 coords, want 2"), ("0 0\nabc 0\n1\n", "bad integer 'abc'")],
        ids=["count-first", "token-first"],
    )
    def test_first_fault_is_reported(self, tmp_path, body, message):
        path = tmp_path / "bad.pts"
        path.write_text(f"dim 2 count 3 mode exact\n{body}")
        with pytest.raises(FileFormatError, match=message):
            read_points(path)


def test_exact_files_count_without_points_or_fractions(tmp_path):
    # a rational manifest and rational star files are counted from their
    # layers' integers: no Point and no Fraction is built on the way
    cfg = gen_orthogonal_circles(4, 3, 12).config
    write_manifest(tmp_path / "manifest.txt", cfg, tmp_path)
    loaded = read_manifest(tmp_path / "manifest.txt")
    assert count_chains_and_walks(loaded) == count_chains_and_walks(cfg)
    star = gen_star(3, 15)
    for i, layer in enumerate(star.layers):
        write_points(tmp_path / f"star{i}.pts", layer.points, "exact")
    layers = [read_coords(tmp_path / f"star{i}.pts")[0] for i in range(4)]
    assert count_tree_embeddings(layers, star.tree, star.spec) == star.closed_form
    for layer in [loaded.layers[0], *layers[1:]]:
        assert layer.types == {int, Fraction} or layer.types == {Fraction}
        assert "points" not in layer.__dict__ and "rows" not in layer.__dict__
    # read back, the same Points as the constructions built
    assert loaded.layers[0].points == cfg.layers[0].points
    assert [ly.points for ly in layers] == [ly.points for ly in star.layers]


def _shifted_grid(shift):
    return [(shift[0] + x, shift[1] + y) for x in range(3) for y in range(3)]


@pytest.mark.parametrize(
    "shift",
    [(BIG, -BIG), (F(1, 2**32 + 15), F(1, 2**32 - 5))],  # coordinates past 2^63; a point's denominator lcm past 2^63
    ids=["big-integers", "big-denominators"],
)
def test_big_exact_configuration(tmp_path, shift):
    layer = _shifted_grid(shift)
    cfg = make_config([layer, _shifted_grid((0, 0)) + layer, layer], (1, 2))
    write_manifest(tmp_path / "a" / "manifest.txt", cfg, tmp_path / "a")
    loaded = read_manifest(tmp_path / "a" / "manifest.txt")
    coords = [[p.coords for p in ly.points] for ly in cfg.layers]
    assert [[p.coords for p in ly.points] for ly in loaded.layers] == coords
    assert count_chains(loaded) == len(enumerate_chains(loaded)) > 0
    write_manifest(tmp_path / "b" / "manifest.txt", loaded, tmp_path / "b")
    for name in ("manifest.txt", "layer1.pts", "layer2.pts"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    def test_repeated_layers_share_one_store(self, tmp_path):
        # a manifest naming one file for every layer, generated, read and
        # reversed: one layer object, one class list, one point file, same bytes
        res = gen_3d_odd_regular(3, 27)
        write_manifest(tmp_path / "manifest.txt", res.config, tmp_path)
        loaded = read_manifest(tmp_path / "manifest.txt")
        backwards = make_config(loaded.layers[::-1], loaded.spec.delta2)
        for i, cfg in enumerate((res.config, loaded, backwards)):
            assert len({id(ly) for ly in cfg.layers}) == 1
            assert len({id(c) for c in _coord_classes(cfg.layers)}) == 1
            out = tmp_path / f"copy{i}"
            write_manifest(out / "manifest.txt", cfg, out)
            assert sorted(p.name for p in out.iterdir()) == ["layer1.pts", "manifest.txt"]
            for name in ("layer1.pts", "manifest.txt"):
                assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_equal_layers_share_a_file_whatever_their_number_types(self, tmp_path):
        ints = make_layer([(0, 0), (1, 2)])
        fracs = make_layer([(F(0), F(0)), (F(1), 2)])
        halves = make_layer([(F(1, 2), 0), (1, F(5, 2))])
        cfg = make_config([ints, fracs, halves, make_layer([(0, 0), (1, 2)])], (1, 2, 3))
        write_manifest(tmp_path / "manifest.txt", cfg, tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.pts")) == ["layer1.pts", "layer2.pts"]
        layers = [ln.split()[-1] for ln in (tmp_path / "manifest.txt").read_text().splitlines() if ln.startswith("layer")]
        assert layers == ["layer1.pts", "layer1.pts", "layer2.pts", "layer1.pts"]
        assert (tmp_path / "layer2.pts").read_text().splitlines()[1:] == ["1/2 0", "1 5/2"]

    def test_empty_layer_keeps_its_dimension(self, tmp_path):
        cfg = make_config([[], [(0, 0), (1, 0)]], [1])
        write_manifest(tmp_path / "manifest.txt", cfg, tmp_path)
        assert (tmp_path / "layer1.pts").read_text() == "dim 2 count 0 mode exact\n"
        loaded = read_manifest(tmp_path / "manifest.txt")
        assert loaded.dim == 2 and loaded.layers[0].dims == {2}
        assert count_chains_and_walks(loaded) == (0, 0)
        write_manifest(tmp_path / "b" / "manifest.txt", loaded, tmp_path / "b")
        for name in ("manifest.txt", "layer1.pts", "layer2.pts"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
