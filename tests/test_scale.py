"""CLI runs at sizes where a dense ambient build takes seconds and hundreds
of megabytes; the column-sparse operators keep each well under a second."""

import functools
import hashlib
import random
from pathlib import Path
from time import perf_counter

import pytest

from ccomb import cli, io as gio
from ccomb.cli import MAX_WORD_LETTERS, MAX_WORD_MOMENT_BUILD, PRODUCT_KINDS, main
from ccomb.graphs import birooted, root_moments, rooted, two_step_moments
from ccomb.io import save_graph
from ccomb.products import (
    ADDITIVE_WALK_PRODUCTS,
    c_comb_decomposition,
    comb_loop_product,
    essential_loop_product,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def seeded_graph(seed, n=16):
    """Connected birooted graph: a random recursive tree plus n // 4 chords
    and n // 8 loops."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    for v in rng.sample(range(n), n // 8):
        edges.add((v, v))
    return birooted(n, edges, rng.randrange(n), rng.randrange(n))


def _write_pair(tmp_path):
    g1, g2 = seeded_graph(1), seeded_graph(2)
    paths = [tmp_path / "g1.graph", tmp_path / "g2.graph"]
    for path, g in zip(paths, (g1, g2)):
        save_graph(path, g)
    return g1, g2, [str(p) for p in paths]


def test_word_moment_on_16_vertex_factors(tmp_path, capsys):
    g1, g2, paths = _write_pair(tmp_path)
    assert c_comb_decomposition(g1, g2).ambient_dim == 4352
    code = main(["word-moment", *paths, "1:a 2:a 1:a 2:a 2:a 1:a"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "state,realized,oracle,equal"
    assert [line.split(",")[0] for line in lines[1:]] == ["phi", "psi"]
    assert all(line.endswith(",yes") for line in lines[1:])


def test_multiplicative_c_monotone_walk_column_on_16_vertex_factors(tmp_path, capsys):
    _g1, _g2, paths = _write_pair(tmp_path)
    code = main(["convolve", "multiplicative", "c-monotone", *paths, "--order", "8"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith(",walk_count,equal")
    assert len(lines) == 9
    assert all(line.endswith(",yes") for line in lines[1:])


def test_word_moment_refuses_a_1000_vertex_factor_up_front(tmp_path, capsys):
    big = tmp_path / "big.graph"
    save_graph(big, birooted(1000, [(v, v + 1) for v in range(999)], 0, 1))
    start = perf_counter()
    code = main(["word-moment", str(big), str(big), "1:a 2:a"])
    elapsed = perf_counter() - start
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(MAX_WORD_MOMENT_BUILD) in err
    assert elapsed < 1.0


def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    assert all(needle in err for needle in needles), err


def _path_beside_a_point(tmp_path, n1):
    """Files of an n1-vertex path and a one-vertex graph, both birooted."""
    path, point = tmp_path / "path.graph", tmp_path / "point.graph"
    save_graph(path, birooted(n1, [(v, v + 1) for v in range(n1 - 1)], 0, 1))
    save_graph(point, birooted(1, [], 0, 0))
    return [str(path), str(point)]


def test_word_moment_counts_the_dense_factor_adjacencies(tmp_path, capsys):
    # beside a one-vertex factor the dense n1 x n1 adjacency is the main
    # build: 999 vertices count 999 * 2 + 999^2 + 1, exactly the cap
    assert MAX_WORD_MOMENT_BUILD == 999 * 2 + 999**2 + 1
    assert main(["word-moment", *_path_beside_a_point(tmp_path, 999), "1:a 2:a"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all(line.endswith(",yes") for line in lines[1:])
    start = perf_counter()
    code = main(["word-moment", *_path_beside_a_point(tmp_path, 1000), "1:a 2:a"])
    elapsed = perf_counter() - start
    assert code == 2
    _one_error_line(capsys, "1002001", str(MAX_WORD_MOMENT_BUILD))
    assert elapsed < 1.0


def test_word_moment_refuses_a_word_over_the_letter_cap(monkeypatch, capsys):
    pair = [str(FIXTURES / f"multiplicative_g{i}.graph") for i in (1, 2)]
    at_cap = " ".join(["1:a 2:a"] * (MAX_WORD_LETTERS // 2))
    assert main(["word-moment", *pair, at_cap]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.endswith(",yes") for line in lines[1:])

    def no_build(*args):
        raise AssertionError("built a decomposition for a refused word")

    monkeypatch.setattr(cli, "c_comb_decomposition", no_build)
    assert main(["word-moment", *pair, at_cap + " 1:a"]) == 2
    _one_error_line(capsys, f"{MAX_WORD_LETTERS + 1} letters", str(MAX_WORD_LETTERS))


def _wrap_every_product_kind(monkeypatch):
    """Replace each `PRODUCT_KINDS` builder by a `functools.wraps`
    passthrough, as a tracer that times the builders does."""
    for kind, build in list(PRODUCT_KINDS.items()):
        passthrough = functools.wraps(build)(lambda *args, build=build: build(*args))
        monkeypatch.setitem(PRODUCT_KINDS, kind, passthrough)


@pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
def test_product_vertex_limit_follows_the_factor_sizes(
    kind, tmp_path, monkeypatch, capsys
):
    # the count the refusal predicts is the built product's: at the limit the
    # product is built, one vertex below it the command exits 2; so too with
    # every builder wrapped, as a tracer wraps them
    g1 = birooted(3, [(0, 1), (1, 2)], 0, 2)
    g2 = birooted(4, [(0, 1), (1, 2), (2, 3), (3, 3)], 0, 3)
    paths = [str(tmp_path / "g1.graph"), str(tmp_path / "g2.graph")]
    save_graph(paths[0], g1)
    save_graph(paths[1], g2)
    vertices = PRODUCT_KINDS[kind](g1, g2).vertex_count
    argv = ["product", kind, *paths, "--out", str(tmp_path / "out")]
    for wrapped in (False, True):
        if wrapped:
            _wrap_every_product_kind(monkeypatch)
        monkeypatch.setattr(gio, "MAX_VERTICES", vertices)
        assert main(argv) == 0, wrapped
        capsys.readouterr()
        monkeypatch.setattr(gio, "MAX_VERTICES", vertices - 1)
        assert main(argv) == 2, wrapped
        _one_error_line(capsys, f"{vertices} vertices")


def test_a_wrapped_builder_keeps_its_vertex_count(tmp_path, monkeypatch, capsys):
    # the star product of two 1,001-vertex paths has 2,001 vertices, not the
    # n1 * n2 = 1,002,001 of the fallback count
    _wrap_every_product_kind(monkeypatch)
    path = tmp_path / "path.graph"
    save_graph(path, rooted(1001, [(v, v + 1) for v in range(1000)], 0))
    out = tmp_path / "out"
    assert main(["product", "star", str(path), str(path), "--out", str(out)]) == 0
    assert "vertices" not in capsys.readouterr().err


def test_products_just_over_the_vertex_limit_are_refused_up_front(tmp_path, capsys):
    # 101 * 9901 = 1,000,001 vertices, one over io.MAX_VERTICES
    assert 101 * 9901 == gio.MAX_VERTICES + 1
    paths = [str(tmp_path / "g1.graph"), str(tmp_path / "g2.graph")]
    save_graph(paths[0], rooted(101, [], 0))
    save_graph(paths[1], rooted(9901, [(0, 1)], 0))
    for argv in (
        ["product", "comb", *paths, "--out", str(tmp_path / "out")],
        ["convolve", "additive", "monotone", *paths, "--order", "4"],
    ):
        start = perf_counter()
        assert main(argv) == 2, argv
        assert perf_counter() - start < 2.0, argv
        _one_error_line(capsys, "1000001 vertices", str(gio.MAX_VERTICES))
    assert not (tmp_path / "out").exists()


def _digest(rows) -> str:
    text = "\n".join(f"{name}:{','.join(map(str, coeffs))}" for name, coeffs in rows)
    return hashlib.sha256(text.encode()).hexdigest()


ADDITIVE_PIN = "7bcaa7c4efaaa0b0276f29f79c03a4b38321fc2901fddd1dd0c1c43a2c9b2171"
TWO_STEP_PIN = "341856cfdffa65c85181cab4bdf9e121ed5ea86195254f3ad6e4256294d86f01"


def test_walk_columns_at_benchmark_size_are_pinned():
    # verify's pairs have at most 6 vertices per factor; these pin the walk
    # columns on products of up to 1,600 vertices (additive, order 24) and
    # of 256 (two-step, order 16), hashed while both ran on the operator
    # kernel
    g1, g2 = seeded_graph(3, 40), seeded_graph(4, 40)
    additive = [
        (kind, root_moments(build(g1, g2).graph, 24).coeffs)
        for kind, build in sorted(ADDITIVE_WALK_PRODUCTS.items())
    ]
    assert _digest(additive) == ADDITIVE_PIN
    g1, g2 = seeded_graph(1), seeded_graph(2)
    two_step = [
        (build.__name__, two_step_moments(build(g1, g2).graph, 16).coeffs)
        for build in (comb_loop_product, essential_loop_product)
    ]
    assert _digest(two_step) == TWO_STEP_PIN
