"""CLI runs at sizes where a dense ambient build takes seconds and hundreds
of megabytes; the column-sparse operators keep each well under a second."""

import random
from time import perf_counter

from ccomb.cli import MAX_WORD_MOMENT_BUILD, main
from ccomb.graphs import birooted
from ccomb.io import save_graph
from ccomb.products import c_comb_decomposition


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
