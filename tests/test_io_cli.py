import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from ccomb import cli
from ccomb.cli import main
from ccomb.fixtures import additive_demo_pair, multiplicative_demo_pair
from ccomb.graphs import birooted, colored, root_moments, rooted
from ccomb.io import (
    GraphFormatError,
    format_graph,
    format_moment_table,
    load_graph,
    parse_graph,
    parse_moment_table,
    save_graph,
    to_dot,
)
from ccomb.series import additive_convolve, moment_series

def fixture_path(name):
    from pathlib import Path

    return str(Path(__file__).resolve().parent.parent / "fixtures" / name)


def test_parse_minimal():
    g, labels = parse_graph("vertices = 2\nroot = 0\nedges = [[0, 1]]\n")
    assert g.second_root is None
    assert g.colored_edges == ((0, 1, 1),)
    assert g.edges == frozenset({(0, 1)}) and labels is None


def test_parse_birooted_and_comments():
    text = "# demo\nvertices = 3\nroot = 0\nsecond_root = 2  # second\nedges = []\n"
    g, _ = parse_graph(text)
    assert g.second_root == 2


def test_parse_colored_and_labels():
    text = (
        "vertices = 2\nroot = 0\nedges = [[0, 1, 1], [0, 1, 2]]\n"
        'labels = [[0, 0], [0, 1]]\n'
    )
    g, labels = parse_graph(text)
    assert g.colored_edges == ((0, 1, 1), (0, 1, 2))
    assert labels == ((0, 0), (0, 1))


@pytest.mark.parametrize(
    "text",
    [
        "vertices = 2\nroot = 0\nedges = [[0, 1], [1, 0]]",  # duplicate edge
        "vertices = 2\nroot = 0\nedges = [[0, 5]]",  # out of range
        "vertices = 2\nroot = 9\nedges = []",  # root out of range
        "vertices = 2\nroot = 0\nedges = [[0, 1, 1], [0, 1]]",  # mixed colors
        "vertices = 2\nroot = 0\nedges = [[0, 1, 7]]",  # bad color
        "vertices = 2\nroot = 0",  # missing edges
        "vertices = 2\nroot = 0\nedges = []\nwhat = 1",  # unknown key
        "vertices = 2\nroot = 0\nroot = 1\nedges = []",  # duplicate key
        "vertices = 1000001\nroot = 0\nedges = []",  # above MAX_VERTICES
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_format_roundtrip(tmp_path):
    g = birooted(4, [(0, 1), (2, 3), (1, 1)], 1, 3)
    path = tmp_path / "g.graph"
    save_graph(path, g)
    assert load_graph(path) == g
    c = colored(3, [(0, 1, 1), (0, 1, 2), (2, 2, 1)], 0, 2)
    text = format_graph(c, labels=[(0, 0), (0, 1), (1, 0)])
    g2, labels = parse_graph(text)
    assert g2 == c and labels == ((0, 0), (0, 1), (1, 0))


@st.composite
def labeled_colored_graphs(draw):
    """A colored graph on 1-8 vertices (loops, pairs carrying both colors
    and no edges at all included), one or two roots, and labels or None."""
    n = draw(st.integers(1, 8))
    candidates = [(i, j, c) for i in range(n) for j in range(i, n) for c in (1, 2)]
    edges = draw(st.sets(st.sampled_from(candidates)))
    root = draw(st.integers(0, n - 1))
    second = draw(st.none() | st.integers(0, n - 1))
    arity = draw(st.integers(2, 3))
    label = st.tuples(*[st.integers(0, 10**6)] * arity)
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n).map(tuple))
    return colored(n, edges, root, second), labels


@given(labeled_colored_graphs())
@example((colored(1, [], 0), None))
@example((colored(2, [(0, 1, 1), (0, 1, 2), (1, 1, 2)], 1, 0), ((0, 0), (0, 1))))
def test_graph_file_edges_read_as_json_and_round_trip(case):
    g, labels = case
    text = format_graph(g, labels)
    # json.dumps is the reference encoding of the edge list
    edge_lines = [line for line in text.splitlines() if line.startswith("edges = ")]
    assert edge_lines == ["edges = " + json.dumps(g.colored_edges)]
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert parse_graph(text) == (g, labels)


def test_fixture_files_match_builtins():
    a1, a2 = additive_demo_pair()
    m1, m2 = multiplicative_demo_pair()
    assert load_graph(fixture_path("additive_g1.graph")) == a1
    assert load_graph(fixture_path("additive_g2.graph")) == a2
    assert load_graph(fixture_path("multiplicative_g1.graph")) == m1
    assert load_graph(fixture_path("multiplicative_g2.graph")) == m2


def test_dot_output():
    g = colored(3, [(0, 1, 1), (1, 2, 2)], 0, 2)
    dot = to_dot(g)
    assert "0 [shape=doublecircle];" in dot
    assert "2 [shape=square];" in dot
    assert "0 -- 1 [style=solid];" in dot
    assert "1 -- 2 [style=dashed];" in dot
    assert to_dot(g) == dot  # deterministic


def test_moment_table_parse():
    values = parse_moment_table("n,fraction,decimal\n0,1,1.0\n1,3/2,1.5\n")
    assert values == [1, Fraction(3, 2)]
    assert parse_moment_table("1,2\n0,1") == [1, 2]
    with pytest.raises(ValueError):
        parse_moment_table("0,1\n2,5")  # gap in indices
    with pytest.raises(ValueError):
        parse_moment_table("")


# magnitudes past the float range too, whose decimal column reads inf or -inf
_big_ints = st.integers(min_value=-(10**400), max_value=10**400)
_big_fractions = st.builds(Fraction, _big_ints, st.integers(1, 10**400))


@given(
    st.one_of(
        st.lists(_big_ints, min_size=1, max_size=8),
        st.lists(_big_fractions, min_size=1, max_size=8),
    ),
    st.lists(st.booleans(), min_size=8, max_size=8),
)
@example([1, 10**400, -(10**400)], [True, False, True] * 3)
@example([Fraction(10**400, 3), Fraction(-(10**401), 7), Fraction(1, 3)], [False] * 8)
def test_moment_table_written_and_read_back_exactly(values, equal):
    walks = [v if same else v + 1 for v, same in zip(values, equal)]
    plain, walked = format_moment_table(values), format_moment_table(values, 0, walks)
    assert parse_moment_table(plain) == parse_moment_table(walked) == values
    assert plain.splitlines()[0] == "n,fraction,decimal"
    assert walked.splitlines()[0] == "n,fraction,decimal,walk_count,equal"
    rows = zip(values, walks, plain.splitlines()[1:], walked.splitlines()[1:])
    for v, w, row, walk_row in rows:
        decimal = row.split(",")[2]
        if abs(v) < 10**308:
            assert float(decimal) == float(v)
        elif abs(v) >= 2**1024:
            assert decimal == ("inf" if v > 0 else "-inf")
        # the walk column reads yes or no row by row
        assert walk_row == f"{row},{w},{'yes' if v == w else 'no'}"
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        # an exact value past the int-to-str digit limit cannot be written
        too_long = 10 ** sys.get_int_max_str_digits()
        with pytest.raises(ValueError):
            format_moment_table([*values, too_long])


def test_a_walk_column_of_another_length_is_refused():
    # a shorter walk column once dropped every row past its end
    for walks in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            format_moment_table([1, 2, 3], 0, walks)


def test_cli_product_and_outputs(tmp_path, capsys):
    out = tmp_path / "prod"
    code = main(
        [
            "product",
            "c-comb",
            fixture_path("additive_g1.graph"),
            fixture_path("additive_g2.graph"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "vertices=24" in captured
    assert (out / "c_comb.graph").exists() and (out / "c_comb.dot").exists()
    reloaded = load_graph(out / "c_comb.graph")
    assert reloaded.vertex_count == 24


def test_cli_product_rejects_single_rooted(tmp_path, capsys):
    plain = tmp_path / "plain.graph"
    save_graph(plain, rooted(2, [(0, 1)], 0))
    code = main(
        [
            "product",
            "comb-at",
            fixture_path("additive_g1.graph"),
            str(plain),
        ]
    )
    assert code == 2


def test_cli_moments(capsys):
    code = main(["moments", fixture_path("additive_g2.graph"), "--order", "4"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,fraction,decimal"
    assert out[1] == "0,1,1.0"
    assert out[2] == "1,0,0.0"
    assert out[3] == "2,1,1.0"


def test_cli_calls_in_one_process_share_one_parser(capsys, monkeypatch):
    import argparse

    graph = fixture_path("additive_g2.graph")
    assert main(["moments", graph, "--order", "5"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    capsys.readouterr()
    # the --order of the last call does not carry over to the next
    assert main(["moments", graph]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 13
    with pytest.raises(SystemExit) as exc:
        main(["moments", graph, "--order", "five"])
    assert exc.value.code == 2
    assert main(["moments", graph, "--order", "0"]) == 2
    capsys.readouterr()
    assert main(["moments", graph, "--order", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert not built


def test_cli_moments_second_root_errors(tmp_path, capsys):
    plain = tmp_path / "plain.graph"
    save_graph(plain, rooted(2, [(0, 1)], 0))
    assert main(["moments", str(plain), "--at", "f"]) == 2


def test_cli_convolve_graphs_walk_column(capsys):
    code = main(
        [
            "convolve",
            "additive",
            "c-monotone",
            fixture_path("additive_g1.graph"),
            fixture_path("additive_g2.graph"),
            "--order",
            "6",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,fraction,decimal,walk_count,equal"
    assert all(line.endswith(",yes") for line in lines[1:])


@pytest.mark.parametrize(
    "kind, reads", [("monotone", [None, None]), ("c-monotone", [None, None, 1])]
)
def test_cli_convolve_reads_only_the_factor_moments_it_uses(
    monkeypatch, capsys, kind, reads
):
    # mu1 and mu2 at the roots, nu2 at the second root of the second graph
    # for c-monotone alone, then the product's walk column at its root
    calls = []

    def counted(g, order, at=None):
        calls.append(at)
        return root_moments(g, order, at=at)

    monkeypatch.setattr(cli, "root_moments", counted)
    g1, g2 = fixture_path("additive_g1.graph"), fixture_path("additive_g2.graph")
    assert main(["convolve", "additive", kind, g1, g2, "--order", "6"]) == 0
    assert calls == reads + [None]
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(",yes") for line in lines[1:])


def test_cli_convolve_tables(tmp_path, capsys):
    t1 = tmp_path / "m1.csv"
    t1.write_text("0,1\n1,0\n2,1\n3,0\n4,1\n")
    code = main(["convolve", "additive", "monotone", str(t1), str(t1), "--order", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == [
        "0,1,1.0",
        "1,0,0.0",
        "2,2,2.0",
        "3,0,0.0",
        "4,5,5.0",
    ]


def test_cli_convolve_boolean_symmetric(capsys):
    g1 = fixture_path("additive_g1.graph")
    g2 = fixture_path("additive_g2.graph")
    assert main(["convolve", "additive", "boolean", g1, g2, "--order", "6"]) == 0
    forward = capsys.readouterr().out
    assert main(["convolve", "additive", "boolean", g2, g1, "--order", "6"]) == 0
    backward = capsys.readouterr().out
    assert forward == backward


def test_cli_convolve_missing_nu2(tmp_path, capsys):
    t1 = tmp_path / "m1.csv"
    t1.write_text("0,1\n1,0\n2,1\n")
    code = main(["convolve", "additive", "c-monotone", str(t1), str(t1), "--order", "2"])
    assert code == 2


def test_cli_convolve_divisor_vanishes(tmp_path, capsys):
    t1 = tmp_path / "m1.csv"
    t1.write_text("0,1\n1,1\n2,1\n")
    t0 = tmp_path / "m0.csv"
    t0.write_text("0,1\n1,0\n2,0\n")
    code = main(
        [
            "convolve",
            "multiplicative",
            "c-monotone",
            str(t1),
            str(t1),
            str(t0),
            "--order",
            "2",
        ]
    )
    assert code == 3
    assert "concentrated at zero" in capsys.readouterr().err


def test_cli_word_moment(capsys):
    code = main(
        [
            "word-moment",
            fixture_path("multiplicative_g1.graph"),
            fixture_path("multiplicative_g2.graph"),
            "1:a 2:a 1:a",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "state,realized,oracle,equal"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_cli_word_moment_rejects_bad_letters(tmp_path, capsys):
    plain = tmp_path / "plain.graph"
    save_graph(plain, rooted(2, [(0, 1)], 0))
    assert (
        main(
            [
                "word-moment",
                str(plain),
                fixture_path("additive_g2.graph"),
                "1:a",
            ]
        )
        == 2
    )
    assert (
        main(
            [
                "word-moment",
                fixture_path("additive_g1.graph"),
                fixture_path("additive_g2.graph"),
                "3:x",
            ]
        )
        == 2
    )


def test_cli_word_moment_reads_a_second_factor_pair_with_both_colors(
    tmp_path, capsys
):
    # the operators come from the factors alone, so a pair that carries both
    # colors reaches them; the product itself still refuses it in one line
    g1, g2 = tmp_path / "g1.graph", tmp_path / "g2.graph"
    head = "vertices = 2\nroot = 0\nsecond_root = 1\n"
    g1.write_text(head + "edges = [[0, 1]]\n", encoding="utf-8")
    g2.write_text(head + "edges = [[0, 1, 1], [0, 1, 2]]\n", encoding="utf-8")
    assert main(["word-moment", str(g1), str(g2), "2:a 2:a"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["state,realized,oracle,equal", "phi,4,4,yes", "psi,4,4,yes"]
    assert main(["product", "c-comb", str(g1), str(g2), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "cannot build the product" in err[0], err


def test_cli_refuses_a_graph_file_with_a_duplicate_edge(tmp_path, capsys):
    path = tmp_path / "dup.graph"
    path.write_text(
        "vertices = 3\nroot = 0\nedges = [[0, 1], [2, 1], [1, 0]]\n", encoding="utf-8"
    )
    assert main(["moments", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "duplicate edges (same pair and color)" in err[0], err


def test_product_files_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        subprocess.run(
            [sys.executable, "-m", "ccomb.cli", "product", "c-comb-loop",
             fixture_path("additive_g1.graph"), fixture_path("additive_g2.graph"),
             "--out", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            capture_output=True,
            check=True,
        )
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(written[0]) == ["c_comb_loop.dot", "c_comb_loop.graph"]
    assert written[0] == written[1]


def test_cli_missing_inputs_exit_cleanly(tmp_path, capsys):
    assert main(["moments", str(tmp_path / "nope.graph")]) == 2
    assert "cannot read graph" in capsys.readouterr().err
    assert (
        main(
            [
                "convolve",
                "additive",
                "monotone",
                str(tmp_path / "a.csv"),
                str(tmp_path / "b.csv"),
            ]
        )
        == 2
    )
    short = tmp_path / "short.csv"
    short.write_text("0,1\n1,2\n")
    assert (
        main(["convolve", "additive", "monotone", str(short), str(short)]) == 2
    )
    assert "shorter than order" in capsys.readouterr().err


def test_cli_verify_deterministic_and_exit(tmp_path, capsys):
    args = [
        "verify",
        "transforms",
        "--seed",
        "1",
        "--order",
        "6",
        "--graphs",
        "2",
        "--models",
        "2",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.strip().splitlines()[-1].startswith("SUMMARY")
    assert "CHECK transforms/moments-F-roundtrip PASS" in first


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(
        [
            "verify",
            "products",
            "--graphs",
            "2",
            "--models",
            "2",
            "--order",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().count("CHECK products/") >= 10


def test_cli_verify_graphs_flag_sets_every_random_graph_draw(capsys):
    # at --graphs 0 no check draws a random graph: the bridges keep only
    # their fixed demo pair
    args = ["verify", "all", "--order", "1", "--max-word", "1", "--graphs", "0"]
    assert main([*args, "--models", "0"]) == 0
    details = {
        name: detail
        for _, name, _, detail in (
            line.split(" ", 3) for line in capsys.readouterr().out.splitlines()[:-1]
        )
    }
    walks = details["products/walk-count-cross-oracle"]
    assert walks.endswith(", 0 samples to order 8")
    assert details["transforms/additive-graph-consistency"].startswith("0 samples,")
    for bridge in ("c-comb-state-pair-bridge", "loop-pair-bridge"):
        assert details[f"independence/{bridge}"].startswith("1 graph pairs,")


def test_env_var_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCOMB_OUT", str(tmp_path))
    code = main(
        [
            "product",
            "star",
            fixture_path("additive_g1.graph"),
            fixture_path("additive_g2.graph"),
        ]
    )
    assert code == 0
    assert (tmp_path / "star.graph").exists()


@pytest.mark.parametrize(
    "line",
    [
        "second_root = x",  # non-integer second root
        'edges = [[0, "a"]]',  # non-integer vertex index
        "edges = [1, 2]",  # edge entries that are not lists
        pytest.param("edges = " + "[" * 100000 + "]" * 100000, id="edges-nested"),
        pytest.param("labels = " + "[" * 5000 + "]" * 5000, id="labels-nested"),
        # an integer past Python's int digit limit
        pytest.param("labels = [[" + "1" * 5000 + "], [0]]", id="labels-long-int"),
    ],
)
def test_cli_malformed_graph_exits_with_one_line(tmp_path, capsys, line):
    path = tmp_path / "bad.graph"
    text = "vertices = 2\nroot = 0\n" + line + "\n"
    if not line.startswith("edges"):
        text += "edges = [[0, 1]]\n"
    path.write_text(text)
    assert main(["moments", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read graph")
    assert len(err.strip().splitlines()) == 1
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_uncolored_and_colored_forms_read_equal():
    plain, _ = parse_graph("vertices = 2\nroot = 0\nedges = [[0, 1], [1, 1]]\n")
    tagged, _ = parse_graph("vertices = 2\nroot = 0\nedges = [[0, 1, 1], [1, 1, 1]]\n")
    assert plain == tagged == rooted(2, [(0, 1), (1, 1)], 0)
    # writers always tag the color
    assert "edges = [[0, 1, 1], [1, 1, 1]]" in format_graph(plain)
    assert "  0 -- 1 [style=solid];" in to_dot(plain)


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_cli_c_monotone_rooted_second_graph_has_no_walk_column(tmp_path, capsys):
    g = tmp_path / "rooted.graph"
    save_graph(g, rooted(3, [(0, 1), (1, 2)], 0))
    nu2 = tmp_path / "nu2.csv"
    assert main(["moments", fixture_path("additive_g2.graph"), "--at", "f",
                 "--order", "4", "--out", str(nu2)]) == 0
    args = ["convolve", "additive", "c-monotone", str(g), str(g), str(nu2),
            "--order", "4"]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == "n,fraction,decimal"


@pytest.mark.parametrize(
    "family, kind, inputs",
    [
        ("additive", "monotone", ["g1"]),
        ("additive", "c-monotone", ["g1"]),
        ("additive", "monotone", ["g1", "rooted", "nu2"]),
        ("multiplicative", "boolean", ["g1", "g2", "nu2"]),
        ("additive", "c-monotone", ["g1", "g2", "nu2"]),
        ("multiplicative", "c-monotone", ["rooted", "rooted", "nu2", "nu2"]),
        ("additive", "orthogonal", ["g1", "g2", "nu2", "nu2"]),
    ],
)
def test_cli_convolve_wrong_input_count_exits_2(tmp_path, capsys, family, kind, inputs):
    rooted_graph = tmp_path / "rooted.graph"
    save_graph(rooted_graph, rooted(3, [(0, 0), (0, 1), (1, 2)], 0))
    nu2 = tmp_path / "nu2.csv"
    nu2.write_text("0,1\n1,1\n2,2\n3,4\n4,9\n")
    paths = {
        "g1": fixture_path("multiplicative_g1.graph"),
        "g2": fixture_path("multiplicative_g2.graph"),
        "rooted": str(rooted_graph),
        "nu2": str(nu2),
    }
    args = ["convolve", family, kind, *(paths[i] for i in inputs), "--order", "4"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: convolve")
    assert len(err.strip().splitlines()) == 1


def test_cli_multiplicative_c_monotone_rooted_first_graph(tmp_path, capsys):
    g1 = tmp_path / "rooted.graph"
    save_graph(g1, rooted(3, [(0, 0), (0, 1), (1, 2)], 0))
    args = ["convolve", "multiplicative", "c-monotone", str(g1),
            fixture_path("multiplicative_g2.graph"), "--order", "5"]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0].endswith(",walk_count,equal") and len(lines) == 6
    assert all(line.endswith(",yes") for line in lines[1:])


def test_cli_duplicate_edge_from_gluing_exits_2(tmp_path, capsys):
    g2 = fixture_path("multiplicative_g2.graph")
    out = tmp_path / "out"
    args = ["product", "star", fixture_path("multiplicative_g1.graph"), g2,
            "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    star = str(out / "star.graph")
    assert main(["product", "comb", star, g2, "--out", str(out)]) == 2
    _one_line_error(capsys)
    assert main(["convolve", "multiplicative", "monotone", star, g2]) == 2
    _one_line_error(capsys)


def test_cli_table_not_starting_at_zero_exits_2(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("1,0\n2,1\n3,0\n")
    args = ["convolve", "additive", "boolean", str(t), str(t), "--order", "2"]
    assert main(args) == 2
    _one_line_error(capsys)


def test_cli_table_with_zero_denominator_exits_2(tmp_path, capsys):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_moment_table("0,1\n1,1/0\n")
    t = tmp_path / "z.csv"
    t.write_text("0,1\n1,1/0\n2,1\n")
    args = ["convolve", "additive", "boolean", str(t), str(t), "--order", "2"]
    assert main(args) == 2
    _one_line_error(capsys)


def test_cli_comb_at_of_a_star_product(tmp_path, capsys):
    out = tmp_path / "out"
    g1, g2 = fixture_path("additive_g1.graph"), fixture_path("additive_g2.graph")
    assert main(["product", "star", g1, g2, "--out", str(out)]) == 0
    star = out / "star.graph"
    assert main(["product", "comb-at", str(star), g2, "--out", str(out)]) == 0
    order = 10
    second = load_graph(g2)
    expect = additive_convolve(
        "c-monotone",
        root_moments(load_graph(star), order),
        root_moments(second, order),
        root_moments(second, order, at=second.second_root),
    )
    got = root_moments(load_graph(out / "comb_at.graph"), order)
    assert got.coeffs == expect.coeffs


def test_cli_moments_out_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.csv"
    args = ["moments", fixture_path("additive_g1.graph"), "--out", str(out)]
    assert main(args) == 2
    _one_line_error(capsys)


def test_cli_product_out_is_a_regular_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    args = ["product", "star", fixture_path("additive_g1.graph"),
            fixture_path("additive_g2.graph"), "--out", str(taken)]
    assert main(args) == 2
    _one_line_error(capsys)


def test_table_starting_at_one_is_rejected(tmp_path, capsys):
    text = "1,1\n2,0\n3,1\n"
    with pytest.raises(ValueError):
        parse_moment_table(text)
    t = tmp_path / "t1.csv"
    t.write_text(text)
    args = ["convolve", "additive", "boolean", str(t), str(t), "--order", "2"]
    assert main(args) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("kind", ["monotone", "c-monotone"])
def test_cli_multiplicative_product_first_factor_has_no_walk_column(
    tmp_path, capsys, kind
):
    out = tmp_path / "out"
    g1, g2 = fixture_path("additive_g1.graph"), fixture_path("additive_g2.graph")
    assert main(["product", "star", g1, g2, "--out", str(out)]) == 0
    capsys.readouterr()
    args = ["convolve", "multiplicative", kind, str(out / "star.graph"),
            fixture_path("multiplicative_g2.graph"), "--order", "5"]
    assert main(args) == 0
    stdout, err = capsys.readouterr()
    assert err == ""
    lines = stdout.splitlines()
    assert lines[0] == "n,fraction,decimal" and len(lines) == 6
    assert not any(line.endswith(",no") for line in lines)


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--order", "order must be at least 1"),
        ("--max-word", "word cap must be positive"),
        ("--graphs", "sample counts must not be negative"),
        ("--models", "sample counts must not be negative"),
        # one above each cap, given as flag=value
        ("--order=1025", "order must be at most 1024"),
        ("--max-word=17", "word cap must be at most 16"),
        ("--graphs=10001", "sample counts must be at most 10000"),
        ("--models=10001", "sample counts must be at most 10000"),
    ],
)
def test_cli_rejects_zero_order_and_word_cap(flag, message, capsys):
    # 0 is the smallest refused order and word cap; a sample count of 0 is valid
    value = "-1" if flag in ("--graphs", "--models") else "0"
    flags = [flag] if "=" in flag else [flag, value]
    assert main(["verify", "transforms", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_accepts_each_cap_value(capsys):
    # transforms reads min(order, 12) and no word cap or sample count, so the
    # largest accepted values of all four flags run in well under a second
    caps = ["--order", "1024", "--max-word", "16", "--graphs", "10000"]
    assert main(["verify", "transforms", *caps, "--models", "10000"]) == 0
    assert capsys.readouterr().out.endswith("fail=0 seed=0\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["product", "comb-at", "g1", "rooted"],
            "error: product comb-at needs a birooted second factor",
        ),
        (
            ["product", "c-comb", "rooted", "g2"],
            "error: product c-comb needs a birooted first factor",
        ),
        (
            ["moments", "rooted", "--at", "f"],
            "error: selector f needs a birooted graph",
        ),
        (
            ["word-moment", "rooted", "g2", "1:a"],
            "error: word moments need two birooted graphs",
        ),
        (
            ["word-moment", "g1", "g2", "1a"],
            "error: bad word token '1a', expected index:name",
        ),
        (
            ["word-moment", "g1", "g2", "3:x"],
            "error: letters must be 1:a or 2:a (one element per algebra)",
        ),
        # exponents are refused before Fraction expands them; 1e10000000
        # once spent about 26 s in that expansion
        pytest.param(
            ["convolve", "additive", "boolean", "huge", "huge", "--order", "2"],
            "error: cannot read table {huge}: exponent 5000 exceeds 4300 in size",
            id="exponent-5000",
        ),
        pytest.param(
            ["convolve", "additive", "boolean", "tiny", "tiny", "--order", "2"],
            "error: cannot read table {tiny}: exponent -5000 exceeds 4300 in size",
            id="exponent--5000",
        ),
        pytest.param(
            ["convolve", "additive", "boolean", "vast", "vast", "--order", "2"],
            "error: cannot read table {vast}: exponent 10000000 exceeds 4300 in size",
            id="exponent-10000000",
        ),
        pytest.param(
            ["convolve", "additive", "boolean", "big", "big", "--order", "2"],
            "error: cannot print an exact value: Exceeds the limit (4300 digits) "
            "for integer string conversion; use sys.set_int_max_str_digits() to "
            "increase the limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this Python prints integers of any length",
            ),
            id="exact-value-4301-digits",
        ),
        # a graph file that is not UTF-8, on each command that reads graphs
        *[
            pytest.param(
                args,
                "error: cannot read graph {latin}: 'utf-8' codec can't decode "
                "byte 0xff in position 0: invalid start byte",
                id=f"not-utf-8-{args[0]}",
            )
            for args in (
                ["moments", "latin"],
                ["product", "c-comb", "latin", "g2"],
                ["word-moment", "g1", "latin", "1:a"],
                ["convolve", "additive", "monotone", "latin", "g2"],
            )
        ],
    ],
)
def test_cli_input_errors_print_one_line_and_exit_2(tmp_path, capsys, args, message):
    plain = tmp_path / "rooted.graph"
    save_graph(plain, rooted(2, [(0, 1)], 0))
    latin = tmp_path / "latin.graph"
    latin.write_bytes(b"\xff\xfe")
    paths = {
        "g1": fixture_path("additive_g1.graph"),
        "g2": fixture_path("additive_g2.graph"),
        "rooted": str(plain),
        "latin": str(latin),
    }
    tables = {
        "big": "1e4300",
        "huge": "1e5000",
        "tiny": "1e-5000",
        "vast": "1e10000000",
    }
    for name, value in tables.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(f"0,1\n1,{value}\n2,1\n")
    argv = [paths.get(a, a) for a in args] + ["--out", str(tmp_path / "out")]
    started = time.perf_counter()
    assert main(argv) == 2
    # well under the tens of seconds an expanded exponent would take
    assert time.perf_counter() - started < 5
    out, err = capsys.readouterr()
    assert out == "" and err == message.format(**paths) + "\n"


@pytest.mark.parametrize(
    "value, kind, decimals",
    [
        ("1e400", "monotone", ["1.0", "inf", "inf"]),
        ("1" + "0" * 400, "monotone", ["1.0", "inf", "inf"]),
        ("-1e400", "boolean", ["1.0", "-inf", "inf"]),
    ],
    ids=["1e400", "401-digit-integer", "-1e400"],
)
def test_cli_decimal_column_reads_inf_past_the_float_range(
    tmp_path, capsys, value, kind, decimals
):
    t = tmp_path / "t.csv"
    t.write_text(f"0,1\n1,{value}\n2,1\n")
    assert main(["convolve", "additive", kind, str(t), str(t), "--order", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    mu = moment_series(parse_moment_table(t.read_text()))
    expect = additive_convolve(kind, mu, mu).coeffs
    assert [row.split(",")[1] for row in rows] == [str(Fraction(v)) for v in expect]
    assert [row.split(",")[2] for row in rows] == decimals


def test_cli_moments_decimal_column_reads_inf_at_high_order(tmp_path, capsys):
    # 6 vertices, every pair joined and a loop at each: M_n = 6^(n-1),
    # past the float range from n = 398
    path = tmp_path / "k6.graph"
    save_graph(path, rooted(6, [(i, j) for i in range(6) for j in range(i, 6)], 0))
    assert main(["moments", str(path), "--order", "400"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[397].split(",")[2] == repr(float(6**396))
    assert [row.split(",")[2] for row in rows[398:]] == ["inf"] * 3
    assert rows[400].split(",")[1] == str(6**399)
