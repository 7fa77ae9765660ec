from fractions import Fraction

import pytest

from ccomb.cli import main
from ccomb.fixtures import additive_demo_pair, multiplicative_demo_pair
from ccomb.graphs import birooted, colored, root_moments, rooted
from ccomb.io import (
    GraphFormatError,
    format_graph,
    load_graph,
    parse_graph,
    parse_moment_table,
    save_graph,
    to_dot,
)
from ccomb.series import additive_convolve

def fixture_path(name):
    from pathlib import Path

    return str(Path(__file__).resolve().parent.parent / "fixtures" / name)


def test_parse_minimal():
    g, labels = parse_graph("vertices = 2\nroot = 0\nedges = [[0, 1]]\n")
    assert g.second_root is None
    assert g.colored_edges == frozenset({(0, 1, 1)})
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
    assert g.colored_edges == frozenset({(0, 1, 1), (0, 1, 2)})
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
    [("--order", "order must be at least 1"), ("--max-word", "word cap must be positive")],
)
def test_cli_rejects_zero_order_and_word_cap(flag, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "transforms", flag, "0"])
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


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
    ],
)
def test_cli_input_errors_print_one_line_and_exit_2(tmp_path, capsys, args, message):
    plain = tmp_path / "rooted.graph"
    save_graph(plain, rooted(2, [(0, 1)], 0))
    paths = {
        "g1": fixture_path("additive_g1.graph"),
        "g2": fixture_path("additive_g2.graph"),
        "rooted": str(plain),
    }
    argv = [paths.get(a, a) for a in args] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"
