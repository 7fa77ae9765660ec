"""Fuzz tests: malformed graph text and random CLI calls end cleanly.

A graph text either parses or raises GraphFormatError. A `convolve`,
`product`, `moments` or `word-moment` call returns 0, 2 or 3 and never
raises; on exit 2 it prints exactly one error line.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import given
import hypothesis.strategies as st
import pytest

from ccomb.cli import MAX_WORD_LETTERS, PRODUCT_KINDS, main
from ccomb.graphs import rooted
from ccomb.io import GraphFormatError, load_graph, parse_graph, save_graph
from ccomb.products import star_product

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_KEYS = ("vertices", "root", "second_root", "edges", "labels", "colour")
_VALUES = (
    "0", "1", "2", "3", "-1", "x", "", "2.5", "1_0", "99999999999", "true",
    "null", '"ab"', "{}", "[]", "[0, 1]", "[[]]", "[[0]]", "[[[0]]]",
    "[[0, 1]]", "[[0, 0], [0, 1]]", "[[0, 1], [1, 2]]", "[[0, 1, 2]]",
    "[[0, 1, 3]]", "[[0, 1], [0, 1]]", "[[0, 1], [0, 1, 2]]",
    "[[0, 1, 1], [0, 1, 2]]", "[[0, 5]]", "[[true, 1]]", "[[0, 1.0]]",
    "[[0], [1]]", "[[0], [1], [2]]", "[1, 2]", "[[" * 40,
)
_line = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_KEYS), st.sampled_from(_VALUES)),
    st.sampled_from(("", "# comment", "vertices", "= 1", "root = 0 # e")),
)


@given(st.lists(_line, max_size=7).map("\n".join))
def test_parse_graph_returns_a_graph_or_raises_format_error(text):
    try:
        graph, labels = parse_graph(text)
    except GraphFormatError:
        return
    assert 0 <= graph.root < graph.vertex_count
    assert labels is None or len(labels) == graph.vertex_count


_TABLES = {
    "moments.csv": "".join(f"{n},{n % 3}\n" for n in range(9)),
    "point_at_zero.csv": "".join(f"{n},{int(n == 0)}\n" for n in range(9)),
    "short.csv": "0,1\n1,0\n",
    "shifted.csv": "1,1\n2,0\n3,1\n",
    "bad.csv": "0,x\n",
    "bad.graph": "vertices = x\n",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A scratch directory and the input paths: birooted, rooted and product
    graphs, tables, and files that fail to load."""
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in _TABLES.items():
        (d / name).write_text(text)
    save_graph(d / "rooted.graph", rooted(3, [(0, 0), (0, 1), (1, 2)], 0))
    g1, g2 = (load_graph(FIXTURES / f"multiplicative_g{i}.graph") for i in (1, 2))
    star = star_product(g1, g2)
    save_graph(d / "star.graph", star.graph, star.vertex_labels)
    paths = [*sorted(FIXTURES.glob("*.graph")), *sorted(d.iterdir()), d / "missing.csv"]
    return d, [str(p) for p in paths]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_orders = st.integers(1, 6).map(lambda n: ["--order", str(n)])
_TOKENS = ("1:a", "2:a", "3:a", "1:b", "x")
# a word repeats a short pattern of good and bad tokens up to a length that
# reaches the letter cap and one past it
_words = st.builds(
    lambda pattern, n: " ".join((pattern * n)[:n]),
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3),
    st.sampled_from((0, 1, 3, 8, MAX_WORD_LETTERS, MAX_WORD_LETTERS + 1)),
)


@given(st.data())
def test_cli_calls_exit_0_2_or_3_with_one_error_line(inputs, data):
    outdir, paths = inputs
    command = data.draw(
        st.sampled_from(("convolve", "product", "moments", "word-moment"))
    )
    if command == "convolve":
        argv = [
            "convolve",
            data.draw(st.sampled_from(("additive", "multiplicative"))),
            data.draw(
                st.sampled_from(("monotone", "boolean", "orthogonal", "c-monotone"))
            ),
            *data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4)),
            *data.draw(_orders),
        ]
    elif command == "product":
        argv = [
            "product",
            data.draw(st.sampled_from(sorted(PRODUCT_KINDS))),
            *data.draw(st.lists(st.sampled_from(paths), min_size=2, max_size=2)),
            "--out",
            str(outdir / "products"),
        ]
    elif command == "word-moment":
        # the fixture graphs are birooted, so most words reach the letter checks
        fixtures = [p for p in paths if p.startswith(str(FIXTURES))]
        graph = st.one_of(st.sampled_from(fixtures), st.sampled_from(paths))
        argv = [
            "word-moment",
            *data.draw(st.lists(graph, min_size=2, max_size=2)),
            data.draw(_words),
        ]
    else:
        argv = [
            "moments",
            data.draw(st.sampled_from(paths)),
            "--at",
            data.draw(st.sampled_from(("e", "f"))),
            *data.draw(_orders),
        ]
    code, err = _run(argv)
    assert code in (0, 2, 3), argv
    if code == 2:
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
