import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings
import hypothesis.strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccomb.graphs import birooted, rooted  # noqa: E402
from ccomb.linalg import Matrix  # noqa: E402
from ccomb.series import eta_series, moment_series  # noqa: E402

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=deep draws ten times the examples of every property
settings.register_profile("deep", settings.get_profile("ci"), max_examples=250)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw, min_dim=1, max_dim=3, square=True):
    n = draw(st.integers(min_dim, max_dim))
    m = n if square else draw(st.integers(min_dim, max_dim))
    rows = draw(
        st.lists(
            st.lists(small_fractions, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return Matrix.from_rows(rows)


@st.composite
def rooted_graphs(draw, min_vertices=1, max_vertices=5):
    n = draw(st.integers(min_vertices, max_vertices))
    candidates = [(i, j) for i in range(n) for j in range(i, n)]
    edges = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    root = draw(st.integers(0, n - 1))
    return rooted(n, edges, root)


@st.composite
def birooted_graphs(draw, min_vertices=1, max_vertices=5):
    g = draw(rooted_graphs(min_vertices, max_vertices))
    second = draw(st.integers(0, g.vertex_count - 1))
    return birooted(g.vertex_count, g.edges, g.root, second)


@st.composite
def moment_sequences(draw, order=8):
    coeffs = [1] + draw(
        st.lists(small_fractions, min_size=order, max_size=order)
    )
    return moment_series(coeffs)


@st.composite
def eta_sequences(draw, order=8):
    return eta_series(
        draw(st.lists(small_fractions, min_size=order, max_size=order))
    )
