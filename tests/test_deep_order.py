"""Deep-order pins: `convolve` at orders 48 and 96 on seeded Fraction tables,
byte for byte, and the walk route against the additive series at order 96."""

import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ccomb.cli import main
from ccomb.graphs import root_moments
from ccomb.products import ADDITIVE_WALK_PRODUCTS
from ccomb.series import additive_convolve
from ccomb.verify import random_birooted_graph, random_rooted_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = ("mu1", "mu2", "nu2")

# sha256 of the stdout of `ccomb convolve FAMILY KIND deep_mu1.csv deep_mu2.csv
# [deep_nu2.csv] --order N`; the c-monotone kinds take the third table as nu2
PINS = {
    ("additive", "monotone", 48): "13108b8a8cbb574735b24c7ff6796efa1dacd48de2c069f252d41df2040e7623",
    ("additive", "boolean", 48): "bdbb85112ee43f762a42ef5e40c72fafec925eed0d8bd506b713499bb45272af",
    ("additive", "orthogonal", 48): "f6cc604c4da6f7fa6c12b85b7ae48f66da895e9aa4fcbe59cf80126a565b3bf5",
    ("additive", "c-monotone", 48): "524be4eb9ec33956bdb9e085f52b061f4f9984c0f97b22599887d6e1abd96d73",
    ("multiplicative", "monotone", 48): "daa59b0712e3c2d28cc89caa203007a3c3e5d2e4b18f3bbc89bc714609059fe4",
    ("multiplicative", "boolean", 48): "853d036c3be6e58c651e35dc1526d7c3f6b8ca9469162bcb80a6bef752d705f6",
    ("multiplicative", "orthogonal", 48): "748d607d2a56c9243d7f4e43ee6ff5cfcdb43ac71ac4b943aae58858a805a0ba",
    ("multiplicative", "c-monotone", 48): "05ff0ebe81e7ea8ca41b51d45c8354a776539c12cda9f75508b26360ce81132f",
    ("additive", "monotone", 96): "4440b9400db31f9ff99681b650c8eee1d9eee416b3b34199b8400e4b79bb47d0",
    ("additive", "boolean", 96): "0a4b3770a8b826b8c26f16914518e6620c4684ef08fa9e7240dd121bd5b8f0c1",
    ("additive", "orthogonal", 96): "fd366fe9098586da5f193dd0b69d795abc61f50513b06c762d9a171fe95616c7",
    ("additive", "c-monotone", 96): "4ebca59dcaf0f5ce4a5f1e8d63c83c6c9b7bcc3a15b00b5c34794b79c9ae7628",
    ("multiplicative", "monotone", 96): "f57a8e857944c47b7966b31dbf67b6be9412ffe6c6a531e560fecb5d9eb4898b",
    ("multiplicative", "boolean", 96): "981650021fc16c334f011f307565129e8fb40c0daa2beff1cc84020a1d176224",
    ("multiplicative", "orthogonal", 96): "04874e0e201af9a9ff8b917f04aacffc182ca52893f4e335a27d27b9ddc52ae9",
    ("multiplicative", "c-monotone", 96): "bc621b92de4e14c34bd7009dd7779173c01cb2509399b861d986085eb22c1bdc",
}


def table_text(name: str) -> str:
    """Rows n = 0..96 of a seeded table: M_0 = 1, then a/b with a in -9..9
    and b in 1..5."""
    rng = random.Random(f"deep:{name}")
    values = [Fraction(1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(96)
    ]
    return "".join(f"{n},{v}\n" for n, v in enumerate(values))


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    folder = tmp_path_factory.mktemp("deep")
    for name in NAMES:
        (folder / f"deep_{name}.csv").write_text(table_text(name), encoding="utf-8")
    return [str(folder / f"deep_{name}.csv") for name in NAMES]


def test_the_fixture_tables_are_the_seeded_tables(tables):
    # CI pins `convolve additive c-monotone` at order 96 on the fixture copies
    for name, path in zip(NAMES, tables):
        fixture = (FIXTURES / f"deep_{name}.csv").read_text(encoding="utf-8")
        assert fixture == Path(path).read_text(encoding="utf-8"), name


def test_the_pin_manifest_is_well_formed_and_holds_the_deep_pins():
    # CI hashes the output of each manifest command against its sha256, and
    # the workflow holds no pin of its own; three of the manifest's commands
    # are order-96 rows of PINS, and the two copies must not drift apart
    pins = {}
    for line in (FIXTURES / "pins.txt").read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"([0-9a-f]{64})  (\S.*)", line)
        assert match, line
        sha, command = match.groups()
        assert command not in pins, command
        pins[command] = sha
    shared = [
        ("additive", "c-monotone", 96),
        ("multiplicative", "boolean", 96),
        ("multiplicative", "c-monotone", 96),
    ]
    for family, kind, order in shared:
        tables = [f"fixtures/deep_{name}.csv" for name in NAMES]
        inputs = " ".join(tables if kind == "c-monotone" else tables[:2])
        command = f"ccomb convolve {family} {kind} {inputs} --order {order}"
        assert pins[command] == PINS[family, kind, order], command
    workflow = FIXTURES.parent / ".github" / "workflows" / "tests.yml"
    assert not re.search(r"[0-9a-f]{64}", workflow.read_text(encoding="utf-8"))


@pytest.mark.parametrize(("family", "kind", "order"), list(PINS))
def test_convolve_is_pinned_at_deep_orders(tables, capsys, family, kind, order):
    inputs = tables if kind == "c-monotone" else tables[:2]
    assert main(["convolve", family, kind, *inputs, "--order", str(order)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[family, kind, order]


@pytest.mark.parametrize("kind", sorted(ADDITIVE_WALK_PRODUCTS))
def test_walk_moments_equal_the_series_at_order_96(kind):
    rng = random.Random(f"deep-walks:{kind}")
    for _ in range(3):
        g1, g2 = random_rooted_graph(rng, 1, 5), random_birooted_graph(rng, 1, 5)
        mu2 = root_moments(g2, 96)
        nu2 = root_moments(g2, 96, at=g2.second_root)
        series = additive_convolve(kind, root_moments(g1, 96), mu2, nu2)
        walks = root_moments(ADDITIVE_WALK_PRODUCTS[kind](g1, g2).graph, 96)
        assert walks == series
