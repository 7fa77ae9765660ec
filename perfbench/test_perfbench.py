"""Tests of the benchmark's own code: input generation, output checks, the
traced-run shim and the speed sampler. Run with ``python3 -m pytest
perfbench -q`` from the repository root."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture()
def ccomb_cli():
    return run.import_ccomb()


def _small_ops(seed: int) -> list:
    """A few cheap ops that reach every layer except the scale paths."""
    rng = random.Random(seed)
    g1, g2 = inputs.small_graph(rng, 4), inputs.small_graph(rng, 5)
    files = {"g1.graph": g1.text(), "g2.graph": g2.text()}
    pair = ("{dir}/g1.graph", "{dir}/g2.graph")
    table = {"t.csv": inputs.moment_table(rng, 8)}
    return [
        inputs.Op("verify", ("verify", "all", "--seed", str(seed), "--graphs", "1",
                             "--models", "1", "--max-word", "3", "--order", "4")),
        inputs.Op("additive", ("convolve", "additive", "c-monotone", *pair, "--order", "8"), files),
        inputs.Op("table", ("convolve", "additive", "boolean", "{dir}/t.csv", "{dir}/t.csv",
                            "--order", "8"), table),
        inputs.Op("multiplicative", ("convolve", "multiplicative", "c-monotone", *pair,
                                     "--order", "6"), files),
        inputs.Op("word", ("word-moment", *pair, "1:a 2:a 1:a"), files),
        inputs.Op("product", ("product", "c-comb", *pair, "--out", "{dir}/out"), files,
                  inputs.product_vertices("c-comb", g1.vertices, g2.vertices)),
    ]


def _traced_pass(cli, ops, directory):
    inputs.write_pass(ops, directory)
    tracer = tracing.Tracer()
    tracer.install(sys.modules["ccomb"])
    try:
        result = run.run_pass(cli, ops, directory)
    finally:
        tracer.uninstall()
    return tracer, result


def _self_times(tracer) -> list:
    """Self time of every recorded span, recomputed from the span arrays."""
    child = [0.0] * len(tracer.span_start)
    for i, p in enumerate(tracer.span_parent):
        if p >= 0:
            child[p] += tracer.span_end[i] - tracer.span_start[i]
    return [
        tracer.span_end[i] - tracer.span_start[i] - child[i]
        for i in range(len(tracer.span_start))
    ]


def _originals(modules: dict) -> dict:
    """id -> site name of every function the tracer wraps, before install."""
    out = {}
    for original, container, key, *_ in tracing.Tracer()._targets(modules):
        out[id(original)] = f"{getattr(container, '__name__', container)}.{key}"
    return out


def test_every_binding_resolves_to_the_wrapper(ccomb_cli):
    modules = tracing.ccomb_modules(sys.modules["ccomb"])
    originals = _originals(modules)
    sparse_apply = modules["linalg"].sparse_apply
    tracer = tracing.Tracer()
    tracer.install(sys.modules["ccomb"])
    try:
        left = []
        for module in modules.values():
            for key, value in vars(module).items():
                if id(value) in originals:
                    left.append(f"{module.__name__}.{key}")
                if isinstance(value, dict):
                    left.extend(f"{module.__name__}.{key}[{k!r}]"
                                for k, v in value.items() if id(v) in originals)
                if isinstance(value, type) and value.__module__.startswith("ccomb"):
                    left.extend(f"{value.__name__}.{k}"
                                for k, v in vars(value).items() if id(v) in originals)
        assert left == []
        wrapper = modules["linalg"].sparse_apply
        assert wrapper.__perfbench_original__ is sparse_apply
        for layer in ("graphs", "independence"):
            assert getattr(modules[layer], "sparse_apply") is wrapper
        assert modules["cli"].PRODUCT_KINDS["c-comb"].__perfbench_original__
        assert modules["verify"].SUITES["products"].__perfbench_original__
        assert modules["linalg"].Matrix.__mul__.__perfbench_original__
    finally:
        tracer.uninstall()
    assert modules["graphs"].sparse_apply is sparse_apply
    assert all(not hasattr(v, "__perfbench_original__")
               for m in modules.values() for v in vars(m).values())


def test_verify_has_35_checks_each_with_a_metric(ccomb_cli):
    verify = sys.modules["ccomb.verify"]
    names = tracing.verify_checks(verify)
    assert len(names) == 35
    metrics = tracing.layer_metrics(tracing.Tracer(), verify)
    assert all(f"verify.{n}.wall_s" in metrics for n in names)


def test_no_span_has_negative_self_time(ccomb_cli, tmp_path):
    tracer, result = _traced_pass(ccomb_cli, _small_ops(3), tmp_path)
    assert result["failures"] == []
    selfs = _self_times(tracer)
    assert len(selfs) > 1000
    # Children are timed inside their parent on one clock; only float
    # rounding of the differences can go below zero.
    assert min(selfs) > -1e-9
    for group, value in tracer.self_s.items():
        assert value >= -1e-9, group


def test_exact_counts_repeat_and_tracing_keeps_the_output(ccomb_cli, tmp_path):
    ops = _small_ops(5)
    inputs.write_pass(ops, tmp_path / "a")
    plain = run.run_pass(ccomb_cli, ops, tmp_path / "a")
    first, r1 = _traced_pass(ccomb_cli, ops, tmp_path / "a")
    second, r2 = _traced_pass(ccomb_cli, ops, tmp_path / "b")
    assert plain["digest"] == r1["digest"]
    assert first.calls == second.calls
    assert first.counts == second.counts
    assert list(first.span_name) == list(second.span_name)
    assert list(first.span_parent) == list(second.span_parent)
    for layer in ("linalg.sparse_apply", "products.product", "series.compose_F",
                  "independence.oracle_cmonotone", "io.parse_graph", "cli.main"):
        assert first.calls.get(layer, 0) > 0, layer
    assert first.counts["linalg.sparse_apply.terms"] > 0


def test_inputs_depend_only_on_seed():
    for workload in inputs.WORKLOADS:
        a = inputs.make_pass(workload, 7)
        assert a == inputs.make_pass(workload, 7)
        assert a != inputs.make_pass(workload, 8)


def test_generator_does_not_import_ccomb():
    source = Path(inputs.__file__).read_text(encoding="utf-8")
    assert not any(
        line.startswith(("import ccomb", "from ccomb")) for line in source.splitlines()
    )


def test_generated_roots_have_edges():
    def degree(g, v):
        return sum((i == v) + (j == v) for i, j in g.edges)

    rng = random.Random(0)
    for _ in range(500):
        g = inputs.small_graph(rng, rng.randint(4, 6))
        assert degree(g, g.root) >= 1 and degree(g, g.second_root) >= 1


def test_check_output_flags_failures():
    op = inputs.Op("x", ("convolve",))
    good = "n,fraction,decimal,walk_count,equal\n0,1,1.0,1,yes\n"
    assert run.check_output(op, 0, good, Path(".")) is None
    assert run.check_output(op, 0, good.replace("yes", "no"), Path("."))
    assert run.check_output(op, 3, good, Path("."))
    assert run.check_output(op, 0, "CHECK a/b FAIL x\n", Path("."))
    assert run.check_output(op, 0, "SUMMARY total=3 pass=2 fail=1 seed=0\n", Path("."))
    assert run.check_output(op, 0, "SUMMARY total=3 pass=3 fail=0 seed=0\n", Path(".")) is None


def test_tail_has_ten_ops_beyond():
    values = list(range(1, 48))
    value, pct = run.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert pct == pytest.approx(100 * 37 / 47)
    assert run.tail([3.0]) == (3.0, 100.0)


def test_spans_file_round_trips(ccomb_cli, tmp_path):
    tracer, _ = _traced_pass(ccomb_cli, _small_ops(1)[1:3], tmp_path)
    path = tmp_path / "spans.bin"
    tracer.write(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        rest = fh.read()
    assert header["spans"] == len(tracer.span_start)
    assert len(rest) == header["spans"] * (4 + 8 + 8 + 8)


def test_scaled_time_rescales_each_stretch_and_skips_probes():
    ref = speed.REFERENCE_S
    sampler = speed.Sampler()
    sampler.samples = [
        (-0.5, ref),          # before the window: ignored
        (0.5, ref),           # [0, 0.5 - ref] at the reference speed
        (0.8, 2 * ref),       # [0.5, 0.8 - 2 ref] at half of it
        (1.2, 4 * ref),       # begins after the window ends at 1.0
    ]
    expected = (0.5 - ref) + (0.8 - 2 * ref - 0.5) / 2 + (1.0 - 0.8) / 4
    assert sampler.scaled(0.0, 1.0) == pytest.approx(expected)


def test_sampler_probes_while_open_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        start = run.perf_counter()
        while run.perf_counter() - start < 0.3:
            pass
        end = run.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(sampler.samples) >= 2
    assert 0 < sampler.scaled(start, end)
