"""ccomb benchmark: seeded workloads driven through ``ccomb.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One single-threaded process, one client in a
closed loop: each op is one ``cli.main(argv)`` call and the next starts when
it returns. A pass is the workload's fixed op mix with inputs drawn from the
seed; see inputs.py for the mixes.

--trace 0 repeats the pass for about S seconds, at least MIN_REPEATS times,
each repeat on a freshly imported ccomb, and prints the end-to-end metrics.
scaled_wall_s is the median repeat's wall time rescaled to a fixed CPU
speed by speed.Sampler, since the raw time moves by half with the speed of
a shared VM; raw wall_s is printed too. setup_s, the median of
SETUP_REPEATS set-ups (import ccomb, write the inputs), is rescaled the same
way. --trace 1 runs the pass untraced, then again with every layer traced,
prints the per-layer metrics and writes the spans to
.perfbench/spans-<workload>.bin. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. An op fails if it raises,
exits non-zero, prints a FAIL check or fail=N>0, prints "no" in an "equal"
column, or writes a product whose vertex count is wrong; a run is not
correct if any op fails or if the repeats' outputs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORK = Path(".perfbench")
MIN_REPEATS = 3
SETUP_REPEATS = 15
TAIL_BEYOND = 10

_FAIL_COUNT = re.compile(r"\bfail=(\d+)")
_PRODUCT_LINE = re.compile(r"^kind=\S+ vertices=(\d+) edges=\d+$", re.M)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no ccomb sources)."""


def import_ccomb():
    """Import ccomb from this checkout's src/, discarding any earlier import,
    so each set-up pays the full import."""
    for name in [n for n in sys.modules if n == "ccomb" or n.startswith("ccomb.")]:
        del sys.modules[name]
    if not (SRC / "ccomb" / "__init__.py").is_file():
        raise SetupError(f"no ccomb package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ccomb.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"imported ccomb from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int):
    """Import ccomb and write the input files of the run's pass."""
    cli = import_ccomb()
    ops = inputs.make_pass(workload, seed)
    directory = WORK / workload
    shutil.rmtree(directory, ignore_errors=True)
    inputs.write_pass(ops, directory)
    return cli, ops


# -- running and checking ops ------------------------------------------------


def _equal_column_failures(text: str) -> int:
    """Rows of a CSV output whose `equal` column is not `yes`."""
    lines = text.splitlines()
    if not lines or "equal" not in lines[0].split(","):
        return 0
    col = lines[0].split(",").index("equal")
    return sum(1 for row in lines[1:] if row.split(",")[col : col + 1] != ["yes"])


def check_output(op, rc, out: str, directory: Path) -> str | None:
    """Why the op's output is wrong, or None when it passes every check."""
    if rc != 0:
        return f"exit {rc}"
    if any(line.startswith("CHECK ") and " FAIL" in line for line in out.splitlines()):
        return "FAIL check"
    if any(int(n) > 0 for n in _FAIL_COUNT.findall(out)):
        return "fail count"
    if _equal_column_failures(out):
        return "equal column says no"
    if op.expect_vertices is not None:
        m = _PRODUCT_LINE.search(out)
        if m is None or int(m.group(1)) != op.expect_vertices:
            return f"product vertex count, expected {op.expect_vertices}"
        for f in _product_files(op, directory):
            if not f.is_file():
                return f"missing {f}"
    return None


def _product_files(op, directory: Path) -> list:
    outdir = Path(inputs.argv_for(op, directory)[op.argv.index("--out") + 1])
    stem = op.argv[1].replace("-", "_")
    return [outdir / f"{stem}.graph", outdir / f"{stem}.dot"]


def run_op(cli, op, directory: Path, digest) -> tuple:
    """Run one op; returns (latency_s, failure reason or None)."""
    argv = inputs.argv_for(op, directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op failure, not a crash
            rc = f"raised {exc!r}"
        latency = perf_counter() - start
    reason = check_output(op, rc, out.getvalue(), directory)
    digest.update(f"{op.name}\0{rc}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    if op.expect_vertices is not None and reason is None:
        for f in _product_files(op, directory):
            digest.update(f.read_bytes())
    return latency, reason


def run_pass(cli, ops, directory: Path) -> dict:
    """Run the ops in order. Product outputs of an earlier run in the same
    directory are removed first, so each run must write its own."""
    for op in ops:
        if op.expect_vertices is not None:
            shutil.rmtree(_product_files(op, directory)[0].parent, ignore_errors=True)
    digest = hashlib.sha256()
    latencies, failures = [], []
    start = perf_counter()
    for op in ops:
        latency, reason = run_op(cli, op, directory, digest)
        latencies.append(latency)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
    end = perf_counter()
    return {"start": start, "end": end, "wall": end - start, "latencies": latencies,
            "failures": failures, "digest": digest.hexdigest()}


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above
    it, or the maximum when a pass has too few ops for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND  # ops at or below the percentile
    return ordered[k - 1], 100.0 * k / n


# -- metadata ------------------------------------------------------------------


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(workload: str, seed: int, ops) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "ccomb").glob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "ops_per_pass": len(ops),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ------------------------------------------------------


def end_to_end(workload, ops, seconds, setup_times) -> tuple:
    """Repeat the pass until `seconds` would run out, at least MIN_REPEATS
    times. Each repeat runs on a fresh import of ccomb, so module state one
    repeat builds cannot speed up the next, as with a fresh process."""
    directory = WORK / workload
    results = []
    start = perf_counter()
    while len(results) < MIN_REPEATS or (
        perf_counter() - start + max(r["wall"] for r in results) <= seconds
    ):
        cli = import_ccomb()
        with speed.Sampler() as sampler:
            r = run_pass(cli, ops, directory)
        r["scaled"] = sampler.scaled(r["start"], r["end"])
        results.append(r)
    for i, r in enumerate(results):
        print(f"repeat {i}: wall_s={r['wall']:.4f} scaled_wall_s={r['scaled']:.4f} "
              f"ops={len(r['latencies'])} failed={len(r['failures'])} digest={r['digest']}")
    # Raw times are printed, not gated: they move with the VM's speed (see
    # speed.py). The op latency quantiles are taken over each op's fastest
    # repeat.
    best = [min(r["latencies"][i] for r in results) for i in range(len(ops))]
    print("fastest op latencies ms: " + " ".join(f"{1000 * x:.1f}" for x in best))
    tail_value, tail_pct = tail(best)
    beyond = sum(1 for x in best if x > tail_value)
    print(f"op_p50_ms = {1000 * statistics.median(best)} ms over {len(best)} ops")
    print(f"op_tail_ms = {1000 * tail_value} ms, p{tail_pct:.2f} with {beyond} ops beyond it")
    print(f"wall_s = {statistics.median(r['wall'] for r in results)} s (median repeat)")
    same = len({r["digest"] for r in results}) == 1
    if not same:
        print("error: the repeats' outputs differ")
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "scaled_wall_s": metric(statistics.median(r["scaled"] for r in results), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return results, metrics, same


def traced(cli, workload, ops) -> tuple:
    directory = WORK / workload
    plain = run_pass(cli, ops, directory)
    tracer = tracing.Tracer()
    tracer.install(sys.modules["ccomb"])
    try:
        traced_pass = run_pass(cli, ops, directory)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{workload}.bin")
    same = plain["digest"] == traced_pass["digest"]
    print(f"untraced pass: wall_s={plain['wall']:.4f} digest={plain['digest']}")
    print(f"traced pass:   wall_s={traced_pass['wall']:.4f} digest={traced_pass['digest']}")
    if not same:
        print("error: tracing changed the output digest")
    metrics = {
        k: metric(v, unit)
        for k, (v, unit) in tracing.layer_metrics(tracer, sys.modules["ccomb.verify"]).items()
    }
    self_total = sum(tracer.self_s.values())
    metrics["trace.overhead_s"] = metric(traced_pass["wall"] - plain["wall"], "s")
    metrics["trace.wall_s"] = metric(traced_pass["wall"], "s")
    metrics["trace.unattributed_s"] = metric(traced_pass["wall"] - self_total, "s")
    print(f"spans={len(tracer.span_start)} layer self_s total={self_total:.4f} "
          f"of traced wall_s={traced_pass['wall']:.4f}")
    return [plain, traced_pass], metrics, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            with speed.Sampler() as sampler:
                start = perf_counter()
                cli, ops = setup(args.workload, args.seed)
                end = perf_counter()
            setup_times.append(sampler.scaled(start, end))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(args.workload, args.seed, ops)))
    if args.trace:
        results, metrics, consistent = traced(cli, args.workload, ops)
    else:
        results, metrics, consistent = end_to_end(
            args.workload, ops, args.seconds, setup_times)
    attempted = sum(len(r["latencies"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    for f in failures[:20]:
        print(f"failed op: {f}")
    print(f"fail_ratio={len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": consistent and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
