"""The benchmark's own tests, on tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import goldens, hostspeed, run
from perfbench.hostspeed import REFERENCE_LOOP_NS, HostSpeed, reference_loop
from perfbench.probes import Recorder
from perfbench.workloads import (
    Checker,
    Exploration,
    FigCell,
    FigUnmodified,
    ServerChaos,
    Tally,
    fig_passes,
    load_golden,
    make_workload,
    measure,
    server_cells,
)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: two small schedule spaces standing in for the checker's round
TINY_ROUND = (
    Exploration("mini-handoff", "exhaustive", 99),
    Exploration("handoff", "dpor"),
)


@pytest.fixture(scope="module")
def tiny_checker_golden():
    return {"explorations": goldens.checker_golden(TINY_ROUND)}


def tiny_checker(golden, scratch) -> Checker:
    return Checker(7, golden, scratch, explorations=TINY_ROUND)


# -------------------------------------------------------------- percentiles
def _tally(slowdown: float) -> Tally:
    tally = Tally(attempted=100, wall_ns=2_000_000_000)
    tally.latencies_ns = [i * 1_000_000 for i in range(100, 0, -1)]
    tally.speed.samples = [int(REFERENCE_LOOP_NS * slowdown)] * 3
    return tally


def test_latency_percentiles_are_nearest_rank():
    tally = _tally(1.0)
    metrics = run.end_to_end(tally, [0.5, 0.1, 0.3], rss_kb=2048)
    assert metrics["cell_p50_ms"] == (50.0, "ms", 100)
    assert metrics["cell_p90_ms"] == (90.0, "ms", 100)
    assert metrics["cells_per_s"] == (50.0, "1/s", 100)
    assert metrics["setup_s"] == (0.3, "s", 3)
    assert metrics["peak_rss_mb"] == (2.0, "MB", 1)
    # ten samples lie beyond the 90th percentile of a 100-cell run
    assert sum(v > 90_000_000 for v in tally.latencies_ns) == 10


def test_times_are_scaled_by_the_host_slowdown():
    metrics = run.end_to_end(_tally(2.0), [0.3], rss_kb=2048)
    assert metrics["cell_p50_ms"][0] == pytest.approx(25.0)
    assert metrics["cell_p90_ms"][0] == pytest.approx(45.0)
    assert metrics["cells_per_s"][0] == pytest.approx(100.0)
    # set-up samples arrive scaled by the factor measured around them
    assert metrics["setup_s"][0] == 0.3
    assert metrics["peak_rss_mb"][0] == 2.0


def tiny_fig(tmp_path, cells: int = 1, golden=None) -> FigUnmodified:
    """fig-unmodified on the first ``cells`` cells of its first pass."""
    workload = FigUnmodified(
        3, golden or load_golden("fig-unmodified"), tmp_path)
    first = next(fig_passes(3))[:cells]
    workload.units = lambda: iter([first])
    return workload


def test_reference_loops_run_between_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(hostspeed, "REFERENCE_EVERY_NS", 0)
    tally = measure(tiny_fig(tmp_path, cells=2), units=1)
    # before the loop, before each cell, after the loop
    assert len(tally.speed.samples) == 4
    assert tally.wall_ns >= sum(tally.latencies_ns)


def test_host_speed_is_sampled_outside_the_process():
    """A slowdown confined to the benchmark's process does not reach
    the slowdown factor, so it cannot cancel itself out."""
    calm = HostSpeed()
    for _ in range(7):
        calm.sample(force=True)

    def tracer(frame, event, arg):
        return tracer

    hooked = HostSpeed()
    sys.settrace(tracer)
    try:
        start = time.perf_counter_ns()
        reference_loop()
        in_process = time.perf_counter_ns() - start
        for _ in range(7):
            hooked.sample(force=True)
    finally:
        sys.settrace(None)
    assert in_process > 3 * statistics.median(calm.samples)
    assert hooked.factor < 2 * calm.factor


def test_host_speed_helper_stops():
    hostspeed.start()
    helper = hostspeed._helper
    hostspeed.stop()
    assert helper.proc.returncode is not None
    assert hostspeed._helper is None


# ---------------------------------------------------------------- self time
def test_span_self_time_subtracts_children():
    ticks = iter([0, 10, 12, 20, 30, 40, 70, 100])
    rec = Recorder(clock=lambda: next(ticks))
    leaf = rec.aggregate("leaf", lambda: None)
    inner = rec.aggregate("inner", lambda: leaf())
    other = rec.aggregate("other", lambda: None)

    def outer_body():
        inner()
        other()

    rec.span("outer", outer_body, cell=True)()
    # outer 0..100 covers inner 10..30 (itself covering leaf 12..20)
    # and other 40..70
    assert rec.stats["outer"] == [1, 100, 50, 2]
    assert rec.stats["inner"] == [1, 20, 12, 1]
    assert rec.stats["leaf"] == [1, 8, 8, 0]
    assert rec.stats["other"] == [1, 30, 30, 0]
    [(_, name, start, end, parent, cell, own)] = rec.spans
    assert (name, start, end, parent, cell, own) == (
        "outer", 0, 100, -1, 1, 50)
    assert rec.cell == -1 and rec.acc == [100, 1]

    rec.overhead_in_ns, rec.overhead_out_ns = 1.0, 2.0
    self_s = rec.self_s()
    assert self_s["outer"] == pytest.approx((50 - 1 - 2 * 2) / 1e9)
    assert self_s["inner"] == pytest.approx((12 - 1 - 2) / 1e9)
    assert self_s["leaf"] == pytest.approx((8 - 1) / 1e9)


def test_nested_span_records_its_parent():
    ticks = iter(range(0, 100, 5))
    rec = Recorder(clock=lambda: next(ticks))
    inner = rec.span("inner", lambda: None)
    rec.span("outer", inner)()
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] == -1


# ------------------------------------------------------------------ seeds
def test_inputs_are_a_function_of_the_seed():
    take = lambda stream, n: [next(stream) for _ in range(n)]  # noqa: E731
    assert take(fig_passes(5), 3) == take(fig_passes(5), 3)
    assert take(fig_passes(5), 3) != take(fig_passes(6), 3)
    for one_pass in take(fig_passes(5), 3):
        assert len({(c.panel, c.write_pct) for c in one_pass}) == 36
    assert take(server_cells(5), 300) == take(server_cells(5), 300)
    assert sorted(take(server_cells(5), 256)) == list(range(1, 257))


def test_every_generated_input_has_a_golden():
    fig = load_golden("fig-rollback")["cells"]
    stream = fig_passes(9)
    assert all(c.key in fig for _ in range(6) for c in next(stream))
    assert set(load_golden("fig-unmodified")["cells"]) == set(fig)
    assert len(load_golden("server-chaos")["cells"]) == 256
    checker = load_golden("checker")["explorations"]
    assert len(checker["mini-barge"]["cells"]) == 1488
    assert checker["handoff-trio"]["summary"]["reduction"] == (
        "strategy=dpor explored=64 pruned=385 transitions=2691 restores=448"
    )
    for name in ("fig-rollback", "fig-unmodified", "checker",
                 "server-chaos"):
        assert load_golden(name)["interp"] == "reference"


# ---------------------------------------------------------------- failures
def test_golden_mismatch_counts_as_failure(tmp_path):
    golden = load_golden("fig-unmodified")
    golden["cells"][next(fig_passes(3))[0].key] = "0" * 16
    tally = measure(tiny_fig(tmp_path, cells=2, golden=golden), units=1)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_cell_that_raises_counts_as_failure(tmp_path, monkeypatch):
    workload = tiny_fig(tmp_path)

    def broken(self, mode, interp="fast"):
        raise RuntimeError("injected")

    monkeypatch.setattr(FigCell, "spec", broken)
    tally = measure(workload, units=1)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_server_violation_counts_as_failure(tmp_path, monkeypatch):
    import perfbench.workloads as wl

    real = wl.run_server_cell

    def violating(spec):
        report = real(spec)
        report["violations"] = ["injected"]
        return report

    monkeypatch.setattr(wl, "run_server_cell", violating)
    tally = measure(ServerChaos(3, load_golden("server-chaos"), tmp_path),
                    units=1)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_checker_round_passes_against_its_golden(tiny_checker_golden,
                                                 tmp_path):
    tally = measure(tiny_checker(tiny_checker_golden, tmp_path), units=1)
    assert tally.attempted == 16 + 34
    assert tally.failed == 0
    assert len(tally.latencies_ns) == tally.attempted


def test_injected_cache_hit_is_a_failure(tiny_checker_golden, tmp_path,
                                         monkeypatch):
    import perfbench.workloads as wl

    shared = tmp_path / "warm-cache"
    shared.mkdir()
    monkeypatch.setattr(wl.tempfile, "mkdtemp", lambda **kw: str(shared))
    workload = tiny_checker(tiny_checker_golden, tmp_path)
    cold = measure(workload, units=1)
    warm = measure(workload, units=1)
    assert cold.failed == 0
    assert warm.attempted == 50 and warm.failed == 50
    assert sum(e.stats.cache_hits for e in warm.engines) == 50


def test_exploration_mismatch_fails_all_its_cells(tiny_checker_golden,
                                                  tmp_path):
    golden = json.loads(json.dumps(tiny_checker_golden))
    golden["explorations"]["handoff"]["summary"]["schedules"] = 35
    tally = measure(tiny_checker(golden, tmp_path), units=1)
    assert (tally.attempted, tally.failed) == (50, 34)


def test_short_exploration_fails_every_golden_cell(tiny_checker_golden,
                                                   tmp_path):
    # the golden expects six cells more than the exploration produces
    golden = json.loads(json.dumps(tiny_checker_golden))
    handoff = golden["explorations"]["handoff"]
    handoff["summary"]["schedules"] = 40
    handoff["cells"] += ["0" * 16] * 6
    tally = measure(tiny_checker(golden, tmp_path), units=1)
    assert (tally.attempted, tally.failed) == (16 + 40, 40)


def test_pinned_environment_is_ignored(monkeypatch, tmp_path):
    from perfbench.workloads import pin_environment

    for key in ("REPRO_BENCH_JOBS", "REPRO_BENCH_SCALE",
                "REPRO_BENCH_CACHE_DIR"):
        monkeypatch.setenv(key, "4")
    ignored = pin_environment()
    assert sorted(ignored) == [
        "REPRO_BENCH_CACHE_DIR", "REPRO_BENCH_JOBS", "REPRO_BENCH_SCALE",
    ]
    workload = make_workload("fig-unmodified", 1, tmp_path)
    spec = next(workload.units())[0].spec("unmodified")
    assert spec.config.iters_low == 600  # unscaled


# ------------------------------------------------------------------ smoke
def _printed(capsys, metrics) -> dict[str, str]:
    run.print_metrics(metrics)
    out = capsys.readouterr().out.splitlines()
    return {line.split()[0]: line.split()[2] for line in out}


def _small(name, tmp_path, golden):
    """One cell of each workload (the checker on its tiny round)."""
    if name == "checker":
        return tiny_checker(golden, tmp_path)
    workload = make_workload(name, 11, tmp_path)
    first = next(workload.units())
    unit = first[:1] if isinstance(first, list) else first
    workload.units = lambda: iter([unit])
    return workload


@pytest.mark.parametrize(
    "name", ["fig-rollback", "fig-unmodified", "checker", "server-chaos"]
)
def test_smoke_prints_every_metric_with_its_unit(
        name, tmp_path, capsys, tiny_checker_golden):
    workload = _small(name, tmp_path, tiny_checker_golden)
    tally = measure(workload, units=1)
    assert tally.failed == 0
    e2e = run.end_to_end(tally, [0.2], rss_kb=1024)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _printed(capsys, e2e) == want
    result = json.loads(run.result_line(tally, e2e))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    trace = tmp_path / "trace.json"
    traced, layers = run.run_traced(workload, trace)
    capsys.readouterr()
    assert traced.failed == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _printed(capsys, layers) == want
    events = json.loads(trace.read_text())["traceEvents"]
    assert {"JVM.run", "RunEngine.map"} <= {e["name"] for e in events}

    barriers = layers["core.revocation.read_barrier_calls"][0]
    if name == "fig-unmodified":
        assert barriers == 0
    elif name in ("fig-rollback", "server-chaos"):
        assert barriers > 0
    if name == "checker":
        assert layers["check.dpor.explored"][0] == 34
        assert layers["bench.parallel.cache_hits"][0] == 0


def test_traced_counts_repeat_exactly(tiny_checker_golden, tmp_path, capsys):
    exact = [m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] == "count" and m["name"] != "bench.trace.spans"]
    seen = []
    for i in range(2):
        workload = tiny_checker(tiny_checker_golden, tmp_path)
        _, layers = run.run_traced(workload, tmp_path / f"t{i}.json")
        seen.append({k: layers[k][0] for k in exact})
    capsys.readouterr()
    assert seen[0] == seen[1]
    assert seen[0]["vm.translate.predecode_calls"] > 0


# -------------------------------------------------------------------- CLI
def test_cli_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checker",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_setup_only_is_ready():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "server-chaos",
         "--seed", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "ready\n"
