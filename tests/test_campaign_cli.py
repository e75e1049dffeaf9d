"""The shared campaign-engine surface of the five campaign CLIs.

``bench``, ``check``, ``server``, ``obs`` and ``faults.campaign`` all
take their engine flags from :func:`repro.fleet.cli.campaign_args` and
build their engine through :func:`repro.fleet.cli.campaign_engine`.
These tests pin both halves: no CLI declares (or drops) an engine flag
of its own, and every CLI closes the engine it built — an unclosed
fleet engine never sends its workers shutdown frames.
"""

from __future__ import annotations

import argparse

import pytest

from repro.bench import __main__ as bench_cli
from repro.bench.parallel import RunEngine
from repro.check import __main__ as check_cli
from repro.faults import campaign as faults_cli
from repro.obs import __main__ as obs_cli
from repro.server import __main__ as server_cli

CLIS = {
    "bench": bench_cli,
    "check": check_cli,
    "server": server_cli,
    "obs": obs_cli,
    "faults": faults_cli,
}


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {
        opt: action
        for action in parser._actions
        for opt in action.option_strings
        if opt.startswith("--")
    }


def _is_engine_flag(opt: str) -> bool:
    return opt in ("--jobs", "--no-cache", "--cache-dir") \
        or opt.startswith("--fleet")


@pytest.mark.parametrize("name", sorted(CLIS))
def test_campaign_flags_are_exactly_the_shared_group(name):
    from repro.fleet.cli import campaign_args

    shared = argparse.ArgumentParser()
    campaign_args(shared)
    expected = {
        opt: action.default
        for opt, action in _options(shared).items() if opt != "--help"
    }
    assert sorted(expected) == [
        "--fleet", "--fleet-bind", "--fleet-workers", "--jobs",
        "--no-cache",
    ]
    options = _options(CLIS[name]._parser())
    engine_flags = {
        opt: action.default
        for opt, action in options.items() if _is_engine_flag(opt)
    }
    assert engine_flags == expected
    assert "--cache-dir" not in options
    assert "--fleet-connect" not in options


@pytest.fixture
def close_calls(monkeypatch):
    calls = []
    original = RunEngine.close

    def counting_close(self):
        calls.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(RunEngine, "close", counting_close)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.2")
    monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
    return calls


TINY_RUNS = {
    "bench": (bench_cli.main, ["5a", "--reps", "1"]),
    "check": (check_cli.main, ["--scenario", "mini-handoff", "--bound", "1"]),
    "server": (server_cli.main, ["--preset", "chaos-smoke"]),
    "obs-capture": (obs_cli.main, ["summary", "--scenario", "handoff"]),
    "obs-episodes": (
        obs_cli.main, ["episodes", "--scenario", "medium-inversion"]
    ),
    "obs-debug": (
        obs_cli.main,
        ["debug", "--scenario", "handoff", "--print-state"],
    ),
    "faults": (
        faults_cli.main, ["--seeds", "1", "--scenario", "deadlock-ring"]
    ),
}


@pytest.mark.parametrize("name", sorted(TINY_RUNS))
def test_every_cli_closes_its_engine(name, close_calls, capsys):
    main, argv = TINY_RUNS[name]
    assert main(argv + ["--jobs", "1"]) == 0
    assert close_calls == ["RunEngine"]
