"""End-to-end counterexample round-trip (the regression fixture).

Drives the real CLI: explore the ``handoff`` scenario with the seeded
``undo-drop`` defect, let ddmin minimize the divergent schedule, write the
counterexample JSON, then replay it from disk and require the divergence
to reproduce.  Also pins the CLI's determinism contract (stdout identical
across worker counts) and its exit statuses.
"""

import json

import pytest

from repro.check.__main__ import main
from repro.check.minimize import ddmin
from repro.check.oracle import (
    COUNTEREXAMPLE_FORMAT,
    replay_counterexample,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep the engine's result cache out of the repo tree."""
    monkeypatch.setenv(
        "REPRO_BENCH_CACHE_DIR", str(tmp_path / "bench-cache")
    )
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)


class TestDdmin:
    def test_minimizes_to_the_relevant_suffix(self):
        # predicate: "contains both a 7 and a 9"
        test = lambda xs: 7 in xs and 9 in xs
        assert sorted(ddmin(test, [1, 2, 7, 3, 9, 4])) == [7, 9]

    def test_keeps_order(self):
        test = lambda xs: xs and xs[0] == 5
        assert ddmin(test, [5, 1, 2, 3]) == [5]

    def test_empty_result_when_predicate_is_vacuous(self):
        assert ddmin(lambda xs: True, [1, 2, 3]) == []

    def test_rejects_non_reproducing_input(self):
        with pytest.raises(ValueError, match="does not satisfy"):
            ddmin(lambda xs: False, [1, 2])


class TestCounterexampleRoundtrip:
    def _explore(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        rc = main([
            "--scenario", "handoff", "--bound", "1",
            "--inject-bug", "undo-drop", "--out", str(out),
        ])
        captured = capsys.readouterr()
        return rc, out, captured

    def test_explore_minimize_serialize_replay(self, tmp_path, capsys):
        rc, out, captured = self._explore(tmp_path, capsys)
        assert rc == 1
        assert "FAIL" in captured.out
        assert "minimized" in captured.out

        payload = json.loads(out.read_text())
        assert payload["format"] == COUNTEREXAMPLE_FORMAT
        assert payload["scenario"] == "handoff"
        assert payload["inject"] == "undo-drop"
        assert payload["problems"]
        minimized = payload["minimized_schedule"]
        assert 0 < len(minimized) <= len(payload["schedule"])

        # library-level replay reproduces the divergence
        verdict = replay_counterexample(payload)
        assert verdict["reproduced"]

        # CLI-level replay agrees and exits 0
        rc2 = main(["--replay", str(out)])
        replay_out = capsys.readouterr().out
        assert rc2 == 0
        assert "divergence reproduced" in replay_out
        assert str(minimized) in replay_out

    def test_minimized_schedule_is_locally_minimal(
        self, tmp_path, capsys
    ):
        """Dropping any single choice from the minimized schedule must
        lose the divergence (ddmin's 1-minimality guarantee)."""
        _, out, _ = self._explore(tmp_path, capsys)
        payload = json.loads(out.read_text())
        minimized = payload["minimized_schedule"]
        for k in range(len(minimized)):
            probe = dict(payload)
            probe["minimized_schedule"] = (
                minimized[:k] + minimized[k + 1:]
            )
            assert not replay_counterexample(probe)["reproduced"], (
                f"choice {k} of {minimized} is redundant"
            )

    def test_replay_without_the_bug_does_not_reproduce(
        self, tmp_path, capsys
    ):
        """The divergence lives in the injected defect, not the schedule:
        replaying the same schedule on the healthy VM is clean."""
        _, out, _ = self._explore(tmp_path, capsys)
        payload = json.loads(out.read_text())
        payload["inject"] = None
        assert not replay_counterexample(payload)["reproduced"]


class TestCliContract:
    def test_clean_exploration_exits_zero(self, capsys):
        rc = main(["--scenario", "handoff", "--bound", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "OK: all explored schedules are policy-equivalent" in \
            captured.out
        assert "divergences: 0" in captured.out

    def test_stdout_identical_across_job_counts(self, capsys):
        main(["--scenario", "handoff", "--bound", "1", "--jobs", "1"])
        serial = capsys.readouterr().out
        main(["--scenario", "handoff", "--bound", "1", "--jobs", "2"])
        fanned = capsys.readouterr().out
        assert serial == fanned

    def test_no_cache_keeps_stdout_and_stores_nothing(
        self, tmp_path, capsys
    ):
        """``--no-cache``, as on bench/server/obs/fleet: the same bytes
        on stdout as a cold and a warm cached run, and no cache entry
        written."""
        argv = ["--scenario", "handoff", "--bound", "1", "--jobs", "1"]
        entries = lambda: list(  # noqa: E731
            (tmp_path / "bench-cache").rglob("*.pkl")
        )
        assert main(argv + ["--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert entries() == []
        main(argv)
        cold = capsys.readouterr().out
        assert entries()
        main(argv)
        warm = capsys.readouterr().out
        assert uncached == cold == warm


class TestStrategyCliContract:
    """The ``--strategy`` surface: every strategy reports its search
    effort in one deterministic ``strategy=... explored=... pruned=...``
    line — on stdout as ``reduction:`` and on stderr as ``repro.check``
    (ahead of the timing-dependent engine stats) — byte-identical for
    any ``REPRO_BENCH_JOBS`` value."""

    @staticmethod
    def _run(monkeypatch, capsys, jobs, *argv):
        monkeypatch.setenv("REPRO_BENCH_JOBS", jobs)
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_dpor_reduction_line_stable_across_worker_counts(
        self, monkeypatch, capsys
    ):
        argv = ("--scenario", "mini-handoff", "--strategy", "dpor")
        rc1, out1, err1 = self._run(monkeypatch, capsys, "1", *argv)
        rc4, out4, err4 = self._run(monkeypatch, capsys, "4", *argv)
        assert rc1 == rc4 == 0
        assert out1 == out4                       # whole stdout is pure
        assert "reduction: strategy=dpor explored=4 pruned=0 " \
            "transitions=26 restores=3" in out1
        # stderr leads with the same deterministic line in both runs
        line1, line4 = err1.splitlines()[0], err4.splitlines()[0]
        assert line1 == line4 == (
            "repro.check strategy=dpor explored=4 pruned=0 "
            "transitions=26 restores=3"
        )

    def test_header_names_the_strategy_and_drops_the_bound(self, capsys):
        main(["--scenario", "mini-handoff", "--strategy", "dpor"])
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert "strategy=dpor" in header
        assert "bound=" not in header             # dpor is unbounded

    def test_exhaustive_and_random_report_their_strategies(self, capsys):
        main(["--scenario", "mini-handoff", "--bound", "1"])
        exhaustive = capsys.readouterr().out
        assert "strategy=exhaustive" in exhaustive.splitlines()[0]
        assert "reduction: strategy=exhaustive explored=" in exhaustive
        main(["--scenario", "mini-handoff", "--strategy", "random",
              "--walks", "6"])
        random = capsys.readouterr().out
        assert "strategy=random" in random.splitlines()[0]
        assert "reduction: strategy=random explored=6" in random
        assert "0 searched + 6 walks" in random

    def test_dpor_counterexample_roundtrips_through_replay(
        self, tmp_path, capsys
    ):
        out = tmp_path / "ce-dpor.json"
        rc = main([
            "--scenario", "mini-handoff", "--strategy", "dpor",
            "--inject-bug", "undo-drop", "--out", str(out),
        ])
        explored = capsys.readouterr().out
        assert rc == 1
        assert "FAIL: 1 divergent schedule(s)" in explored

        payload = json.loads(out.read_text())
        assert payload["scenario"] == "mini-handoff"
        assert replay_counterexample(payload)["reproduced"]
        rc2 = main(["--replay", str(out)])
        assert rc2 == 0
        assert "divergence reproduced" in capsys.readouterr().out

    def test_list_names_all_scenarios(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("handoff", "barge", "racy-yield", "lock-order"):
            assert name in out

    def test_lockset_cli_flags_the_racy_scenario(self, capsys):
        rc = main(["--lockset", "racy-yield"])
        captured = capsys.readouterr()
        assert rc == 1
        report = json.loads(captured.out)
        assert report["races"]

    def test_lockset_cli_clean_on_fig5(self, capsys):
        rc = main(["--lockset", "fig5"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["races"] == []
        assert report["lock_order_inversions"] == []
