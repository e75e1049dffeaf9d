"""FleetEngine: the fleet lane behind the RunEngine seam.

Every heavy path in the repo — the fig5–8 bench matrix, checker
schedule campaigns, server soak cells, observability captures and the
fault campaign — fans out through
:meth:`repro.bench.parallel.RunEngine.map`.  This subclass only swaps
the execution lane: pending tasks go to a
:class:`~repro.fleet.coordinator.Coordinator` instead of the inline or
process-pool lane, so it changes *where* runs execute and nothing about
keys, caching, stats or what the reports say.

Two construction shapes:

* :meth:`FleetEngine.local` — spawn ``n`` worker subprocesses against a
  loopback coordinator (the ``--fleet local:N`` CLI mode and the test
  harness shape).  The engine owns the processes and reaps them on
  :meth:`close`.
* :meth:`FleetEngine.coordinate` — bind an address and wait for
  externally started workers (``--fleet coordinator`` here, ``python -m
  repro.fleet worker`` on other hosts).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.bench.parallel import (
    Completion,
    EngineStats,
    ResultCache,
    RunEngine,
)
from repro.fleet.coordinator import Coordinator

__all__ = ["FleetEngine"]


def _worker_pythonpath() -> str:
    """PYTHONPATH that lets a bare subprocess import ``repro``."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = os.environ.get("PYTHONPATH", "")
    if not existing:
        return src_root
    if src_root in existing.split(os.pathsep):
        return existing
    return src_root + os.pathsep + existing


class FleetEngine(RunEngine):
    """A RunEngine whose execution lanes are fleet workers over TCP."""

    ships_keys = True

    def __init__(
        self,
        coordinator: Coordinator,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        procs: Optional[Sequence[subprocess.Popen]] = None,
    ):
        super().__init__(jobs=max(1, jobs), cache=cache)
        self.coordinator = coordinator
        self.procs: list[subprocess.Popen] = list(procs or [])
        self._closed = False

    # ------------------------------------------------------- construction
    @classmethod
    def local(
        cls,
        workers: int,
        *,
        cache: Optional[ResultCache] = None,
        worker_env: Optional[dict[str, str]] = None,
        startup_timeout: float = 60.0,
        heartbeat_timeout: float = 15.0,
    ) -> "FleetEngine":
        """Coordinator + ``workers`` loopback worker subprocesses."""
        if workers < 1:
            raise ValueError("a local fleet needs at least one worker")
        coordinator = Coordinator(heartbeat_timeout=heartbeat_timeout)
        host, port = coordinator.address
        env = dict(os.environ)
        env["PYTHONPATH"] = _worker_pythonpath()
        if worker_env:
            env.update(worker_env)
        procs = []
        try:
            for k in range(workers):
                procs.append(subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.fleet", "worker",
                        "--connect", f"{host}:{port}",
                        "--name", f"w{k + 1}",
                    ],
                    env=env,
                ))
            coordinator.wait_for_workers(workers, timeout=startup_timeout)
        except BaseException:
            for proc in procs:
                proc.kill()
            coordinator.shutdown()
            raise
        return cls(coordinator, jobs=workers, cache=cache, procs=procs)

    @classmethod
    def coordinate(
        cls,
        host: str = "0.0.0.0",
        port: int = 0,
        *,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        startup_timeout: float = 600.0,
    ) -> "FleetEngine":
        """Bind ``host:port`` and wait for ``workers`` external workers."""
        coordinator = Coordinator(host, port)
        bound_host, bound_port = coordinator.address
        print(
            f"fleet coordinator listening on {bound_host}:{bound_port}, "
            f"waiting for {workers} worker(s)",
            file=sys.stderr,
        )
        try:
            coordinator.wait_for_workers(workers, timeout=startup_timeout)
        except BaseException:
            coordinator.shutdown()
            raise
        return cls(coordinator, jobs=workers, cache=cache)

    def lane(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        pending: list[int],
        keys: list[Optional[str]],
        stats: EngineStats,
    ) -> Iterator[Completion]:
        return self.coordinator.run(fn, items, pending, keys, stats)

    # ----------------------------------------------------------- lifetime
    def close(self) -> None:
        """Drain the fleet: shutdown frames, then reap owned workers."""
        if self._closed:
            return
        self._closed = True
        self.coordinator.shutdown()
        deadline = time.monotonic() + 10.0
        for proc in self.procs:
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
