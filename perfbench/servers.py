"""Boot and stop the processes under test; read their ``/proc`` counters.

A :class:`Fleet` is what one set-up produces: one ``fragalign serve``
process with one client connection, or a 2-shard
:class:`~fragalign.cluster.supervisor.ClusterSupervisor` with an
in-process :class:`~fragalign.cluster.router.ShardRouter` (one
connection per shard).  Set-up time runs from process spawn to ready
plus the warm-up requests.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from fragalign.cluster.router import ShardRouter
from fragalign.cluster.supervisor import ClusterSupervisor
from fragalign.service.client import AsyncAlignmentClient
from fragalign.service.server import wait_for_port_file

from perfbench.loadgen import replay
from perfbench.workloads import Request, Workload

__all__ = ["Fleet", "boot", "cpu_seconds", "peak_rss_mb", "steal_ticks"]

HOST = "127.0.0.1"
SHARDS = 2  # cluster-repeat's shard count, fixed by the workload
_SRC = Path(__file__).resolve().parents[1] / "src"
_TICK = os.sysconf("SC_CLK_TCK")
_BOOT_TIMEOUT = 60.0
_STOP_TIMEOUT = 15.0


@dataclass
class Fleet:
    """The processes of one set-up and the handle the load calls."""

    target: Any  # AsyncAlignmentClient or ShardRouter: both have score/align
    addresses: list[tuple[str, int]]
    pids: list[int]
    setup_s: float = 0.0
    _procs: list[subprocess.Popen] = field(default_factory=list, repr=False)
    _supervisor: ClusterSupervisor | None = field(default=None, repr=False)

    @property
    def router(self) -> ShardRouter | None:
        return self.target if self._supervisor is not None else None

    async def stop(self) -> None:
        """Shut every process down and wait for it to exit."""
        if self._supervisor is not None:
            await self.target.close()
            self._supervisor.stop(graceful=True, timeout=_STOP_TIMEOUT)
            return
        try:
            await asyncio.wait_for(self.target.shutdown(), timeout=_STOP_TIMEOUT)
        except (OSError, asyncio.TimeoutError):
            pass  # the wait below escalates
        finally:
            await self.target.close()
            for proc in self._procs:
                _reap(proc)


def _reap(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=_STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=_STOP_TIMEOUT)


def _server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(_SRC), env.get("PYTHONPATH"))))
    return env


async def boot(
    workload: Workload, warmup: list[Request], workdir: Path, index: int
) -> Fleet:
    """Start the workload's servers, send ``warmup``, time all of it."""
    start = time.perf_counter()
    if workload.cluster:
        fleet = await _boot_cluster(workload, warmup, workdir / f"cluster-{index}")
    else:
        fleet = await _boot_server(workload, warmup, workdir, index)
    fleet.setup_s = time.perf_counter() - start
    return fleet


async def _boot_server(
    workload: Workload, warmup: list[Request], workdir: Path, index: int
) -> Fleet:
    port_file = workdir / f"serve-{index}.port"
    port_file.unlink(missing_ok=True)  # a stale port must not pass for this server's
    with open(workdir / f"serve-{index}.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fragalign", "serve", "--port", "0",
             "--port-file", str(port_file), "--backend", workload.backend],
            stdout=log, stderr=subprocess.STDOUT, env=_server_env(),
        )
    client = None
    try:
        port = wait_for_port_file(
            str(port_file), timeout=_BOOT_TIMEOUT, poll=0.005,
            alive=lambda: proc.poll() is None,
        )
        client = await AsyncAlignmentClient.connect(HOST, port)
        await replay(client, warmup)
    except BaseException:
        if client is not None:
            await client.close()
        proc.kill()
        _reap(proc)
        raise
    return Fleet(client, [(HOST, port)], [proc.pid], _procs=[proc])


async def _boot_cluster(workload: Workload, warmup: list[Request], base_dir: Path) -> Fleet:
    supervisor = ClusterSupervisor(
        shards=SHARDS, backend=workload.backend, base_dir=str(base_dir)
    )
    supervisor.start(timeout=_BOOT_TIMEOUT)
    router = ShardRouter(supervisor.addresses)
    try:
        await replay(router, warmup)
    except BaseException:
        await router.close()
        supervisor.stop(graceful=False)
        raise
    return Fleet(
        router, supervisor.addresses, [s.pid for s in supervisor.procs],
        _supervisor=supervisor,
    )


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def steal_ticks() -> float:
    """CPU time the hypervisor has stolen from this host, in clock ticks
    (the ``steal`` column of ``/proc/stat``; 0 where it is not kept)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return float(fields[8]) if len(fields) > 8 else 0.0


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
