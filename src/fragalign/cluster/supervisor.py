"""Spawn and mind N local ``fragalign serve`` processes.

:class:`ClusterSupervisor` is the deployment story for tests, CI and
the CLI: it launches one OS process per shard (real parallelism — each
shard owns its own GIL, engine, batcher and cache), waits for every
shard to publish its ephemeral port through the atomic port-file
handshake (:func:`fragalign.service.server.write_port_file` +
:func:`~fragalign.service.server.wait_for_port_file`, so a half-written
file can never be read), and exposes the address list a
:class:`~fragalign.cluster.router.ShardRouter` routes over.

It is intentionally sync/subprocess-based — no event loop — so it can
run as a plain foreground process (``fragalign cluster serve``) and be
driven from pytest without nesting loops.  ``kill_shard`` exists for
exactly one purpose: failover drills.

Auto-healing (``auto_heal=True``): a daemon thread watches for shards
that died with a **nonzero** exit code (a graceful shutdown is not a
crash) and respawns them after an exponential backoff with jitter —
rapid re-deaths double the wait, the jitter keeps N shards killed by
one event from thundering back together.  A shard that dies
``crash_loop_threshold`` times inside ``crash_loop_window`` seconds is
marked permanently ``failed`` and left down: restarting a shard whose
config or host is broken would just burn CPU forever.  Every action
lands in ``heal_events`` (tests and the chaos drill assert on it).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from fragalign.job import KNOBS, JobSpec
from fragalign.service.config import ServiceConfig
from fragalign.service.server import wait_for_port_file

__all__ = ["ShardProcess", "ClusterSupervisor", "read_cluster_file"]


@dataclass
class ShardProcess:
    """One spawned shard: its process handle plus the boot artifacts."""

    index: int
    port_file: str
    log_path: str
    process: subprocess.Popen = field(repr=False)
    port: int | None = None
    deaths: list[float] = field(default_factory=list)  # observed crash times
    restarts: int = 0  # times auto-heal (or restart_shard) respawned this slot
    failed: bool = False  # crash-looping: permanently left down

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    @property
    def pid(self) -> int:
        return self.process.pid


def _fragalign_pythonpath() -> str:
    """PYTHONPATH entry that makes ``import fragalign`` work in child
    processes no matter how the parent found the package."""
    import fragalign

    return str(Path(fragalign.__file__).resolve().parents[1])


def read_cluster_file(path: str | Path) -> dict:
    """Parse a cluster file written by :meth:`ClusterSupervisor.write_cluster_file`."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or "shards" not in obj:
        raise ValueError(f"{path} is not a cluster file (no 'shards' key)")
    return obj


class ClusterSupervisor:
    """Boot, observe and stop a local shard fleet.

    Every shard runs ``fragalign serve`` with one :class:`ServiceConfig`:
    ``config``, updated by any keyword options named like its fields.

    Usage::

        sup = ClusterSupervisor(shards=4, cache_size=1024)
        sup.start()                    # blocks until every port is known
        addresses = sup.addresses      # [(host, port), ...] for the router
        sup.kill_shard(0)              # SIGKILL: failover drill
        sup.stop()                     # graceful shutdown op, then escalate
    """

    def __init__(
        self,
        shards: int = 4,
        config: ServiceConfig | None = None,
        journal: bool = False,
        base_dir: str | None = None,
        python: str = sys.executable,
        log_level: str | None = None,
        log_json: bool = False,
        auto_heal: bool = False,
        heal_backoff: float = 0.5,
        heal_backoff_max: float = 10.0,
        heal_jitter: float = 0.5,
        heal_boot_timeout: float = 60.0,
        heal_poll: float = 0.1,
        crash_loop_threshold: int = 5,
        crash_loop_window: float = 30.0,
        **options,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if heal_backoff <= 0 or heal_backoff_max <= 0 or heal_poll <= 0:
            raise ValueError("heal backoff/poll knobs must be > 0")
        if heal_jitter < 0:
            raise ValueError("heal_jitter must be >= 0")
        if heal_boot_timeout <= 0:
            raise ValueError("heal_boot_timeout must be > 0")
        if crash_loop_threshold < 2:
            raise ValueError("crash_loop_threshold must be >= 2")
        if crash_loop_window <= 0:
            raise ValueError("crash_loop_window must be > 0")
        self.n_shards = shards
        # _spawn_one overrides only the port, the port file and the
        # journal path; an option no field is named after is a TypeError.
        self.config = replace(config or ServiceConfig(), **options)
        self.host = self.config.host
        # The shards' default job, refused here rather than by every
        # shard at boot.
        JobSpec(**{name: getattr(self.config, name) for name in KNOBS})
        # One journal per shard slot, in base_dir: stable across
        # auto-heal respawns because JournalWriter appends.
        self.journal = journal
        # Forwarded to every spawned serve process so shard lifecycle
        # logs (in each shard-N.log) share the fleet's format/level.
        self.log_level = log_level
        self.log_json = log_json
        self.python = python
        self.auto_heal = auto_heal
        self.heal_backoff = heal_backoff
        self.heal_backoff_max = heal_backoff_max
        self.heal_jitter = heal_jitter
        self.heal_boot_timeout = heal_boot_timeout
        self.heal_poll = heal_poll
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        self.heal_events: list[dict] = []  # appended by the heal thread
        self._heal_thread: threading.Thread | None = None
        self._heal_stop = threading.Event()
        self._heal_pending: dict[int, float] = {}  # index -> respawn-at time
        self._own_base_dir = base_dir is None
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="fragalign-cluster-")
        self.procs: list[ShardProcess] = []

    # -- boot ---------------------------------------------------------

    def _spawn_one(self, index: int) -> ShardProcess:
        port_file = os.path.join(self.base_dir, f"shard-{index}.port")
        log_path = os.path.join(self.base_dir, f"shard-{index}.log")
        # Stale port files from a previous run of this shard index must
        # not satisfy the wait below.
        try:
            os.unlink(port_file)
        except FileNotFoundError:
            pass
        journal = (
            os.path.join(self.base_dir, f"shard-{index}.journal.jsonl")
            if self.journal
            else None
        )
        config = replace(self.config, port=0, journal=journal)
        cmd = [self.python, "-m", "fragalign", "serve", *config.argv(), "--port-file", port_file]
        if self.log_level is not None:
            cmd += ["--log-level", self.log_level]
        if self.log_json:
            cmd += ["--log-json"]
        env = dict(os.environ)
        src = _fragalign_pythonpath()
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        log = open(log_path, "ab")
        try:
            process = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()  # the child holds its own descriptor now
        return ShardProcess(
            index=index, port_file=port_file, log_path=log_path, process=process
        )

    def start(self, timeout: float = 60.0) -> "ClusterSupervisor":
        """Spawn every shard and wait for all ports (all-or-nothing:
        a shard that dies before publishing aborts the whole boot)."""
        assert not self.procs, "start() already ran"
        os.makedirs(self.base_dir, exist_ok=True)
        shard: ShardProcess | None = None
        try:
            # Append incrementally: if a later spawn raises, the
            # except-branch stop() can still reap the earlier shards
            # instead of orphaning them.
            for i in range(self.n_shards):
                self.procs.append(self._spawn_one(i))
            for shard in self.procs:
                shard.port = wait_for_port_file(
                    shard.port_file,
                    timeout=timeout,
                    alive=lambda s=shard: s.alive,
                )
        except Exception as exc:
            which = f"shard {shard.index}" if shard is not None else "a shard"
            detail = self._log_tail(shard) if shard is not None else ""
            self.stop(graceful=False)
            raise RuntimeError(
                f"{which} failed to boot: {exc}\n{detail}"
            ) from exc
        if self.auto_heal:
            self.start_auto_heal()
        return self

    def _log_tail(self, shard: ShardProcess, n: int = 20) -> str:
        try:
            lines = Path(shard.log_path).read_text().splitlines()[-n:]
            return "\n".join(f"  [shard {shard.index}] {l}" for l in lines)
        except OSError:
            return ""

    # -- observation --------------------------------------------------

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [(self.host, s.port) for s in self.procs if s.port is not None]

    @property
    def alive_count(self) -> int:
        return sum(1 for s in self.procs if s.alive)

    @property
    def healing(self) -> bool:
        """True while the heal thread has a respawn scheduled."""
        return bool(self._heal_pending)

    def poll(self) -> list[dict]:
        """One status row per shard (the ``cluster serve`` heartbeat)."""
        return [
            {
                "index": s.index,
                "port": s.port,
                "pid": s.pid,
                "alive": s.alive,
                "returncode": s.process.poll(),
                "restarts": s.restarts,
                "failed": s.failed,
            }
            for s in self.procs
        ]

    def write_cluster_file(self, path: str | Path) -> None:
        """Publish the fleet layout for routers/CLIs in other
        processes (atomically, like the port files).  It carries no
        job defaults: each shard reports its own in the ``stats`` op."""
        obj = {
            "host": self.host,
            "shards": [
                {"index": s.index, "port": s.port, "pid": s.pid} for s in self.procs
            ],
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        Path(tmp).write_text(json.dumps(obj, indent=2) + "\n")
        os.replace(tmp, path)

    # -- failure drills & teardown ------------------------------------

    def kill_shard(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Abruptly kill one shard (failover drills — no cleanup, no
        goodbye) and wait until the OS confirms it is gone."""
        shard = self.procs[index]
        if shard.alive:
            shard.process.send_signal(sig)
            shard.process.wait(timeout=10)

    def restart_shard(self, index: int, timeout: float = 60.0) -> tuple[str, int]:
        """Respawn a dead shard (new process, new ephemeral port);
        returns its new address.  The fresh :class:`ShardProcess`
        inherits the slot's death/restart history so crash-loop
        detection survives the respawn."""
        old = self.procs[index]
        if old.alive:
            raise RuntimeError(f"shard {index} is still alive")
        fresh = self._spawn_one(index)
        fresh.deaths = list(old.deaths)
        fresh.restarts = old.restarts + 1
        self.procs[index] = fresh
        fresh.port = wait_for_port_file(
            fresh.port_file, timeout=timeout, alive=lambda: fresh.alive
        )
        return (self.host, fresh.port)

    # -- auto-healing -------------------------------------------------

    def start_auto_heal(self) -> None:
        """Start the heal thread (idempotent)."""
        if self._heal_thread is not None and self._heal_thread.is_alive():
            return
        self._heal_stop.clear()
        self._heal_thread = threading.Thread(
            target=self._heal_loop, name="fragalign-heal", daemon=True
        )
        self._heal_thread.start()

    def stop_auto_heal(self, timeout: float = 10.0) -> None:
        """Stop the heal thread (idempotent); bounded join."""
        self._heal_stop.set()
        if self._heal_thread is not None:
            self._heal_thread.join(timeout=timeout)
            self._heal_thread = None

    def _heal_loop(self) -> None:
        while not self._heal_stop.wait(self.heal_poll):
            try:
                self._heal_tick()
            except Exception as exc:  # pragma: no cover - defensive
                self.heal_events.append(
                    {"event": "heal_error", "error": f"{type(exc).__name__}: {exc}"}
                )

    def _heal_tick(self, now: float | None = None) -> None:
        """One pass over the fleet: record fresh crashes, respawn the
        ones whose backoff has elapsed.  Split out from the loop so
        tests can drive healing deterministically."""
        now = time.monotonic() if now is None else now
        for index in range(len(self.procs)):
            shard = self.procs[index]
            code = shard.process.poll()
            if code is None or code == 0 or shard.failed:
                # Alive, gracefully stopped, or permanently failed —
                # exit 0 is a shutdown op honored, never a crash.
                continue
            due = self._heal_pending.get(index)
            if due is None:
                # Newly observed crash: record it, decide crash-loop
                # vs backed-off respawn.
                shard.deaths.append(now)
                recent = [t for t in shard.deaths if now - t <= self.crash_loop_window]
                shard.deaths = recent
                if len(recent) >= self.crash_loop_threshold:
                    shard.failed = True
                    self.heal_events.append({
                        "event": "crash_loop", "index": index, "exit_code": code,
                        "deaths_in_window": len(recent),
                    })
                    continue
                backoff = min(
                    self.heal_backoff_max,
                    self.heal_backoff * 2 ** (len(recent) - 1),
                )
                backoff *= 1.0 + self.heal_jitter * random.random()
                self._heal_pending[index] = now + backoff
                self.heal_events.append({
                    "event": "crash", "index": index, "exit_code": code,
                    "respawn_in_s": round(backoff, 3),
                })
                continue
            if now < due:
                continue
            del self._heal_pending[index]
            self._respawn(index)

    def _respawn(self, index: int) -> bool:
        """Respawn one dead slot; a boot that never publishes its port
        is killed and counts as the next crash the tick after."""
        old = self.procs[index]
        fresh = self._spawn_one(index)
        fresh.deaths = list(old.deaths)
        fresh.restarts = old.restarts + 1
        self.procs[index] = fresh
        try:
            fresh.port = wait_for_port_file(
                fresh.port_file,
                timeout=self.heal_boot_timeout,
                alive=lambda: fresh.alive,
            )
        except Exception as exc:
            if fresh.alive:
                fresh.process.kill()
                fresh.process.wait(timeout=10)
            self.heal_events.append({
                "event": "respawn_failed", "index": index,
                "error": f"{type(exc).__name__}: {exc}",
            })
            return False
        self.heal_events.append({
            "event": "respawned", "index": index, "port": fresh.port,
            "pid": fresh.pid, "restarts": fresh.restarts,
        })
        return True

    def _request_shutdown(self, shard: ShardProcess, timeout: float = 2.0) -> bool:
        """Best-effort ``shutdown`` op over a raw socket (no event
        loop: the supervisor stays synchronous)."""
        if shard.port is None:
            return False
        try:
            with socket.create_connection((self.host, shard.port), timeout=timeout) as sock:
                sock.settimeout(timeout)
                sock.sendall(b'{"id":0,"op":"shutdown"}\n')
                sock.recv(4096)  # the "bye" — the server answers, then stops
            return True
        except OSError:
            return False

    def stop(self, graceful: bool = True, timeout: float = 10.0) -> list[int | None]:
        """Stop every shard: shutdown op → SIGTERM → SIGKILL; returns
        each shard's exit code.  Removes the scratch dir if this
        supervisor created it."""
        # The heal thread must stop first or it would dutifully respawn
        # every shard we are about to kill.
        self.stop_auto_heal()
        codes: list[int | None] = []
        asked: set[int] = set()  # shards that acknowledged the shutdown op
        for shard in self.procs:
            if shard.alive and graceful and self._request_shutdown(shard):
                asked.add(shard.index)
        deadline = time.monotonic() + timeout
        for shard in self.procs:
            if shard.alive:
                if shard.index not in asked:
                    # Nothing was (successfully) asked of this shard;
                    # waiting first would just burn the whole timeout.
                    shard.process.terminate()
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    shard.process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    shard.process.terminate()
                    try:
                        shard.process.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        shard.process.kill()
                        shard.process.wait()
            codes.append(shard.process.poll())
        if self._own_base_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)
        return codes

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
