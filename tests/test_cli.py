"""CLI smoke tests (every subcommand exercised in-process)."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fragalign.cli import build_parser, main


def test_demo_all(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "csr_improve" in out and "score=11" in out


def test_demo_single_solver(capsys):
    assert main(["demo", "--solver", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "greedy" in out


def test_pipeline(capsys):
    assert (
        main(
            [
                "pipeline",
                "--seed",
                "3",
                "--blocks",
                "5",
                "--h-contigs",
                "2",
                "--m-contigs",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_hardness(capsys):
    assert main(["hardness", "--nodes", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "CSoP-opt" in out


def test_engine_numpy(capsys):
    assert main(["engine", "--backend", "numpy", "--batch", "8", "--length", "64"]) == 0
    out = capsys.readouterr().out
    assert "backend=numpy" in out and "Mcells/s" in out
    assert "registered backends: naive, native, numpy\n" in out


def test_engine_naive_local(capsys):
    assert (
        main(
            [
                "engine",
                "--backend",
                "naive",
                "--batch",
                "2",
                "--length",
                "32",
                "--mode",
                "local",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "backend=naive mode=local" in out


def test_knob_flags_are_refused_before_anything_boots(capsys):
    # The knob flags become one JobSpec at the CLI edge: an unservable
    # default exits 2 with the spec's refusal, before any server starts.
    assert main(["engine", "--mode", "banded"]) == 2
    assert main(["serve", "--port", "0", "--gap-open", "nan", "--gap-extend", "-1"]) == 2
    assert main(["serve", "--port", "0", "--memory", "linear", "--mode", "banded",
                 "--band", "4"]) == 2
    err = capsys.readouterr().err
    assert "needs a band" in err and "must be finite" in err and "banded mode" in err
    # An unregistered backend is refused the same way: no server binds,
    # no shard process is spawned.
    unknown = "error: unknown backend 'parallel' (registered: naive, native, numpy)"
    assert main(["serve", "--port", "0", "--backend", "parallel"]) == 2
    assert capsys.readouterr().err.strip() == unknown
    assert main(["cluster", "serve", "--shards", "2", "--backend", "parallel"]) == 2
    assert capsys.readouterr().err.strip() == unknown
    # A default band on a non-banded default mode is no refusal: it is
    # the default for banded requests.
    assert main(["engine", "--band", "8", "--batch", "2", "--length", "16"]) == 0


def test_engine_unknown_backend(capsys):
    assert main(["engine", "--backend", "gpu"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown backend 'gpu' (registered: naive, native, numpy)" in err


def test_serve_and_client_round_trip(tmp_path, capsys):
    """`fragalign serve` + `fragalign client`: load, stats, clean stop."""
    import threading

    port_file = tmp_path / "port"
    exit_codes = {}

    def serve():
        exit_codes["serve"] = main(
            ["serve", "--port", "0", "--port-file", str(port_file)]
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(100):
        if port_file.exists() and port_file.read_text().strip():
            break
        thread.join(timeout=0.05)
    port = port_file.read_text().strip()
    assert main(
        [
            "client",
            "--port",
            port,
            "--requests",
            "30",
            "--concurrency",
            "8",
            "--length",
            "48",
            "--dup-fraction",
            "0.5",
            "--expect-cache-hits",
            "--shutdown",
        ]
    ) == 0
    thread.join(timeout=10)
    assert not thread.is_alive() and exit_codes["serve"] == 0
    out = capsys.readouterr().out
    assert "req/s" in out and "cache hit rate" in out
    assert "fragalign.service stopped" in out


def test_cluster_serve_route_warm_stats_round_trip(tmp_path, capsys):
    """`fragalign cluster`: boot 2 shards, warm, route+verify through
    `client --cluster-file`, stats, shutdown — the whole tier through
    the CLI entry points."""
    import threading

    cluster_file = tmp_path / "cluster.json"
    keyset = tmp_path / "keys.jsonl"
    exit_codes = {}

    def serve():
        exit_codes["serve"] = main(
            [
                "cluster",
                "serve",
                "--shards",
                "2",
                "--cache-size",
                "256",
                "--cluster-file",
                str(cluster_file),
                "--base-dir",
                str(tmp_path / "scratch"),
            ]
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(300):
        if cluster_file.exists() and cluster_file.read_text().strip():
            break
        thread.join(timeout=0.1)
    assert cluster_file.exists(), "cluster file never appeared"
    common = ["--cluster-file", str(cluster_file)]
    assert main(
        ["cluster", "warm", *common, "--keyset", str(keyset), "--generate", "20", "--length", "48"]
    ) == 0
    assert main(
        [
            "client",
            *common,
            "--requests",
            "40",
            "--concurrency",
            "8",
            "--length",
            "48",
            "--op",
            "mixed",
            "--verify",
            "--expect-cache-hits",
        ]
    ) == 0
    assert main(["cluster", "stats", *common]) == 0
    assert main(
        [
            "client",
            *common,
            "--requests",
            "4",
            "--concurrency",
            "2",
            "--length",
            "32",
            "--shutdown",
        ]
    ) == 0
    thread.join(timeout=30)
    assert not thread.is_alive() and exit_codes["serve"] == 0
    out = capsys.readouterr().out
    assert "warmed 20/20" in out
    assert "router: routed=40" in out
    assert '"aggregate"' in out  # the stats JSON
    assert "all shards exited" in out


def test_client_verifies_a_lone_server_against_its_own_defaults(tmp_path, capsys):
    """`client --port` drives one server as a one-shard cluster: jobs
    resolve against the defaults the server reports in `stats`, so a
    server configured off the registry defaults verifies with no drift
    and runs every job in its own default mode."""
    import threading

    from fragalign.service import AlignmentClient

    port_file = tmp_path / "port"
    exit_codes = {}

    def serve():
        exit_codes["serve"] = main(
            ["serve", "--port", "0", "--port-file", str(port_file),
             "--mode", "local", "--gap-open", "-3", "--gap-extend", "-1"]
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(100):
        if port_file.exists() and port_file.read_text().strip():
            break
        thread.join(timeout=0.05)
    port = port_file.read_text().strip()
    assert main(
        ["client", "--port", port, "--requests", "24", "--concurrency", "8",
         "--length", "32", "--op", "mixed", "--verify"]
    ) == 0
    with AlignmentClient("127.0.0.1", int(port)) as client:
        by_mode = client.stats()["requests"]["by_mode"]
        client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive() and exit_codes["serve"] == 0
    assert by_mode == {"local": 24}
    out, err = capsys.readouterr()
    assert "mode=local" in out and "over 1 shard(s)" in out
    assert "drift" not in err


def test_fleet_defaults_come_from_the_shards_that_answer(capsys):
    from fragalign.cli import _fleet_defaults

    class Fleet:  # the `stats` answer of a ClusterClient
        def __init__(self, *engines):
            self.shards = {f"s{k}": {"engine": e} for k, e in enumerate(engines)}
            self.shards["down"] = {"error": "ConnectionRefusedError"}

        def stats(self):
            return {"shards": self.shards}

    local = {"mode": "local", "memory": "auto", "backend": "numpy"}
    assert _fleet_defaults(Fleet(local, dict(local))).mode == "local"
    for fleet in (Fleet(local, dict(local, mode="global")), Fleet()):
        with pytest.raises(SystemExit):
            _fleet_defaults(fleet)  # disagreeing shards, or none answering
        assert "no single set of job defaults" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _verb_flags(*verb: str) -> set[str]:
    parser = build_parser()
    for name in verb:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return {flag for action in parser._actions for flag in action.option_strings}


def test_service_config_round_trips_through_serve_flags():
    from dataclasses import fields

    from fragalign.service.config import ServiceConfig

    config = ServiceConfig(
        host="0.0.0.0", port=0, backend="native", mode="banded", band=12,
        gap_open=-3.0, gap_extend=-1.0, memory="tensor", max_batch=8,
        cache_size=0, max_inflight_cells=1000,
        max_inflight_jobs=4, degrade="score", degrade_watermark=0.5,
        trace_sample=0.25, slo=("score p99 < 5ms @ 99%", "align availability @ 99.9%"),
        journal="shard.journal.jsonl", journal_sequences=True,
    )
    default = ServiceConfig()
    assert all(getattr(config, f.name) != getattr(default, f.name) for f in fields(config))
    args = build_parser().parse_args(["serve", *config.argv()])
    assert ServiceConfig.from_flags(args) == config
    assert default.argv() == []


def test_cluster_serve_accepts_every_serve_flag():
    # Every shard runs `serve` with the fleet's options; only the port
    # and its port file are the supervisor's to choose per shard.
    serve = _verb_flags("serve")
    assert serve - {"--port", "--port-file"} <= _verb_flags("cluster", "serve")


def test_serving_imports_stay_off_core_and_scipy():
    # The package root loads subpackages lazily: a serve/cluster process
    # never pays for fragalign.core and its scipy.optimize import.
    probe = (
        "import sys\n"
        "import fragalign.cli, fragalign.service.server, fragalign.cluster.router\n"
        "eager = sorted(m for m in ('scipy', 'fragalign.core') if m in sys.modules)\n"
        "assert not eager, eager\n"
        "import fragalign\n"
        "assert fragalign.core.csr_improve is not None\n"
        "assert 'fragalign.core' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
