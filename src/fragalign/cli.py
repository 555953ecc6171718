"""Command-line interface: ``python -m fragalign <command>``.

Commands
--------
``demo``      — the paper's worked example through every solver.
``pipeline``  — the genome → contigs → CSR → inference pipeline.
``hardness``  — the Theorem-2 gadget on a random cubic graph.
``engine``    — batch-align random pairs through a chosen backend.
``serve``     — run the JSON-lines alignment service (micro-batching).
``client``    — drive a server or a cluster through the router: load
                generation, ``--verify`` against a local engine, stats.
``cluster``   — the sharded tier: ``serve``/``warm``/``stats`` over N
                local service instances behind a consistent-hash router
                with health-aware failover.
``metrics``   — scrape Prometheus expositions (one server or a whole
                cluster, merged) to stdout.
``top``       — the kernel-profile throughput table (Mcells/s by
                family/backend/mode) from the same scrape.
``slo``/``trace``/``dash`` — SLO burn rates, one request's span tree,
                the live terminal dashboard.
``chaos``     — the resilience drill: boot a fleet behind fault
                proxies, walk a scripted fault schedule, assert the
                invariants (no wrong answers, bounded latency,
                breakers trip and recover, dead shards auto-heal).

Every verb that talks to running servers targets ``--cluster-file`` or
a lone ``--host``/``--port`` server, which it treats as a one-shard
cluster: one :class:`~fragalign.cluster.ClusterClient` either way.
Only ``replay`` (it reads each answer's ``cached`` flag) and a lone
server's own ``slo`` read use a direct connection.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def _add_knob_flags(
    parser: argparse.ArgumentParser,
    serving: bool,
    memory: bool = True,
    mixed: bool = False,
) -> None:
    """The JobSpec knob flags, generated from the request-field registry.

    ``serving`` verbs (``engine``, ``serve``, ``cluster serve``) set
    the defaults every request resolves against, so they start from
    the registry defaults; the other verbs send per-request knobs and
    take unset ones from the servers' own defaults.  ``mixed`` adds the
    load generator's ``--mode mixed``.
    """
    from fragalign.job import DEFAULTS, KNOBS
    from fragalign.service.config import knob_flag

    where = "the default for every request" if serving else "per request (default: the server's)"
    for name in KNOBS:
        if name == "memory" and not memory:
            continue
        flag = knob_flag(name)
        flag["help"] += f"; {where}"
        if mixed and name == "mode":
            flag["choices"] += ("mixed",)
            flag["help"] += "; 'mixed' cycles global/local/overlap"
        parser.add_argument(
            "--" + name.replace("_", "-"),
            default=getattr(DEFAULTS, name) if serving else None,
            **flag,
        )


def _job_spec(knobs, op: str = "align", serving: bool = False):
    """The verb's knob flags (``knobs``: the parsed args as a mapping) as
    one validated JobSpec — for ``serving`` verbs, also checked as the
    defaults every request resolves against, on a registered backend.
    Prints the refusal and returns None when the flags cannot be served."""
    from fragalign.job import JobSpec
    from fragalign.util.errors import InvalidArgument

    try:
        spec = JobSpec.from_fields(knobs, op)
        if serving:
            from fragalign.engine.registry import check_backend

            JobSpec().resolve(spec, "align")
            check_backend(spec.backend)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return spec


# The server options `cluster serve` sets per shard itself: each shard
# binds an ephemeral port, and its journal path derives from --base-dir.
_FLEET_OWN = ("port", "journal")


def _add_log_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
        help="structured-log threshold (lifecycle, eviction, failover events)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of human-readable text",
    )


def _add_target_flags(parser: argparse.ArgumentParser, verb: str) -> None:
    parser.add_argument(
        "--cluster-file",
        default=None,
        help=f"{verb} every shard in this cluster file (else the one "
        "server at --host/--port)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)


def _add_deadline_flag(
    parser: argparse.ArgumentParser, default: float | None = None
) -> None:
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=default,
        help="end-to-end budget per request in ms (expired work is "
        "rejected server-side with DEADLINE_EXCEEDED)",
    )


def build_parser() -> argparse.ArgumentParser:
    from fragalign.service.config import add_flags

    parser = argparse.ArgumentParser(
        prog="fragalign",
        description=(
            "Aligning two fragmented sequences — consensus sequence "
            "reconstruction (Veeramachaneni, Berman, Miller; IPPS 2002)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="solve the paper's Fig. 2 example")
    demo.add_argument(
        "--solver",
        choices=["all", "exact", "csr_improve", "baseline4", "greedy"],
        default="all",
    )

    pipe = sub.add_parser("pipeline", help="run the genome pipeline")
    pipe.add_argument("--seed", type=int, default=2026)
    pipe.add_argument("--blocks", type=int, default=8)
    pipe.add_argument("--h-contigs", type=int, default=3)
    pipe.add_argument("--m-contigs", type=int, default=4)
    pipe.add_argument("--sub-rate", type=float, default=0.06)
    pipe.add_argument(
        "--discovery", choices=["truth", "alignment"], default="truth"
    )
    pipe.add_argument(
        "--solver",
        choices=["csr_improve", "baseline4", "greedy"],
        default="csr_improve",
    )
    pipe.add_argument(
        "--backend",
        default="numpy",
        help="alignment-engine backend for discovery/scoring",
    )

    hard = sub.add_parser("hardness", help="run the Theorem-2 gadget")
    hard.add_argument("--nodes", type=int, default=10)
    hard.add_argument("--seed", type=int, default=7)

    eng = sub.add_parser(
        "engine", help="batch alignment through a selected backend"
    )
    eng.add_argument("--batch", type=int, default=50, help="number of pairs")
    eng.add_argument("--length", type=int, default=256, help="sequence length")
    _add_knob_flags(eng, serving=True, memory=False)
    eng.add_argument("--seed", type=int, default=2026)

    srv = sub.add_parser(
        "serve", help="run the micro-batching alignment service"
    )
    add_flags(srv)
    srv.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (for scripts/CI)",
    )
    _add_log_flags(srv)

    cli = sub.add_parser(
        "client",
        help="drive a server or a cluster: load generation through the router",
    )
    _add_target_flags(cli, "drive")
    cli.add_argument("--requests", type=int, default=100)
    cli.add_argument("--concurrency", type=int, default=16)
    cli.add_argument("--length", type=int, default=128)
    cli.add_argument(
        "--dup-fraction",
        type=float,
        default=0.5,
        help="fraction of requests repeating an earlier pair (cache food)",
    )
    cli.add_argument(
        "--op",
        choices=["score", "align", "mixed"],
        default="score",
        help="'mixed' alternates score and align per request",
    )
    _add_knob_flags(cli, serving=False, mixed=True)
    cli.add_argument("--seed", type=int, default=2026)
    _add_deadline_flag(cli)
    cli.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="distinct shards tried per request before giving up",
    )
    cli.add_argument(
        "--hedge-delay-ms",
        type=float,
        default=None,
        help="fire a duplicate score attempt after this many ms without "
        "an answer (hedged requests; default off)",
    )
    cli.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive shard failures that trip its circuit open",
    )
    cli.add_argument(
        "--breaker-recovery-s",
        type=float,
        default=5.0,
        help="seconds an open circuit waits before a half-open trial",
    )
    cli.add_argument(
        "--verify",
        action="store_true",
        help="check every response against a local engine (exit 1 on drift)",
    )
    cli.add_argument(
        "--expect-failover",
        action="store_true",
        help="exit nonzero unless the router recorded a failover (CI drills)",
    )
    cli.add_argument(
        "--expect-cache-hits",
        action="store_true",
        help="exit nonzero unless the shards report cache hits (CI smoke)",
    )
    cli.add_argument(
        "--shutdown",
        action="store_true",
        help="ask every shard to stop after the run",
    )
    cli.add_argument(
        "--trace",
        action="store_true",
        help="send one traced request after the run and print its span tree",
    )

    cluster = sub.add_parser(
        "cluster", help="sharded serving tier (serve/warm/stats)"
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    cserve = csub.add_parser(
        "serve",
        help="boot N local shards under a supervisor",
        description="Every shard runs 'fragalign serve' with the options "
        "given here; see 'fragalign serve --help'.",
    )
    cserve.add_argument("--shards", type=int, default=4)
    add_flags(cserve, exclude=_FLEET_OWN)
    cserve.add_argument(
        "--journal",
        action="store_true",
        help="flight-record every shard (shard-N.journal.jsonl in "
        "--base-dir; replay with 'fragalign replay')",
    )
    cserve.add_argument(
        "--cluster-file",
        default=None,
        help="write the fleet layout (host/ports/pids) here once booted",
    )
    cserve.add_argument(
        "--base-dir",
        default=None,
        help="scratch dir for shard port files, logs and journals",
    )
    cserve.add_argument(
        "--auto-heal",
        action="store_true",
        help="auto-restart crashed shards (exponential backoff + jitter, "
        "crash-loop shards are left down)",
    )
    _add_log_flags(cserve)

    cwarm = csub.add_parser(
        "warm", help="replay a keyset file into the owning shards"
    )
    cwarm.add_argument("--cluster-file", required=True)
    cwarm.add_argument("--keyset", required=True, help="JSON-lines keyset path")
    cwarm.add_argument(
        "--generate",
        type=int,
        default=None,
        metavar="N",
        help="first write a synthetic keyset of N random pairs to --keyset",
    )
    cwarm.add_argument("--length", type=int, default=128)
    cwarm.add_argument("--seed", type=int, default=2026)
    cwarm.add_argument("--op", choices=["score", "align"], default="score")
    _add_knob_flags(cwarm, serving=False, memory=False)
    cwarm.add_argument("--concurrency", type=int, default=32)

    cstats = csub.add_parser(
        "stats", help="print aggregated cluster stats as JSON"
    )
    cstats.add_argument("--cluster-file", required=True)

    metrics = sub.add_parser(
        "metrics",
        help="scrape Prometheus metrics from a server or a whole cluster",
    )
    _add_target_flags(metrics, "scrape and merge")
    metrics.add_argument(
        "--summary",
        action="store_true",
        help="also print histogram-derived latency p50/p95/p99 (to stderr, "
        "so stdout stays a valid exposition)",
    )

    top = sub.add_parser(
        "top",
        help="kernel-profile throughput table (Mcells/s by family/backend/mode)",
    )
    _add_target_flags(top, "aggregate over")
    top.add_argument(
        "--expect-samples",
        action="store_true",
        help="exit nonzero unless kernel-profile samples exist (CI smoke)",
    )

    slo = sub.add_parser(
        "slo",
        help="evaluate SLO burn rates against a server or a whole cluster",
    )
    _add_target_flags(slo, "evaluate over")
    slo.add_argument(
        "--spec",
        action="append",
        default=None,
        metavar="SPEC",
        help="SLO target to evaluate (repeatable; default: the "
        "server's/built-in set)",
    )
    slo.add_argument(
        "--json", action="store_true", help="print the raw report as JSON"
    )
    slo.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-evaluate on this interval until interrupted",
    )
    slo.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="with --watch: stop after N evaluations (CI drills; burn "
        "rates need at least two samples to see a delta)",
    )
    slo.add_argument(
        "--expect-burn",
        action="store_true",
        help="exit nonzero unless at least one SLO is burning (CI drills)",
    )
    slo.add_argument(
        "--expect-ok",
        action="store_true",
        help="exit nonzero if any SLO alert is firing (CI smoke)",
    )

    trc = sub.add_parser(
        "trace",
        help="fetch one trace's span tree (by id, or via a histogram exemplar)",
    )
    _add_target_flags(trc, "search")
    trc.add_argument(
        "--trace-id", default=None, help="fetch this trace id directly"
    )
    trc.add_argument(
        "--exemplar",
        choices=["p50", "p95", "p99"],
        default=None,
        help="resolve the trace pinned to the bucket owning this request-"
        "latency quantile (jump from a latency spike to its trace)",
    )
    trc.add_argument(
        "--metric",
        default="fragalign_request_latency_seconds",
        help="histogram to take the exemplar from (with --exemplar)",
    )

    rep = sub.add_parser(
        "replay",
        help="re-drive a recorded journal against a server (or local "
        "engine) and diff latency/hit-rate against the recorded run",
    )
    rep.add_argument("journal", help="journal path written by serve --journal")
    rep.add_argument("--host", default="127.0.0.1")
    rep.add_argument("--port", type=int, default=8765)
    rep.add_argument(
        "--local",
        action="store_true",
        help="replay against an in-process engine instead of a server",
    )
    rep.add_argument(
        "--backend", default="numpy", help="engine backend (with --local)"
    )
    rep.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="inter-arrival pacing multiplier (0 = no pacing, 2 = 2x faster)",
    )
    rep.add_argument(
        "--limit", type=int, default=None, help="replay only the first N records"
    )
    rep.add_argument(
        "--json", action="store_true", help="print the diff report as JSON"
    )
    rep.add_argument(
        "--expect-hit-rate-within",
        type=float,
        default=None,
        metavar="PTS",
        help="exit nonzero unless replayed cache hit-rate is within this "
        "many points of the recorded run (CI)",
    )

    dash = sub.add_parser(
        "dash",
        help="live terminal dashboard: cluster health, SLO burn, top kernels",
    )
    _add_target_flags(dash, "watch")
    dash.add_argument(
        "--interval", type=float, default=2.0, help="poll interval in seconds"
    )
    dash.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing; for CI)",
    )
    dash.add_argument(
        "--no-color", action="store_true", help="plain ASCII, no ANSI colors"
    )

    chaos = sub.add_parser(
        "chaos",
        help="resilience drill: a fleet behind fault proxies walks a "
        "scripted fault schedule and asserts the invariants",
    )
    chaos.add_argument("--shards", type=int, default=3)
    chaos.add_argument("--length", type=int, default=96, help="sequence length")
    chaos.add_argument("--backend", default="numpy")
    chaos.add_argument(
        "--requests", type=int, default=40, help="requests per drill phase"
    )
    chaos.add_argument("--concurrency", type=int, default=16)
    chaos.add_argument("--seed", type=int, default=2026)
    _add_deadline_flag(chaos, default=5000.0)
    chaos.add_argument(
        "--base-dir", default=None, help="scratch dir for shard logs/ports"
    )
    chaos.add_argument(
        "--verify",
        action="store_true",
        help="recompute every answer on a local engine (exit 1 on drift)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="print the drill report as JSON (machine-readable, for CI)",
    )

    check = sub.add_parser(
        "check", help="run the repo's static analysis rules"
    )
    check.add_argument(
        "--root",
        default=None,
        help="package root to analyze (default: this installed fragalign)",
    )
    check.add_argument(
        "--tests",
        default=None,
        help="test directory for parity co-mention scanning "
        "(default: <root>/../../tests when present)",
    )
    check.add_argument(
        "--baseline",
        default=None,
        help="suppression baseline JSON "
        "(default: <root>/../../analysis-baseline.json when present)",
    )
    check.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule id (repeatable)",
    )
    check.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with FIXME placeholders for every "
        "current finding (the check still fails until each is justified)",
    )
    check.add_argument(
        "--verbose", action="store_true", help="also print baselined findings"
    )

    solve = sub.add_parser("solve", help="solve a JSON instance file")
    solve.add_argument("path", help="instance JSON (see fragalign.core.io)")
    solve.add_argument(
        "--solver",
        choices=["csr_improve", "baseline4", "greedy", "exact"],
        default="csr_improve",
    )
    solve.add_argument(
        "--render", action="store_true", help="print the aligned layout"
    )
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    from fragalign.core import (
        baseline4,
        csr_improve,
        exact_csr,
        greedy_csr,
        paper_example,
    )
    from fragalign.genome.report import format_report

    inst = paper_example()
    print(inst.describe())
    runners = {
        "exact": lambda: f"exact: score={exact_csr(inst).score:g}",
        "csr_improve": lambda: csr_improve(inst).summary(),
        "baseline4": lambda: baseline4(inst).summary(),
        "greedy": lambda: greedy_csr(inst).summary(),
    }
    chosen = runners if args.solver == "all" else {args.solver: runners[args.solver]}
    for line in (fn() for fn in chosen.values()):
        print(" ", line)
    if args.solver in ("all", "csr_improve"):
        print(format_report(csr_improve(inst)))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from fragalign.genome import PipelineConfig, run_pipeline
    from fragalign.genome.report import format_report

    cfg = PipelineConfig(
        n_blocks=args.blocks,
        n_h_contigs=args.h_contigs,
        n_m_contigs=args.m_contigs,
        sub_rate=args.sub_rate,
        discovery=args.discovery,
        solver=args.solver,
        backend=args.backend,
    )
    result = run_pipeline(cfg, rng=args.seed)
    print(result.instance.describe())
    print(result.solution.summary())
    print(format_report(result.solution))
    print(f"accuracy: {result.report.summary()}")
    return 0


def _cmd_hardness(args: argparse.Namespace) -> int:
    from fragalign.reductions import (
        build_gadget,
        exact_csop,
        exact_mis,
        independent_set_to_solution,
        random_cubic_graph,
    )

    graph = random_cubic_graph(args.nodes, rng=args.seed)
    gadget = build_gadget(graph)
    W = exact_mis(gadget.graph)
    U = independent_set_to_solution(gadget, W)
    U_opt = exact_csop(gadget.csop, max_pairs=40)
    print(f"nodes={args.nodes} |MIS|={len(W)} |U|={len(U)}")
    print(f"5n+|W|={gadget.expected_size(len(W))} CSoP-opt={len(U_opt)}")
    return 0 if len(U_opt) == gadget.expected_size(len(W)) else 1


def _cmd_engine(args: argparse.Namespace) -> int:
    import numpy as np

    from fragalign.engine import AlignmentEngine, available_backends
    from fragalign.genome.dna import random_dna
    from fragalign.util.timing import time_call

    gen = np.random.default_rng(args.seed)
    pairs = [
        (random_dna(args.length, gen), random_dna(args.length, gen))
        for _ in range(args.batch)
    ]
    spec = _job_spec(vars(args), serving=True)
    if spec is None:
        return 2
    with AlignmentEngine(**spec.wire()) as engine:
        t, scores = time_call(engine.score_many, pairs, repeat=1)
        cells = args.batch * args.length * args.length
        print(
            f"backend={engine.backend_name} mode={args.mode} "
            f"batch={args.batch}x{args.length}"
        )
        print(
            f"score_many: {t:.3f}s ({cells / max(t, 1e-9) / 1e6:.1f} Mcells/s), "
            f"mean score {float(np.mean(scores)) if len(scores) else 0.0:.2f}"
        )
    print(f"registered backends: {', '.join(available_backends())}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from fragalign.obs import configure_logging
    from fragalign.service import ServiceConfig, run_server

    # Refuse unservable defaults before booting a server that would
    # reject 100% of its traffic.
    if _job_spec(vars(args), serving=True) is None:
        return 2
    configure_logging(level=args.log_level, json_format=args.log_json)
    return run_server(ServiceConfig.from_flags(args), port_file=args.port_file)


def _print_span_tree(spans: list[dict], dropped: int, trace_id: str) -> None:
    """Render one trace's spans as an indented parent→child tree."""
    from fragalign.obs.trace import Span, span_tree

    objs = [Span.from_dict(s) for s in spans]
    by_parent = span_tree(objs)
    ids = {s.span_id for s in objs}
    print(f"trace {trace_id}: {len(objs)} spans, {dropped} dropped from buffers")

    def walk(parent: str | None, depth: int) -> None:
        for s in by_parent.get(parent, ()):
            tags = " ".join(f"{k}={v}" for k, v in sorted(s.tags.items()))
            print(
                f"  {'  ' * depth}{s.name:<20} {s.duration_s * 1e3:9.3f} ms"
                f"{'  ' + tags if tags else ''}"
            )
            walk(s.span_id, depth + 1)

    # Roots: spans whose parent is unrecorded (the caller's root
    # context never records a span of its own).
    for parent in sorted(
        {p for p in by_parent if p is None or p not in ids}, key=str
    ):
        walk(parent, 0)


def _open_target(args: argparse.Namespace, **options):
    """One :class:`~fragalign.cluster.ClusterClient` over the verb's
    target: every shard in ``--cluster-file``, or the lone
    ``--host``/``--port`` server as a one-shard cluster.  ``options``
    go to the client.  A cluster file with no shard exits 1, like a
    usage error."""
    from fragalign.cluster import ClusterClient, read_cluster_file

    if args.cluster_file is None:
        return ClusterClient([(args.host, args.port)], **options)
    layout = read_cluster_file(args.cluster_file)
    host = layout.get("host", "127.0.0.1")
    addresses = [(host, s["port"]) for s in layout["shards"] if s.get("port") is not None]
    if not addresses:
        print("error: cluster file lists no shards", file=sys.stderr)
        raise SystemExit(1)
    return ClusterClient(addresses, **options)


def _fleet_defaults(cluster):
    """The job defaults the shards report in their ``stats`` op, as one
    JobSpec.  Routed jobs resolve against it, so each routing key is the
    owning shard's cache key, and ``--verify`` recomputes what the
    shards ran.  Exits 1 when no shard answers or the shards disagree."""
    from fragalign.job import JobSpec

    snaps = cluster.stats()["shards"]
    found = {JobSpec(**snap["engine"]) for snap in snaps.values() if "error" not in snap}
    if len(found) != 1:
        for shard, snap in sorted(snaps.items()):
            print(f"{shard}: {snap.get('error') or snap['engine']}", file=sys.stderr)
        print("error: the shards report no single set of job defaults", file=sys.stderr)
        raise SystemExit(1)
    return found.pop()


def _scrape_exposition(cluster) -> str | None:
    """The shards' expositions merged with the router's.  Prints scrape
    errors to stderr; returns ``None`` when no shard answered."""
    report = cluster.metrics()
    for shard, message in sorted(report["errors"].items()):
        print(f"warning: {shard}: {message}", file=sys.stderr)
    if not any(report["shards"].values()):
        print("error: no shard answered the metrics scrape", file=sys.stderr)
        return None
    return report["merged"]


def _cmd_metrics(args: argparse.Namespace) -> int:
    from fragalign.obs.metrics import (
        exemplar_for_quantile,
        histogram_quantile_from_samples,
        parse_exposition,
    )

    with _open_target(args) as cluster:
        text = _scrape_exposition(cluster)
    if text is None:
        return 1
    print(text, end="" if text.endswith("\n") else "\n")
    if args.summary:
        parsed = parse_exposition(text)
        samples = parsed["samples"]
        try:
            for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                value = histogram_quantile_from_samples(
                    samples, "fragalign_request_latency_seconds", q
                )
                ex = exemplar_for_quantile(
                    parsed, "fragalign_request_latency_seconds", q
                )
                suffix = (
                    f"  (exemplar trace {ex['trace_id']} @ "
                    f"{ex['value'] * 1e3:.3f} ms — "
                    f"fragalign trace --trace-id {ex['trace_id']})"
                    if ex is not None
                    else ""
                )
                print(
                    f"summary: request latency {label} = "
                    f"{value * 1e3:.3f} ms{suffix}",
                    file=sys.stderr,
                )
        except ValueError:
            print("summary: no request-latency histogram yet", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from fragalign.obs.kprof import format_top, top_rows_from_exposition

    with _open_target(args) as cluster:
        text = _scrape_exposition(cluster)
    if text is None:
        return 1
    rows = top_rows_from_exposition(text)
    print(format_top(rows), end="")
    if args.expect_samples and not rows:
        print("error: expected kernel-profile samples, found none", file=sys.stderr)
        return 1
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json as json_mod
    import time

    from fragalign.obs.slo import format_slo_report

    # One client for the whole run: its router's SLO engine keeps the
    # history burn rates are deltas of, so a fresh client every --watch
    # round would only ever see one snapshot and report burn 0.0.
    # Without --spec, a lone server is asked for its own evaluation:
    # its configured targets and burn history live in that server.
    cluster = _open_target(args) if args.cluster_file or args.spec else None

    def evaluate() -> dict | None:
        """One evaluation round → {"slos": [...], ...} or None on error."""
        if cluster is None:
            from fragalign.service import AlignmentClient

            try:
                with AlignmentClient(args.host, args.port) as client:
                    return client.slo()
            except OSError as exc:
                print(f"error: {args.host}:{args.port}: {exc}", file=sys.stderr)
                return None
        report = cluster.slo(args.spec)
        for shard, message in sorted(report["errors"].items()):
            print(f"warning: {shard}: {message}", file=sys.stderr)
        if not report["shards_reporting"]:
            print("error: no shard answered the scrape", file=sys.stderr)
            return None
        return report

    burning: list[dict] = []
    rounds_done = 0
    try:
        while True:
            report = evaluate()
            if report is None:
                return 1
            slos = report.get("slos", [])
            if args.json:
                print(json_mod.dumps(report, indent=2, sort_keys=True))
            else:
                print(format_slo_report(slos), end="")
            # An alert seen in ANY round counts: a CI drill's burn is
            # transient by design, and the final round may already have
            # cooled back to ok.
            burning.extend(s for s in slos if s.get("alert") in ("ticket", "page"))
            rounds_done += 1
            if args.watch is None:
                break
            if args.rounds is not None and rounds_done >= args.rounds:
                break
            time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    finally:
        if cluster is not None:
            cluster.close()
    if args.expect_burn and not burning:
        print("error: expected an SLO to be burning, none is", file=sys.stderr)
        return 1
    if args.expect_ok and burning:
        names = ", ".join(s["name"] for s in burning)
        print(f"error: SLO alerts firing: {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if (args.trace_id is None) == (args.exemplar is None):
        print("error: need exactly one of --trace-id / --exemplar",
              file=sys.stderr)
        return 2

    from fragalign.obs.metrics import exemplar_for_quantile, parse_exposition

    trace_id = args.trace_id
    with _open_target(args) as cluster:
        if trace_id is None:
            text = _scrape_exposition(cluster)
            if text is None:
                return 1
            q = {"p50": 0.5, "p95": 0.95, "p99": 0.99}[args.exemplar]
            ex = exemplar_for_quantile(parse_exposition(text), args.metric, q)
            if ex is None:
                print(
                    f"error: no exemplar near {args.exemplar} of {args.metric} "
                    "(is the server sampling? has it seen traffic?)",
                    file=sys.stderr,
                )
                return 1
            trace_id = ex["trace_id"]
            print(
                f"exemplar: {args.exemplar} bucket le={ex['le']} holds trace "
                f"{trace_id} ({ex['value'] * 1e3:.3f} ms)",
                file=sys.stderr,
            )
        reply = cluster.collect_trace(trace_id)
    for shard, message in sorted(reply["errors"].items()):
        print(f"warning: {shard}: {message}", file=sys.stderr)
    spans = reply["spans"]
    if not spans:
        print(
            f"trace {trace_id}: no spans retained (sampled out, drained "
            "earlier, or evicted from the ring)",
            file=sys.stderr,
        )
        return 1
    _print_span_tree(spans, reply["dropped"], trace_id)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as json_mod

    from fragalign.obs.journal import (
        diff_report,
        format_diff_report,
        read_journal,
        replay_journal,
    )

    records = read_journal(args.journal)
    if args.limit is not None:
        records = records[: args.limit]
    if not records:
        print(f"error: no journal records in {args.journal}", file=sys.stderr)
        return 1

    if args.local:
        from fragalign.engine import AlignmentEngine

        engine = AlignmentEngine(backend=args.backend)

        def send(op: str, a: str, b: str, knobs: dict) -> tuple[bool, bool]:
            if op != "align":
                knobs = {k: v for k, v in knobs.items() if k != "memory"}
            try:
                getattr(engine, op)(a, b, **knobs)
                return True, False
            except Exception:
                return False, False

        results = replay_journal(records, send, speed=args.speed)
    else:
        from fragalign.service import AlignmentClient

        try:
            with AlignmentClient(args.host, args.port) as client:

                def send(op: str, a: str, b: str, knobs: dict) -> tuple[bool, bool]:
                    if op != "align":
                        knobs = {k: v for k, v in knobs.items() if k != "memory"}
                    try:
                        return True, bool(client.request(op, a, b, **knobs).get("cached"))
                    except OSError:
                        raise
                    except Exception:
                        return False, False

                results = replay_journal(records, send, speed=args.speed)
        except OSError as exc:
            print(f"error: {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 1

    report = diff_report(records, results)
    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_diff_report(report), end="")
    if args.expect_hit_rate_within is not None:
        delta = abs(report["replayed"]["hit_rate"] - report["recorded"]["hit_rate"])
        if delta * 100.0 > args.expect_hit_rate_within:
            print(
                f"error: hit-rate drifted {delta * 100.0:.1f} points "
                f"(> {args.expect_hit_rate_within})",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    import time

    from fragalign.obs.dash import CLEAR, build_state, render_frame

    color = not args.no_color and (sys.stdout.isatty() or args.once)
    # One client for the whole run: its router's SLO engine needs the
    # earlier polls' samples to see a burn.
    cluster = _open_target(args)
    shards = len(cluster.router.addresses)
    label = f"cluster ({shards} shards)" if args.cluster_file else f"{args.host}:{args.port}"

    def frame() -> str:
        report = cluster.metrics()
        state = build_state(
            cluster_stats=cluster.stats(),
            slo_reports=cluster.slo()["slos"],
            metrics_text=report["merged"] if any(report["shards"].values()) else None,
            label=label,
        )
        return render_frame(state, color=color)

    with cluster:
        if args.once:
            sys.stdout.write(frame())
            return 0
        try:
            while True:
                text = frame()
                sys.stdout.write(CLEAR + text)
                sys.stdout.flush()
                time.sleep(args.interval)
        except KeyboardInterrupt:
            sys.stdout.write("\n")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from dataclasses import replace

    import numpy as np

    from fragalign.engine import AlignmentEngine
    from fragalign.genome.dna import random_dna
    from fragalign.util.errors import FragalignError, InvalidArgument
    from fragalign.util.timing import time_call

    mixed = args.mode == "mixed"
    base = _job_spec(
        dict(vars(args), mode=None if mixed else args.mode),
        "align" if args.op == "mixed" else args.op,
    )
    if base is None:
        return 2
    gen = np.random.default_rng(args.seed)
    n_unique = max(1, round(args.requests * (1.0 - args.dup_fraction)))
    unique = [
        (random_dna(args.length, gen), random_dna(args.length, gen))
        for _ in range(n_unique)
    ]
    pairs = [unique[int(k)] for k in gen.integers(0, n_unique, args.requests)]
    for k, pair in enumerate(unique[: args.requests]):
        pairs[k] = pair
    failures = []
    with _open_target(
        args,
        max_attempts=args.max_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery=args.breaker_recovery_s,
        hedge_delay=None if args.hedge_delay_ms is None else args.hedge_delay_ms / 1e3,
    ) as cluster:
        # Every job is resolved against the shards' defaults here, at
        # the edge: its routing key is then exactly the owning shard's
        # cache key.
        defaults = _fleet_defaults(cluster)
        mode_cycle = ("global", "local", "overlap")
        ops = ("score", "align") if args.op == "mixed" else (args.op,)
        jobs = []
        try:
            for k, (a, b) in enumerate(pairs):
                op = ops[k % len(ops)]
                spec = replace(base, mode=mode_cycle[k % 3]) if mixed else base
                jobs.append((op, a, b, spec.resolve(defaults, op)))
        except InvalidArgument as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        entries = [
            {"op": op, "a": a, "b": b, **spec.wire(), "deadline_ms": args.deadline_ms}
            for op, a, b, spec in jobs
        ]
        try:
            # The whole mixed workload fires concurrently through the
            # router (each request routes to its own shard/op/mode).
            t, results = time_call(
                cluster.request_many, entries, concurrency=args.concurrency, repeat=1
            )
        except FragalignError as exc:
            # ClusterError, DeadlineExceeded, CircuitOpen, Overloaded —
            # every typed routing failure lands here.
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        report = cluster.stats()
        if args.verify:
            # Unique jobs are grouped per op and recomputed through the
            # engine's *batch* kernels, each with its own spec — per-pair
            # scalar calls would dominate wall clock at cluster-scale
            # request counts.  The specs are resolved, so the engine's
            # own defaults never apply.
            groups: dict = {}
            for job in dict.fromkeys(jobs):
                groups.setdefault(job[0], []).append(job)
            expected: dict = {}
            with AlignmentEngine(backend=defaults.backend) as eng:
                for op, group in groups.items():
                    values = eng.run(op, [job[1:3] for job in group], [job[3] for job in group])
                    expected.update(zip(group, values))
            for k, (result, job) in enumerate(zip(results, jobs)):
                want = float(expected[job]) if job[0] == "score" else expected[job]
                if result != want:
                    failures.append(
                        f"request {k} ({job[0]}/{job[3].mode}): "
                        f"cluster={result!r} engine={want!r}"
                    )
        traced = None
        if args.trace:
            from fragalign.obs import new_trace_context

            root = new_trace_context()
            op, a, b, spec = jobs[0]
            call = cluster.score if op == "score" else cluster.align
            call(a, b, trace=root, **spec.wire())
            traced = (root.trace_id, cluster.collect_trace(root.trace_id))
        if args.shutdown:
            acked = cluster.shutdown_shards()
            print(
                "shutdown acknowledged by "
                f"{sum(acked.values())}/{len(acked)} shards",
                flush=True,
            )
    router = report["router"]
    agg = report["aggregate"]
    rps = args.requests / max(t, 1e-9)
    print(
        f"{args.requests} requests (op={args.op}, mode={args.mode or defaults.mode}) "
        f"over {len(router['configured_shards'])} shard(s) at concurrency "
        f"{args.concurrency}: {t:.3f}s ({rps:.0f} req/s)"
    )
    print(
        f"router: routed={router['routed_total']} "
        f"failovers={router['failovers']} retries={router['retries']} "
        f"evictions={router['evictions']} live={len(router['live_shards'])}"
        f"/{len(router['configured_shards'])}"
    )
    if agg.get("shards_reporting"):
        cache = agg["cache"]
        print(
            f"aggregate: requests={agg['requests_total']} "
            f"cache hit rate {cache['hit_rate']:.2f} "
            f"({cache['hits']} hits / {cache['misses']} misses), "
            f"worst p95 {agg['latency_ms']['worst_p95']:.2f} ms"
        )
    if traced is not None:
        trace_id, reply = traced
        _print_span_tree(reply["spans"], reply["dropped"], trace_id)
    for line in failures[:5]:
        print(f"verify drift: {line}", file=sys.stderr)
    if failures:
        print(f"error: {len(failures)} responses drifted", file=sys.stderr)
        return 1
    if args.expect_failover and router["failovers"] <= 0:
        print("error: expected a failover, router recorded none", file=sys.stderr)
        return 1
    if args.expect_cache_hits and agg.get("cache", {}).get("hits", 0) <= 0:
        print("error: expected cache hits, the shards report none", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import time

    from fragalign.cluster import ClusterSupervisor
    from fragalign.obs import configure_logging
    from fragalign.service import ServiceConfig

    if _job_spec(vars(args), serving=True) is None:
        return 2
    configure_logging(level=args.log_level, json_format=args.log_json)
    supervisor = ClusterSupervisor(
        shards=args.shards,
        config=ServiceConfig.from_flags(args, exclude=_FLEET_OWN),
        journal=args.journal,
        base_dir=args.base_dir,
        log_level=args.log_level,
        log_json=args.log_json,
        auto_heal=args.auto_heal,
    )
    try:
        supervisor.start()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for host, port in supervisor.addresses:
        print(f"fragalign.cluster shard listening on {host}:{port}", flush=True)
    if args.cluster_file:
        supervisor.write_cluster_file(args.cluster_file)
        print(f"fragalign.cluster file written to {args.cluster_file}", flush=True)
    try:
        # Supervise until the whole fleet is gone (e.g. a routed
        # --shutdown) or Ctrl-C.  Dead shards are reported once; with
        # --auto-heal the heal thread may bring them back (the loop
        # also waits out a pending respawn so a simultaneous all-shard
        # crash doesn't read as "all exited").
        reported: set[int] = set()
        seen_events = 0
        while supervisor.alive_count > 0 or supervisor.healing:
            for row in supervisor.poll():
                if not row["alive"] and row["index"] not in reported:
                    reported.add(row["index"])
                    print(
                        f"fragalign.cluster shard {row['index']} exited "
                        f"(code {row['returncode']})",
                        flush=True,
                    )
                elif row["alive"]:
                    reported.discard(row["index"])
            events = supervisor.heal_events
            while seen_events < len(events):
                event = events[seen_events]
                seen_events += 1
                print(f"fragalign.cluster heal: {event}", flush=True)
                if event.get("event") == "respawned" and args.cluster_file:
                    # Respawned shards bind fresh ephemeral ports:
                    # republish the layout for routers reading the file.
                    supervisor.write_cluster_file(args.cluster_file)
            time.sleep(0.2)
        print("fragalign.cluster: all shards exited", flush=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("fragalign.cluster interrupted", file=sys.stderr)
    finally:
        supervisor.stop()
    return 0


def _cmd_cluster_warm(args: argparse.Namespace) -> int:
    from fragalign.cluster import dump_keyset, generate_keyset, load_keyset
    from fragalign.job import JobSpec
    from fragalign.util.errors import InvalidArgument

    if args.generate is not None:
        spec = _job_spec(vars(args), args.op)
        if spec is None:
            return 2
        entries = generate_keyset(
            args.generate, length=args.length, seed=args.seed, op=args.op, **spec.wire()
        )
        dump_keyset(args.keyset, entries)
        print(f"wrote {len(entries)} entries to {args.keyset}", flush=True)
    entries = load_keyset(args.keyset)
    with _open_target(args) as cluster:
        # Resolved against the shards' defaults, like `client` jobs, so
        # each entry warms the shard live traffic for it routes to.  An
        # entry no default can serve is sent as-is: its shard refuses
        # it and the report counts the error.
        defaults = _fleet_defaults(cluster)
        for k, entry in enumerate(entries):
            op = entry["op"]
            try:
                spec = JobSpec.from_fields(entry, op).resolve(defaults, op)
            except InvalidArgument:
                continue
            entries[k] = {"op": op, "a": entry["a"], "b": entry["b"], **spec.wire()}
        report = cluster.warm(entries, concurrency=args.concurrency)
    per_shard = ", ".join(
        f"{shard}={count}" for shard, count in sorted(report["per_shard"].items())
    )
    print(
        f"warmed {report['warmed']}/{report['entries']} keyset entries "
        f"({report['errors']} errors) across shards: {per_shard}"
    )
    return 0 if report["warmed"] > 0 or not entries else 1


def _cmd_cluster_stats(args: argparse.Namespace) -> int:
    import json

    with _open_target(args) as cluster:
        report = cluster.stats()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    handlers = {
        "serve": _cmd_cluster_serve,
        "warm": _cmd_cluster_warm,
        "stats": _cmd_cluster_stats,
    }
    return handlers[args.cluster_command](args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from fragalign.resilience.chaos import run_chaos

    return run_chaos(args)


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from fragalign.analysis import format_report, run_check

    root = Path(args.root) if args.root else Path(__file__).resolve().parent
    baseline = args.baseline
    if baseline is None:
        candidate = root.parent.parent / "analysis-baseline.json"
        baseline = candidate if candidate.is_file() else None
    if args.update_baseline and baseline is None:
        baseline = root.parent.parent / "analysis-baseline.json"
    result = run_check(
        root,
        tests=args.tests,
        baseline_path=baseline,
        rules=args.rules,
        update_baseline=args.update_baseline,
    )
    if args.format == "json":
        print(result.to_json())
    else:
        print(format_report(result, verbose=args.verbose))
    return result.exit_code


def _cmd_solve(args: argparse.Namespace) -> int:
    from fragalign.core import baseline4, csr_improve, exact_csr, greedy_csr
    from fragalign.core.bounds import certified_ratio
    from fragalign.core.io import load
    from fragalign.core.render import render_alignment

    instance = load(args.path)
    print(instance.describe())
    if args.solver == "exact":
        res = exact_csr(instance)
        print(f"exact: score={res.score:g} ({res.pairs_evaluated} pairs searched)")
        if args.render:
            print(render_alignment(instance, res.arr_h, res.arr_m))
        return 0
    solver = {
        "csr_improve": csr_improve,
        "baseline4": baseline4,
        "greedy": greedy_csr,
    }[args.solver]
    sol = solver(instance)
    print(sol.summary())
    print(f"certified within {certified_ratio(sol):.3f}× of optimal")
    if args.render:
        print(render_alignment(instance, sol.arr_h, sol.arr_m))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "pipeline": _cmd_pipeline,
        "hardness": _cmd_hardness,
        "engine": _cmd_engine,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "cluster": _cmd_cluster,
        "metrics": _cmd_metrics,
        "top": _cmd_top,
        "slo": _cmd_slo,
        "trace": _cmd_trace,
        "replay": _cmd_replay,
        "dash": _cmd_dash,
        "chaos": _cmd_chaos,
        "check": _cmd_check,
        "solve": _cmd_solve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
