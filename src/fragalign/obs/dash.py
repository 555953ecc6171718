"""The live cluster dashboard: one terminal frame per poll.

``fragalign dash`` polls cluster-merged metrics, SLO state, router
health, and the kernel-profile top table on an interval and redraws a
single ANSI frame.  This module is the *pure* half: ``build_state``
distills the polled blobs into one plain dict, ``render_frame`` turns
that dict into a string.  No terminal I/O, no clocks, no sockets —
the CLI owns the poll loop and the screen, and tests render frames
from fixture state without a TTY (the ``--once`` CI mode does the
same: one poll, one frame, exit).
"""

from __future__ import annotations

from fragalign.obs.kprof import top_rows_from_exposition
from fragalign.obs.metrics import histogram_quantile_from_samples, parse_exposition
from fragalign.obs.slo import format_slo_report

__all__ = ["build_state", "render_frame", "CLEAR"]

# ANSI: clear screen + home.  The CLI prepends this between frames.
CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


def build_state(
    cluster_stats: dict | None = None,
    slo_reports: list | None = None,
    metrics_text: str | None = None,
    label: str = "",
) -> dict:
    """Distill one poll's raw blobs into the frame-ready state dict.

    ``cluster_stats`` is the router's aggregate (``{"router", "shards",
    "aggregate"}``; a lone server is a one-shard cluster);
    ``metrics_text`` is the merged exposition.  Every argument is
    optional — the frame renders whatever arrived and marks the rest
    absent, so one dead endpoint never blanks the whole dashboard.
    """
    state: dict = {"label": label, "shards": [], "slo": slo_reports, "top": None}
    if cluster_stats is not None:
        router = cluster_stats["router"]
        breakers = router["breakers"]
        state["router"] = {
            "live": len(router["live_shards"]),
            "configured": len(router["configured_shards"]),
            "failovers": router["failovers"],
            "retries": router["retries"],
            "hedges": router["hedges"],
            "breaker_fast_fails": router["breaker_fast_fails"],
        }
        for shard, snap in sorted(cluster_stats.get("shards", {}).items()):
            row = {"shard": shard, "breaker": breakers.get(shard, "closed")}
            if "error" in snap:
                row["error"] = snap["error"]
            else:
                resilience = snap.get("resilience", {})
                cache = snap.get("cache", {})
                row.update(
                    {
                        "requests": snap.get("requests", {}).get("total", 0),
                        "errors": snap.get("requests", {}).get("errors", 0),
                        "p99_ms": snap.get("latency_ms", {}).get("p99", 0.0),
                        "hit_rate": cache.get("hit_rate"),
                        "degraded": resilience.get("degraded_mode", False),
                        "shed": resilience.get("shed", 0),
                        "deadline_exceeded": resilience.get("deadline_exceeded", 0),
                    }
                )
            state["shards"].append(row)
    if metrics_text:
        parsed = parse_exposition(metrics_text)
        samples = parsed["samples"]
        state["totals"] = {
            "requests": _labeled_sum(samples, "fragalign_requests_total"),
            "errors": samples.get(("fragalign_errors_total", ()), 0.0),
            "coalesced": samples.get(("fragalign_coalesced_total", ()), 0.0),
            "p50_ms": 1e3
            * histogram_quantile_from_samples(
                samples, "fragalign_request_latency_seconds", 0.50
            ),
            "p99_ms": 1e3
            * histogram_quantile_from_samples(
                samples, "fragalign_request_latency_seconds", 0.99
            ),
        }
        state["top"] = top_rows_from_exposition(metrics_text)[:6]
    return state


def _labeled_sum(samples: dict, name: str) -> float:
    return sum(value for (n, _), value in samples.items() if n == name)


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _breaker_cell(state: str, color: bool) -> str:
    code = {"closed": _GREEN, "half-open": _YELLOW, "open": _RED}.get(state, _DIM)
    return _paint(f"{state:<9}", code, color)


def render_frame(state: dict, color: bool = True) -> str:
    """One full dashboard frame as a string (no trailing clear)."""
    lines: list[str] = []
    title = f"fragalign dash · {state.get('label', '')}".rstrip(" ·")
    lines.append(_paint(title, _BOLD, color))
    totals = state.get("totals")
    router = state.get("router")
    if totals:
        summary = (
            f"requests {int(totals['requests'])}  "
            f"errors {int(totals['errors'])}  "
            f"coalesced {int(totals['coalesced'])}  "
            f"p50 {totals['p50_ms']:.2f}ms  p99 {totals['p99_ms']:.2f}ms"
        )
        lines.append(summary)
    if router:
        lines.append(
            f"shards {router['live']}/{router['configured']}  "
            f"failovers {router['failovers']}  retries {router['retries']}  "
            f"hedges {router['hedges']}  breaker-fast-fails "
            f"{router['breaker_fast_fails']}"
        )
    if state.get("shards"):
        lines.append("")
        lines.append(
            _paint(
                f"{'SHARD':<22} {'BREAKER':<9} {'REQS':>8} {'ERRS':>6} "
                f"{'P99MS':>8} {'HIT%':>6} {'SHED':>6} {'DDLX':>6}  STATE",
                _BOLD,
                color,
            )
        )
        for row in state["shards"]:
            if "error" in row:
                cells = (
                    f"{row['shard']:<22} {_breaker_cell(row['breaker'], color)} "
                    + _paint(f"DOWN: {row['error']}", _RED, color)
                )
                lines.append(cells)
                continue
            hit = "-" if row["hit_rate"] is None else f"{100 * row['hit_rate']:.1f}"
            mode = "degraded" if row["degraded"] else "ok"
            mode_cell = _paint(mode, _YELLOW if row["degraded"] else _GREEN, color)
            lines.append(
                f"{row['shard']:<22} {_breaker_cell(row['breaker'], color)} "
                f"{int(row['requests']):>8} {int(row['errors']):>6} "
                f"{row['p99_ms']:>8.2f} {hit:>6} {int(row['shed']):>6} "
                f"{int(row['deadline_exceeded']):>6}  {mode_cell}"
            )
    if state.get("slo"):
        lines.append("")
        report = format_slo_report(state["slo"]).rstrip("\n")
        if color:
            painted = []
            for line in report.splitlines():
                if line.endswith(" page"):
                    painted.append(_paint(line, _RED, color))
                elif line.endswith(" ticket"):
                    painted.append(_paint(line, _YELLOW, color))
                else:
                    painted.append(line)
            report = "\n".join(painted)
        lines.append(report)
    if state.get("top"):
        lines.append("")
        lines.append(_paint("top kernels (by seconds)", _BOLD, color))
        for r in state["top"]:
            lines.append(
                f"  {r['family']:<12} {r['backend']:<10} {r['mode']:<8} "
                f"{int(r['calls']):>7} calls {r['seconds']:>8.3f}s "
                f"{r['mcells_per_s']:>8.1f} mcells/s"
            )
    if len(lines) <= 1:
        lines.append(_paint("no data yet", _DIM, color))
    return "\n".join(lines) + "\n"
