"""Server options: the one declaration behind ``serve`` and ``cluster serve``.

Each :class:`ServiceConfig` field is one server option.  Its metadata
holds the flag's help and, where the default does not imply them, its
type, choices and metavar.  The six job knobs take all three from the
request-field registry in :mod:`fragalign.job`.  A flag is always its
field's name with dashes (``cache_size`` → ``--cache-size``).

* :func:`add_flags` declares the flags on a verb's parser;
* :meth:`ServiceConfig.from_flags` builds the config from the parsed
  arguments;
* :meth:`ServiceConfig.argv` is its inverse: the ``serve`` flags that
  reproduce a config.  The cluster supervisor starts every shard from
  it.

The module imports no engine code, so building the CLI parser stays
cheap.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields

from fragalign.job import DEFAULTS, FIELDS, KNOBS, MEMORY_MODES, MODES

__all__ = ["DEGRADE_POLICIES", "ServiceConfig", "add_flags", "knob_flag"]

#: ``--degrade`` policies past the load watermark: ``score`` answers
#: align requests with a score-only result.
DEGRADE_POLICIES = ("none", "score")


def knob_flag(name: str) -> dict:
    """argparse keywords (type, choices, help) for one job knob, read
    from the request-field registry."""
    spec = FIELDS[name]
    return {
        "type": {"int": int, "float": float}.get(spec["kind"]),
        "choices": {"mode": MODES, "memory": MEMORY_MODES}.get(name),
        "help": spec["doc"],
    }


def _option(default, help: str, **flag):
    return field(default=default, metadata={"help": help, **flag})


@dataclass
class ServiceConfig:
    """One server's options; every field is a ``serve`` flag."""

    host: str = _option("127.0.0.1", "address to bind")
    port: int = _option(8765, "TCP port to bind (0 binds an ephemeral port)")
    # The server's default job: requests may override each knob per call.
    backend: str = DEFAULTS.backend
    mode: str = DEFAULTS.mode
    band: int | None = None
    gap_open: float | None = None
    gap_extend: float | None = None
    memory: str = DEFAULTS.memory
    max_batch: int = _option(64, "most distinct jobs one batch dispatches")
    cache_size: int = _option(4096, "LRU result-cache entries (0 disables)")
    # Admission control (fragalign.resilience): bounded inflight
    # compute in estimated DP cells plus an optional job-count bound.
    # 0 disables either bound (the default — admission is opt-in).
    max_inflight_cells: int = _option(
        0, "admission cap on estimated in-flight DP cells (0 = unlimited)"
    )
    max_inflight_jobs: int = _option(
        0, "admission cap on concurrently computing jobs (0 = unlimited)"
    )
    # Degraded mode disengages at 2/3 of the watermark (hysteresis).
    degrade: str = _option(
        "none",
        "degraded mode past the load watermark: 'score' answers align "
        "requests score-only",
        choices=DEGRADE_POLICIES,
    )
    degrade_watermark: float = _option(
        0.75, "fraction of the cell cap that engages degraded mode"
    )
    # Tail-based trace sampling (fragalign.obs.sampling); None = off,
    # so only client-requested traces exist.
    trace_sample: float | None = _option(
        None,
        "tail-based trace sampling: head-sample boring traces at this "
        "rate, always retain slow/errored ones (default: keep all)",
        type=float,
        metavar="RATE",
    )
    slo: tuple = _option(
        (),
        "SLO target, e.g. 'score p99 < 50ms @ 99.9%%' or 'align "
        "availability @ 99.9%%' (repeatable; default: built-ins)",
        action="append",
        metavar="SPEC",
    )
    # Workload flight recorder (fragalign.obs.journal): opt-in via a
    # journal path; sequences stay out of the journal unless opted in.
    journal: str | None = _option(
        None,
        "flight recorder: append sanitized request records here (JSON "
        "lines, segment-rotated; replay with 'fragalign replay')",
        metavar="PATH",
    )
    journal_sequences: bool = _option(
        False,
        "journal raw sequences too (default records only lengths + "
        "content hashes)",
        action="store_true",
    )

    @classmethod
    def from_flags(cls, args: argparse.Namespace, exclude=()) -> "ServiceConfig":
        """The config a parser built by :func:`add_flags` parsed
        (``exclude``: the fields it left out, which keep their
        defaults)."""
        values = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in exclude}
        values["slo"] = tuple(values.get("slo") or ())
        return cls(**values)

    def argv(self) -> list[str]:
        """The ``serve`` flags that reproduce this config; options left
        at their defaults are omitted."""
        argv: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            flag = "--" + f.name.replace("_", "-")
            if isinstance(f.default, bool):
                argv += [flag] if value else []
            elif f.metadata.get("action") == "append":
                for item in value:
                    argv += [flag, str(item)]
            else:
                argv += [flag, str(value)]
        return argv


def add_flags(parser: argparse.ArgumentParser, exclude=()) -> None:
    """Declare one flag per :class:`ServiceConfig` field on ``parser``,
    except the fields named in ``exclude``."""
    for f in fields(ServiceConfig):
        if f.name in exclude:
            continue
        if f.name in KNOBS:
            flag = knob_flag(f.name)
            flag["help"] += "; the default for every request"
        else:
            flag = dict(f.metadata)
            if "action" not in flag and f.default is not None:
                flag.setdefault("type", type(f.default))
        # An append flag starts from None: argparse cannot append to a tuple.
        default = None if flag.get("action") == "append" else f.default
        parser.add_argument("--" + f.name.replace("_", "-"), default=default, **flag)
