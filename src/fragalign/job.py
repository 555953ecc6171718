"""The canonical job description: one validated :class:`JobSpec` per request.

Six knobs select what the alignment engine computes and how: ``mode``,
``band``, ``gap_open``/``gap_extend``, ``memory`` and ``backend``.
Each edge builds one frozen :class:`JobSpec`, which validates itself
once: the wire parser and keyset loading from a request object
(:meth:`JobSpec.from_fields`), the engine's and the router's verbs
from their ``**knobs`` keywords (:meth:`JobSpec.of`), and the CLI from
its generated flags.  No verb restates the knobs, so a knob registered
here reaches every verb.  The spec, not loose keyword arguments, then
travels server → batcher → engine facade → backends.  Bad input is
refused here with :class:`~fragalign.util.errors.InvalidArgument`,
never coerced, and a request object carrying a field nobody registered
is refused by :func:`check_fields`, never dropped.

A spec built at an edge may leave knobs unset (``None``).  The tier
that owns the defaults fills them in with :meth:`JobSpec.resolve`,
which also refuses what only the resolved values reveal: a band on a
mode that is not banded, banded mode with no band, and
``memory="linear"`` with banded mode or affine gaps.

The registry
------------
``_SPECS`` lists every field a pair request may carry, and where it
participates:

``cache_key``
    Part of a job's one identity, :meth:`JobSpec.cache_key`: fields
    that change the *result*.  ``memory`` and ``backend`` are not.  The
    linear walker returns byte-identical alignments and the backends
    are parity-tested, so one job serves them all.  The result cache
    and the micro-batcher key jobs by it; the routing key
    (:meth:`JobSpec.ring_key`) is built from the same fields, so each
    shard's cache is a disjoint partition of the keyspace.
``group_key``
    Part of the micro-batcher's dispatch-group key: fields that change
    how a batch *executes* (one engine call runs one gap model, band,
    memory strategy and backend).  Not ``mode``: the kernels sweep
    modes together, and a banded job groups apart by its ``band``.
``keyset``
    Carried by warm-keyset entries and journal records.

Fields with any flag on are the *knobs*: exactly the fields of
:class:`JobSpec`, whose three keys are derived from the flags.  The
trace context (``trace_id``/``span_id``) and the deadline
(``deadline_ms``) ride the wire with every flag off.  They annotate a
request but can never split a batch or enter a key.

The static analyzer (rule ``knob-propagation``) reads ``_SPECS`` out of
this file's AST, so it must stay a **pure literal**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Mapping, Sequence

from fragalign.util.errors import InvalidArgument

__all__ = [
    "DEFAULTS",
    "FIELDS",
    "JobSpec",
    "KEYSET_FIELDS",
    "KNOBS",
    "MEMORY_MODES",
    "MODES",
    "PAIR_OPS",
    "check_affine_gaps",
    "check_fields",
    "linear_memory_conflict",
    "mode_label",
    "pair_job",
    "ring_key",
]

MODES = ("global", "local", "overlap", "banded")
MEMORY_MODES = ("auto", "tensor", "linear")
PAIR_OPS = ("score", "align")

# Pure literal — parsed out of the AST by fragalign.analysis.
_SPECS = (
    {
        "name": "mode",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": True,
        "group_key": False,  # the kernels sweep mixed modes in one batch
        "keyset": True,
        "doc": "alignment mode: global, local, overlap or banded",
    },
    {
        "name": "band",
        "kind": "int",
        "ops": ("score", "align"),
        "cache_key": True,
        "group_key": True,
        "keyset": True,
        "doc": "banded-mode half-width (>= abs(len(a) - len(b)))",
    },
    {
        "name": "gap_open",
        "kind": "float",
        "ops": ("score", "align"),
        "cache_key": True,
        "group_key": True,
        "keyset": True,
        "doc": "affine (Gotoh) gap-open cost; needs --gap-extend",
    },
    {
        "name": "gap_extend",
        "kind": "float",
        "ops": ("score", "align"),
        "cache_key": True,
        "group_key": True,
        "keyset": True,
        "doc": "affine (Gotoh) gap-extend cost; needs --gap-open",
    },
    {
        "name": "memory",
        "kind": "str",
        "ops": ("align",),
        "cache_key": False,  # byte-identical results: jobs are shared
        "group_key": True,  # but one engine batch runs one strategy
        "keyset": True,
        "doc": "align traceback strategy: auto, tensor or linear",
    },
    {
        "name": "backend",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": False,  # backends are parity-tested: jobs are shared
        "group_key": True,  # but one engine batch runs on one backend
        "keyset": True,
        "doc": "engine backend: numpy, native or naive",
    },
    # Non-semantic wire fields: every flag off, so tracing and deadlines
    # can never split a batch, enter a cache or routing key, or appear
    # in a keyset.  They change whether and how fast a request is
    # answered, never what the answer is.
    {
        "name": "trace_id",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": False,
        "group_key": False,
        "keyset": False,
        "doc": "distributed-trace id (see fragalign.obs)",
    },
    {
        "name": "span_id",
        "kind": "str",
        "ops": ("score", "align"),
        "cache_key": False,
        "group_key": False,
        "keyset": False,
        "doc": "caller's span id: the server span's parent",
    },
    {
        "name": "deadline_ms",
        "kind": "float",
        "ops": ("score", "align"),
        "cache_key": False,
        "group_key": False,
        "keyset": False,
        "doc": "remaining end-to-end budget in ms (see fragalign.resilience)",
    },
)

FIELDS: dict[str, dict] = {spec["name"]: spec for spec in _SPECS}
KNOBS: tuple[str, ...] = tuple(
    name
    for name, spec in FIELDS.items()
    if spec["cache_key"] or spec["group_key"] or spec["keyset"]
)


def _flagged(flag: str) -> tuple[str, ...]:
    return tuple(name for name in KNOBS if FIELDS[name][flag])


KEYSET_FIELDS = _flagged("keyset")
# Every key a request object may carry: the structure plus the registry.
_ALLOWED = frozenset(("id", "op", "a", "b", *FIELDS))
_CACHE_VALUES = attrgetter(*_flagged("cache_key"))
_GROUP_VALUES = attrgetter(*_flagged("group_key"))
# Knobs a request for each pair op may not carry (memory on score).
_NOT_FOR = {op: tuple(n for n in KNOBS if op not in FIELDS[n]["ops"]) for op in PAIR_OPS}
_SEP = "\x1f"  # unit separator: cannot appear in sequences or mode names


def check_fields(obj: Mapping, error: type[InvalidArgument] = InvalidArgument) -> None:
    """Refuse a request object — a wire line, a keyset line or a
    router ``request_many`` entry — that carries a field nobody
    registered: a misspelled knob is refused, never dropped."""
    if not _ALLOWED.issuperset(obj):
        unknown = sorted(obj.keys() - _ALLOWED)
        raise error(f"unknown request field {unknown[0]!r}")


def pair_job(obj: Mapping) -> tuple[str, str, str, "JobSpec"]:
    """The ``(op, a, b, spec)`` a pair request object — a keyset line or
    a router ``request_many`` entry — asks for, refused with
    :class:`InvalidArgument` where the wire refuses it: an unregistered
    field, an op that is no pair op, ``a`` or ``b`` not a string."""
    check_fields(obj)
    op, a, b = obj.get("op"), obj.get("a"), obj.get("b")
    spec = JobSpec.from_fields(obj, op)
    if not isinstance(a, str) or not isinstance(b, str):
        raise InvalidArgument(f"op {op!r} needs string fields 'a' and 'b'")
    return op, a, b, spec


def check_affine_gaps(gap_open, gap_extend) -> tuple[float, float]:
    """Validate an affine gap parameter pair; returns them as floats.

    Both must be set together and be finite, non-positive numbers (the
    local kernels rely on gaps never improving a score, so an optimal
    local alignment always ends in the M state).
    """
    if (gap_open is None) != (gap_extend is None):
        raise InvalidArgument(
            "gap_open and gap_extend must be set together "
            f"(got gap_open={gap_open!r}, gap_extend={gap_extend!r})"
        )
    for name, value in (("gap_open", gap_open), ("gap_extend", gap_extend)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidArgument(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise InvalidArgument(f"{name} must be finite, got {value!r}")
        if value > 0:
            raise InvalidArgument(f"{name} must be <= 0, got {value!r}")
    return float(gap_open), float(gap_extend)


def linear_memory_conflict(mode: str | None, affine: bool) -> str | None:
    """Why ``memory="linear"`` cannot serve this combination, or
    ``None`` when it can."""
    if mode == "banded":
        return "banded mode"  # banded traceback is already O(n·band)
    if affine:
        return "affine gaps"  # the tensor path is the only affine traceback
    return None


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One alignment job's knobs, validated on construction.

    ``None`` means unset: :meth:`resolve` fills it from the defaults of
    the tier that runs the job.  Gap costs are stored as floats, so
    ``-4`` and ``-4.0`` describe the same job.
    """

    mode: str | None = None
    band: int | None = None
    gap_open: float | None = None
    gap_extend: float | None = None
    memory: str | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.mode is not None and self.mode not in MODES:
            raise InvalidArgument(
                f"unknown alignment mode {self.mode!r} (expected one of {MODES})"
            )
        band = self.band
        if band is not None and (isinstance(band, bool) or not isinstance(band, int) or band < 0):
            raise InvalidArgument(f"band must be a non-negative integer, got {band!r}")
        if self.gap_open is not None or self.gap_extend is not None:
            gaps = check_affine_gaps(self.gap_open, self.gap_extend)
            for name, value in zip(("gap_open", "gap_extend"), gaps):
                object.__setattr__(self, name, value)
        if self.memory is not None:
            if self.memory not in MEMORY_MODES:
                raise InvalidArgument(
                    f"unknown memory mode {self.memory!r} (expected one of {MEMORY_MODES})"
                )
            if self.memory == "linear" and (
                conflict := linear_memory_conflict(self.mode, self.gap_open is not None)
            ):
                raise InvalidArgument(f"memory='linear' is not supported with {conflict}")
        if self.backend is not None and not isinstance(self.backend, str):
            raise InvalidArgument(f"backend must be a string, got {self.backend!r}")

    @classmethod
    def of(cls, op: str, **knobs) -> "JobSpec":
        """The spec an ``op`` verb called with ``knobs`` runs: an
        unknown name is a ``TypeError``, as for any keyword."""
        return cls(**knobs)._for(op)

    @classmethod
    def from_fields(cls, obj: Mapping, op: str) -> "JobSpec":
        """The spec a wire request or keyset entry for ``op`` carries."""
        return cls(*map(obj.get, KNOBS))._for(op)

    def _for(self, op: str) -> "JobSpec":
        """This spec, refused if ``op`` is no pair op or the spec sets a
        knob ``op`` does not take (``memory`` on ``score``)."""
        if op not in PAIR_OPS:
            raise InvalidArgument(f"unknown pair op {op!r} (expected one of {PAIR_OPS})")
        for name in _NOT_FOR[op]:
            if getattr(self, name) is not None:
                ops = " and ".join(FIELDS[name]["ops"])
                raise InvalidArgument(f"{name} only applies to {ops} requests")
        return self

    def resolve(self, defaults: "JobSpec", op: str) -> "JobSpec":
        """The job one ``op`` request actually runs: unset knobs taken
        from ``defaults``, then the combination checked.

        ``band`` survives only in banded mode: a request's own band on
        any other mode is refused, a default band is not (it is the
        default for banded requests).  ``memory`` resolves to ``None``
        for ``score``: score verbs always run in O(n + m) memory, so a
        default ``memory="linear"`` never refuses one.
        """
        mode = self.mode or defaults.mode or DEFAULTS.mode
        band = None
        if self.band is not None and mode != "banded":
            raise InvalidArgument(f"band only applies to mode 'banded' (resolved mode is {mode!r})")
        if mode == "banded":
            band = defaults.band if self.band is None else self.band
            if band is None:
                raise InvalidArgument(
                    "mode 'banded' needs a band (request field or configured default)"
                )
        gaps = self if self.gap_open is not None else defaults
        memory = (self.memory or defaults.memory or DEFAULTS.memory) if op == "align" else None
        return JobSpec(
            mode, band, gaps.gap_open, gaps.gap_extend, memory, self.backend or defaults.backend
        )

    def linear_traceback(self, cells: int, auto_cells: int) -> bool:
        """Whether an align job sweeping ``cells`` DP cells at once takes
        the linear-memory walker: always for ``memory="linear"``; for
        ``"auto"`` (or unset) from ``auto_cells`` up, when the walker
        can serve the job."""
        if self.memory == "linear":
            return True
        return (
            self.memory != "tensor"
            and cells >= auto_cells
            and linear_memory_conflict(self.mode, self.gap_open is not None) is None
        )

    def check_pair(self, a: str, b: str) -> None:
        """Refuse a banded job whose band cannot connect this pair's corners."""
        if self.mode == "banded" and self.band < abs(len(a) - len(b)):
            raise InvalidArgument(f"band {self.band} too narrow for lengths {len(a)}/{len(b)}")

    def wire(self) -> dict:
        """The set knobs as wire/keyset fields (unset ones omitted)."""
        return {name: value for name in KNOBS if (value := getattr(self, name)) is not None}

    # -- keys: derived from the registry flags, nowhere else -----------

    def _normalized(self) -> "JobSpec":
        """Unset mode keys as the default mode; band only exists in
        banded mode."""
        mode = self.mode or DEFAULTS.mode
        if mode == self.mode and (self.band is None or mode == "banded"):
            return self
        return replace(self, mode=mode, band=self.band if mode == "banded" else None)

    def cache_key(self, op: str, a: str, b: str, model_fp: str) -> tuple:
        """Result-cache key: op, pair, the ``cache_key`` knobs, model."""
        return (op, a, b, *_CACHE_VALUES(self._normalized()), model_fp)

    def ring_key(self, op: str, a: str, b: str, model_fp: str = "") -> str:
        """Routing-key string: the cache key's fields, so routing and
        per-shard caching always agree."""
        knobs = map(str, _CACHE_VALUES(self._normalized()))
        return _SEP.join((op, *knobs, model_fp, a, b))

    def group_key(self, op: str) -> tuple:
        """Dispatch-group key: jobs sharing it run as one engine batch."""
        return (op, *_GROUP_VALUES(self._normalized()))


def mode_label(specs: Sequence[JobSpec]) -> str | None:
    """The mode a batch of specs shares, or ``"mixed"``: the mode label
    of one kernel dispatch in metrics and trace spans."""
    mode = specs[0].mode
    return mode if all(spec.mode == mode for spec in specs) else "mixed"


assert tuple(f.name for f in fields(JobSpec)) == KNOBS, "JobSpec fields must be the registered knobs"

#: The registry defaults: what an unconfigured engine or server runs.
DEFAULTS = JobSpec(mode="global", memory="auto", backend="numpy")


def ring_key(
    op: str,
    a: str,
    b: str,
    mode: str | None = None,
    band: int | None = None,
    model_fp: str = "",
    default_mode: str = "global",
    gap_open: float | None = None,
    gap_extend: float | None = None,
) -> str:
    """Canonical routing-key string for one request (``mode=None``
    routes as ``default_mode``); see :meth:`JobSpec.ring_key`."""
    return JobSpec(mode or default_mode, band, gap_open, gap_extend).ring_key(
        op, a, b, model_fp
    )
