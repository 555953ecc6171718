"""The metrics registry: counters, gauges, log-bucket histograms.

One :class:`MetricsRegistry` per server process holds every
instrument; the ``metrics`` request op renders it in the Prometheus
text exposition format, and ``fragalign metrics`` scrapes and
aggregates those expositions across a whole cluster.

Design constraints, in order:

* **O(1) memory under unbounded traffic.**  Histograms are
  fixed-bucket — log-spaced bounds chosen once at construction — so a
  histogram is an int array plus a running sum, never a sample
  reservoir.  That is what fixes the recency bias of the old
  sorted-deque quantile estimator in ``service/stats.py``: every
  observation since boot contributes to the quantile, not just the
  newest 4096.
* **Mergeable across shards.**  Counters add; histogram bucket counts
  add bucket-by-bucket (all shards share the same fixed bounds), so
  cluster-level quantiles are computable from summed expositions —
  :func:`parse_exposition` + :func:`merge_expositions` implement the
  scrape side.
* **Thread-safe.**  The batcher's worker thread records kernel
  timings while the event loop records request latencies; every
  instrument mutation holds a lock for O(1) work only.

Quantiles are estimated from the cumulative bucket counts with linear
interpolation inside the owning bucket, so the estimate is exact to
within one bucket width (the standing acceptance bound the tests pin).
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_buckets",
    "render_exposition",
    "parse_exposition",
    "merge_expositions",
    "histogram_quantile_from_samples",
    "exemplar_for_quantile",
]


def default_latency_buckets(
    lo: float = 1e-5, hi: float = 30.0, per_decade: int = 8
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` to at least ``hi``.

    ``per_decade=8`` gives a bucket-width ratio of ``10**(1/8) ≈ 1.33``
    — quantile estimates are exact to within that factor, which is the
    "within one bucket width" bound the stats surface promises.
    """
    n = math.ceil(per_decade * math.log10(hi / lo)) + 1
    bounds = tuple(round(lo * 10 ** (k / per_decade), 12) for k in range(n))
    return bounds


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_float(x: float) -> str:
    # NaN and the infinities first: int(nan)/int(inf) raise, so the
    # integer shortcut below must never see them (a NaN gauge — e.g. a
    # ratio with a zero denominator — must render, not crash the scrape).
    if math.isnan(x):
        return "NaN"
    if x == math.inf:
        return "+Inf"
    if x == -math.inf:
        return "-Inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _fmt_exemplar(ex: tuple[str, float, float] | None) -> str:
    """OpenMetrics-style exemplar suffix for a bucket sample line:
    `` # {trace_id="..."} value timestamp`` (empty when absent)."""
    if ex is None:
        return ""
    trace_id, value, ts = ex
    return f' # {{trace_id="{_escape(trace_id)}"}} {repr(float(value))} {repr(float(ts))}'


class _Instrument:
    """Shared child bookkeeping for labeled instruments."""

    kind = "?"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = label_names
        self._lock = threading.Lock()
        # Validated, sorted child keys by the call's own label items: a
        # hot-path inc/set validates and sorts each label set only once.
        self._keys: dict[tuple, tuple[tuple[str, str], ...]] = {}

    def _key_for(self, labels: dict) -> tuple[tuple[str, str], ...]:
        items = tuple(labels.items())
        key = self._keys.get(items)
        if key is None:
            if set(labels) != set(self.label_names):
                raise ValueError(
                    f"{self.name} expects labels {self.label_names}, got {tuple(labels)}"
                )
            key = self._keys[items] = _label_key(labels)
        return key


class Counter(_Instrument):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key_for(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key_for(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def values(self) -> dict[tuple[tuple[str, str], ...], float]:
        with self._lock:
            return dict(self._values)

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(f"{self.name}{_fmt_labels(key)} {_fmt_float(value)}")
        return lines


class Gauge(_Instrument):
    """A value that can go up and down (open connections, high-water marks)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels) -> None:
        key = self._key_for(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, delta: float, **labels) -> None:
        key = self._key_for(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + delta

    def set_max(self, value: float, **labels) -> None:
        """Keep the maximum ever set (batch-size high-water marks)."""
        key = self._key_for(labels)
        with self._lock:
            self._values[key] = max(self._values.get(key, float(value)), float(value))

    def value(self, **labels) -> float:
        key = self._key_for(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(f"{self.name}{_fmt_labels(key)} {_fmt_float(value)}")
        return lines


class Histogram(_Instrument):
    """Fixed-bucket histogram with log-spaced bounds and quantile estimation.

    ``observe`` is O(log #buckets) (bisect) and allocation-free;
    memory is one int array regardless of traffic volume.  Quantiles
    interpolate linearly inside the owning bucket, so the estimate is
    within one bucket width of the true order statistic.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, ())
        bounds = tuple(buckets) if buckets is not None else default_latency_buckets()
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be sorted and distinct")
        self.bounds = bounds  # upper bounds; +Inf bucket is implicit
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        # Last exemplar per bucket index: (label_value, value, wall_ts).
        # One slot per bucket keeps memory O(#buckets) under any load.
        self._exemplars: dict[int, tuple[str, float, float]] = {}

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation.

        ``exemplar`` (optional) attaches an identifying string — by
        convention a retained ``trace_id`` — to the bucket this value
        lands in, rendered OpenMetrics-style on the bucket's exposition
        line so a scrape can jump from a quantile to the exact trace.
        """
        lo = bisect_left(self.bounds, value)  # first bound >= value
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[lo] = (exemplar, value, time.time())

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def counts(self) -> list[int]:
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) from the buckets.

        Linear interpolation between the owning bucket's bounds; the
        overflow bucket reports its lower bound (the largest finite
        bound) — an under-estimate, but a bounded one, and the signal
        "off the top of the histogram" is visible in the bucket counts.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        # Nearest-rank on the cumulative counts, like the legacy
        # estimator: rank r = round(q * (N - 1)) + 1 observations.
        rank = min(total, max(1, round(q * (total - 1)) + 1))
        cum = 0
        for k, c in enumerate(counts):
            if c == 0:
                continue
            if cum + c >= rank:
                if k == len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                lo = self.bounds[k - 1] if k > 0 else 0.0
                hi = self.bounds[k]
                frac = (rank - cum) / c
                return lo + (hi - lo) * frac
            cum += c
        return self.bounds[-1]  # pragma: no cover - unreachable

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
            exemplars = dict(self._exemplars)
        cum = 0
        for k, (bound, c) in enumerate(zip(self.bounds, counts)):
            cum += c
            lines.append(
                f'{self.name}_bucket{{le="{_fmt_float(bound)}"}} {cum}'
                f"{_fmt_exemplar(exemplars.get(k))}"
            )
        lines.append(
            f'{self.name}_bucket{{le="+Inf"}} {total}'
            f"{_fmt_exemplar(exemplars.get(len(self.bounds)))}"
        )
        lines.append(f"{self.name}_sum {repr(float(total_sum))}")
        lines.append(f"{self.name}_count {total}")
        return lines


class MetricsRegistry:
    """Create-or-get instruments by name; render the whole set.

    ``counter``/``gauge``/``histogram`` are idempotent per name (the
    same name returns the same instrument), so feeder code can call
    them without threading instrument handles around.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_make(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_make(Counter, name, help, label_names=labels)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_make(Gauge, name, help, label_names=labels)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._get_or_make(Histogram, name, help, buckets=buckets)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def render(self) -> str:
        return render_exposition(self.instruments())


def render_exposition(instruments: Iterable[_Instrument]) -> str:
    """The Prometheus text exposition (0.0.4) for a set of instruments."""
    lines: list[str] = []
    for instrument in instruments:
        lines.extend(instrument.render())
    return "\n".join(lines) + "\n" if lines else ""


# -- scrape side: parse + merge expositions ---------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _parse_exemplar(text: str) -> tuple[str, float, float] | None:
    """Parse an OpenMetrics exemplar suffix (``{trace_id="..."} value
    [timestamp]``) back into the render-side tuple; None if malformed."""
    body, brace, rest = text.partition("}")
    if not brace or not body.startswith("{"):
        return None
    labels = dict(_LABEL_PAIR_RE.findall(body[1:]))
    trace_id = labels.get("trace_id")
    parts = rest.split()
    if trace_id is None or not parts:
        return None
    try:
        value = _parse_value(parts[0])
        ts = _parse_value(parts[1]) if len(parts) > 1 else 0.0
    except ValueError:
        return None
    return (trace_id, value, ts)


def parse_exposition(text: str) -> dict:
    """Parse Prometheus text into ``{"types": {name: type},
    "help": {name: str}, "samples": {(name, labelkey): value},
    "exemplars": {(name, labelkey): (trace_id, value, ts)}}``.

    Strict enough for round-tripping our own output and validating CI
    scrapes: unknown lines raise.  Bucket lines may carry an
    OpenMetrics-style exemplar suffix (`` # {trace_id="..."} v ts``);
    it is split off and returned under ``"exemplars"``.
    """
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    exemplars: dict[tuple[str, tuple[tuple[str, str], ...]], tuple] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("#"):
            continue
        exemplar = None
        if " # {" in line:
            line, _, exemplar_text = line.partition(" # ")
            exemplar = _parse_exemplar(exemplar_text)
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a metric sample: {line!r}")
        labels = tuple(
            sorted(
                (k, v.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\"))
                for k, v in _LABEL_PAIR_RE.findall(match.group("labels") or "")
            )
        )
        key = (match.group("name"), labels)
        samples[key] = _parse_value(match.group("value"))
        if exemplar is not None:
            exemplars[key] = exemplar
    return {"types": types, "help": helps, "samples": samples, "exemplars": exemplars}


def _base_name(sample_name: str, types: dict[str, str]) -> str | None:
    """The owning histogram's name for a _bucket/_sum/_count sample."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def merge_expositions(texts: Sequence[str]) -> str:
    """Sum a set of expositions sample-by-sample into one.

    Counters, histogram buckets/sums/counts and gauges all add — for
    gauges this means "cluster total" semantics (open connections
    across shards), which is what the aggregate scrape wants.  All
    shards run the same code, so identical histogram bucket layouts
    are a given (and violations just produce extra bucket samples that
    stay visible rather than silently merging).

    A metric registered with *different types* across shards raises
    :class:`ValueError` — summing a counter into a gauge (or histogram
    buckets into either) silently fabricates numbers, and a cluster
    scrape must fail loudly rather than report them.

    Bucket exemplars survive the merge: per bucket, the newest exemplar
    (largest timestamp) across the inputs is kept.
    """
    merged: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    exemplars: dict[tuple[str, tuple[tuple[str, str], ...]], tuple] = {}
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    for text in texts:
        parsed = parse_exposition(text)
        for name, kind in parsed["types"].items():
            known = types.get(name)
            if known is not None and known != kind:
                raise ValueError(
                    f"metric type conflict for {name!r}: "
                    f"{known} vs {kind} across merged expositions"
                )
            types[name] = kind
        helps.update(parsed["help"])
        for key, value in parsed["samples"].items():
            merged[key] = merged.get(key, 0.0) + value
        for key, ex in parsed["exemplars"].items():
            kept = exemplars.get(key)
            if kept is None or ex[2] >= kept[2]:
                exemplars[key] = ex
    # Re-render grouped by family, families sorted by name.
    by_family: dict[str, list[tuple[str, tuple[tuple[str, str], ...], float]]] = {}
    for (name, labels), value in merged.items():
        family = _base_name(name, types) or name
        by_family.setdefault(family, []).append((name, labels, value))
    lines: list[str] = []
    for family in sorted(by_family):
        kind = types.get(family)
        if kind:
            lines.append(f"# HELP {family} {helps.get(family, '')}")
            lines.append(f"# TYPE {family} {kind}")

        def sample_order(item):
            name, labels, _ = item
            # _sum/_count after every _bucket; buckets by le value.
            rank = 0 if name.endswith("_bucket") else 1 if name.endswith("_sum") else 2
            le = dict(labels).get("le")
            return (rank, _parse_value(le) if le is not None else 0.0, name, labels)

        for name, labels, value in sorted(by_family[family], key=sample_order):
            lines.append(
                f"{name}{_fmt_labels(labels)} {_fmt_float(value)}"
                f"{_fmt_exemplar(exemplars.get((name, labels)))}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def histogram_quantile_from_samples(
    samples: dict, name: str, q: float
) -> float:
    """Quantile of a (possibly merged) exposition's histogram ``name``.

    Mirrors :meth:`Histogram.quantile` so scrape-side quantiles agree
    with server-side ones given the same bucket counts.
    """
    buckets: list[tuple[float, float]] = []
    for (sample_name, labels), value in samples.items():
        if sample_name == f"{name}_bucket":
            le = dict(labels).get("le")
            if le is not None:
                buckets.append((_parse_value(le), value))
    if not buckets:
        raise ValueError(f"no histogram buckets for {name!r}")
    buckets.sort()
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    rank = min(total, max(1, round(q * (total - 1)) + 1))
    prev_bound, prev_cum = 0.0, 0.0
    for bound, cum in buckets:
        if cum >= rank:
            in_bucket = cum - prev_cum
            if math.isinf(bound):
                return prev_bound
            frac = (rank - prev_cum) / in_bucket if in_bucket else 1.0
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_cum = (0.0 if math.isinf(bound) else bound), cum
    return prev_bound


def exemplar_for_quantile(parsed: dict, name: str, q: float) -> dict | None:
    """The exemplar nearest the q-quantile of histogram ``name`` in a
    parsed (possibly merged) exposition.

    Finds the bucket owning the quantile, then walks outward (upward
    first — a p99 investigation wants the slower neighbour) until a
    bucket with an exemplar is found.  Returns ``{"trace_id", "value",
    "ts", "le"}`` or ``None`` when the histogram carries no exemplars.
    """
    samples, exemplars = parsed["samples"], parsed.get("exemplars", {})
    by_le: dict[float, tuple] = {}
    bounds: list[float] = []
    for (sample_name, labels), _value in samples.items():
        if sample_name != f"{name}_bucket":
            continue
        le = dict(labels).get("le")
        if le is None:
            continue
        bound = _parse_value(le)
        bounds.append(bound)
        ex = exemplars.get((sample_name, labels))
        if ex is not None:
            by_le[bound] = ex
    if not bounds or not by_le:
        return None
    bounds.sort()
    target = histogram_quantile_from_samples(samples, name, q)
    owner = next((i for i, b in enumerate(bounds) if target <= b), len(bounds) - 1)
    order = list(range(owner, len(bounds))) + list(range(owner - 1, -1, -1))
    for i in order:
        ex = by_le.get(bounds[i])
        if ex is not None:
            trace_id, value, ts = ex
            return {"trace_id": trace_id, "value": value, "ts": ts, "le": bounds[i]}
    return None  # pragma: no cover - by_le non-empty makes this unreachable
