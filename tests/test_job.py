"""JobSpec: the one validated job description every layer passes on.

Standing invariants:

* a bad knob is refused once, at the edge, never coerced and never
  dropped — and the engine, one ``serve`` and a ``ShardRouter`` give
  the *same* refusal: an ``InvalidArgument`` with the same message
  (wire code ``INVALID_ARGUMENT``), which the router never retries;
* the server never writes a non-JSON number: non-finite gaps are
  refused before any kernel runs;
* the pair verbs of the engine, the router and the clients take the
  knobs as keywords only: a knob passed by position is a ``TypeError``,
  and a knob the op does not take is refused as on the wire.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

import pytest

from fragalign.cluster import ClusterClient, ShardRouter, generate_keyset
from fragalign.engine import AlignmentEngine
from fragalign.job import JobSpec
from fragalign.service import (
    AlignmentClient,
    AlignmentService,
    AsyncAlignmentClient,
    InvalidArgumentError,
    ServiceConfig,
    ServiceError,
)
from fragalign.service.protocol import (
    MAX_LINE,
    ProtocolError,
    encode_line,
    parse_request,
    service_error_from,
)
from fragalign.util.errors import InvalidArgument, NonRetryableError

NAN = float("nan")


class TestJobSpec:
    def test_validates_once_and_normalizes_gaps(self):
        spec = JobSpec("global", None, -4, -1)
        assert (spec.gap_open, spec.gap_extend) == (-4.0, -1.0)
        assert spec == JobSpec("global", None, -4.0, -1.0)
        with pytest.raises(InvalidArgument, match="together"):
            JobSpec(gap_open=-1.0)
        with pytest.raises(InvalidArgument, match="band must be"):
            JobSpec("banded", True)
        with pytest.raises(InvalidArgument, match="memory mode"):
            JobSpec(memory="fast")
        with pytest.raises(InvalidArgument, match="backend must be"):
            JobSpec(backend=3)

    def test_resolve_fills_defaults_and_checks_the_combination(self):
        defaults = JobSpec("global", 6, None, None, "linear", "numpy")
        assert JobSpec().resolve(defaults, "align") == JobSpec(
            "global", None, None, None, "linear", "numpy"
        )
        # score verbs run in O(n + m) memory: a linear default never
        # refuses them, and their memory resolves to unset.
        assert JobSpec("banded").resolve(defaults, "score") == JobSpec(
            "banded", 6, None, None, None, "numpy"
        )
        with pytest.raises(InvalidArgument, match="banded mode"):
            JobSpec("banded").resolve(defaults, "align")
        with pytest.raises(InvalidArgument, match="needs a band"):
            JobSpec("banded").resolve(JobSpec("global"), "score")
        assert JobSpec(gap_open=-2, gap_extend=-1).resolve(defaults, "score").gap_open == -2.0
        # A request's own band needs banded mode.  A default band does
        # not: it is the default for banded requests only.
        with pytest.raises(InvalidArgument, match="band only applies to mode 'banded'"):
            JobSpec(band=2).resolve(defaults, "score")
        with AlignmentEngine(band=8) as eng:
            assert eng.score("ACGT", "ACGT") == 4.0
            assert eng.score("ACGT", "ACGT", mode="banded") == 4.0

    def test_pair_checks_and_wire_round_trip(self):
        with pytest.raises(InvalidArgument, match="too narrow"):
            JobSpec("banded", 1).check_pair("ACGT", "A")
        with pytest.raises(InvalidArgument, match="memory only applies to align"):
            JobSpec.from_fields({"memory": "tensor"}, "score")
        spec = JobSpec("banded", 4, -3.0, -1.0, "tensor", "native")
        assert JobSpec.from_fields(spec.wire(), "align") == spec
        assert JobSpec().wire() == {}


class TestNonFiniteGaps:
    def test_engine_refuses(self):
        eng = AlignmentEngine()
        for bad in (NAN, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                eng.score("ACGT", "AGGT", gap_open=bad, gap_extend=-1.0)
            with pytest.raises(ValueError, match="finite"):
                AlignmentEngine(gap_open=-1.0, gap_extend=bad)

    def test_parse_request_refuses(self):
        for bad in (NAN, -math.inf):
            with pytest.raises(ProtocolError, match="finite"):
                parse_request(
                    {"op": "score", "a": "AC", "b": "GT", "gap_open": bad, "gap_extend": -1}
                )


class TestEdgeRefusals:
    def test_unknown_request_field_is_refused_by_name(self):
        with pytest.raises(ProtocolError, match="unknown request field 'mdoe'"):
            parse_request({"op": "score", "a": "AC", "b": "GT", "mdoe": "local"})
        with pytest.raises(ProtocolError, match="'verbose'"):
            parse_request({"op": "ping", "verbose": True})
        assert parse_request(
            {"op": "score", "a": "AC", "b": "GT", "mode": "local", "trace_id": "t"}
        ).spec == JobSpec("local")

    def test_request_ids_must_echo_as_json(self):
        for good in ("a", 7, -2.5, None, 10**30):
            assert parse_request({"id": good, "op": "ping"}).id == good
        for bad in (NAN, math.inf, [1], {"k": 1}, True):
            with pytest.raises(ProtocolError, match="id must be a string"):
                parse_request({"id": bad, "op": "ping"})

    def test_invalid_argument_is_a_typed_non_retryable_error(self):
        exc = service_error_from(
            {"id": 1, "ok": False, "error": "bad knob", "code": "INVALID_ARGUMENT"}
        )
        assert type(exc) is InvalidArgumentError
        assert isinstance(exc, ServiceError) and isinstance(exc, NonRetryableError)
        assert isinstance(exc, InvalidArgument) and exc.code == "INVALID_ARGUMENT"


def _serve_in_thread(config: ServiceConfig) -> tuple[int, callable]:
    holder: dict = {}
    ready = threading.Event()

    def target():
        async def main():
            service = AlignmentService(config)
            await service.start()
            holder.update(service=service, loop=asyncio.get_running_loop())
            ready.set()
            await service.wait_closed()
            service.close()

        asyncio.run(main())

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert ready.wait(10), "service failed to start"

    def stop():
        try:
            holder["loop"].call_soon_threadsafe(holder["service"].stop)
        except RuntimeError:
            pass  # loop already closed
        thread.join(timeout=10)

    return holder["service"].port, stop


@pytest.fixture(scope="module")
def two_shards():
    shards = [
        _serve_in_thread(ServiceConfig(port=0, max_batch=8, cache_size=64))
        for _ in range(2)
    ]
    yield [port for port, _ in shards]
    for _, stop in shards:
        stop()


_MODES = "('global', 'local', 'overlap', 'banded')"
REFUSALS = {
    "nan-gap": ({"gap_open": NAN, "gap_extend": -1.0}, "gap_open must be finite, got nan"),
    "positive-gap": ({"gap_open": 2.0, "gap_extend": -1.0}, "gap_open must be <= 0, got 2.0"),
    "banded-no-band": (
        {"mode": "banded"},
        "mode 'banded' needs a band (request field or configured default)",
    ),
    "linear-memory-affine": (
        {"memory": "linear", "gap_open": -3.0, "gap_extend": -1.0},
        "memory='linear' is not supported with affine gaps",
    ),
    "unknown-mode": (
        {"mode": "diagonal"},
        f"unknown alignment mode 'diagonal' (expected one of {_MODES})",
    ),
    "unregistered-backend": (
        {"backend": "parallel"},
        "unknown backend 'parallel' (registered: naive, native, numpy)",
    ),
    "band-not-banded": (
        {"band": 2},
        "band only applies to mode 'banded' (resolved mode is 'global')",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_same_refusal_from_engine_serve_and_router(two_shards, case):
    knobs, message = REFUSALS[case]
    a, b = "ACGTACGT", "ACGTTCGT"
    with AlignmentEngine() as eng, pytest.raises(InvalidArgument) as at_engine:
        eng.align(a, b, **knobs)

    async def over_the_wire():
        client = await AsyncAlignmentClient.connect(port=two_shards[0])
        try:
            with pytest.raises(InvalidArgumentError) as at_serve:
                await client.request("align", a, b, **knobs)
            assert await client.ping()  # the connection survives the refusal
        finally:
            await client.close()
        async with ShardRouter([("127.0.0.1", p) for p in two_shards]) as router:
            with pytest.raises(InvalidArgument) as at_router:
                await router.align(a, b, **knobs)
            return at_serve.value, at_router.value, router.router_stats()

    at_serve, at_router, stats = asyncio.run(over_the_wire())
    assert str(at_engine.value) == str(at_serve) == str(at_router) == message
    assert isinstance(at_engine.value, ValueError)
    assert at_serve.code == "INVALID_ARGUMENT"
    # Refused, so never retried on another replica or counted against a shard.
    assert (stats["retries"], stats["evictions"], stats["failed_requests"]) == (0, 0, 0)


def test_refusals_are_strict_json_on_the_wire(two_shards):
    lines = [
        {"id": 1, "op": "score", "a": "ACGT", "b": "AGGT", "gap_open": NAN, "gap_extend": -1.0},
        {"id": 2, "op": "score", "a": "ACGT", "b": "AGGT", "mdoe": "local"},
        # Ids that cannot be echoed as JSON are refused with id null.
        {"id": NAN, "op": "ping"},
        b'{"id": 1e999, "op": "score", "a": "ACGT", "b": "AGGT"}\n',  # parses as inf
        {"id": [3], "op": "ping"},
    ]

    async def send():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", two_shards[0], limit=MAX_LINE
        )
        try:
            writer.write(
                b"".join(obj if isinstance(obj, bytes) else encode_line(obj) for obj in lines)
            )
            await writer.drain()
            return [await asyncio.wait_for(reader.readline(), 10) for _ in lines]
        finally:
            writer.close()

    def no_constants(name):
        raise AssertionError(f"non-JSON constant {name} on the wire")

    responses = sorted(
        (json.loads(line, parse_constant=no_constants) for line in asyncio.run(send())),
        key=lambda r: (r["id"] is None, r["id"] or 0, r["error"]),
    )
    bad_id = "id must be a string, a finite number or null, got "
    assert responses == [
        {"id": 1, "ok": False, "error": "gap_open must be finite, got nan",
         "code": "INVALID_ARGUMENT"},
        {"id": 2, "ok": False, "error": "unknown request field 'mdoe'",
         "code": "INVALID_ARGUMENT"},
        {"id": None, "ok": False, "error": bad_id + "[3]", "code": "INVALID_ARGUMENT"},
        {"id": None, "ok": False, "error": bad_id + "inf", "code": "INVALID_ARGUMENT"},
        {"id": None, "ok": False, "error": bad_id + "nan", "code": "INVALID_ARGUMENT"},
    ]


class TestVerbKeywords:
    A, B = "ACGTACGT", "ACGTTCGT"

    def test_memory_on_a_score_verb_is_refused_at_every_tier(self, two_shards):
        a, b = self.A, self.B
        message = "memory only applies to align requests"
        addresses = [("127.0.0.1", p) for p in two_shards]
        with AlignmentEngine() as eng:
            with pytest.raises(InvalidArgument, match=message):
                eng.score(a, b, memory="linear")
            with pytest.raises(InvalidArgument, match=message):
                eng.score_many([(a, b)], memory="linear")

        async def over_the_wire():
            client = await AsyncAlignmentClient.connect(port=two_shards[0])
            try:
                with pytest.raises(InvalidArgumentError, match=message):
                    await client.score(a, b, memory="linear")
            finally:
                await client.close()
            async with ShardRouter(addresses) as router:
                with pytest.raises(InvalidArgument, match=message):
                    await router.score(a, b, memory="linear")
                with pytest.raises(InvalidArgument, match=message):
                    await router.score_many([(a, b)], memory="linear")
                return router.router_stats()["routed_total"]

        assert asyncio.run(over_the_wire()) == 0  # refused before routing
        with AlignmentClient(port=two_shards[0]) as client:
            with pytest.raises(InvalidArgumentError, match=message):
                client.score(a, b, memory="linear")
            with pytest.raises(InvalidArgumentError, match=message):
                client.score_many([(a, b)], memory="linear")
        with ClusterClient(addresses) as cluster:
            with pytest.raises(InvalidArgument, match=message):
                cluster.score(a, b, memory="linear")

    def test_an_unknown_op_is_refused_by_name(self):
        with pytest.raises(InvalidArgument, match="unknown pair op 'stats'"):
            ShardRouter([("127.0.0.1", 7001)]).shard_for("stats", self.A, self.B)

    def test_a_knob_passed_by_position_is_a_type_error(self, two_shards):
        a, b = self.A, self.B
        with pytest.raises(TypeError):
            AlignmentEngine("numpy", None, "local")
        with AlignmentEngine() as eng, pytest.raises(TypeError):
            eng.score(a, b, "local")
        router = ShardRouter([("127.0.0.1", p) for p in two_shards])
        with pytest.raises(TypeError):
            router.score_many([(a, b)], 4, "global")
        with AlignmentClient(port=two_shards[0]) as client, pytest.raises(TypeError):
            client.score_many([(a, b)], 4, "global")

    def test_a_misspelled_knob_is_refused_by_name(self, two_shards):
        a, b = self.A, self.B
        with pytest.raises(TypeError, match="'mdoe'"):
            AlignmentEngine(mdoe="local")
        with AlignmentEngine() as eng, pytest.raises(TypeError, match="'mdoe'"):
            eng.align(a, b, mdoe="local")
        with pytest.raises(TypeError, match="'mdoe'"):
            generate_keyset(2, mdoe="local")

        async def route():
            async with ShardRouter([("127.0.0.1", p) for p in two_shards]) as router:
                with pytest.raises(TypeError, match="'mdoe'"):
                    router.shard_for("score", a, b, mdoe="local")
                with pytest.raises(TypeError, match="'mdoe'"):
                    await router.score(a, b, mdoe="local")

        asyncio.run(route())
        # A client sends its knobs as wire fields: the server refuses the
        # unknown one by name, as it would from any client.
        with AlignmentClient(port=two_shards[0]) as client:
            with pytest.raises(InvalidArgumentError, match="unknown request field 'mdoe'"):
                client.score(a, b, mdoe="local")
            assert client.ping()
