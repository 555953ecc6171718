"""fragalign.service — the traffic-serving layer over the engine.

An asyncio JSON-lines alignment server whose core is a
**micro-batcher**: concurrent ``score``/``align`` requests are
deduplicated and dispatched, a batch whenever the worker is free, as
single ``score_many``/``align_many`` calls on a configurable
:class:`~fragalign.engine.AlignmentEngine` backend, with results
fanned back out to the awaiting clients.  In front of the batcher sits
a bounded LRU result cache keyed on ``(op, pair, mode, model)``, and a
stats surface (request counters, batch sizes, cache hit rate, p50/p95
latency) served by the ``stats`` request type.

Serve::

    $ fragalign serve --port 8765 --backend numpy --max-batch 64

Call (blocking client)::

    from fragalign.service import AlignmentClient

    with AlignmentClient(port=8765) as client:
        score  = client.score("ACGT", "AGGT")
        scores = client.score_many(pairs, concurrency=64)  # fills batches

or in-process / async::

    from fragalign.service import AlignmentService, ServiceConfig

    service = AlignmentService(ServiceConfig(port=0))
    await service.start()          # service.port is the bound port

Protocol details live in :mod:`fragalign.service.protocol`; the README
"Serving" section has an example session and the knob reference.
"""

import importlib

# Names load on first access (PEP 562), like the package root: the CLI
# builds its parser from ``ServiceConfig`` without importing the engine.
_EXPORTS = {
    "AlignmentClient": "fragalign.service.client",
    "AlignmentService": "fragalign.service.server",
    "AsyncAlignmentClient": "fragalign.service.client",
    "DeadlineExceededError": "fragalign.service.protocol",
    "InvalidArgumentError": "fragalign.service.protocol",
    "LRUCache": "fragalign.util.lru",
    "MicroBatcher": "fragalign.service.batcher",
    "OverloadedError": "fragalign.service.protocol",
    "ProtocolError": "fragalign.service.protocol",
    "Request": "fragalign.service.protocol",
    "ServiceConfig": "fragalign.service.config",
    "ServiceError": "fragalign.service.protocol",
    "ServiceStats": "fragalign.service.stats",
    "alignment_from_dict": "fragalign.service.protocol",
    "alignment_to_dict": "fragalign.service.protocol",
    "model_fingerprint": "fragalign.service.server",
    "run_server": "fragalign.service.server",
    "wait_for_port_file": "fragalign.service.server",
    "write_port_file": "fragalign.service.server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
