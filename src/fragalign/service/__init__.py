"""fragalign.service — the traffic-serving layer over the engine.

An asyncio JSON-lines alignment server whose core is a
**micro-batcher**: concurrent ``score``/``align`` requests are
coalesced over a short window, deduplicated, and dispatched as single
``score_many``/``align_many`` calls on a configurable
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

from fragalign.service.batcher import MicroBatcher
from fragalign.service.client import AlignmentClient, AsyncAlignmentClient
from fragalign.service.protocol import (
    DeadlineExceededError,
    InvalidArgumentError,
    OverloadedError,
    ProtocolError,
    Request,
    ServiceError,
    alignment_from_dict,
    alignment_to_dict,
)
from fragalign.service.server import (
    AlignmentService,
    ServiceConfig,
    model_fingerprint,
    run_server,
    wait_for_port_file,
    write_port_file,
)
from fragalign.service.stats import ServiceStats
from fragalign.util.lru import LRUCache

__all__ = [
    "AlignmentClient",
    "AlignmentService",
    "AsyncAlignmentClient",
    "DeadlineExceededError",
    "InvalidArgumentError",
    "LRUCache",
    "MicroBatcher",
    "OverloadedError",
    "ProtocolError",
    "Request",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "alignment_from_dict",
    "alignment_to_dict",
    "model_fingerprint",
    "run_server",
    "wait_for_port_file",
    "write_port_file",
]
