"""fragalign.cluster — the sharded serving tier above the service.

A consistent-hash front tier that partitions ``score``/``align``
traffic over N :mod:`fragalign.service` instances:

* :mod:`~fragalign.cluster.ring` — the consistent-hash ring (virtual
  nodes; keys mirror the service result-cache key, so routing and
  per-shard caching agree and the N LRU caches stay disjoint);
* :mod:`~fragalign.cluster.router` — :class:`ShardRouter` /
  :class:`ClusterClient`: per-request routing, batch fan-out with
  in-order merge, retry-on-next-replica failover, aggregated stats;
* :mod:`~fragalign.cluster.health` — periodic probes driving ring
  eviction and readmission;
* :mod:`~fragalign.cluster.warm` — keyset files replayed into the
  owning shards to pre-fill their caches;
* :mod:`~fragalign.cluster.supervisor` — spawn/monitor N local server
  processes (tests, CI, ``fragalign cluster serve``).

Quickstart::

    $ fragalign cluster serve --shards 4 --cluster-file /tmp/cluster.json
    $ fragalign client --cluster-file /tmp/cluster.json \\
          --requests 500 --concurrency 64 --verify
    $ fragalign cluster stats --cluster-file /tmp/cluster.json

or in-process::

    from fragalign.cluster import ClusterSupervisor, ClusterClient

    with ClusterSupervisor(shards=4) as sup:
        with ClusterClient(sup.addresses) as cluster:
            scores = cluster.score_many(pairs, concurrency=64)
"""

from fragalign.cluster.health import HealthMonitor, ShardHealth
from fragalign.cluster.ring import HashRing, ring_key
from fragalign.cluster.router import ClusterClient, ClusterError, ShardRouter
from fragalign.cluster.supervisor import (
    ClusterSupervisor,
    ShardProcess,
    read_cluster_file,
)
from fragalign.cluster.warm import (
    dump_keyset,
    generate_keyset,
    load_keyset,
    warm_router,
)

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterSupervisor",
    "HashRing",
    "HealthMonitor",
    "ShardHealth",
    "ShardProcess",
    "ShardRouter",
    "dump_keyset",
    "generate_keyset",
    "load_keyset",
    "read_cluster_file",
    "ring_key",
    "warm_router",
]
