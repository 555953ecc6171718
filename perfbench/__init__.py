"""fragalign's end-to-end benchmark: client-visible workloads through
real ``fragalign serve`` / ``ClusterSupervisor`` processes, plus a
per-layer ledger from a separate traced run.

Run it from the repository root::

    python3 perfbench/run.py --workload cluster-repeat --seed 1 --seconds 30 --trace 0

See :mod:`perfbench.run` for the command line and the output contract,
:mod:`perfbench.workloads` for the traffic and :mod:`perfbench.ledger`
for every per-layer metric with the end-to-end metric it should move.
"""
