"""fragalign — reproduction of "Aligning Two Fragmented Sequences"
(Veeramachaneni, Berman, Miller; IPPS 2002 / DAM 127:119–143, 2003).

Public API highlights:

* :class:`fragalign.core.CSRInstance` — the consensus sequence
  reconstruction problem (two fragment sets + region score function).
* :func:`fragalign.core.csr_improve` — the paper's (3+ε)-approximation.
* :func:`fragalign.core.baseline4` — the Corollary-1 factor-4 baseline.
* :func:`fragalign.core.exact_csr` — exact oracle for small instances.
* :mod:`fragalign.isp` — interval selection + the two-phase algorithm.
* :mod:`fragalign.align` — alignment DP substrate (serial + batched
  kernels).
* :class:`fragalign.engine.AlignmentEngine` — batched, multi-backend
  alignment execution (``naive`` / ``numpy`` / ``native``).
* :mod:`fragalign.reductions` — the paper's reductions, executable.
* :mod:`fragalign.genome` — two-species contig simulation pipeline.

Subpackages load on first attribute access (PEP 562), so a process
that only serves — ``fragalign serve``, a cluster shard — never pays
for ``core`` and its ``scipy.optimize`` import.
"""

import importlib

__version__ = "1.1.0"

__all__ = [
    "align",
    "core",
    "engine",
    "genome",
    "isp",
    "reductions",
    "util",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
