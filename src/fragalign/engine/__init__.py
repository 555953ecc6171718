"""fragalign.engine — the batched, vectorized alignment engine.

A backend registry (``naive`` pure-Python, ``numpy`` vectorized,
``native`` bit-parallel/striped-SIMD score kernels) behind a single
:class:`AlignmentEngine` facade with ``align(a, b)`` /
``align_many(pairs)`` single and batch APIs plus memoized
scoring-matrix and sequence preparation.  An engine runs on the
calling thread; multi-core alignment comes from running several
engines, one per ``cluster serve`` shard process.

Quick use::

    from fragalign.engine import AlignmentEngine

    eng = AlignmentEngine(backend="numpy")          # or "naive"/"native"
    scores = eng.score_many([(a1, b1), (a2, b2)])   # batched row sweeps

Adding a backend::

    from fragalign.engine import AlignmentBackend, register_backend

    class MyBackend(AlignmentBackend):
        name = "mine"
        def score(self, p, model, spec): ...   # spec: a resolved JobSpec
        def align(self, p, model, spec): ...
        # override score_many(batch, model, specs) / align_many when
        # you can beat a loop (specs: each pair's own, agreeing on every
        # knob but mode); override accelerates(op, model, spec) to
        # cover only some knob combinations (the rest run on numpy)

    register_backend("mine", MyBackend)
    AlignmentEngine(backend="mine")
    AlignmentEngine(backend=MyBackend(...))  # a configured instance

All backends must agree on scores (and, for integer-valued models, on
tracebacks) — the parity suite in ``tests/test_engine.py`` enforces
this for the built-ins and is the template for testing new ones.
"""

from fragalign.engine.backends import (
    LINEAR_AUTO_CELLS,
    AlignmentBackend,
    NaiveBackend,
    NumpyBackend,
    PreparedPair,
)
from fragalign.engine.facade import AlignmentEngine, default_model
from fragalign.engine.native import NativeBackend
from fragalign.engine.registry import (
    available_backends,
    get_backend,
    register_backend,
)
from fragalign.job import MEMORY_MODES, MODES, JobSpec

register_backend("naive", NaiveBackend, overwrite=True)
register_backend("numpy", NumpyBackend, overwrite=True)
register_backend("native", NativeBackend, overwrite=True)

__all__ = [
    "LINEAR_AUTO_CELLS",
    "MEMORY_MODES",
    "MODES",
    "AlignmentEngine",
    "AlignmentBackend",
    "NaiveBackend",
    "NativeBackend",
    "NumpyBackend",
    "JobSpec",
    "PreparedPair",
    "available_backends",
    "default_model",
    "get_backend",
    "register_backend",
]
