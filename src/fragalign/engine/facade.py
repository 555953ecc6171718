"""The :class:`AlignmentEngine` facade.

One object, four verbs::

    with AlignmentEngine(backend="numpy") as eng:
        aln    = eng.align(a, b)          # full Alignment (traceback)
        s      = eng.score(a, b)          # score only
        alns   = eng.align_many(pairs)    # batch, any shapes
        scores = eng.score_many(pairs)    # batch, any shapes

Every verb takes the job knobs registered in :mod:`fragalign.job` as
keyword overrides — ``mode=``, ``band=``, ``gap_open=``/``gap_extend=``,
``backend=`` and, on the align verbs, ``memory=`` — so one engine
serves all four alignment modes, both gap models and both traceback
strategies::

    eng.score(a, b, mode="local", gap_open=-4, gap_extend=-1)
    eng.align_many(pairs, mode="banded", band=16, memory="tensor")

The verbs build one :class:`~fragalign.job.JobSpec` from their
keywords with :meth:`~fragalign.job.JobSpec.of`, which validates them:
an unknown name is a ``TypeError``, ``memory=`` on a score verb an
:class:`~fragalign.util.errors.InvalidArgument`, as on the wire.  The
spec is resolved against the engine's defaults
(:attr:`AlignmentEngine.defaults`, set by the constructor's same
keywords) and handed to the backend.  The serving tier, which already
holds each job's spec, calls :meth:`AlignmentEngine.run` with one spec
per pair: it resolves and routes each distinct spec once, and pairs
whose specs differ in ``mode`` alone share one backend call.

``backend`` names a registered backend that overrides the engine's
default for that call (instantiated lazily, once, and kept for the
engine's lifetime).  Dispatch is capability-probed: the chosen
backend's :meth:`AlignmentBackend.accelerates` is consulted and the
call falls through to the numpy backend when the combo is not covered
(the ``native`` backend accelerates score verbs only, for flat models
in ``global``/``overlap`` and integer models in ``local``), so a
``backend="native"`` request never errors on an uncovered knob
combination — it just runs on numpy at numpy speed.

The facade owns everything backends shouldn't care about: memoized
sequence encoding (each distinct sequence is encoded once per engine),
the memoized default scoring matrix and knob resolution.  A batch
verb is one backend call, whatever its pairs' shapes.

Setting :attr:`AlignmentEngine.profiler` (any object with the
:class:`fragalign.obs.kprof.KernelProfiler` ``record`` signature)
turns on per-dispatch kernel profiling: every backend call is timed
and reported with its family, backend, resolved mode (``mixed`` when
its pairs differ in mode) and its pairs' shapes.
Left at ``None`` (the default) no timer is read.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from fragalign.align.pairwise import Alignment
from fragalign.align.scoring_matrices import SubstitutionModel, encode, unit_dna
from fragalign.engine.backends import AlignmentBackend, PreparedPair
from fragalign.engine.registry import check_backend, get_backend
from fragalign.job import DEFAULTS, JobSpec, mode_label
from fragalign.util.lru import LRUCache

__all__ = ["AlignmentEngine", "default_model"]


@lru_cache(maxsize=1)
def default_model() -> SubstitutionModel:
    """The engine's default scoring matrix, built (and validated) once."""
    return unit_dna()


class AlignmentEngine:
    """Facade over the backend registry with batch APIs and memoized prep.

    Parameters
    ----------
    backend:
        A registered backend name (``naive``, ``native``, ``numpy``)
        or an :class:`AlignmentBackend` instance — the way to run a
        configured backend, e.g. ``NumpyBackend(linear_auto_cells=1 << 20)``.
    model:
        Substitution model; defaults to the memoized unit-cost model.
    cache_size:
        Keyword only.  How many distinct sequences' encodings to
        memoize (a bounded LRU — ``<= 0`` disables memoization).
        Bounded so a long-running server scoring an open-ended stream
        of distinct sequences holds steady-state memory.
    **defaults:
        The default job, as the registry's knob keywords (see
        :mod:`fragalign.job`): ``mode`` (``"global"`` unless given:
        Needleman–Wunsch; ``"local"``, ``"overlap"`` or ``"banded"``),
        ``band`` (the banded half-width), ``gap_open``/``gap_extend``
        (affine Gotoh costs, set together: a k-long gap costs
        ``gap_open + (k-1)·gap_extend``; unset keeps the model's
        linear gap) and ``memory`` (the align traceback: ``"auto"``
        unless given, ``"tensor"`` or ``"linear"``).  Every verb
        accepts the same keywords per call.  A knob passed by position
        is a ``TypeError``.
    """

    def __init__(
        self,
        backend: str | AlignmentBackend = "numpy",
        model: SubstitutionModel | None = None,
        *,
        cache_size: int = 4096,
        **defaults,
    ) -> None:
        self._backend = (
            backend if isinstance(backend, AlignmentBackend) else get_backend(backend)
        )
        #: The engine's default job: every per-call spec resolves against it.
        self.defaults = replace(DEFAULTS, **defaults, backend=self._backend.name)
        # Fail at construction, not on every call: a server built on this
        # engine would otherwise boot cleanly and then reject 100% of its
        # traffic (banded with no band, linear memory it cannot serve).
        JobSpec().resolve(self.defaults, "align")
        self.model = model or default_model()
        # Per-call `backend=` overrides instantiate lazily, once per
        # name, and live for the engine's lifetime (closed with it).
        self._extra_backends: dict[str, AlignmentBackend] = {}
        self._codes = LRUCache(cache_size)
        # Optional KernelProfiler-shaped sink (see module docstring);
        # the serving tier attaches one so `fragalign top` has data.
        self.profiler = None

    @property
    def mode(self) -> str:
        return self.defaults.mode

    @property
    def band(self) -> int | None:
        return self.defaults.band

    @property
    def backend(self) -> AlignmentBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def _get_backend(self, name: str | None) -> AlignmentBackend:
        """The engine default, or a lazily-built per-call override."""
        if name is None or name == self._backend.name:
            return self._backend
        be = self._extra_backends.get(name)
        if be is None:
            be = get_backend(name)
            self._extra_backends[name] = be
        return be

    def resolve(self, spec: JobSpec, op: str) -> JobSpec:
        """The job ``spec`` runs as on this engine (see
        :meth:`JobSpec.resolve`); refuses backend names nobody registered."""
        spec = spec.resolve(self.defaults, op)
        if spec.backend != self._backend.name:
            check_backend(spec.backend)
        return spec

    def _route(self, op: str, spec: JobSpec) -> AlignmentBackend:
        """Capability-probed dispatch: the requested backend if it
        accelerates this (op, model, spec) combo, else numpy.

        Partial backends (``native``) self-report coverage through
        :meth:`AlignmentBackend.accelerates`; the fallthrough keeps
        every knob combination servable under any ``backend=`` without
        the partial backend reimplementing the full matrix.
        """
        be = self._get_backend(spec.backend)
        if not be.accelerates(op, self.model, spec):
            be = self._get_backend("numpy")
        return be

    # -- preparation -------------------------------------------------

    def _encode(self, seq: str) -> np.ndarray:
        codes = self._codes.get(seq)
        if codes is None:
            codes = encode(seq)
            self._codes.put(seq, codes)
        return codes

    def prepare(self, a: str, b: str) -> PreparedPair:
        """Encode one pair (memoized per distinct sequence)."""
        return PreparedPair(a, b, self._encode(a), self._encode(b))

    # -- single-pair API ---------------------------------------------

    def score(self, a: str, b: str, **knobs) -> float:
        return self._one("score", a, b, JobSpec.of("score", **knobs))

    def align(self, a: str, b: str, **knobs) -> Alignment:
        return self._one("align", a, b, JobSpec.of("align", **knobs))

    def _one(self, op: str, a: str, b: str, spec: JobSpec):
        spec = self.resolve(spec, op)
        be = self._route(op, spec)
        call = be.score if op == "score" else be.align
        prep = self.prepare(a, b)
        if self.profiler is None:
            return call(prep, self.model, spec)
        start = time.perf_counter()
        out = call(prep, self.model, spec)
        self.profiler.record(op, be.name, spec.mode, [prep.shape], time.perf_counter() - start)
        return out

    # -- batch API ---------------------------------------------------

    def score_many(self, pairs: Sequence[tuple[str, str]], **knobs) -> np.ndarray:
        """Scores for every (a, b) pair, in input order.

        The pairs, whatever their shapes, go to the backend's batch
        kernel in one call.  Equals ``[self.score(a, b, **knobs) for a,
        b in pairs]`` (a standing test invariant).
        """
        spec = self.resolve(JobSpec.of("score", **knobs), "score")  # refused with no pairs too
        return self.run("score", pairs, [spec] * len(pairs))

    def align_many(self, pairs: Sequence[tuple[str, str]], **knobs) -> list[Alignment]:
        """Full alignments for every pair, in input order (one call)."""
        spec = self.resolve(JobSpec.of("align", **knobs), "align")
        return self.run("align", pairs, [spec] * len(pairs))

    def run(self, op: str, pairs: Sequence[tuple[str, str]], specs: Sequence[JobSpec]):
        """``score_many`` (``op="score"``) or ``align_many`` with each
        pair's own built spec; results in input order.

        Each distinct spec is resolved and routed once.  Pairs whose
        resolved specs differ at most in ``mode`` and route to one
        backend go to it in one call: a group mixing global, overlap and
        local is one call, or one per backend a partial backend splits."""
        routes: dict[JobSpec, tuple[JobSpec, list[int]]] = {}
        calls: dict[tuple, list[int]] = {}  # (backend, group key) -> pair indices
        resolved = []
        for k, spec in enumerate(specs):
            route = routes.get(spec)
            if route is None:
                job = self.resolve(spec, op)
                key = (self._route(f"{op}_many", job), job.group_key(op))
                route = routes[spec] = (job, calls.setdefault(key, []))
            resolved.append(route[0])
            route[1].append(k)
        preps = [self.prepare(a, b) for a, b in pairs]
        out = np.empty(len(preps)) if op == "score" else [None] * len(preps)
        for (be, _), idx in calls.items():
            values = self._call(be, op, [preps[k] for k in idx], [resolved[k] for k in idx])
            for k, value in zip(idx, values):
                out[k] = value
        return out

    def _call(self, be: AlignmentBackend, op: str, preps: list, specs: list):
        """One backend batch call, profiled when a profiler is set."""
        call = be.score_many if op == "score" else be.align_many
        if self.profiler is None:
            return call(preps, self.model, specs)
        start = time.perf_counter()
        out = call(preps, self.model, specs)
        self.profiler.record(
            f"{op}_many", be.name, mode_label(specs), [p.shape for p in preps],
            time.perf_counter() - start,
        )
        return out

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Release backend resources, per-call overrides included."""
        self._backend.close()
        for be in self._extra_backends.values():
            be.close()

    def __enter__(self) -> "AlignmentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AlignmentEngine(backend={self.backend_name!r}, mode={self.mode!r}, "
            f"cached_seqs={len(self._codes)})"
        )
