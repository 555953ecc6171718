"""Backend registry for the alignment engine.

Backends are registered under a short name (``naive``, ``native``,
``numpy``, …) with a zero-argument factory; :func:`get_backend`
instantiates one by name.  A backend that needs configuring is built
by its caller and handed to :class:`~fragalign.engine.AlignmentEngine`
as an instance.  Third-party code can plug in its own execution
strategy (GPU kernels, a cluster client, an FFI library) with
:func:`register_backend` and everything built on the engine — the CLI,
the genome pipeline, the benchmarks — picks it up by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from fragalign.util.errors import InvalidArgument, SolverError

if TYPE_CHECKING:  # pragma: no cover
    from fragalign.engine.backends import AlignmentBackend

__all__ = ["register_backend", "get_backend", "check_backend", "available_backends"]

_REGISTRY: dict[str, Callable[..., "AlignmentBackend"]] = {}


def register_backend(
    name: str,
    factory: Callable[..., "AlignmentBackend"],
    *,
    overwrite: bool = False,
) -> None:
    """Register ``factory`` (called with no arguments) under ``name``."""
    if not overwrite and name in _REGISTRY:
        raise SolverError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def get_backend(name: str) -> "AlignmentBackend":
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SolverError(_unknown(name)) from None
    return factory()


def check_backend(name: str) -> None:
    """Refuse a backend name nobody registered — the one
    ``InvalidArgument`` the CLI, the engine and the wire all give."""
    if name not in _REGISTRY:
        raise InvalidArgument(_unknown(name))


def _unknown(name: str) -> str:
    known = ", ".join(sorted(_REGISTRY)) or "none"
    return f"unknown backend {name!r} (registered: {known})"


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))
