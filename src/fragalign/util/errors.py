"""Exception hierarchy for fragalign.

Keeping a single root exception lets callers distinguish library errors
from programming errors (``ValueError``/``TypeError`` are still raised
for plain bad arguments at API boundaries).
"""

from __future__ import annotations


class FragalignError(Exception):
    """Root of all fragalign-specific errors."""


class InstanceError(FragalignError):
    """An instance (CSR, ISP, graph, ...) violates its invariants."""


class InconsistentMatchSetError(FragalignError):
    """A match set is not realizable by any conjecture pair.

    Raised by the consistency validator and by the solution-state layer
    when an operation would create an unrealizable configuration.
    """


class SolverError(FragalignError):
    """A solver could not produce a solution (bad configuration, size
    limits for exact solvers, ...)."""


class ReductionError(FragalignError):
    """A reduction gadget was handed input outside its preconditions
    (e.g. a non-3-regular graph for the Theorem 2 construction)."""


# --- Serving-error taxonomy (fragalign.resilience) -------------------
#
# The cluster router decides whether to try another replica by
# *isinstance* against these two branches — not by matching error
# strings.  Retryable means "the request itself is fine, a different
# replica (or a later moment) may serve it"; non-retryable means
# "retrying cannot help" (the request is invalid, or its budget is
# spent).


class RetryableError(FragalignError):
    """A transient serving failure: another replica may succeed."""


class NonRetryableError(FragalignError):
    """A terminal serving failure: retrying cannot change the outcome."""


class InvalidArgument(NonRetryableError, ValueError):
    """A request was refused at the edge (wire code ``INVALID_ARGUMENT``).

    Raised by :class:`fragalign.job.JobSpec` validation and the wire
    parser: every replica would refuse the same request the same way,
    so it is never retried.  A ``ValueError`` too, so engine callers
    catching plain bad arguments keep working.
    """


class DeadlineExceeded(NonRetryableError):
    """The request's end-to-end deadline expired.

    Non-retryable by definition: once the budget is gone, any retry
    would also exceed it.  Raised server-side when a request is already
    expired before batching (wire code ``DEADLINE_EXCEEDED``) and
    router-side when the remaining budget cannot cover another attempt.
    """


class Overloaded(RetryableError):
    """The server shed the request at admission (wire code ``OVERLOADED``).

    The shard is healthy but full — a different replica may have
    capacity, so the router retries elsewhere *without* evicting the
    shard from the ring.
    """


class CircuitOpen(RetryableError):
    """Every eligible replica's circuit breaker refused the request.

    The shards are quarantined, not the request — a later attempt (after
    a breaker's recovery window) may succeed.
    """
