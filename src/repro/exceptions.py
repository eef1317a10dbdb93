"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is out of its valid domain."""


class DataValidationError(ReproError, ValueError):
    """Input data does not satisfy a documented precondition.

    Typical causes: non-finite values, wrong dimensionality, or vectors
    that are not unit-normalized where angular distance requires it.
    """


class NotFittedError(ReproError, RuntimeError):
    """A model or index was used before ``fit``/``build`` was called."""


class EstimatorError(ReproError, RuntimeError):
    """A cardinality estimator failed to train or predict."""


class PersistenceError(ReproError, RuntimeError):
    """A saved artifact could not be written or read back.

    Raised for corrupt or truncated array files, checksum mismatches,
    unknown or newer format versions, manifest drift, and artifacts
    whose execution policy cannot be reconstructed (e.g. a model saved
    with a custom index factory).
    """


class IndexError_(ReproError, RuntimeError):
    """A spatial index reached an inconsistent internal state.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class RemoteExecutorError(ReproError, RuntimeError):
    """Base class for remote worker-pool failures.

    Every error the remote shard executor raises intentionally derives
    from this, so hosts can treat "the fleet misbehaved" as one
    category distinct from local parameter/persistence errors.
    """


class RemoteProtocolError(RemoteExecutorError):
    """A pool peer violated the length-prefixed wire protocol.

    Typical causes: a non-worker endpoint at the configured address,
    version skew between client and worker, or a truncated frame.
    """


class RemoteTimeoutError(RemoteExecutorError):
    """A pool call did not complete within its per-call timeout."""


class WorkerUnavailableError(RemoteExecutorError):
    """A worker could not be reached (dead, or never listening)."""


class RetryExhaustedError(RemoteExecutorError):
    """A pool call kept failing after every configured retry.

    Raised when rebalancing ran out of live workers or the retry budget;
    the message records how many rebalances were attempted.
    """


class ServingError(ReproError, RuntimeError):
    """Base class for serving-subsystem failures.

    Raised by the async micro-batched predict path
    (:mod:`repro.serving`): deadline misses, admission-queue
    backpressure, and use-after-shutdown all derive from this so a
    serving client can treat "the server pushed back" as one category
    distinct from bad input or a broken artifact.
    """


class DeadlineExceededError(ServingError):
    """A served request missed its per-request deadline.

    The request may or may not have been computed; its result (if any)
    was discarded. Deadlines are best-effort cancellation points checked
    at batch-assembly time and on result delivery.
    """


class ServerOverloadedError(ServingError):
    """The admission queue is full; the request was rejected.

    Explicit backpressure: the server sheds load immediately instead of
    queueing without bound. Clients should back off and retry.
    """


class ServerClosedError(ServingError):
    """A request was submitted to a server that is shutting down.

    In-flight requests admitted before shutdown began still drain to
    completion; new submissions fail fast with this error.
    """
