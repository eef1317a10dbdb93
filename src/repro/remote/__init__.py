"""Remote worker pool: sharded clustering across machines.

The distributed half of the sharded execution backend
(:mod:`repro.index.sharded`). A fleet of worker processes — started
with ``repro-cli pool serve``, ``python -m repro.remote.worker``, or
in-process via :meth:`WorkerPool.spawn_local` — listens on TCP sockets
speaking the length-prefixed protocol of :mod:`repro.remote.protocol`.
Each worker holds the shard indexes pinned to it *warm across fits*:
the first fit pays one inner build per live shard, every later fit (or
eps value: brute-force shards do not depend on eps) attaches to the
cached indexes and pays zero.

:class:`~repro.remote.pool.RemoteExecutor` is the client side that
every :class:`~repro.index.sharded.ShardedIndex` runs its shards on,
the fleet named by an :class:`~repro.index.sharded.ExecutorSpec` —
query blocks fan out with
a stable ``shard → worker`` affinity, results come back as compact CSR
arrays feeding the existing merge kernels unchanged, dead workers
trigger a round-robin rebalance of their shards to the survivors, and
every call runs under a timeout with bounded retry.
"""

from repro.remote.pool import RemoteExecutor, WorkerPool

# The worker (repro.remote.worker: serve, worker_main) is not imported
# here: ``python -m repro.remote.worker`` imports this package first, and
# a worker module already in sys.modules would be run a second time.
__all__ = [
    "RemoteExecutor",
    "WorkerPool",
]
