"""Leader/worker clustering for the extraction service.

One leader owns the public ``/v1/`` front door (async server, JSON wire,
auth, coalescing, result store, durability) and routes each substrate
fingerprint group to exactly one worker host; each worker runs today's
unmodified single-host stack behind a single solve RPC.  The pieces:

==============================  ===========================================
module                          role
==============================  ===========================================
:mod:`~repro.cluster.leader`    :class:`ClusterLeader` — front door +
                                registry + router + remote-solving
                                scheduler
:mod:`~repro.cluster.worker`    :class:`ClusterWorker` — scheduler +
                                ``/v1/cluster/solve`` + heartbeat loop
:mod:`~repro.cluster.registry`  :class:`HostRegistry` — membership from
                                heartbeats alone: admission, leases,
                                draining, dead set
:mod:`~repro.cluster.routing`   :class:`FingerprintRouter` — sticky pins,
                                each placed on the least-pinned, then
                                least-queued host
:mod:`~repro.cluster.protocol`  wire documents (heartbeat / completion)
                                and both ends of the solve RPC
==============================  ===========================================

Run a cluster from the command line with ``python -m repro.cluster leader``
and ``python -m repro.cluster worker --leader URL`` (see the README's
"Cluster" section), or in-process::

    from repro.cluster import ClusterLeader, ClusterWorker

    with ClusterLeader() as leader:
        with ClusterWorker(leader.url) as w1, ClusterWorker(leader.url) as w2:
            with ServiceClient(leader.url) as client:
                g_cols = client.extract(JobRequest(spec, columns=(0, 5, 9)))
"""

from .leader import ClusterLeader, ClusterRPCError
from .registry import HostRecord, HostRegistry
from .routing import FingerprintRouter, NoWorkersError
from .worker import ClusterWorker

__all__ = [
    "ClusterLeader",
    "ClusterRPCError",
    "ClusterWorker",
    "HostRecord",
    "HostRegistry",
    "FingerprintRouter",
    "NoWorkersError",
]
