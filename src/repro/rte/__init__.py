"""The Open MPI Run-Time Environment (RTE).

"Open MPI Run-Time Environment (RTE) can help the newly created processes to
establish connections with the existing processes" (§4.1); "synchronization
and connection setup is done collectively during MPI_Init() at the run time
through the help of other components" (§5).

We model the RTE as a seed daemon on node 0 reachable over the TCP/IP
substrate.  Every process of a job:

1. builds its local transport stack (claims an Elan4 context — obtaining a
   fresh VPID from the system-wide capability — and/or opens TCP endpoints);
2. registers ``rank → contact info`` over the out-of-band (OOB) channel,
   through its parent in the launch group's fence tree (the seed itself
   for the first eight members), batching its subtree's entries;
3. receives the group's contact table once the seed holds every member,
   forwarded down the same tree;
4. wires up its PTLs and runs the application.

Ranks are job-level names that survive restarts; VPIDs are hardware
addresses that do not — the registry is the decoupling layer (§4.1).
Dynamic spawn (:mod:`repro.rte.spawn`) and checkpoint/restart
(:mod:`repro.rte.checkpoint`) operate purely through this registry.
"""

from repro.rte.oob import OobChannel, OobError, OobServer
from repro.rte.environment import FenceError, RteJob, RteProcess, launch_job

__all__ = [
    "FenceError",
    "OobChannel",
    "OobError",
    "OobServer",
    "RteJob",
    "RteProcess",
    "launch_job",
]
