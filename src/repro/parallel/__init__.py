"""Simulated distributed-memory machine.

The paper runs on a 512-node BlueGene/L and a 24-node Xeon cluster; this
environment has neither MPI nor multiple nodes.  The substitution (see
DESIGN.md) is a deterministic discrete-event simulator: rank programs
are Python generator coroutines that perform *real* computation eagerly
while charging virtual time for compute (work units / node rate) and for
communication (alpha-beta model over point-to-point messages; the gather
and the all-to-all are built from them, so their cost in p emerges from
the same model).

Because the simulator executes the actual algorithm — real promising
pairs, real union-find merges, real alignments — parallel run-time
*shape* (speedup curves, master bottlenecks, load imbalance) reproduces
the paper's Figures 6-7 and Table II from the same causes.
"""

from repro.parallel.machine import (
    BLUEGENE_L,
    XEON_CLUSTER,
    MachineModel,
)
from repro.parallel.simulator import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    MemoryExceededError,
    SimComm,
    SimulationResult,
    VirtualCluster,
)
from repro.parallel.partition import balance_items
from repro.parallel.masterworker import run_master_worker

__all__ = [
    "BLUEGENE_L",
    "XEON_CLUSTER",
    "MachineModel",
    "ANY_SOURCE",
    "ANY_TAG",
    "DeadlockError",
    "MemoryExceededError",
    "SimComm",
    "SimulationResult",
    "VirtualCluster",
    "balance_items",
    "run_master_worker",
]
