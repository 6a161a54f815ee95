"""Edge-disjoint spanning tree packing in multigraphs, with certificates.

For a multigraph G and an integer k, ``pack(g, k)`` either constructs k
pairwise edge-disjoint spanning trees or returns a vertex partition P
whose quotient has fewer than ``k * (|P| - 1)`` edges, which proves that
no such packing exists (the classical Tutte / Nash-Williams condition).
The ``oracle`` module decides the same question by brute force so the two
routes can be checked against each other.
"""

from .kpartition import (
    INFINITE_LEVEL,
    KPartition,
    PartitionSequence,
    SequenceStep,
    build_sequence,
    edge_levels,
    precedes,
)
from .multigraph import (
    MultiGraph,
    NoCycleError,
    components,
    cycle_edges,
    fundamental_cycle,
    quotient,
    restrict_components,
)
from .oracle import (
    DensityReport,
    density_margin,
    verify_certificate,
    verify_packing,
)
from .packer import (
    ExchangeEvent,
    InternalInvariantError,
    PackResult,
    StageOutcome,
    density_check,
    exchange_step,
    greedy_spanning_tree,
    pack,
    run_stage,
    stp_number,
)
from .partition import Partition

__version__ = "0.1.0"

__all__ = [
    "DensityReport",
    "ExchangeEvent",
    "INFINITE_LEVEL",
    "InternalInvariantError",
    "KPartition",
    "MultiGraph",
    "NoCycleError",
    "PackResult",
    "Partition",
    "PartitionSequence",
    "SequenceStep",
    "StageOutcome",
    "build_sequence",
    "components",
    "cycle_edges",
    "density_check",
    "density_margin",
    "edge_levels",
    "exchange_step",
    "fundamental_cycle",
    "greedy_spanning_tree",
    "pack",
    "precedes",
    "quotient",
    "restrict_components",
    "run_stage",
    "stp_number",
    "verify_certificate",
    "verify_packing",
]
