"""Minimum-cost multi-commodity flow solver.

Four interchangeable formulations: a classical per-commodity edge LP,
a source-aggregated edge LP, and path- and tree-based decompositions
solved by column generation with lazily added capacity rows. The tree
decomposition keeps one demand row per source instead of one per
commodity, which keeps the master problem small when many commodities
share their origin.
"""

from .engine import SolveReport, SolverConfig, solve
from .errors import (BackendError, DecompositionError, GenerationError,
                     InfeasibleError, InputError, InternalError, McflowError,
                     ParseError)
from .graph import Network
from .instance import (Commodity, Instance, SourceGroup, TNTP_COEFFICIENTS,
                       generate_random, group_by_source, parse_native,
                       parse_tntp, write_native)

__version__ = "0.1.0"

__all__ = [
    "BackendError", "Commodity", "DecompositionError", "GenerationError",
    "InfeasibleError", "InputError", "Instance", "InternalError",
    "McflowError", "Network", "ParseError", "SolveReport", "SolverConfig",
    "SourceGroup", "TNTP_COEFFICIENTS", "generate_random",
    "group_by_source", "parse_native", "parse_tntp", "solve", "write_native",
    "__version__",
]
