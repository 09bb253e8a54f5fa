"""flowcutter: a C1 expanding interval map cut from a smooth bump-field flow.

The package builds the two-branch map F on [0, 1/3] u [2/3, 1] whose deep
branches are affine conjugates of a flow at alternating dyadic times, and
provides the numerical instruments around it: certified flow constants,
precision-safe iteration in scaled coordinates, the basic-interval
hierarchy, exhaustive distortion sweeps against the theoretical block
bound, the scale-cancelling witness family, and finite-depth dimension
estimates for the repeller.
"""

from .cookie import (CookieMap, C1BoundaryReport, IterateResult, TimeSchedule,
                     interval_J)
from .dimension import (DimensionEstimate, bowen_dimension, box_dimension,
                        certified_bracket, dimension_estimate, pressure_root,
                        pressure_sum)
from .distortion import (DistortionReport, SizeBoundReport, SbdProfile,
                         SbdWitness, bd_sweep, distortion, audit_interval_sizes,
                         sbd_profile, sbd_witness, theoretical_bound)
from .errors import (BoundViolationError, CertificationError, DepthCapError,
                     DomainError, EscapeError, SolverError)
from .flow import (FieldValue, FlowConstants, FlowEngine, FlowSample,
                   vector_field)
from .scaled import Locus, PointBatch, ScaledPoint
from .symbolic import (BasicInterval, BlockDecomposition, Word,
                       basic_interval, decompose_blocks, enumerate_intervals,
                       interval_table, inverse_branch)

__version__ = "0.1.0"

__all__ = [
    "BasicInterval", "BlockDecomposition", "BoundViolationError",
    "C1BoundaryReport", "CertificationError", "CookieMap",
    "DepthCapError", "DimensionEstimate", "DistortionReport", "DomainError",
    "EscapeError", "FieldValue", "FlowConstants", "FlowEngine", "FlowSample",
    "IterateResult", "SizeBoundReport", "Locus", "PointBatch", "SbdProfile",
    "SbdWitness", "ScaledPoint", "SolverError", "TimeSchedule", "Word",
    "basic_interval", "bd_sweep", "bowen_dimension", "box_dimension",
    "certified_bracket", "decompose_blocks",
    "dimension_estimate", "distortion", "enumerate_intervals", "interval_J",
    "interval_table", "inverse_branch", "audit_interval_sizes",
    "pressure_root", "pressure_sum", "sbd_profile", "sbd_witness",
    "theoretical_bound", "vector_field",
]
