"""Product-state capacities and rate scales for qubit channels with memory."""

from .channels import (
    MemoryChannel,
    QubitChannel,
    kraus_operators,
)
from .errors import NumericalError, ValidationError
from .optim import OptResult, maximize_concave_1d
from .scales import (
    BranchSupremum,
    CapacityReport,
    RandomScaleReport,
    ScaleEntry,
    SubsetScale,
    chi_mirror_family,
    compute_capacity_report,
    compute_random_scale_report,
    per_branch_suprema,
    scale_r,
    subset_scale_value,
)
from .simulate import StaircaseRow, empirical_staircase

__version__ = "0.1.0"

__all__ = [
    "MemoryChannel",
    "QubitChannel",
    "kraus_operators",
    "NumericalError",
    "ValidationError",
    "chi_mirror_family",
    "OptResult",
    "maximize_concave_1d",
    "BranchSupremum",
    "CapacityReport",
    "RandomScaleReport",
    "ScaleEntry",
    "SubsetScale",
    "compute_capacity_report",
    "compute_random_scale_report",
    "per_branch_suprema",
    "scale_r",
    "subset_scale_value",
    "StaircaseRow",
    "empirical_staircase",
    "__version__",
]
