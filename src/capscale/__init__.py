"""Product-state capacities and rate scales for qubit channels with memory."""

from .channels import (
    MemoryChannel,
    QubitChannel,
    apply_memory_channel_n,
    kraus_operators,
)
from .errors import NumericalError, ValidationError
from .holevo import chi_ad_mirror, chi_mirror_family, dchi_da_ad
from .linalg import binary_entropy
from .optim import (
    OptResult,
    brute_force_ensemble_search,
    find_root_bisection,
    maximize_chi_sum,
    maximize_concave_1d,
)
from .scales import (
    BranchSupremum,
    CapacityReport,
    RandomScaleReport,
    ScaleEntry,
    SubsetScale,
    compute_capacity_report,
    compute_random_scale_report,
    per_branch_suprema,
    scale_r,
    subset_scale_value,
)
from .simulate import (
    SimResult,
    StaircaseRow,
    Strategy,
    empirical_staircase,
    run_trials,
    success_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "MemoryChannel",
    "QubitChannel",
    "apply_memory_channel_n",
    "kraus_operators",
    "NumericalError",
    "ValidationError",
    "chi_ad_mirror",
    "chi_mirror_family",
    "dchi_da_ad",
    "binary_entropy",
    "OptResult",
    "brute_force_ensemble_search",
    "find_root_bisection",
    "maximize_chi_sum",
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
    "SimResult",
    "StaircaseRow",
    "Strategy",
    "empirical_staircase",
    "run_trials",
    "success_oracle",
    "__version__",
]
