"""Exact verification and search toolkit for sets of small doubling in
finite groups: product-set algebra, connectivity and atoms, structure-theorem
checkers with re-checkable JSON certificates, and finite-group convolution.
"""

from .certificates import TOOL_VERSION as __version__  # noqa: F401
from .connectivity import (
    AtomPropositionReport,
    ConnectivityResult,
    CostParams,
    SubmodularityReport,
    check_submodularity,
    connectivity_bruteforce,
    connectivity_subgroup_solver,
    cost,
    verify_atom_proposition,
)
from .convolution import (
    GapReport,
    GroupFunction,
    autocorrelation,
    convolve,
    gap_check,
    level_set,
    smoothed,
)
from .errors import (
    EmptySet,
    GroupMismatch,
    HypothesisFailed,
    InvalidTable,
    KOutOfRange,
    NotASubgroup,
    NotAbelian,
    SizeLimitExceeded,
    SmallDoublingError,
    TheoryViolation,
    UsageError,
)
from .groups import (
    GroupTable,
    catalogue,
    closure,
    cyclic,
    dihedral,
    direct_product,
    enumerate_subgroups,
    from_spec,
    from_table,
    is_subgroup,
    quaternion,
    right_coset,
    symmetric,
    validate_table,
)
from .rationals import parse_rational, rational_str
from .setalg import (
    CoverCertificate,
    DoublingReport,
    coset_cover,
    doubling_ratio,
    inverse_set,
    product_set,
    right_stabilizer,
)
from .subsets import Subset
from .theorems import (
    CorollaryReport,
    KneserReport,
    PetridisResult,
    PetridisVerification,
    SearchReport,
    WeakKneserReport,
    kneser_check,
    kneser_corollary_check,
    kneser_violation_scan,
    petridis_minimizer,
    petridis_verify,
    weak_kneser_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
