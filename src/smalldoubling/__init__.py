"""Exact verification and search toolkit for sets of small doubling in
finite groups: product-set algebra, connectivity and atoms, structure-theorem
checkers with re-checkable JSON certificates, and finite-group convolution.

Importing the package runs none of its modules.  Each public name is looked
up in `_EXPORTS` on first use (PEP 562) and only then imported from the
module that defines it, so `import smalldoubling.cli` loads what the command
line needs and nothing else.  `from smalldoubling import X` works as before.
"""

import importlib

# Defining module -> the public names it exports here.
_EXPORTS = {
    "certificates": (),
    "connectivity": (
        "AtomPropositionReport",
        "ConnectivityResult",
        "connectivity_bruteforce",
        "connectivity_subgroup_solver",
        "cost",
        "verify_atom_proposition",
    ),
    "convolution": (
        "GapReport",
        "GroupFunction",
        "autocorrelation",
        "convolve",
        "gap_check",
        "level_set",
        "smoothed",
    ),
    "errors": (
        "EmptySet",
        "GroupMismatch",
        "HypothesisFailed",
        "InvalidTable",
        "KOutOfRange",
        "NotASubgroup",
        "NotAbelian",
        "SizeLimitExceeded",
        "SmallDoublingError",
        "TheoryViolation",
        "UsageError",
    ),
    "groups": (
        "GroupTable",
        "catalogue",
        "cyclic",
        "dihedral",
        "direct_product",
        "enumerate_subgroups",
        "from_spec",
        "from_table",
        "quaternion",
        "symmetric",
        "validate_table",
    ),
    "rationals": ("parse_rational", "rational_str"),
    "schema": (),
    "setalg": (
        "CoverCertificate",
        "DoublingReport",
        "coset_cover",
        "doubling_ratio",
        "inverse_set",
        "product_set",
        "right_stabilizer",
    ),
    "subsets": ("Subset",),
    "theorems": (
        "CorollaryReport",
        "KneserReport",
        "PetridisResult",
        "PetridisVerification",
        "SearchReport",
        "WeakKneserReport",
        "kneser_check",
        "kneser_corollary_check",
        "kneser_violation_scan",
        "petridis_minimizer",
        "petridis_verify",
        "weak_kneser_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name == "__version__":
        return importlib.import_module(".certificates", __name__).TOOL_VERSION
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
