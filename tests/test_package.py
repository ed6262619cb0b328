"""The package namespace: every public name resolves lazily to the object its
module defines, has a caller outside the tests, and the benchmark's tracer
still finds every module it wraps."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smalldoubling

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AtomPropositionReport", "ConnectivityResult", "CorollaryReport", "CostParams",
    "CoverCertificate", "DoublingReport", "EmptySet", "GapReport", "GroupFunction",
    "GroupMismatch", "GroupTable", "HypothesisFailed", "InvalidTable", "KOutOfRange",
    "KneserReport", "NotASubgroup", "NotAbelian", "PetridisResult", "PetridisVerification",
    "SearchReport", "SizeLimitExceeded", "SmallDoublingError", "Subset", "TheoryViolation",
    "UsageError", "WeakKneserReport", "autocorrelation", "catalogue", "certificates",
    "connectivity", "connectivity_bruteforce", "connectivity_subgroup_solver", "convolution",
    "convolve", "coset_cover", "cost", "cyclic", "dihedral", "direct_product", "doubling_ratio",
    "enumerate_subgroups", "errors", "from_spec", "from_table", "gap_check", "groups",
    "inverse_set", "kneser_check", "kneser_corollary_check", "kneser_violation_scan",
    "level_set", "parse_rational", "petridis_minimizer", "petridis_verify", "product_set",
    "quaternion", "rational_str", "rationals", "right_stabilizer", "schema", "setalg",
    "smoothed", "subsets", "symmetric", "theorems", "validate_table", "verify_atom_proposition",
    "weak_kneser_check",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 68
    assert smalldoubling.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(smalldoubling))


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(smalldoubling, name)
    module = smalldoubling._MODULE_OF.get(name)
    if module is None:  # a submodule
        assert value is importlib.import_module(f"smalldoubling.{name}")
    else:
        assert value is getattr(importlib.import_module(f"smalldoubling.{module}"), name)


# Exported names that no command, demo or benchmark needs to call.
UNCALLED_EXPORTS = {
    "catalogue": "the preset sweep that the acceptance criteria and the tests share",
}


# Public methods, properties and classmethods of exported classes that no
# command, demo or benchmark needs to call.
UNCALLED_METHODS = {
    "GroupFunction.indicator": "deleting it would only move its body into the tests",
    "GroupFunction.constant": "deleting it would only move its body into the tests",
}


def _caller_paths():
    package = ROOT / "src" / "smalldoubling"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    return paths + [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _attribute_names(path):
    tree = ast.parse(path.read_text(), str(path))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_export_has_a_caller():
    """A public entry point that nothing in the package, the demos or the
    benchmark reaches is dead weight: delete it, or list it above with why."""
    referenced = set().union(*map(_referenced_names, _caller_paths()))
    uncalled = sorted(set(smalldoubling._MODULE_OF) - referenced)
    assert uncalled == sorted(UNCALLED_EXPORTS)


def test_every_public_method_has_a_caller():
    """The same for the methods, properties and classmethods of each exported
    class (dataclass fields aside): each must be reached as `x.name` somewhere."""
    attributes = set().union(*map(_attribute_names, _caller_paths()))
    uncalled = []
    for name in smalldoubling._MODULE_OF:
        cls = getattr(smalldoubling, name)
        if not isinstance(cls, type):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        for attr, value in vars(cls).items():
            if attr.startswith("_") or attr in fields or attr in attributes:
                continue
            kinds = (property, classmethod, staticmethod)
            if inspect.isfunction(value) or isinstance(value, kinds):
                uncalled.append(f"{name}.{attr}")
    assert sorted(uncalled) == sorted(UNCALLED_METHODS)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'kneser_failure_search'"):
        smalldoubling.kneser_failure_search  # noqa: B018
    assert not hasattr(smalldoubling, "DEFAULT_CAPS")
    assert smalldoubling.__version__ == smalldoubling.certificates.TOOL_VERSION


def test_star_import():
    namespace: dict = {}
    exec("from smalldoubling import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert namespace["petridis_minimizer"] is smalldoubling.theorems.petridis_minimizer


def test_benchmark_tracer_finds_every_module():
    """Import the package as the benchmark's worker does, then build, install
    and remove its tracer, which looks each wrapped module up in sys.modules.
    A traced table-building certificate (brute-force connectivity on D4)
    counts 2^8 entries per `mask_table_from_rows` call: only lists of rows
    may reach that name, since the tracer counts 2^len(rows) entries."""
    script = (
        "import importlib.util, sys\n"
        "from smalldoubling import certificates, groups\n"
        f"spec = importlib.util.spec_from_file_location('tracing', {str(ROOT / 'bench' / 'tracing.py')!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "run = certificates.run\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "config = {'group': {'preset': 'dihedral', 'n': 3}, 'sets': {'A': [0, 1]}}\n"
        "assert certificates.run('doubling', config)['ratio'] == '3/2'\n"
        "config = {'group': {'preset': 'dihedral', 'n': 4}, 'sets': {'S': [0, 1]},\n"
        "          'K': '1/2', 'solver': 'brute_force'}\n"
        "certificates.run('connectivity', config)\n"
        "tracer.uninstall()\n"
        "assert certificates.run is run\n"
        "totals = tracer.totals()\n"
        "assert totals['certificates.run.calls'] == 2\n"
        "calls = totals['setalg.mask_table_from_rows.calls']\n"
        "assert calls > 0 and totals['setalg.mask_table_from_rows.entries'] == calls << 8, totals\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
