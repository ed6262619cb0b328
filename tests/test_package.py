"""The package namespace: every public name resolves lazily to the object its
module defines and has a caller outside the tests, every function of the
package is entered when the commands, the command line and the demos run,
and the benchmark's tracer still finds every module it wraps."""

import ast
import dataclasses
import importlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import smalldoubling

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smalldoubling"

PUBLIC = [
    "AtomPropositionReport", "ConnectivityResult", "CorollaryReport", "CoverCertificate",
    "DoublingReport", "EmptySet", "GapReport", "GroupFunction", "GroupMismatch",
    "GroupTable", "HypothesisFailed", "InvalidTable", "KOutOfRange", "KneserReport",
    "NotASubgroup", "NotAbelian", "PetridisResult", "PetridisVerification", "SearchReport",
    "SizeLimitExceeded", "SmallDoublingError", "Subset", "TheoryViolation", "UsageError",
    "WeakKneserReport", "autocorrelation", "catalogue", "certificates",
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
    assert len(PUBLIC) == 67
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


# Result fields that may share a name with a parameter of the exported
# function that returns them, or hold that argument itself, each with why.
ECHOED_FIELDS = {
    "PetridisResult": ({"A", "S"}, "petridis_verify takes the result whole, and the "
                       "benchmark's tracer reads its A"),
    "KneserReport": ({"A", "B"}, "every finding of a Kneser scan has this type, and "
                     "there A and B are what the scan found"),
    "CoverCertificate": ({"side"}, "the runners read the side of covers that "
                         "weak_kneser_check and kneser_corollary_check chose"),
    "GroupTable": ({"spec", "mul", "labels", "name"}, "a group is made of its table, "
                   "labels and name: from_table and from_spec build it from them"),
}


def test_results_do_not_echo_arguments(tmp_path):
    """A verifier returns what it computed, not what it was given: the caller
    holds its own arguments.  No result field shares a name with a parameter
    of the function that returns it, and none is an argument object of its
    call, whatever the field is named: a profile hook sees every call of an
    exported function in what `_drive_everything` does."""
    echoed = {}
    for name in smalldoubling._MODULE_OF:
        func = getattr(smalldoubling, name)
        if not inspect.isfunction(func):
            continue
        returns = inspect.signature(func).return_annotation  # a string (PEP 563)
        cls = getattr(smalldoubling, returns) if returns in smalldoubling._MODULE_OF else None
        if dataclasses.is_dataclass(cls):
            fields = {field.name for field in dataclasses.fields(cls)}
            shared = fields & set(inspect.signature(func).parameters)
            echoed[returns] = echoed.get(returns, set()) | shared
    assert {cls: names for cls, names in echoed.items() if names} == {
        cls: names for cls, (names, _) in ECHOED_FIELDS.items()
    }

    exported = set()
    for name, module in smalldoubling._MODULE_OF.items():
        func = getattr(importlib.import_module(f"smalldoubling.{module}"), name)
        if inspect.isfunction(func):
            exported.add(func.__code__)
    calls, held = {}, set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in exported:
            return
        if event == "call":
            params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
            calls[frame] = [frame.f_locals[p] for p in params]
        elif event == "return" and frame in calls:
            args = calls.pop(frame)  # kept alive until the walk ends, so ids stay theirs
            _fields_holding(arg, {id(a) for a in args}, None, held)

    _drive_under(hook, tmp_path)
    assert not held, f"result fields hold an argument of their call: {sorted(held)}"


def _fields_holding(value, ids, path, out):
    """Add to `out` the path of each field of the result `value`, nested
    results and tuples of results included, that is one of the objects whose
    ids are `ids` and is not listed in ECHOED_FIELDS.  Ints, strings and None
    are skipped: equal ones may be one object whoever made them."""
    if isinstance(value, (tuple, list)):
        for item in value:
            _fields_holding(item, ids, path, out)
        return
    if not dataclasses.is_dataclass(value):
        return
    cls = type(value).__name__
    allowed = ECHOED_FIELDS.get(cls, (set(), ""))[0]
    for field in dataclasses.fields(value):
        field_value, where = getattr(value, field.name), f"{path or cls}.{field.name}"
        if (
            id(field_value) in ids
            and field.name not in allowed
            and not (field_value is None or isinstance(field_value, (int, str)))
        ):
            out.add(where)
        _fields_holding(field_value, ids, where, out)


# The cap parameters that exported functions may take, each with the functions
# that take it and why.  The certificate caps of brute force and the subset
# search are checked by the runners in certificates.py, and by nothing else;
# the group builders take no cap.
CAP_PARAMETERS = {
    "order_cap": ({"from_spec"}, "a spec past it is refused before any table is built"),
    "fragment_cap": ({"connectivity_bruteforce"}, "a payload option: the most fragments "
                     "an inventory lists"),
}


def test_only_from_spec_and_the_fragment_inventory_take_a_cap():
    found = {}
    for name in smalldoubling._MODULE_OF:
        func = getattr(smalldoubling, name)
        if inspect.isfunction(func):
            for param in inspect.signature(func).parameters:
                if param.endswith("_cap"):
                    found.setdefault(param, set()).add(name)
    assert found == {param: names for param, (names, _) in CAP_PARAMETERS.items()}


@pytest.mark.parametrize("func", ["certificates.run", "schema.parse_config"])
def test_a_run_takes_no_group_but_its_config(func):
    # A payload is a function of its config alone: neither entry point
    # accepts a group built elsewhere, which could disagree with the spec.
    module, name = func.split(".")
    function = getattr(importlib.import_module(f"smalldoubling.{module}"), name)
    assert not [p for p in inspect.signature(function).parameters if "group" in p]


# Exported names that no command, demo or benchmark needs to call.
UNCALLED_EXPORTS = {
    "catalogue": "the preset sweep that the acceptance criteria and the tests share",
}


def _caller_paths():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
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


def test_every_export_has_a_caller():
    """A public entry point that nothing in the package, the demos or the
    benchmark reaches is dead weight: delete it, or list it above with why."""
    referenced = set().union(*map(_referenced_names, _caller_paths()))
    uncalled = sorted(set(smalldoubling._MODULE_OF) - referenced)
    assert uncalled == sorted(UNCALLED_EXPORTS)


# Functions of the package that the run in `test_every_function_is_reached`
# never enters, each with why it stays.
UNREACHED = {
    "__init__.__dir__": "serves dir(smalldoubling)",
    "certificates._lazy": "runs at import, to register the theory modules",
    "schema.command": "runs at import, to register each runner in the command table",
    "groups.GroupTable.__repr__": "a debugging aid",
    "subsets.Subset.__repr__": "a debugging aid",
    "convolution.GroupFunction.indicator": "deleting it would only move its body into the tests",
    "convolution.GroupFunction.constant": "deleting it would only move its body into the tests",
    "groups.catalogue": UNCALLED_EXPORTS["catalogue"],
    "groups.from_spec": "called by bench/probe.py",
    "schema.validate_record": "wrapped by bench/tracing.py and called by the tests",
    **dict.fromkeys(
        ["setalg.mask_table_from_rows", "setalg.product_mask_table", "setalg.product_size_table"],
        "wrapped by bench/tracing.py; ROADMAP item 2 deletes them",
    ),
}

def _package_functions():
    """(file, first line) -> "module.qualname" of every module- and
    class-level `def` of the package.  A decorated function's code object
    starts at its first decorator, so that line is the key."""
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(path.stem, tree.body)]
        scopes += [
            (f"{path.stem}.{c.name}", c.body) for c in tree.body if isinstance(c, ast.ClassDef)
        ]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    functions[(str(path), first)] = f"{prefix}.{node.name}"
    return functions


def _drive_everything(tmp_path):
    """Issue, write, read back and recheck each (command, config) of the
    payload digests and the workloads, recheck a tampered record, run the
    command line down each of its paths, and run every demo."""
    from smalldoubling import cli
    from smalldoubling.certificates import make_record, recheck, run
    from test_payload_digests import CASES, WORKLOAD_CASES

    configs = [(command, config) for _, command, config in CASES]
    configs += [(case["command"], case["config"]) for case in WORKLOAD_CASES]

    path = tmp_path / "record.json"
    for command, config in configs:
        path.write_text(json.dumps(make_record(command, config, run(command, config))))
        record = json.loads(path.read_text())
        assert recheck(record).ok, (command, config)
    record["payload"]["group"] += "?"
    assert not recheck(record).ok

    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": [[0, 1], [0, 1]]}))
    nan = tmp_path / "nan.json"
    nan.write_text('{"payload": NaN}')
    out, rec = str(tmp_path / "out"), str(tmp_path / "rec.json")
    runs = {
        0: [
            ["doubling", "--group", "cyclic:8", "--setA", "0,1", "--format", "text", "--out", out],
            ["kneser", "--group", "cyclic:6", "--set", "A=0,1", "--setB", "3", "--out", rec],
            ["recheck", rec, "--out", out],
            ["connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2", "--out", out],
        ],
        2: [
            ["doubling", "--setA", "0", "--out", out],
            ["doubling", "--group", "cyclic:0", "--setA", "0", "--out", out],
            ["doubling", "--group", str(table), "--setA", "0", "--out", out],
            ["recheck", str(nan), "--out", out],
        ],
    }
    for code, argvs in runs.items():
        for argv in argvs:
            assert cli.main(argv) == code, argv

    for script in sorted((ROOT / "demos").glob("*.py")):
        with redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def _drive_under(hook, tmp_path):
    """`_drive_everything` with `hook` as the profile function."""
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        _drive_everything(tmp_path)
    finally:
        sys.setprofile(previous)


def test_every_function_is_reached(tmp_path, monkeypatch):
    """Every function the package defines is entered by what the commands,
    the command line and the demos do, or is listed in UNREACHED with why:
    one that nothing reaches is dead weight, to delete with its tests.  A
    profile hook sees every call, dunders and private helpers too."""
    functions = _package_functions()
    gone = sorted(UNREACHED.keys() - set(functions.values()))
    assert not gone, f"UNREACHED names {gone}, which the package no longer defines"
    for module in [*smalldoubling._EXPORTS, "cli"]:  # run every module body now
        getattr(importlib.import_module(f"smalldoubling.{module}"), "__name__")
    for name in smalldoubling._MODULE_OF:  # uncached, as in a fresh process
        monkeypatch.delattr(smalldoubling, name, raising=False)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    _drive_under(hook, tmp_path)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    unreached = {name for key, name in functions.items() if key not in reached}
    dead, stale = sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)
    assert not dead, f"nothing reaches {dead}: delete them, or list them in UNREACHED"
    assert not stale, f"{stale} are reached: drop them from UNREACHED"


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
    A traced `mask_table_from_rows` call counts 2^len(rows) entries, so only
    lists of rows may reach that name; a brute-force certificate (on D4)
    reaches none of the three full-table builders.  The
    tracer's work counts read the group, the minimizer's A and the checked
    counts of Petridis verification and of an exhaustive scan.  One traced
    record is rechecked, as the benchmark's recheck phase does, and its
    replay counts as a call of `run`."""
    script = (
        "import importlib.util, sys\n"
        "from smalldoubling import certificates, groups, setalg\n"
        f"spec = importlib.util.spec_from_file_location('tracing', {str(ROOT / 'bench' / 'tracing.py')!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "run = certificates.run\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "config = {'group': {'preset': 'dihedral', 'n': 3}, 'sets': {'A': [0, 1]}}\n"
        "payload = certificates.run('doubling', config)\n"
        "assert payload['ratio'] == '3/2'\n"
        "assert certificates.recheck(certificates.make_record('doubling', config, payload)).ok\n"
        "config = {'group': {'preset': 'dihedral', 'n': 4}, 'sets': {'S': [0, 1]},\n"
        "          'K': '1/2', 'solver': 'brute_force'}\n"
        "certificates.run('connectivity', config)\n"
        "brute = tracer.totals()\n"
        "tables = ('mask_table_from_rows', 'product_mask_table', 'product_size_table')\n"
        "assert not [f for f in tables if f'setalg.{f}.calls' in brute], brute\n"
        "setalg.mask_table_from_rows([1, 2, 4, 8, 16, 32, 64, 128])\n"
        "setalg.mask_table_from_rows([3, 5])\n"
        "del config['solver']\n"
        "certificates.run('atoms', config)\n"
        "config = {'group': {'preset': 'cyclic', 'n': 8}, 'sets': {'A': [0, 1], 'S': [0, 1]},\n"
        "          'budget': 255}\n"
        "certificates.run('petridis', config)\n"
        "certificates.run('search-kneser-failure', {'group': {'preset': 'symmetric', 'n': 3}})\n"
        "tracer.uninstall()\n"
        "assert certificates.run is run\n"
        "totals = tracer.totals()\n"
        "assert totals['certificates.recheck.calls'] == 1, totals\n"
        "assert totals['certificates.run.calls'] == 6, totals  # the recheck's replay too\n"
        "assert totals['setalg.mask_table_from_rows.calls'] == 2, totals\n"
        "assert totals['setalg.mask_table_from_rows.entries'] == (1 << 8) + (1 << 2), totals\n"
        "assert totals['connectivity.connectivity_bruteforce.subsets'] == 2 * 255, totals\n"
        "assert totals['connectivity.verify_atom_proposition.self_ms'] > 0, totals\n"
        "assert totals['theorems.petridis_minimizer.subsets_visited'] == 3, totals\n"
        "assert totals['theorems.petridis_verify.c_sets_checked'] == 255, totals\n"
        "assert totals['theorems.kneser_violation_scan.pairs_scanned'] == 63 * 63, totals\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
