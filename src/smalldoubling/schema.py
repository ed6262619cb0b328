"""The command table, and the typed checks of configs and run records.

Every certificate command is declared once, by `command` on its runner in
certificates.py: its command-line path and help, the names of its sets, its
typed options, the keys its runner computes (after `group` and a `set_key`
per set, which `certificates.run` writes) and the predicate behind its exit
code.  The command-line parser, `parse_config` (the one config check of
both `run` and `recheck`), `validate_record` and the exit codes are all
derived from COMMANDS, which is complete whenever this module is imported:
its last line imports certificates, which runs no theory module.

A config has one accepted form: ints are JSON ints (never strings or
booleans) strictly between -2^63 and 2^63, rationals are reduced "p/q"
strings, set lists are sorted, distinct element indices, and no key or set
name is unknown.  The group spec's rules are `groups.check_spec`'s alone;
`check_group` refuses what it refuses, as a UsageError, and returns the key
it makes, from which the group is built without a second read of the spec.
Omitted options take their default.  Payload checks stay key-presence only:
values are checked by `recheck`'s replay, so a tampered value shows up as a
diff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from . import groups
from .errors import InvalidTable, UsageError
from .rationals import parse_rational, rational_str

SCHEMA_VERSION = 1
TOOL_NAME = "smalldoubling"  # the one tool.name a record may carry

# The certificate caps: the largest group order, the largest order of a search
# over all 2^order subsets (brute-force connectivity, atoms, exhaustive Kneser
# scans) and the largest |A| of the Petridis minimizer.
DEFAULT_CAPS = {"order_cap": groups.DEFAULT_ORDER_CAP, "bruteforce_cap": 16, "subset_cap": 20}


@dataclass(frozen=True)
class Option:
    """One typed config key of a command.

    `kind` is "int", "rational" (a reduced "p/q" string), "bool" or "choice".
    An option with default None may be absent.  `lo`/`hi` are inclusive
    bounds, `above` an exclusive lower bound.  `flag` defaults to
    --name-with-dashes; a bool flag sets the opposite of its default, and
    `aliases` maps command-line spellings of a choice to config values.
    """

    kind: str
    default: Any = None
    required: bool = False
    lo: Any = None
    hi: Any = None
    above: Any = None
    choices: tuple = ()
    aliases: Optional[dict] = None
    flag: Optional[str] = None
    help: Optional[str] = None


@dataclass(frozen=True)
class Command:
    name: str
    path: tuple[str, ...]  # command-line words, e.g. ("conv", "gap")
    help: str
    sets: tuple[str, ...]
    options: dict[str, Option]
    payload: tuple[str, ...]  # keys every payload must carry: "group", the sets', the runner's
    ok: Callable[[dict], bool]  # False means exit code 1 (a finding)
    runner: Callable  # runner(G, caps, **sets, **options) -> the keys it computed


COMMANDS: dict[str, Command] = {}


def set_key(name: str) -> str:
    """The payload key that echoes input set `name`: "A" -> "set_a"."""
    return f"set_{name.lower()}"


def command(name, help, *, payload, path=None, sets=(), options=None, ok=None):
    """Register the decorated runner as command `name`."""

    def register(runner):
        COMMANDS[name] = Command(
            name, path or (name,), help, sets, options or {},
            ("group", *map(set_key, sets), *payload), ok or (lambda p: True), runner,
        )
        return runner

    return register


def _entry(name) -> Command:
    if not isinstance(name, str) or name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}")
    return COMMANDS[name]


# --- typed values ----------------------------------------------------------

def _object(value, where: str, allowed=None) -> dict:
    """`value` itself, if it is an object with no keys outside `allowed`."""
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be an object")
    unknown = [] if allowed is None else sorted(str(k) for k in value if k not in allowed)
    if unknown:
        raise UsageError(f"{where} has unknown key(s): {', '.join(unknown)}")
    return value


def _require(value: dict, keys, where: str) -> None:
    missing = [key for key in keys if key not in value]
    if missing:
        raise UsageError(f"{where} is missing {', '.join(missing)}")


def _reduced_rational(raw) -> Optional[Fraction]:
    if not isinstance(raw, str):
        return None
    try:
        value = parse_rational(raw)
    except ValueError:  # not p/q, zero denominator, or too many digits
        return None
    return value if rational_str(value) == raw else None


_FORMS = {"int": "a JSON integer", "bool": "true or false", "rational": 'a reduced "p/q" string'}


def _check_int_size(value, where: str) -> None:
    """Refuse an int outside (-2^63, 2^63) (`groups.INT_LIMIT`), before any
    message prints it."""
    if type(value) is int and not -groups.INT_LIMIT < value < groups.INT_LIMIT:
        raise UsageError(f"{where} must lie strictly between -2^63 and 2^63")


def _option(name: str, opt: Option, config: dict):
    if name not in config:
        if opt.required:
            raise UsageError(f"config is missing {name!r}")
        return opt.default
    raw = value = config[name]
    if opt.kind == "int":
        _check_int_size(raw, name)
        ok = type(raw) is int
    elif opt.kind == "bool":
        ok = type(raw) is bool
    elif opt.kind == "choice":
        ok = isinstance(raw, str) and raw in opt.choices
    else:
        value = _reduced_rational(raw)
        ok = value is not None
    if not ok:
        form = _FORMS.get(opt.kind) or f"one of {', '.join(opt.choices)}"
        raise UsageError(f"{name} must be {form}, got {raw!r}")
    if (
        (opt.lo is not None and value < opt.lo)
        or (opt.hi is not None and value > opt.hi)
        or (opt.above is not None and value <= opt.above)
    ):
        low = f"({opt.above}" if opt.above is not None else f"[{opt.lo}"
        high = "inf)" if opt.hi is None else f"{opt.hi}]"
        raise UsageError(f"{name} must lie in {low}, {high}, got {raw}")
    return value


# --- group specs, sets and caps --------------------------------------------

def check_group(spec, where: str = "config.group") -> tuple:
    """The key `groups.check_spec` returns for a group spec, or UsageError
    for a spec that it refuses."""
    try:
        return groups.check_spec(spec, where)
    except InvalidTable as exc:
        raise UsageError(str(exc)) from exc


def _check_sets(entry: Command, sets) -> dict:
    _require(_object(sets, "config.sets", entry.sets), entry.sets, "config.sets")
    for name, indices in sets.items():
        if not isinstance(indices, list) or not all(
            type(i) is int and 0 <= i < groups.INT_LIMIT for i in indices
        ):
            raise UsageError(f"set {name!r} must be a list of element indices")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise UsageError(f"set {name!r} must be sorted and without repeats")
    return sets


def _check_caps(caps, ceiling: Optional[dict], where: str = "config.caps") -> dict:
    """`caps` over DEFAULT_CAPS, or over a `ceiling` checked alike that they may only lower."""
    out = dict(DEFAULT_CAPS) if ceiling is None else _check_caps(ceiling, None, "caps")
    for key, value in _object(caps, where, DEFAULT_CAPS).items():
        _check_int_size(value, f"caps.{key}")
        if type(value) is not int or value < 0:
            raise UsageError(f"caps.{key} must be a JSON integer of at least 0, got {value!r}")
        if ceiling is not None and value > out[key]:
            raise UsageError(
                f"caps.{key} = {value} is above this rechecker's cap {out[key]}; "
                "a certificate may only lower a cap"
            )
        out[key] = value
    return out


def _check_config(entry: Command, config, ceiling: Optional[dict]):
    _object(config, "config", ("group", "sets", "caps", *entry.options))
    _require(config, ("group",), "config")
    key = check_group(config["group"])
    sets = _check_sets(entry, config.get("sets", {}))
    options = {name: _option(name, opt, config) for name, opt in entry.options.items()}
    return key, sets, options, _check_caps(config.get("caps", {}), ceiling)


def parse_config(command: str, config, ceiling: Optional[dict] = None):
    """(group, sets, options, caps) of a config in its one accepted form.

    The group is built by `groups._build_spec` from the key of the one check
    of `config["group"]`, under the config's order cap, and from nothing
    else; each set becomes a Subset of it.  Options come back typed
    (Fraction for rationals), with omitted ones at their default.  `ceiling`
    bounds the caps: a config may lower a cap but not raise it.  Omitted
    caps, and caps the ceiling leaves out, take the ceiling's value or
    DEFAULT_CAPS.  Raises UsageError on anything else.
    """
    entry = _entry(command)
    key, sets, options, caps = _check_config(entry, config, ceiling)
    G = groups._build_spec(key, caps["order_cap"])
    for name, indices in sets.items():
        if indices and indices[-1] >= G.order:
            raise UsageError(f"set {name!r} has index {indices[-1]}, outside {G.name}")
    subsets = {name: G.subset(indices) for name, indices in sets.items()}
    return G, subsets, options, caps


_RECORD_KEYS = ("schema_version", "tool", "command", "config", "payload")


def check_envelope(record) -> Command:
    """The command of `record`, once the envelope and payload keys check out."""
    _require(_object(record, "record", (*_RECORD_KEYS, "meta")), _RECORD_KEYS, "record")
    version = record["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {version!r}")
    tool = _object(record["tool"], "tool")
    if not all(isinstance(tool.get(key), str) for key in ("name", "version")):
        raise UsageError("tool needs string name and version")
    if tool["name"] != TOOL_NAME:  # any version replays
        raise UsageError(f"tool.name {tool['name']!r} is not {TOOL_NAME!r}")
    entry = _entry(record["command"])
    _require(_object(record["payload"], "payload"), entry.payload, f"{entry.name} payload")
    _object(record.get("meta", {}), "meta")
    return entry


def validate_record(record) -> None:
    """Raise UsageError unless `record` is a well-formed run record: the
    standalone check of a whole record, `check_envelope` and the typed form
    of its config (without building the group)."""
    _check_config(check_envelope(record), record["config"], None)


from . import certificates  # noqa: E402,F401  (last: it imports the names above)
