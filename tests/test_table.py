"""The command table is the only registry: the parser, the exit codes and the
record checks all follow from it."""

import argparse
import json

import pytest

from smalldoubling import UsageError
from smalldoubling.certificates import make_record, recheck, run
from smalldoubling.cli import build_parser, main
from smalldoubling.schema import COMMANDS, DEFAULT_CAPS, validate_record
from test_certificates import CONFIGS, all_cases

# A search that finds Kneser failures, so that one case exits 1: the first
# 65 rows of the exhaustive D6 scan hold 12 of them.
FINDING_CASES = [
    (
        "search-finds",
        "search-kneser-failure",
        {"group": {"preset": "dihedral", "n": 6}, "strategy": "exhaustive", "budget": 65 * 4095},
    ),
]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _leaf_parsers(parser, words=()):
    for word, sub in _subparsers(parser).choices.items():
        if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
            yield from _leaf_parsers(sub, words + (word,))
        else:
            yield words + (word,), sub


def test_parser_commands_are_the_table():
    leaves = dict(_leaf_parsers(build_parser()))
    commands = {p.get_default("command"): path for path, p in leaves.items()}
    assert commands.pop("recheck") == ("recheck",)
    recheck_defaults = {a.dest: a.default for a in leaves[("recheck",)]._actions}
    assert {key: recheck_defaults.get(key) for key in DEFAULT_CAPS} == DEFAULT_CAPS
    assert commands == {name: entry.path for name, entry in COMMANDS.items()}
    for entry in COMMANDS.values():
        actions = leaves[entry.path]._actions
        assert set(entry.options) <= {a.dest for a in actions}
        # Each --set<name> shorthand appends to the one --set list.
        flag_dests = {flag: a.dest for a in actions for flag in a.option_strings}
        assert {flag_dests.get(f"--set{name}") for name in entry.sets} <= {"set"}


def _argv(command, config, tmp_path):
    """The command line that issues `config`, found through the parser."""
    entry = COMMANDS[command]
    leaf = dict(_leaf_parsers(build_parser()))[entry.path]
    actions = {a.dest: a for a in leaf._actions}
    group = tmp_path / "group.json"
    group.write_text(json.dumps(config["group"]))
    argv = [*entry.path, "--group", str(group)]
    for name, indices in config.get("sets", {}).items():
        argv += [f"--set{name}", ",".join(map(str, indices))]
    for name, opt in entry.options.items():
        if name not in config:
            continue
        action, value = actions[name], config[name]
        if opt.kind == "bool":
            if value != action.default:
                argv.append(action.option_strings[0])
            continue
        spelling = {v: k for k, v in (opt.aliases or {}).items()}.get(value, value)
        argv += [action.option_strings[0], str(spelling)]
    return argv


@pytest.mark.parametrize(
    "case,command,config", list(all_cases()) + FINDING_CASES, ids=lambda v: str(v)
)
def test_cli_exit_code_is_the_table_predicate(case, command, config, tmp_path, capsys):
    payload = run(command, config)
    expected = 0 if COMMANDS[command].ok(payload) else 1
    code = main(_argv(command, config, tmp_path))
    record = json.loads(capsys.readouterr().out)
    assert code == expected
    assert record["payload"] == payload


def test_finding_case_exits_1():
    (_, command, config), = FINDING_CASES
    assert not COMMANDS[command].ok(run(command, config))


def _good_record():
    config = CONFIGS["petridis"]
    return json.loads(json.dumps(make_record("petridis", config, run("petridis", config), 0.1)))


def _drop(*path):
    def alter(record):
        for step in path[:-1]:
            record = record[step]
        del record[path[-1]]

    return alter


def _set(*path, value):
    def alter(record):
        for step in path[:-1]:
            record = record[step]
        record[path[-1]] = value

    return alter


def _decimal_rational(record):
    record["command"] = "corollary-kn"
    record["config"] = dict(CONFIGS["corollary-kn"], epsilon="0.5")
    record["payload"] = run("corollary-kn", CONFIGS["corollary-kn"])


# Every rejection the published JSON schema made, now made by typed checks.
SCHEMA_REJECTIONS = {
    **{
        f"missing-{key}": _drop(key)
        for key in ("schema_version", "tool", "command", "config", "payload")
    },
    "schema_version-2": _set("schema_version", value=2),
    "schema_version-string": _set("schema_version", value="1"),
    "schema_version-bool": _set("schema_version", value=True),
    "tool-not-object": _set("tool", value="smalldoubling"),
    "tool-name-not-string": _set("tool", "name", value=3),
    "tool-name-other": _set("tool", "name", value="otherdoubling"),
    "command-unknown": _set("command", value="bogus"),
    "config-not-object": _set("config", value=[]),
    "group-not-object": _set("config", "group", value="cyclic:8"),
    "payload-not-object": _set("payload", value=3),
    "meta-not-object": _set("meta", value=0.1),
    "sets-not-object": _set("config", "sets", value=[[0, 1]]),
    "index-not-int": _set("config", "sets", "A", value=[0, "1"]),
    "index-negative": _set("config", "sets", "A", value=[-1, 0]),
    "rational-decimal": _decimal_rational,
    "seed-not-int": _set("config", "seed", value="7"),
    "budget-negative": _set("config", "budget", value=-1),
    "caps-not-object": _set("config", "caps", value=64),
    "payload-key-missing": _drop("payload", "ok"),
    "payload-group-missing": _drop("payload", "group"),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_REJECTIONS))
def test_schema_rejections_raise_usage_error(name):
    record = _good_record()
    validate_record(record)
    SCHEMA_REJECTIONS[name](record)
    with pytest.raises(UsageError):
        validate_record(record)
    with pytest.raises(UsageError):
        recheck(record)


# The keys each payload must carry: the echo of the config (the group, then
# each input set in declared order), then the keys its runner computes.
REQUIRED_KEYS = {
    "doubling": ("group", "set_a", "square", "ratio", "epsilon"),
    "connectivity": ("group", "set_s", "k", "solver", "kappa", "identity_atom",
                     "atom_is_subgroup"),
    "atoms": ("group", "set_s", "k", "identity_atom", "atom_is_subgroup", "atoms",
              "atoms_are_left_cosets", "atoms_pairwise_disjoint", "ok"),
    "kneser": ("group", "set_a", "set_b", "sum", "stabilizer", "lhs", "rhs", "holds",
               "equality"),
    "corollary-kn": ("group", "set_a", "epsilon", "square", "stabilizer", "h_bound_ok",
                     "cover", "cover_bound_ok", "holds"),
    "theorem-main": ("group", "set_a", "set_s", "epsilon", "k", "hypotheses_ok", "atom",
                     "branch", "bound_h_size", "sharp_h_bound", "cover", "violations"),
    "petridis": ("group", "set_a", "set_s", "x", "k", "verified_c_count", "exhaustive", "ok"),
    "conv-gap": ("group", "set_a", "epsilon_star", "support", "min_on_support", "gap_holds",
                 "forbidden_interval_clean", "hypothesis_vacuous"),
    "conv-smooth": ("group", "set_a", "set_s", "autocorrelation", "smoothed", "mass"),
    "search-kneser-failure": ("group", "strategy", "seed", "budget", "pairs_checked",
                              "exhausted", "finding_count", "findings"),
}


def test_required_payload_keys_are_pinned():
    assert {name: entry.payload for name, entry in COMMANDS.items()} == REQUIRED_KEYS
