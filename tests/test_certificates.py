import json
import time
from fractions import Fraction

import pytest

from smalldoubling import InvalidTable, SizeLimitExceeded, UsageError, rational_str
from smalldoubling.certificates import (
    DEFAULT_CAPS,
    SCHEMA_VERSION,
    RecheckReport,
    _diff,
    make_record,
    recheck,
    run,
)
from smalldoubling.schema import COMMANDS

CONFIGS = {
    "doubling": {
        "group": {"preset": "cyclic", "n": 20},
        "sets": {"A": [0, 1, 2, 3, 4]},
    },
    "connectivity": {
        "group": {"preset": "cyclic", "n": 8},
        "sets": {"S": [0, 1]},
        "K": "1/2",
        "solver": "subgroup_restricted",
    },
    "connectivity-brute": (
        "connectivity",
        {
            "group": {"preset": "quaternion", "n": 2},
            "sets": {"S": [0, 4]},
            "K": "2/3",
            "solver": "brute_force",
            "fragments": True,
        },
    ),
    "atoms": {
        "group": {"preset": "cyclic", "n": 6},
        "sets": {"S": [0, 3]},
        "K": "1/2",
    },
    "kneser": {
        "group": {"preset": "cyclic", "n": 6},
        "sets": {"A": [0, 1], "B": [0, 1]},
    },
    "corollary-kn": {
        "group": {"preset": "cyclic", "n": 20},
        "sets": {"A": [0, 1, 2, 3, 4]},
        "epsilon": "1/5",
    },
    "theorem-main": {
        "group": {"preset": "symmetric", "n": 3},
        "sets": {"A": [0, 2], "S": [0, 2]},
        "epsilon": "1/1",
    },
    "petridis": {
        "group": {"preset": "cyclic", "n": 8},
        "sets": {"A": [0, 1], "S": [0, 1]},
        "mode": "exhaustive",
        "budget": 255,
    },
    "conv-gap": {
        "group": {"preset": "cyclic", "n": 8},
        "sets": {"A": [0, 1]},
    },
    "conv-smooth": {
        "group": {"preset": "cyclic", "n": 8},
        "sets": {"A": [0, 1], "S": [0, 1]},
        "threshold": "1/3",
    },
    "search-kneser-failure": {
        "group": {"preset": "symmetric", "n": 3},
        "strategy": "random",
        "seed": 11,
        "budget": 400,
    },
}


def all_cases():
    for key, value in CONFIGS.items():
        if isinstance(value, tuple):
            yield key, value[0], value[1]
        else:
            yield key, key, value


@pytest.mark.parametrize("case,command,config", list(all_cases()), ids=lambda v: str(v))
def test_run_recheck_roundtrip(case, command, config):
    if not isinstance(config, dict):
        return
    payload = run(command, config)
    record = make_record(command, config, payload, wall_time_s=0.5)
    roundtripped = json.loads(json.dumps(record))
    report = recheck(roundtripped)
    assert report.ok, report.diffs
    assert COMMANDS[command].ok(payload)


def test_expected_payload_values():
    payload = run("doubling", CONFIGS["doubling"])
    assert payload["ratio"] == "9/5" and payload["epsilon"] == "1/5"

    payload = run("connectivity", CONFIGS["connectivity"])
    assert payload["kappa"] == "3/2"
    assert payload["identity_atom"]["indices"] == [0]
    assert payload["atom_is_subgroup"] is True

    payload = run("theorem-main", CONFIGS["theorem-main"])
    assert payload["branch"] == "single_right_coset"
    assert payload["atom"]["labels"] == ["e", "(1 2)"]

    payload = run("corollary-kn", CONFIGS["corollary-kn"])
    assert payload["cover"]["count"] == 9 and payload["holds"] is True

    payload = run("petridis", CONFIGS["petridis"])
    assert payload["k"] == "3/2" and payload["ok"] is True
    assert payload["verified_c_count"] == 255 and payload["exhaustive"] is True

    payload = run("search-kneser-failure", CONFIGS["search-kneser-failure"])
    assert payload["finding_count"] == 0 and payload["pairs_checked"] == 400


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaf_paths(sub, path + (key,))
    elif isinstance(value, list):
        if value:
            for i, sub in enumerate(value):
                yield from _leaf_paths(sub, path + (i,))
        else:
            yield path  # empty list: mutate by appending
    else:
        yield path


def _mutate(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        if "/" in value and value.split("/")[0].lstrip("-").isdigit():
            num, den = value.split("/")
            return f"{int(num) + 1}/{den}"
        return value + "?"
    if value is None:
        return 0
    if isinstance(value, list) and not value:
        return [0]
    raise AssertionError(f"unexpected leaf {value!r}")


def _leaf(record, path):
    value = record["payload"]
    for step in path:
        value = value[step]
    return value


def _apply_mutation(record, path, mutate=_mutate):
    copy = json.loads(json.dumps(record))
    target = copy["payload"]
    for step in path[:-1]:
        target = target[step]
    if isinstance(target[path[-1]], list) and not target[path[-1]]:
        target[path[-1]] = [0]
    else:
        target[path[-1]] = mutate(target[path[-1]])
    return copy


def _retype(value):
    """An equal value of another JSON type: false -> 0, true -> 1, n -> n.0."""
    return int(value) if isinstance(value, bool) else float(value)


@pytest.mark.parametrize("case,command,config", list(all_cases()), ids=lambda v: str(v))
def test_equal_values_of_another_type_are_rejected(case, command, config):
    """Python has False == 0, True == 1 and 3 == 3.0, but a payload whose
    booleans or ints changed type is not the one `run` recomputes."""
    record = make_record(command, config, run(command, config))
    paths = [
        path for path in _leaf_paths(record["payload"])
        if type(_leaf(record, path)) in (bool, int)
    ]
    assert paths
    for path in paths:
        report = recheck(_apply_mutation(record, path, _retype))
        assert not report.ok, f"payload.{path} retyped went undetected"


def _walked(record) -> RecheckReport:
    """`recheck`'s report from the field walk alone, without the equal-text test."""
    diffs: list = []
    _diff("payload", record["payload"], run(record["command"], record["config"]), diffs)
    return RecheckReport(ok=not diffs, diffs=tuple(diffs))


@pytest.mark.parametrize("case,command,config", list(all_cases()), ids=lambda v: str(v))
def test_equal_text_shortcut_agrees_with_the_walk(case, command, config):
    """Skipping the walk when the JSON texts match changes no report: not for
    the record itself, not for any single-field or retyped alteration."""
    record = json.loads(json.dumps(make_record(command, config, run(command, config))))
    paths = list(_leaf_paths(record["payload"]))
    altered = [_apply_mutation(record, path) for path in paths] + [
        _apply_mutation(record, path, _retype)
        for path in paths if type(_leaf(record, path)) in (bool, int)
    ]
    assert recheck(record) == _walked(record) == RecheckReport(ok=True, diffs=())
    for tampered in altered:
        report = recheck(tampered)
        assert not report.ok
        assert report == _walked(tampered)


def test_tampered_config_is_rejected():
    config = dict(CONFIGS["kneser"])
    payload = run("kneser", config)
    record = make_record("kneser", config, payload)
    tampered = json.loads(json.dumps(record))
    tampered["config"]["sets"]["A"] = [0, 2]
    report = recheck(tampered)
    assert not report.ok


def test_recheck_rejects_malformed_records():
    with pytest.raises(UsageError):
        recheck([1, 2, 3])
    with pytest.raises(UsageError):
        recheck({"schema_version": 99, "command": "kneser", "config": {}, "payload": {}})
    with pytest.raises(UsageError):
        recheck(
            {"schema_version": SCHEMA_VERSION, "command": "bogus", "config": {}, "payload": {}}
        )
    with pytest.raises(UsageError):
        recheck({"schema_version": SCHEMA_VERSION, "command": "kneser", "config": {}, "payload": 3})
    with pytest.raises(UsageError):
        run("kneser", {"group": {"preset": "cyclic", "n": 6}})  # missing sets
    with pytest.raises(UsageError):
        run("nonsense", {})


def test_rational_str_renders_ints_and_fractions():
    assert [rational_str(v) for v in (3, True, Fraction(-2, 4))] == ["3/1", "1/1", "-1/2"]


def test_default_caps_are_spec_defaults():
    assert DEFAULT_CAPS == {"order_cap": 64, "bruteforce_cap": 16, "subset_cap": 20}


def test_records_validate_against_published_schema():
    from smalldoubling.schema import validate_record

    assert set(COMMANDS) == {command for _, command, _ in all_cases()}
    for case, command, config in all_cases():
        record = make_record(command, config, run(command, config), wall_time_s=0.1)
        validate_record(record)  # raises on violation

    good = make_record("kneser", CONFIGS["kneser"], run("kneser", CONFIGS["kneser"]))
    broken = json.loads(json.dumps(good))
    del broken["payload"]["holds"]
    with pytest.raises(UsageError):
        validate_record(broken)
    with pytest.raises(UsageError):
        recheck(broken)
    mangled = json.loads(json.dumps(good))
    mangled["config"]["epsilon"] = "0.5"  # decimals are not rationals
    with pytest.raises(UsageError):
        validate_record(mangled)


def _altered(command, alter):
    record = make_record(command, CONFIGS[command], run(command, CONFIGS[command]))
    record = json.loads(json.dumps(record))
    alter(record["config"])
    return record


# Each config value in any form but its one accepted form is refused.
NON_CANONICAL = {
    "n-string": ("doubling", lambda c: c["group"].update(n="20")),
    "n-bool": ("doubling", lambda c: c["group"].update(n=True)),
    "group-unknown-key": ("doubling", lambda c: c["group"].update(order=20)),
    "K-unreduced": ("connectivity", lambda c: c.update(K="2/4")),
    "K-integer": ("connectivity", lambda c: c.update(K="1")),
    "K-plus-sign": ("connectivity", lambda c: c.update(K="+1/2")),
    "K-leading-space": ("connectivity", lambda c: c.update(K=" 1/2")),
    "K-zero-denominator": ("connectivity", lambda c: c.update(K="1/0")),
    "K-negative-zero": ("connectivity", lambda c: c.update(K="-0/1")),
    "K-json-int": ("connectivity", lambda c: c.update(K=1)),
    "epsilon-out-of-range": ("corollary-kn", lambda c: c.update(epsilon="3/2")),
    "indices-unsorted": ("doubling", lambda c: c["sets"].update(A=[1, 0, 2, 3, 4])),
    "indices-repeated": ("doubling", lambda c: c["sets"].update(A=[0, 1, 1, 2, 3, 4])),
    "index-out-of-range": ("doubling", lambda c: c["sets"].update(A=[0, 20])),
    "index-bool": ("doubling", lambda c: c["sets"].update(A=[False, 1, 2, 3, 4])),
    "unknown-key": ("doubling", lambda c: c.update(epsilon="1/5")),
    "unknown-set-name": ("kneser", lambda c: c["sets"].update(C=[0])),
    "budget-string": ("petridis", lambda c: c.update(budget="255")),
    "budget-above-limit": ("petridis", lambda c: c.update(budget=(1 << 24) + 1)),
    "mode-unknown": ("petridis", lambda c: c.update(mode="quick")),
    "cap-unknown": ("doubling", lambda c: c.update(caps={"time_cap": 1})),
    "cap-raised": ("doubling", lambda c: c.update(caps={"order_cap": 500})),
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_recheck_refuses_non_canonical_configs(name):
    case, alter = NON_CANONICAL[name]
    with pytest.raises(UsageError):
        recheck(_altered(case, alter))


def test_recheck_caps_come_from_the_rechecker():
    record = _altered("doubling", lambda c: c.update(caps={"order_cap": 20}))
    # Lowering a cap is allowed.
    assert recheck(record).ok
    record["config"]["caps"] = {"order_cap": 19}  # and binds the replay
    with pytest.raises(SizeLimitExceeded):
        recheck(record)
    record["config"]["caps"] = {"order_cap": 100}
    with pytest.raises(UsageError):
        recheck(record)
    assert recheck(record, caps={"order_cap": 100}).ok


# Every int of a config lies strictly between -2^63 and 2^63: past about
# 4,300 digits Python refuses to print an int, so a record holding one could
# not be written.  Each entry places `value` in a config of its command.
INT_VALUES = {
    "seed-petridis": ("petridis", lambda v: {
        "group": {"preset": "cyclic", "n": 8}, "sets": {"A": [0, 1], "S": [0, 1]},
        "mode": "sampled", "seed": v, "budget": 3}),
    "seed-search": ("search-kneser-failure", lambda v: {
        "group": {"preset": "symmetric", "n": 3}, "strategy": "random", "seed": v,
        "budget": 3}),
    "fragment_cap": ("connectivity", lambda v: {
        "group": {"preset": "cyclic", "n": 6}, "sets": {"S": [0, 1]}, "K": "1/2",
        "solver": "brute_force", "fragments": True, "fragment_cap": v}),
    "order_cap": ("petridis", lambda v: {
        "group": {"preset": "cyclic", "n": 8}, "sets": {"A": [0, 1], "S": [0, 1]},
        "budget": 255, "caps": {"order_cap": v}}),
    "subset_cap": ("petridis", lambda v: {
        "group": {"preset": "cyclic", "n": 8}, "sets": {"A": [0, 1], "S": [0, 1]},
        "budget": 255, "caps": {"subset_cap": v}}),
    "bruteforce_cap": ("connectivity", lambda v: {
        "group": {"preset": "cyclic", "n": 6}, "sets": {"S": [0, 1]}, "K": "1/2",
        "solver": "brute_force", "caps": {"bruteforce_cap": v}}),
}
TOO_LARGE = [1 << 63, -(1 << 63), 10**5000, -(10**5000)]


@pytest.mark.parametrize("name", sorted(INT_VALUES))
def test_an_int_of_magnitude_2_63_or_more_is_refused(name):
    command, config = INT_VALUES[name]
    for value in TOO_LARGE:
        with pytest.raises(UsageError):
            run(command, config(value))


@pytest.mark.parametrize("name", sorted(INT_VALUES))
def test_the_largest_int_issues_writes_and_rechecks(name):
    command, config = INT_VALUES[name]
    config = config((1 << 63) - 1)
    record = json.loads(json.dumps(make_record(command, config, run(command, config))))
    assert recheck(record, caps={**DEFAULT_CAPS, **config.get("caps", {})}).ok


@pytest.mark.parametrize(
    "group,sets,error",
    [
        ({"preset": "cyclic", "n": 10**5000}, {"A": [0]}, UsageError),
        ({"preset": "cyclic", "n": -(10**5000)}, {"A": [0]}, UsageError),
        ({"preset": "cyclic", "n": 4}, {"A": [0, 10**5000]}, UsageError),
        # A table entry outside [0, n) breaks closure, however long it is.
        ({"table": [[0, 1], [1, 10**5000]]}, {"A": [0]}, InvalidTable),
    ],
    ids=["n", "negative-n", "set-index", "table-entry"],
)
def test_a_group_or_set_int_past_2_63_is_refused(group, sets, error):
    with pytest.raises(error):
        run("doubling", {"group": group, "sets": sets})


@pytest.mark.parametrize(
    "command,config",
    [
        # Sampled Petridis with a budget of 10^12 C-sets.
        (
            "petridis",
            {"group": {"preset": "cyclic", "n": 8}, "sets": {"A": [0, 1], "S": [0, 1]},
             "mode": "sampled", "seed": 1, "budget": 10**12},
        ),
        # An exhaustive scan above the brute-force cap (S3 under a cap of 4).
        (
            "search-kneser-failure",
            {"group": {"preset": "symmetric", "n": 3}, "strategy": "exhaustive",
             "caps": {"bruteforce_cap": 4}},
        ),
    ],
    ids=["petridis-budget", "exhaustive-scan"],
)
def test_hostile_work_requests_are_refused_at_once(command, config):
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "smalldoubling", "version": "0.1.0"},
        "command": command,
        "config": config,
        "payload": dict.fromkeys(COMMANDS[command].payload),
    }
    started = time.perf_counter()
    with pytest.raises((UsageError, SizeLimitExceeded)):
        recheck(record)
    assert time.perf_counter() - started < 1.0
