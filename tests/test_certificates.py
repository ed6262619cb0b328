import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from smalldoubling import InvalidTable, SizeLimitExceeded, UsageError, rational_str
from smalldoubling.certificates import (
    DEFAULT_CAPS,
    SCHEMA_VERSION,
    RecheckReport,
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


def _path_text(path) -> str:
    """The path `recheck` reports for the payload leaf at `path`."""
    return "payload" + "".join(f"[{step}]" if type(step) is int else f".{step}" for step in path)


@pytest.mark.parametrize("case,command,config", list(all_cases()), ids=lambda v: str(v))
def test_equal_values_of_another_type_are_rejected(case, command, config):
    """Every single-leaf alteration of a record fails recheck with one diff,
    at that leaf (at `path.length` for a list): a changed value, and an equal
    value of another JSON type, as Python has False == 0, True == 1 and
    3 == 3.0 but a payload whose booleans or ints changed type is not the one
    `run` recomputes."""
    record = json.loads(json.dumps(make_record(command, config, run(command, config))))
    assert recheck(record) == RecheckReport(ok=True, diffs=())
    paths = list(_leaf_paths(record["payload"]))
    retyped = [path for path in paths if type(_leaf(record, path)) in (bool, int)]
    assert retyped
    for mutate, targets in ((_mutate, paths), (_retype, retyped)):
        for path in targets:
            leaf = _leaf(record, path)
            tampered = _apply_mutation(record, path, mutate)
            if type(leaf) is list:  # an empty list, now [0]
                expected = (f"{_path_text(path)}.length", 1, 0)
            else:
                expected = (_path_text(path), _leaf(tampered, path), leaf)
            report = recheck(tampered)
            # JSON text tells true, 1 and 1.0 apart, where == does not.
            assert json.dumps(report.diffs) == json.dumps([expected]), path
            assert not report.ok


def _same_text(record) -> bool:
    """Whether the stored payload's JSON text is the recomputed payload's."""
    recomputed = run(record["command"], record["config"])
    return json.dumps(record["payload"], sort_keys=True) == json.dumps(recomputed, sort_keys=True)


@pytest.mark.parametrize("case,command,config", list(all_cases()), ids=lambda v: str(v))
def test_equal_text_shortcut_agrees_with_the_walk(case, command, config):
    """The field walk alone decides recheck, and it decides what comparing
    JSON texts would: recheck passes exactly when the texts are equal, for
    the record itself and for each single-field or retyped alteration."""
    record = json.loads(json.dumps(make_record(command, config, run(command, config))))
    paths = list(_leaf_paths(record["payload"]))
    altered = [_apply_mutation(record, path) for path in paths] + [
        _apply_mutation(record, path, _retype)
        for path in paths if type(_leaf(record, path)) in (bool, int)
    ]
    assert _same_text(record) and recheck(record).ok
    for tampered in altered:
        report = recheck(tampered)
        assert not _same_text(tampered)
        assert not report.ok and report.diffs


def _pinned(alter):
    """The diffs of recheck on the corollary-kn record after `alter(payload)`."""
    command, config = "corollary-kn", CONFIGS["corollary-kn"]
    record = json.loads(json.dumps(make_record(command, config, run(command, config))))
    alter(record["payload"])
    return recheck(record).diffs


STABILIZER = {"indices": [0], "labels": ["0"]}

# Each alteration of the corollary-kn payload and the exact diffs it gives.
PINNED_REPORTS = {
    "rational": (lambda p: p.update(h_bound="10/1"), (("payload.h_bound", "10/1", "9/1"),)),
    "true-to-1": (lambda p: p.update(holds=1), (("payload.holds", 1, True),)),
    "1-to-1.0": (
        lambda p: p["cover"]["representatives"].__setitem__(1, 1.0),
        (("payload.cover.representatives[1]", 1.0, 1),),
    ),
    "deleted-key": (
        lambda p: p["cover"].pop("side"), (("payload.cover.side", "<missing>", "left"),),
    ),
    "extra-key": (
        lambda p: p["cover"].update(extra=0), (("payload.cover.extra", 0, "<missing>"),),
    ),
    "longer-list": (
        lambda p: p["square"]["indices"].append(9),
        (("payload.square.indices.length", 10, 9),),
    ),
    "dict-to-list": (
        lambda p: p.update(stabilizer=[0]), (("payload.stabilizer", [0], STABILIZER),),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_recheck_reports_are_pinned(name):
    alter, expected = PINNED_REPORTS[name]
    assert json.dumps(_pinned(alter)) == json.dumps(expected)


def test_a_deeply_nested_stored_leaf_is_one_diff(tmp_path):
    """The walk descends only where both sides hold a dict or both a list, so
    a string leaf replaced by a list nested 980 deep is one diff, not a
    RecursionError.  The JSON reader of a fresh Python 3.11 process accepts
    such a list up to 987 deep."""
    record = make_record("doubling", CONFIGS["doubling"], run("doubling", CONFIGS["doubling"]))
    nested = "[" * 980 + "]" * 980
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(record).replace('"group": "Z20"', f'"group": {nested}'))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "smalldoubling", "recheck", str(cert)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.count('"path"') == 1 and '"path": "payload.group"' in done.stdout


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
    # So does a cap that a runner checks: a record of |A| = 21 under a raised
    # subset cap.
    config = {"group": {"preset": "cyclic", "n": 24}, "sets": {"A": list(range(21)), "S": [0]},
              "mode": "sampled", "seed": 1, "budget": 10, "caps": {"subset_cap": 21}}
    record = json.loads(json.dumps(make_record("petridis", config, run("petridis", config))))
    with pytest.raises(UsageError, match="above this rechecker's cap 20"):
        recheck(record)
    assert recheck(record, caps={"subset_cap": 21}).ok


# Ceilings that a config could not hold as its caps: each is refused before
# the record's caps are read, so whether the record holds caps makes no odds.
BAD_CEILINGS = {
    "negative": ({"order_cap": -1}, "caps.order_cap must be a JSON integer of at least 0"),
    "string": ({"order_cap": "64"}, "caps.order_cap must be a JSON integer of at least 0"),
    "bool": ({"order_cap": True}, "caps.order_cap must be a JSON integer of at least 0"),
    "2^70": ({"order_cap": 2**70}, "caps.order_cap must lie strictly between -2\\^63 and 2\\^63"),
    "unknown-key": ({"bogus": 1}, "caps has unknown key\\(s\\): bogus"),
    "not-object": (64, "caps must be an object"),
}


@pytest.mark.parametrize("held", [None, DEFAULT_CAPS], ids=["no-caps", "caps"])
@pytest.mark.parametrize("name", sorted(BAD_CEILINGS))
def test_the_rechecker_ceiling_is_checked_like_a_config_caps(name, held):
    ceiling, message = BAD_CEILINGS[name]
    config = {"group": {"preset": "cyclic", "n": 4}, "sets": {"A": [0, 1]}}
    if held is not None:
        config["caps"] = dict(held)
    record = make_record("doubling", config, run("doubling", config))
    with pytest.raises(UsageError, match=f"^{message}"):
        recheck(record, ceiling)


# The runs that a certificate cap bounds, each as (command, the cap's key,
# the size compared with it, a config of that size).  S3 has order 6, and
# the runner checks the cap, not the library.
CAPPED_RUNS = {
    "connectivity": ("connectivity", "bruteforce_cap", 6, {
        "group": {"preset": "symmetric", "n": 3}, "sets": {"S": [0, 1]}, "K": "1/2",
        "solver": "brute_force"}),
    "atoms": ("atoms", "bruteforce_cap", 6, {
        "group": {"preset": "symmetric", "n": 3}, "sets": {"S": [0, 1]}, "K": "1/2"}),
    "exhaustive-scan": ("search-kneser-failure", "bruteforce_cap", 6, {
        "group": {"preset": "symmetric", "n": 3}}),
    "petridis": ("petridis", "subset_cap", 3, {
        "group": {"preset": "symmetric", "n": 3}, "sets": {"A": [0, 1, 2], "S": [0, 1]},
        "budget": 63}),
}


@pytest.mark.parametrize("name", sorted(CAPPED_RUNS))
def test_a_capped_run_stops_one_past_its_cap(name):
    command, key, size, config = CAPPED_RUNS[name]
    assert COMMANDS[command].ok(run(command, {**config, "caps": {key: size}}))
    with pytest.raises(SizeLimitExceeded, match=f" cap {size - 1}$"):
        run(command, {**config, "caps": {key: size - 1}})


# A run past its cap is refused before its sets or K are checked: each of
# these configs is past a default cap and also wrong in another way.
CAP_FIRST = {
    "empty-s-past-the-bruteforce-cap": ("connectivity", {
        "group": {"preset": "cyclic", "n": 17}, "sets": {"S": []}, "K": "1/2",
        "solver": "brute_force"}),
    "k-1-past-the-bruteforce-cap": ("atoms", {
        "group": {"preset": "cyclic", "n": 17}, "sets": {"S": [0, 1]}, "K": "1/1"}),
    "empty-s-past-the-subset-cap": ("petridis", {
        "group": {"preset": "cyclic", "n": 24}, "sets": {"A": list(range(21)), "S": []},
        "mode": "sampled", "seed": 1, "budget": 10}),
}


@pytest.mark.parametrize("name", sorted(CAP_FIRST))
def test_a_cap_is_checked_before_the_sets_and_k(name):
    command, config = CAP_FIRST[name]
    with pytest.raises(SizeLimitExceeded):
        run(command, config)


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


@pytest.mark.parametrize("option", [{"fragments": True}, {"classify_atom": False}])
def test_an_option_the_subgroup_solver_lacks_is_refused_before_s_is_checked(option):
    # The runner refuses the option before the solver checks S.
    config = {"group": {"preset": "cyclic", "n": 6}, "sets": {"S": []}, "K": "1/2", **option}
    with pytest.raises(UsageError, match="need.? the brute_force solver"):
        run("connectivity", config)
