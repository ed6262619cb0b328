"""Property tests of group specs.

One malformed node makes a group spec fail both checks: `schema.check_group`
(UsageError) and `groups.from_spec` (InvalidTable) run the same spec check,
so they refuse exactly the same specs, and `from_spec` refuses before any
table is built.

The order cap is checked from the spec alone: `from_spec` builds a valid spec
exactly when the built group's order is at most the cap, and refuses it with
SizeLimitExceeded before any builder runs otherwise.
"""

import copy
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from smalldoubling import InvalidTable, SizeLimitExceeded, UsageError, from_spec, groups, schema

LEAVES = st.sampled_from([
    {"preset": "cyclic", "n": 3},
    {"preset": "dihedral", "n": 2},
    {"preset": "symmetric", "n": 1},
    {"preset": "quaternion", "n": 2},
    {"table": [[0, 1], [1, 0]]},
    {"table": [[0, 1], [1, 0]], "labels": ["e", "g"], "name": "C2"},
])
SPECS = st.recursive(
    LEAVES,
    lambda factors: st.lists(factors, min_size=1, max_size=2).map(
        lambda fs: {"preset": "direct_product", "factors": fs}
    ),
    max_leaves=3,
)


def _least_n(node):
    return groups.PRESETS[node["preset"]][1]


def _set_entry(value):
    def mutate(node):
        node["table"][-1][0] = value
    return mutate


def _unknown_key(node):
    node["order"] = 1


# One malformed change per kind of node, each a spec rule.
MUTATIONS = {
    "preset": [
        lambda node: node.update(n=True),
        lambda node: node.update(n=float(node["n"])),
        lambda node: node.update(n=str(node["n"])),
        lambda node: node.update(n=_least_n(node) - 1),
        _unknown_key,
    ],
    "table": [
        _set_entry(True),
        _set_entry(1.0),
        lambda node: node.update(labels=list(range(len(node["table"])))),
        lambda node: node.update(name=5),
        _unknown_key,
    ],
    "product": [
        lambda node: node.update(factors=[]),
        lambda node: node.update(factors=node["factors"][0]),
        _unknown_key,
    ],
}


def _nodes(spec):
    yield spec
    for factor in spec.get("factors", ()):
        yield from _nodes(factor)


def _kind(node):
    if "table" in node:
        return "table"
    return "product" if node["preset"] == "direct_product" else "preset"


@settings(max_examples=200, deadline=None)
@given(SPECS, st.data())
def test_config_check_refuses_exactly_what_from_spec_refuses(spec, data):
    spec = copy.deepcopy(spec)
    node = data.draw(st.sampled_from(list(_nodes(spec))), label="node")
    mutate = data.draw(st.sampled_from([None, *MUTATIONS[_kind(node)]]), label="mutation")
    if mutate is not None:
        mutate(node)
    try:
        schema.check_group(spec)
    except UsageError:
        refused = True
    else:
        refused = False
    assert refused == (mutate is not None)
    if not refused:
        from_spec(spec, order_cap=8**3)
        return
    built = [mock.patch.object(groups, name, side_effect=AssertionError("table built"))
             for name in ("_build_spec", "_build")]
    with built[0], built[1], pytest.raises(InvalidTable):
        from_spec(spec)


def _table(n):
    return {"table": [[(a + b) % n for b in range(n)] for a in range(n)]}


# Leaves of drawn n, up to order 24; products of at most two leaves stay
# below 600 elements.
DRAWN_LEAVES = st.one_of(
    st.builds(lambda n: {"preset": "cyclic", "n": n}, st.integers(1, 12)),
    st.builds(lambda n: {"preset": "dihedral", "n": n}, st.integers(1, 6)),
    st.builds(lambda n: {"preset": "symmetric", "n": n}, st.integers(1, 4)),
    st.builds(lambda n: {"preset": "quaternion", "n": n}, st.integers(2, 4)),
    st.builds(_table, st.integers(1, 6)),
)
DRAWN_SPECS = st.recursive(
    DRAWN_LEAVES,
    lambda factors: st.lists(factors, min_size=1, max_size=2).map(
        lambda fs: {"preset": "direct_product", "factors": fs}
    ),
    max_leaves=2,
)


def _refuse(*args, **kwargs):
    raise AssertionError("a builder ran")


@settings(max_examples=200, deadline=None)
@given(DRAWN_SPECS, st.data())
def test_from_spec_builds_exactly_the_specs_within_the_order_cap(spec, data):
    order = from_spec(spec, order_cap=1 << 20).order  # the real table's order
    cap = data.draw(st.integers(max(0, order - 3), order + 3), label="cap")
    if order <= cap:
        assert from_spec(spec, order_cap=cap).order == order
        return
    spied = {name: (_refuse, least, size) for name, (_, least, size) in groups.PRESETS.items()}
    with mock.patch.dict(groups.PRESETS, spied), \
            mock.patch.object(groups, "direct_product", _refuse), \
            mock.patch.object(groups, "from_table", _refuse), \
            pytest.raises(SizeLimitExceeded, match=f"above the configured cap {cap}$"):
        from_spec(spec, order_cap=cap)


def _key_and_group(spec):
    """The key `from_spec` builds `spec` from (the first `groups._build`
    call's argument; factors are built by later calls) and the group built."""
    keys = []
    original = groups._build

    def spy(key):
        keys.append(key)
        return original(key)

    with mock.patch.object(groups, "_build", spy):
        G = from_spec(spec, order_cap=8**3)
    return keys[0], G


@settings(max_examples=100, deadline=None)
@given(SPECS)
def test_a_spec_and_its_key_build_the_same_group(spec):
    key, G = _key_and_group(spec)
    again = groups._build(key)
    assert (again.mul, again.labels, again.name, again.spec) == (G.mul, G.labels, G.name, G.spec)
    copied, _ = _key_and_group(copy.deepcopy(spec))
    assert copied == key and hash(copied) == hash(key)
