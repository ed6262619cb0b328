import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from smalldoubling import certificates, groups, schema, theorems
from smalldoubling.cli import main, parse_group_spec, parse_set_elements
from smalldoubling.errors import InvalidTable, SizeLimitExceeded, TheoryViolation, UsageError
from smalldoubling.groups import from_spec, symmetric
from test_certificates import all_cases
from test_payload_digests import TABLE_S3


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, *argv):
    """Exit code 2 and one JSON line on stderr with code UsageError."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["error"]["code"] == "UsageError"


def test_parse_group_spec_inline():
    assert parse_group_spec("cyclic:12") == {"preset": "cyclic", "n": 12}
    assert parse_group_spec("sym:3") == {"preset": "symmetric", "n": 3}
    assert parse_group_spec("cyclic:2xcyclic:3") == {
        "preset": "direct_product",
        "factors": [{"preset": "cyclic", "n": 2}, {"preset": "cyclic", "n": 3}],
    }
    with pytest.raises(Exception):
        parse_group_spec("octonion:3")


def test_parse_group_spec_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"preset": "dihedral", "n": 4}))
    assert from_spec(parse_group_spec(str(path))).order == 8
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(Exception):
        schema.check_group(parse_group_spec(str(bad)), "--group")


def test_parse_set_elements_indices_and_labels():
    S3 = symmetric(3)
    assert parse_set_elements(S3, "0, 2") == [0, 2]
    assert parse_set_elements(S3, "e,(1 2)") == [0, 2]
    assert parse_set_elements(S3, "") == []
    with pytest.raises(Exception):
        parse_set_elements(S3, "(9 9)")
    with pytest.raises(Exception):
        parse_set_elements(S3, "17")


def test_a_token_that_is_an_index_and_another_label_is_refused(tmp_path, capsys):
    """In a table labelled ["1", "0"], "1" is index 1 and the label of index 0."""
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": ["1", "0"]}))
    assert_usage_error(capsys, "doubling", "--group", str(group), "--setA", "1")
    G = from_spec(json.loads(group.read_text()))
    with pytest.raises(UsageError, match="index 1, or the element labelled '1', index 0"):
        parse_set_elements(G, "1")
    # A label that is its own index, or no index at all, reads one way.
    G = from_spec({"table": [[0, 1], [1, 0]], "labels": ["0", "x"]})
    assert parse_set_elements(G, "0,x") == [0, 1]
    assert parse_set_elements(G, "0,1") == [0, 1]
    # A decimal token that is no index but a label means that label; one
    # that is neither is refused.
    group.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": ["5", "7"]}))
    code, out, _ = run_cli(capsys, "doubling", "--group", str(group), "--setA", "7")
    assert code == 0 and json.loads(out)["config"]["sets"]["A"] == [1]
    G = from_spec(json.loads(group.read_text()))
    assert parse_set_elements(G, "7") == [1]
    assert parse_set_elements(G, "5,1") == [0, 1]
    with pytest.raises(UsageError, match="element index 6 outside group of order 2"):
        parse_set_elements(G, "6")


PRODUCTS = {
    "Z2xZ4": "cyclic:2xcyclic:4",
    "D4xZ2": "dihedral:4xcyclic:2",
    "nested": {"preset": "direct_product", "factors": [
        {"preset": "direct_product", "factors": [{"preset": "cyclic", "n": 2}] * 2},
        {"preset": "quaternion", "n": 2}]},
    "table-factor": {"preset": "direct_product", "factors": [TABLE_S3, {"preset": "cyclic", "n": 2}]},
}


@pytest.mark.parametrize("name", list(PRODUCTS))
def test_a_product_element_is_named_by_its_label(name, tmp_path, capsys):
    group = PRODUCTS[name]
    if isinstance(group, dict):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        group = str(path)
    issued = []
    for _ in range(2):
        elements = ",".join(issued[-1]["labels"]) if issued else "0,3,5,6"
        code, out, _ = run_cli(capsys, "doubling", "--group", group, "--setA", elements)
        assert code == 0
        issued.append(json.loads(out)["payload"]["set_a"])
    assert issued[0]["indices"] == [0, 3, 5, 6] and issued[1] == issued[0]
    assert all("," in label for label in issued[0]["labels"])


def test_a_label_with_commas_is_read_whole_unless_its_first_piece_names_an_element(
    tmp_path, capsys
):
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    G = from_spec({"table": table, "labels": ["e", "x,y", "y"]})
    assert parse_set_elements(G, "x,y") == [1]
    assert parse_set_elements(G, " x,y ,e") == [0, 1]
    for labels, first in ((["a", "a,b", "b"], "a"), (["x", "0,2", "y"], "0")):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"table": table, "labels": labels}))
        text = labels[1]
        assert_usage_error(capsys, "doubling", "--group", str(group), "--setA", text)
        G = from_spec(json.loads(group.read_text()))
        message = f"element '{text}' of table is ambiguous: the element labelled '{text}', " \
            f"or a list that starts with '{first}'"
        with pytest.raises(UsageError, match=f"^{message}$"):
            parse_set_elements(G, text)


def test_doubling_run(capsys):
    code, out, err = run_cli(
        capsys, "doubling", "--group", "cyclic:20", "--setA", "0,1,2,3,4"
    )
    assert code == 0
    record = json.loads(out)
    assert record["payload"]["ratio"] == "9/5"
    assert record["schema_version"] == 1
    assert record["config"]["group"] == {"preset": "cyclic", "n": 20}


def test_theorem_main_run_with_labels(capsys):
    code, out, _ = run_cli(
        capsys,
        "theorem-main",
        "--group", "sym:3",
        "--setA", "e,(1 2)",
        "--setS", "e,(1 2)",
        "--epsilon", "1/1",
    )
    assert code == 0
    record = json.loads(out)
    assert record["payload"]["branch"] == "single_right_coset"

    code, out, _ = run_cli(
        capsys,
        "theorem-main", "--group", "sym:3", "--setA", "0,2", "--setS", "0,2", "--epsilon", "1",
    )
    assert code == 0
    assert json.loads(out)["config"]["epsilon"] == "1/1"


@pytest.mark.parametrize("n", [40, 70])
@pytest.mark.parametrize("command", [("connectivity", "--solver", "brute"), ("atoms",)],
                         ids=["connectivity", "atoms"])
def test_subset_tables_past_the_limit_exit_2(capsys, command, n):
    code, out, err = run_cli(
        capsys, *command, "--group", f"cyclic:{n}", "--setS", "0,1", "--K", "1/2",
        "--order-cap", str(n), "--bruteforce-cap", str(n),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"


def test_named_set_flag_equivalent(capsys):
    code1, out1, _ = run_cli(capsys, "kneser", "--group", "cyclic:6", "--set", "A=0,1", "--set", "B=0,1")
    code2, out2, _ = run_cli(capsys, "kneser", "--group", "cyclic:6", "--setA", "0,1", "--setB", "0,1")
    assert code1 == code2 == 0
    assert json.loads(out1)["payload"] == json.loads(out2)["payload"]


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "corollary-kn", "--group", "cyclic:12", "--setA", "0,1", "--epsilon", "3/2"
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "UsageError"

    code, _, err = run_cli(capsys, "doubling", "--group", "sym:7", "--setA", "0")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"

    code, _, err = run_cli(
        capsys, "atoms", "--group", "sym:3", "--setS", "0,1", "--K", "1/2", "--bruteforce-cap", "5"
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"

    code, _, err = run_cli(capsys, "doubling", "--group", "cyclic:6")
    assert code == 2  # missing required set

    code, _, err = run_cli(capsys, "doubling", "--group", "cyclic:8", "--setA", "0,²")
    assert code == 2  # a superscript two is a digit to str.isdigit, not an index
    assert json.loads(err)["error"]["code"] == "UsageError"

    long = "9" * 5000  # more digits than int() converts
    code, _, err = run_cli(capsys, "doubling", "--group", "cyclic:8", "--setA", "0," + long)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "UsageError"

    code, _, err = run_cli(capsys, "doubling", "--group", "cyclic:" + long, "--setA", "0")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "UsageError"

    code, _, err = run_cli(capsys, "nonsense")
    assert code == 2

    # An inline spec gets the group check of a certificate's config.
    assert_usage_error(capsys, "doubling", "--group", "quaternion:1", "--setA", "0")
    assert_usage_error(capsys, "doubling", "--group", "cyclic:4xdihedral:0", "--setA", "0")

    code, _, err = run_cli(capsys, "kneser", "--group", "sym:3", "--setA", "0", "--setB", "0")
    assert code == 2  # NotAbelian surfaces as a precondition error
    assert json.loads(err)["error"]["code"] == "NotAbelian"

    # The cap flags are checked like a config's caps, before any group is
    # built, on issue and on recheck, whether or not the record holds caps.
    assert_usage_error(capsys, "doubling", "--group", "cyclic:4", "--setA", "0", "--order-cap", "-1")
    cert = tmp_path / "cert.json"
    assert main(["doubling", "--group", "cyclic:4", "--setA", "0", "--out", str(cert)]) == 0
    bare = tmp_path / "bare.json"
    record = json.loads(cert.read_text())
    del record["config"]["caps"]
    bare.write_text(json.dumps(record))
    for path in (cert, bare):
        assert_usage_error(capsys, "recheck", str(path), "--order-cap", "-1")
    assert_usage_error(capsys, "recheck", str(cert), "--subset-cap", str(1 << 63))


@pytest.mark.parametrize(
    "first,second",
    [(("--set", "A=0,1,2"), ("--set", "A=0,1")),
     (("--setA", "0"), ("--setA", "1,2")),
     (("--setA", "0"), ("--set", "A=1")),
     (("--set", "A=0"), ("--setA", "1"))],
)
def test_a_set_named_twice_is_refused(capsys, first, second):
    # A set given twice is refused, not silently replaced by one of the two,
    # through any mix of --set and its shorthand.
    code, out, err = run_cli(capsys, "doubling", "--group", "cyclic:4", *first, *second)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "UsageError", "message": "set 'A' is given more than once"
    }


def test_connectivity_solvers_and_fragments(capsys):
    code, out, _ = run_cli(
        capsys, "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2"
    )
    assert code == 0
    assert json.loads(out)["payload"]["kappa"] == "3/2"

    code, out, _ = run_cli(
        capsys, "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "2/4"
    )
    assert code == 0
    assert json.loads(out)["config"]["K"] == "1/2"

    code, out, _ = run_cli(
        capsys,
        "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2",
        "--solver", "brute", "--fragments",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["solver"] == "brute_force"
    assert payload["fragment_total"] == 8

    code, out, _ = run_cli(
        capsys,
        "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2",
        "--solver", "brute", "--fragments", "--fragment-cap", "3",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["fragment_total"] == 8 and len(payload["fragments"]) == 3

    code, _, err = run_cli(
        capsys,
        "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2",
        "--solver", "brute", "--fragments", "--fragment-cap", "-1",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "UsageError"

    code, _, err = run_cli(
        capsys,
        "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/1",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "KOutOfRange"

    code, out, _ = run_cli(
        capsys,
        "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/1",
        "--solver", "brute", "--no-atom",
    )
    assert code == 0
    assert json.loads(out)["payload"]["kappa"] == "0/1"


def test_solver_takes_the_config_spelling_and_its_alias(capsys):
    argv = ("connectivity", "--group", "dihedral:4", "--setS", "0,1", "--K", "1/2")
    for alias, spelling in [("brute", "brute_force"), ("subgroup", "subgroup_restricted")]:
        records = []
        for solver in (alias, spelling):
            code, out, _ = run_cli(capsys, *argv, "--solver", solver)
            assert code == 0
            record = json.loads(out)
            del record["meta"]  # wall time
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["config"]["solver"] == spelling


def test_no_atom_needs_the_brute_force_solver(tmp_path, capsys):
    argv = ("connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2")
    code, _, err = run_cli(capsys, *argv, "--no-atom")
    assert code == 2
    assert json.loads(err)["error"] == {
        "code": "UsageError", "message": "fragments-only output needs the brute_force solver"
    }

    # A stored record that asks for it is refused on replay too.
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, *argv, "--out", str(cert))[0] == 0
    record = json.loads(cert.read_text())
    record["config"]["classify_atom"] = False
    cert.write_text(json.dumps(record))
    assert_usage_error(capsys, "recheck", str(cert))


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "kneser-failure", "--group", "dihedral:3"),
        ("petridis", "--group", "dihedral:3", "--set", "A=0,1", "--set", "S=0,1",
         "--mode", "exhaustive"),
    ],
    ids=["kneser-scan", "petridis"],
)
def test_an_exhaustive_run_refuses_a_seed(tmp_path, capsys, argv):
    # An exhaustive run draws nothing, so a seed would only give the same
    # computation more than one valid certificate.
    assert_usage_error(capsys, *argv, "--seed", "9")

    # A stored record that carries one is refused on replay too.
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, *argv, "--out", str(cert))[0] == 0
    record = json.loads(cert.read_text())
    record["config"]["seed"] = 9
    cert.write_text(json.dumps(record))
    assert_usage_error(capsys, "recheck", str(cert))


def test_atoms_run(capsys):
    code, out, _ = run_cli(
        capsys, "atoms", "--group", "cyclic:6", "--setS", "0,3", "--K", "1/2"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    assert [a["indices"] for a in payload["atoms"]] == [[0, 3], [1, 4], [2, 5]]


def test_conv_subcommands(capsys):
    code, out, _ = run_cli(capsys, "conv", "gap", "--group", "cyclic:8", "--setA", "0,1")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["epsilon_star"] == "1/2" and payload["gap_holds"] is True

    code, out, _ = run_cli(
        capsys,
        "conv", "smooth", "--group", "cyclic:8", "--setA", "0,1", "--setS", "0,1",
        "--threshold", "1/3",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["mass"] == "2/1"
    assert payload["level_set"]["indices"] == [0, 1, 2]


def test_search_run(capsys):
    code, out, _ = run_cli(
        capsys, "search", "kneser-failure", "--group", "sym:3", "--strategy", "exhaustive"
    )
    assert code == 0  # no failures found in S3
    payload = json.loads(out)["payload"]
    assert payload["finding_count"] == 0 and payload["exhausted"] is True

    code, _, err = run_cli(
        capsys, "search", "kneser-failure", "--group", "sym:3", "--strategy", "random"
    )
    assert code == 2  # seed and budget required

    code, _, err = run_cli(
        capsys, "search", "kneser-failure", "--group", "cyclic:6"
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "NotAbelian"


def test_petridis_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "petridis", "--group", "cyclic:8", "--setA", "0,1", "--setS", "0,1",
        "--budget", "255",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["k"] == "3/2" and payload["ok"] is True


def test_a_seed_of_2_63_exits_2(capsys):
    base = ("petridis", "--group", "cyclic:8", "--setA", "0,1", "--setS", "0,1",
            "--mode", "sampled", "--budget", "3", "--seed")
    assert_usage_error(capsys, *base, str(1 << 63))
    code, out, _ = run_cli(capsys, *base, str((1 << 63) - 1))
    assert code == 0 and json.loads(out)["config"]["seed"] == (1 << 63) - 1


def test_recheck_cycle(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "connectivity", "--group", "cyclic:8", "--setS", "0,1", "--K", "1/2",
        "--out", str(cert),
    )
    assert code == 0 and cert.exists()

    code, out, _ = run_cli(capsys, "recheck", str(cert))
    assert code == 0
    assert json.loads(out)["ok"] is True

    record = json.loads(cert.read_text())
    record["payload"]["kappa"] = "7/2"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(record))
    code, out, _ = run_cli(capsys, "recheck", str(tampered))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["diffs"][0]["path"] == "payload.kappa"

    # Any tool.version replays; a record of another tool is refused.
    record = json.loads(cert.read_text())
    record["tool"]["version"] = "0.0.1"
    tampered.write_text(json.dumps(record))
    assert run_cli(capsys, "recheck", str(tampered))[0] == 0
    record["tool"]["name"] = "otherdoubling"
    tampered.write_text(json.dumps(record))
    assert_usage_error(capsys, "recheck", str(tampered))

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    code, _, err = run_cli(capsys, "recheck", str(garbage))
    assert code == 2


UNREADABLE = {
    "deep": ("[" * 5000 + "]" * 5000).encode(),  # past the JSON parser's nesting depth
    "latin-1": b'{"preset": "cyclic", "n": 4, "name": "\xe9"}',
}


@pytest.mark.parametrize("use", ["recheck", "group"])
@pytest.mark.parametrize("content", list(UNREADABLE))
def test_unreadable_files_exit_2(tmp_path, capsys, content, use):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[content])
    if use == "recheck":
        assert_usage_error(capsys, "recheck", str(path))
    else:
        assert_usage_error(capsys, "doubling", "--group", str(path), "--setA", "0")


def _product_file(tmp_path, factors) -> Path:
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"preset": "direct_product", "factors": factors}))
    return path


@pytest.mark.parametrize("count", [2390, 5000])
def test_a_product_past_the_order_cap_is_refused_at_once(tmp_path, capsys, count):
    """A product of thousands of cyclic:64 factors, whose order has too many
    digits to print, is SizeLimitExceeded before any factor is built, through
    `run`, `recheck` and the command line alike."""
    group = _product_file(tmp_path, [{"preset": "cyclic", "n": 64}] * count)
    spec = json.loads(group.read_text())
    cert = tmp_path / "cert.json"
    assert main(["doubling", "--group", "cyclic:4", "--setA", "0", "--out", str(cert)]) == 0
    record = json.loads(cert.read_text())
    record["config"]["group"] = spec
    cert.write_text(json.dumps(record))
    started = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match=r"order at least 4096, above the configured cap 64$"):
        certificates.run("doubling", {"group": spec, "sets": {"A": [0]}})
    with pytest.raises(SizeLimitExceeded):
        certificates.recheck(record)
    for argv in (["doubling", "--group", str(group), "--setA", "0"], ["recheck", str(cert)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"
    assert time.perf_counter() - started < 1.0


def test_table_factors_past_the_order_cap_are_never_validated(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(groups, "validate_table", lambda *a: pytest.fail("table validated"))
    z64 = {"table": [[(a + b) % 64 for b in range(64)] for a in range(64)]}
    group = _product_file(tmp_path, [z64] * 200)
    with pytest.raises(SizeLimitExceeded):
        from_spec(json.loads(group.read_text()))
    code, _, err = run_cli(capsys, "doubling", "--group", str(group), "--setA", "0")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"


def test_the_order_cap_comes_before_an_invalid_table(tmp_path, capsys):
    # An invalid table in a product past the cap was InvalidTable while the
    # builders checked the cap; the spec's order is now checked first.
    bad = {"table": [[0, 1], [0, 1]]}
    with pytest.raises(InvalidTable):
        from_spec(bad)
    group = _product_file(tmp_path, [bad, {"preset": "cyclic", "n": 64}])
    code, _, err = run_cli(capsys, "doubling", "--group", str(group), "--setA", "0")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "SizeLimitExceeded"


def test_group_file_is_checked_before_it_is_built(tmp_path, capsys, monkeypatch):
    for builder in ("from_spec", "_build_spec"):
        monkeypatch.setattr(groups, builder, lambda *a, **k: pytest.fail("built unchecked"))
    path = tmp_path / "string_n.json"
    path.write_text(json.dumps({"preset": "cyclic", "n": "abc"}))
    assert_usage_error(capsys, "doubling", "--group", str(path), "--setA", "0")


def _nested_product(levels: int) -> str:
    """JSON text of `levels` nested direct_product specs over cyclic:1
    (json.dumps would itself run out of stack at a few hundred levels)."""
    return (
        '{"preset": "direct_product", "factors": [' * levels
        + '{"preset": "cyclic", "n": 1}'
        + "]}" * levels
    )


def test_group_nesting_is_capped():
    schema.check_group(json.loads(_nested_product(groups.MAX_GROUP_NESTING)))
    with pytest.raises(UsageError, match="nests direct_product"):
        schema.check_group(json.loads(_nested_product(groups.MAX_GROUP_NESTING + 1)))


@pytest.mark.parametrize("levels", [groups.MAX_GROUP_NESTING, 493])
def test_nested_group_issues_and_rechecks_or_exits_2(tmp_path, levels):
    """What the command line issues it also rechecks: a group nested too deep
    for `groups.from_spec` is refused from a group file and from a
    hand-built certificate alike.  Each call is a fresh process."""

    def cli(*argv):
        return _run_python(
            f"from smalldoubling.cli import main\nraise SystemExit(main({list(argv)!r}))\n"
        )

    def refused(done):
        return done.returncode == 2 and json.loads(done.stderr)["error"]["code"] == "UsageError"

    nested = _nested_product(levels)
    group, cert = tmp_path / "group.json", tmp_path / "cert.json"
    group.write_text(nested)
    issued = cli("doubling", "--group", str(group), "--setA", "0", "--out", str(cert))
    if levels <= groups.MAX_GROUP_NESTING:
        assert issued.returncode == 0, issued.stderr
        assert cli("recheck", str(cert)).returncode == 0
        return
    assert refused(issued), issued.stderr
    assert main(["doubling", "--group", "cyclic:1", "--setA", "0", "--out", str(cert)]) == 0
    record = json.loads(cert.read_text())
    record["config"]["group"] = "NESTED"
    cert.write_text(json.dumps(record).replace('"NESTED"', nested))
    rechecked = cli("recheck", str(cert))
    assert refused(rechecked), rechecked.stderr


# Group labels for --format text: one UTF-8 cannot encode, which is refused,
# and a non-ASCII one, written as UTF-8 under an ASCII locale to a file and
# to standard output.
TEXT_LABELS = {"lone-surrogate": "\ud800", "posix-locale": "\u00e9", "posix-stdout": "\u00e9"}


@pytest.mark.parametrize("target", ["missing/cert.json", "taken", *TEXT_LABELS])
def test_unwritable_out_exits_2_and_leaves_no_tmp(tmp_path, capsys, target):
    (tmp_path / "taken").mkdir()
    out = str(tmp_path / target)
    if target not in TEXT_LABELS:
        assert_usage_error(capsys, "doubling", "--group", "cyclic:4", "--setA", "0", "--out", out)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        return
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": ["e", TEXT_LABELS[target]]}))
    argv = ["doubling", "--group", str(group), "--setA", "1", "--format", "text"]
    if target != "posix-stdout":
        argv += ["--out", out]
    if target == "lone-surrogate":
        assert_usage_error(capsys, *argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["group.json", "taken"]
        return
    done = _run_python(
        f"from smalldoubling.cli import main\nraise SystemExit(main({argv!r}))\n",
        LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
    )
    assert done.returncode == 0, done.stderr
    if target == "posix-stdout":
        assert "set_a.labels = [\u00e9]" in done.stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["group.json", "taken"]
        return
    assert sorted(p.name for p in tmp_path.iterdir()) == ["group.json", "posix-locale", "taken"]
    assert "set_a.labels = [\u00e9]" in Path(out).read_text(encoding="utf-8")


def test_theory_violation_exits_1(monkeypatch, capsys):
    def impossible(*args, **kwargs):
        raise TheoryViolation("two identity atoms")

    monkeypatch.setattr(certificates, "run", impossible)
    code, _, err = run_cli(capsys, "doubling", "--group", "cyclic:4", "--setA", "0")
    assert code == 1
    assert json.loads(err)["error"] == {"code": "TheoryViolation", "message": "two identity atoms"}


def test_a_flagged_pair_that_holds_is_a_theory_violation(monkeypatch, capsys):
    # {e} * {e} = {e} satisfies Kneser, so the scan's re-verification refuses it.
    monkeypatch.setattr(theorems, "_orbit_scan", lambda G: [(1, 1)])
    config = {"group": {"preset": "symmetric", "n": 3}, "strategy": "exhaustive"}
    with pytest.raises(TheoryViolation, match="recomputation passes"):
        certificates.run("search-kneser-failure", config)
    code, out, err = run_cli(
        capsys, "search", "kneser-failure", "--group", "sym:3", "--strategy", "exhaustive"
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "TheoryViolation"


def test_a_pair_that_holds_is_refused_after_a_failure_with_its_product(monkeypatch):
    # ({e}, A*B) has the product of a real failure (A, B), and with it the
    # same stabilizer, but |T| >= 1 + |T| - |stab(T)| always holds: the
    # stabilizer is shared by product, the verdict is not.
    G = groups.dihedral(6)
    failure = theorems.kneser_violation_scan(G, "exhaustive").findings[0]
    assert not failure.holds
    held = (1 << G.identity, failure.sum.mask)
    monkeypatch.setattr(
        theorems, "_orbit_scan", lambda G: [(failure.A.mask, failure.B.mask), held]
    )
    config = {"group": {"preset": "dihedral", "n": 6}, "strategy": "exhaustive"}
    with pytest.raises(TheoryViolation, match="recomputation passes"):
        certificates.run("search-kneser-failure", config)


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "doubling", "--group", "cyclic:20", "--setA", "0,1,2,3,4", "--format", "text",
    )
    assert code == 0
    assert "payload.ratio = 9/5" in out
    assert "{" not in out.splitlines()[0]


def test_cap_flags(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(
        capsys, "doubling", "--group", "sym:5", "--setA", "0,1", "--order-cap", "200"
    )
    assert code == 0
    assert json.loads(out)["config"]["caps"]["order_cap"] == 200

    # recheck takes its caps from the same flags; a certificate may only lower them.
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "doubling", "--group", "cyclic:100", "--setA", "0,1", "--order-cap", "100",
        "--out", str(cert),
    )
    assert code == 0
    assert run_cli(capsys, "recheck", str(cert), "--order-cap", "100")[0] == 0
    assert_usage_error(capsys, "recheck", str(cert))
    raised = tmp_path / "raised.json"
    record = json.loads(cert.read_text())
    record["config"]["caps"]["order_cap"] = 500
    raised.write_text(json.dumps(record))
    assert run_cli(capsys, "recheck", str(raised), "--order-cap", "200")[0] == 2
    assert_usage_error(
        capsys, "doubling", "--group", "cyclic:6", "--setA", "0", "--order-cap", "abc"
    )

    # The environment sets no cap.
    for key in schema.DEFAULT_CAPS:
        monkeypatch.setenv(f"SMALLDOUBLING_{key.upper()}", "1")
    code, out, _ = run_cli(capsys, "doubling", "--group", "cyclic:6", "--setA", "0")
    assert code == 0
    assert json.loads(out)["config"]["caps"] == schema.DEFAULT_CAPS


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "klein.json"
    path.write_text(
        json.dumps(
            {
                "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                "labels": ["e", "a", "b", "ab"],
            }
        )
    )
    code, out, _ = run_cli(capsys, "kneser", "--group", str(path), "--setA", "e,a", "--setB", "e,b")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["holds"] is True
    assert payload["sum"]["labels"] == ["e", "a", "b", "ab"]


def test_a_product_of_a_table_reads_its_identity_atom(tmp_path, capsys):
    """The identity of TABLE_S3 is index 1, and so is that of its one-factor product."""
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"preset": "direct_product", "factors": [TABLE_S3]}))
    code, out, _ = run_cli(capsys, "atoms", "--group", str(path), "--setS", "0", "--K", "1/2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ok"] is True
    assert payload["identity_atom"] == {"indices": [1], "labels": ["(e)"]}


def test_a_negative_rational_needs_the_equals_form(capsys):
    """argparse reads the -1/2 of `--K -1/2` as a flag, not as the value."""
    argv = ("connectivity", "--group", "cyclic:8", "--setS", "0,1")
    assert_usage_error(capsys, *argv, "--K", "-1/2")
    code, out, _ = run_cli(capsys, *argv, "--K=-1/2")
    assert code == 0
    assert json.loads(out)["config"]["K"] == "-1/2"


def test_determinism_across_invocations(capsys):
    outputs = set()
    for _ in range(3):
        code, out, _ = run_cli(
            capsys,
            "search", "kneser-failure", "--group", "dihedral:3",
            "--strategy", "random", "--seed", "99", "--budget", "250",
        )
        assert code == 0
        outputs.add(json.dumps(json.loads(out)["payload"], sort_keys=True))
    assert len(outputs) == 1


# Commands that need no powerset table, with arguments that verify.
NUMPY_FREE_RUNS = {
    "doubling": ["doubling", "--group", "dihedral:4", "--setA", "r0,r1"],
    "kneser": ["kneser", "--group", "cyclic:12", "--setA", "0,1", "--setB", "0,3"],
    "corollary-kn": ["corollary-kn", "--group", "cyclic:12", "--setA", "0,4,8", "--epsilon", "1/2"],
    "theorem-main": ["theorem-main", "--group", "sym:3", "--setA", "0,2", "--setS", "0,2",
                     "--epsilon", "1"],
    "connectivity": ["connectivity", "--group", "dihedral:4", "--setS", "r0,r1,s0", "--K", "1/2",
                     "--solver", "subgroup"],
    "conv-gap": ["conv", "gap", "--group", "dihedral:4", "--setA", "r0,r1"],
    "conv-smooth": ["conv", "smooth", "--group", "dihedral:4", "--setA", "r0,r1",
                    "--setS", "r0,s0"],
    # |A| = 12 takes the min-cut path of the Petridis minimizer.
    "petridis-sampled": ["petridis", "--group", "dihedral:8", "--setA",
                         "0,1,2,3,5,6,8,9,11,12,13,14", "--setS", "0,4,9", "--mode", "sampled",
                         "--budget", "2000", "--seed", "12"],
}


def _run_python(script: str, **env: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)


def _cli_argv(command: str, config: dict, group_file: Path) -> list[str]:
    """The command line that issues `config`, its group read from `group_file`."""
    entry = schema.COMMANDS[command]
    group_file.write_text(json.dumps(config["group"]))
    argv = [*entry.path, "--group", str(group_file)]
    for name, indices in config.get("sets", {}).items():
        argv += ["--set", f"{name}=" + ",".join(map(str, indices))]
    for name, opt in entry.options.items():
        if name not in config:
            continue
        flag = opt.flag or "--" + name.replace("_", "-")
        if opt.kind == "bool":
            argv += [flag] if config[name] != opt.default else []
        else:
            spelling = {v: k for k, v in (opt.aliases or {}).items()}
            argv += [flag, str(spelling.get(config[name], config[name]))]
    return argv


def _keys(value) -> set:
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


@pytest.mark.parametrize("case,command,config", list(all_cases()), ids=lambda v: str(v))
def test_meta_stays_out_of_the_payload(case, command, config, tmp_path):
    """The command line's timing goes to `meta`, never into the payload, and
    `recheck` reads no part of `meta`."""
    cert = tmp_path / "cert.json"
    argv = _cli_argv(command, config, tmp_path / "group.json")
    assert main(argv + ["--out", str(cert)]) == 0
    record = json.loads(cert.read_text())
    assert record["payload"] == certificates.run(command, config)
    assert not _keys(record["payload"]) & {"meta", "wall_time_s"}
    assert set(record["meta"]) == {"wall_time_s"}
    for meta in ({}, {"wall_time_s": 1e9, "extra": [1]}, None):
        if meta is None:
            del record["meta"]
        else:
            record["meta"] = meta
        assert certificates.recheck(record).ok, meta


def test_python_dash_m_runs_the_command_line():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "smalldoubling", *argv], env=env,
                              capture_output=True, text=True)

    done = run("doubling", "--group", "dihedral:4", "--setA", "r0,r1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"]["ratio"] == "3/2"
    done = run("doubling", "--group", "quaternion:1", "--setA", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["error"]["code"] == "UsageError"


THEORY = ("setalg", "connectivity", "convolution", "theorems")


def test_start_up_executes_no_theory_module(tmp_path):
    """The parser needs no theory module, and `doubling` executes only setalg.

    A module that LazyLoader registered is not a plain module until its body
    runs on first use."""
    cert = tmp_path / "doubling.json"
    script = (
        "import sys, types\n"
        "from smalldoubling import cli\n"
        "cli.build_parser()\n"
        f"theory = {THEORY!r}\n"
        "def executed():\n"
        "    return [m for m in theory if type(sys.modules[f'smalldoubling.{m}']) is types.ModuleType]\n"
        "assert executed() == [], executed()\n"
        "argv = ['doubling', '--group', 'dihedral:4', '--setA', 'r0,r1']\n"
        f"assert cli.main(argv + ['--out', {str(cert)!r}]) == 0\n"
        "assert executed() == ['setalg'], executed()\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(cert.read_text())["payload"]["ratio"] == "3/2"


def test_schema_alone_checks_a_record_of_every_command(tmp_path):
    """A process that imports `schema` and nothing else has the whole command
    table: it validates one record per command, and no theory module runs."""
    records = {}
    for _, command, config in all_cases():
        if isinstance(config, dict) and command not in records:
            payload = certificates.run(command, config)
            records[command] = certificates.make_record(command, config, payload)
    assert set(records) == set(schema.COMMANDS)
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    script = (
        "import json, sys, types\n"
        "from smalldoubling import schema\n"
        f"records = json.load(open({str(path)!r}))\n"
        "for record in records.values():\n"
        "    schema.validate_record(record)\n"
        "    schema.parse_config(record['command'], record['config'])\n"
        "assert sorted(schema.COMMANDS) == sorted(records), sorted(schema.COMMANDS)\n"
        f"theory = {THEORY!r}\n"
        "executed = [m for m in theory if type(sys.modules[f'smalldoubling.{m}']) is types.ModuleType]\n"
        "assert executed == [], executed\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr


def test_issue_and_recheck_without_jsonschema(tmp_path):
    """Neither jsonschema nor numpy is needed to issue and recheck a
    certificate that uses no powerset table."""
    script = (
        "import sys; sys.modules['jsonschema'] = None; sys.modules['numpy'] = None\n"
        "from smalldoubling.cli import main\n"
        f"runs = {NUMPY_FREE_RUNS!r}\n"
        f"tmp = {str(tmp_path)!r}\n"
        "for name, argv in runs.items():\n"
        "    cert = f'{tmp}/{name}.json'\n"
        "    assert main(argv + ['--out', cert]) == 0, name\n"
        "    assert main(['recheck', cert, '--out', f'{tmp}/{name}.recheck.json']) == 0, name\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    for name in NUMPY_FREE_RUNS:
        assert json.loads((tmp_path / f"{name}.recheck.json").read_text())["ok"] is True


def test_numpy_loads_only_with_a_powerset_table(tmp_path):
    cert = tmp_path / "petridis.json"
    script = (
        "import sys\n"
        "from smalldoubling.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        # Exhaustive verification builds the subset tables |C*X| and |C*X*S|.
        "argv = ['petridis', '--group', 'cyclic:16', '--setA', '0,1,2,3,4,5,6', '--setS', '0,1',\n"
        f"        '--out', {str(cert)!r}]\n"
        "assert main(argv) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(cert.read_text())["payload"]["ok"] is True


def test_the_command_line_builds_each_group_once(monkeypatch, tmp_path):
    built = []
    depth = 0
    original = groups._build_spec  # what the command line builds a checked spec's key with

    def counting(key, *args, **kwargs):  # counts top-level builds, not factor recursion
        nonlocal depth
        if depth == 0:
            built.append(key)
        depth += 1
        try:
            return original(key, *args, **kwargs)
        finally:
            depth -= 1

    monkeypatch.setattr(groups, "_build_spec", counting)
    cert = tmp_path / "cert.json"
    assert main(["doubling", "--group", "dihedral:8", "--setA", "r0,r1", "--out", str(cert)]) == 0
    assert built == [("dihedral", 8)]

    built.clear()
    product = ["--group", "dihedral:4xcyclic:2", "--setA", "0,1", "--out", str(cert)]
    assert main(["doubling", *product]) == 0
    assert len(built) == 1

    # recheck trusts nothing of the issuer: it builds the group from the spec.
    built.clear()
    assert main(["recheck", str(cert), "--out", str(tmp_path / "report.json")]) == 0
    assert built == [groups.check_spec(json.loads(cert.read_text())["config"]["group"])]


def test_each_record_is_checked_once(monkeypatch, tmp_path):
    """One config check per issue and one per recheck: `parse_config`'s.  The
    group spec is checked once per run or recheck, and at most twice per
    command-line issue (its --group, then its config)."""
    calls, spec_checks = [], []
    original, original_spec = schema._check_config, groups.check_spec

    def counting(*args):
        calls.append(args[0].name)
        return original(*args)

    def counting_spec(spec, *args):
        spec_checks.append(spec)
        return original_spec(spec, *args)

    monkeypatch.setattr(schema, "_check_config", counting)
    monkeypatch.setattr(groups, "check_spec", counting_spec)
    config = {"group": {"preset": "symmetric", "n": 3}, "sets": {"A": [0, 2], "S": [0, 2]},
              "epsilon": "1/1"}
    payload = certificates.run("theorem-main", config)
    record = certificates.make_record("theorem-main", config, payload)
    assert calls == ["theorem-main"]
    assert spec_checks == [config["group"]]

    calls.clear()
    spec_checks.clear()
    assert certificates.recheck(record).ok
    assert calls == ["theorem-main"]
    assert spec_checks == [config["group"]]

    calls.clear()
    spec_checks.clear()
    cert = tmp_path / "cert.json"
    argv = ["--group", "sym:3", "--setA", "0,2", "--setS", "0,2", "--epsilon", "1/1"]
    assert main(["theorem-main", *argv, "--out", str(cert)]) == 0
    assert calls == ["theorem-main"]
    assert 1 <= len(spec_checks) <= 2
    assert all(spec == config["group"] for spec in spec_checks)

    calls.clear()
    spec_checks.clear()
    assert main(["recheck", str(cert), "--out", str(tmp_path / "report.json")]) == 0
    assert calls == ["theorem-main"]
    assert spec_checks == [config["group"]]
