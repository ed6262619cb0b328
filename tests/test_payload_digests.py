"""Payloads pinned byte for byte.

Each digest is the SHA-256 of `json.dumps(run(command, config),
sort_keys=True)`.  A refactor or speed-up must leave every payload unchanged,
so a digest that moves is a bug in the change, not a number to update.  The
fixed configs add the paths `all_cases()` does not reach: the exhaustive
orbit scan with and without findings (in D7 of several sizes, so its sort
order shows), and cut by a budget in mid-row, a
random scan that finds a failure, the min-cut path of the Petridis
minimizer (the key "petridis-table" names the
numpy table pass it replaced), sampled Petridis verification, exhaustive
Petridis verification with K > 1 in more than one block of 2^16 masks (at
orders 18, 20 and 24, the order-18 group with its identity off index 0),
over the cosets of X's left stabilizer, and with |S| = 1, where
|X*S| = |X| and X*S != X,
the minimizer at the subset and order caps, brute force and atoms at order 16, the
multi-coset branch of the structure theorem, both branches and the
subgroup-restricted solver at order 64 (the identity atom's min cut), the
same with S in a right coset of an order-8 subgroup (the min cut inside
<SS^-1>), a `conv gap` with epsilon* = 0, where the hypothesis is just
vacuous, and an explicit table whose identity is not index 0.  A product of such tables must
certify exactly as the explicit table it builds.

`workload_payloads.json` holds the 43 configs of round 0 of the benchmark
plan at seed 1 (30 `certify`, 6 `lattice`, 7 `powerset`), each with the
digest of its payload.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from smalldoubling import theorems
from smalldoubling.certificates import make_record, run
from smalldoubling.groups import from_spec
from smalldoubling.schema import COMMANDS, validate_record
from test_certificates import all_cases

# S3 relabelled so that the identity is index 1.
TABLE_S3 = {
    "table": [
        [4, 0, 3, 5, 1, 2],
        [0, 1, 2, 3, 4, 5],
        [5, 2, 1, 4, 3, 0],
        [2, 3, 0, 1, 5, 4],
        [1, 4, 5, 2, 0, 3],
        [3, 5, 4, 0, 2, 1],
    ],
    "labels": ["(1 2 3)", "e", "(1 3)", "(2 3)", "(1 3 2)", "(1 2)"],
}

Z2 = {"preset": "cyclic", "n": 2}

FIXED = {
    "kneser-scan-D4": (
        "search-kneser-failure",
        {"group": {"preset": "dihedral", "n": 4}, "strategy": "exhaustive"},
    ),
    "kneser-scan-D6": (  # 432 findings
        "search-kneser-failure",
        {"group": {"preset": "dihedral", "n": 6}, "strategy": "exhaustive"},
    ),
    "kneser-scan-D7": (  # 1,372 findings, 686 each of sizes (2, 6) and (2, 8)
        "search-kneser-failure",
        {"group": {"preset": "dihedral", "n": 7}, "strategy": "exhaustive"},
    ),
    "kneser-scan-D6-budget": (  # 6 findings; the last pair counted is the 6th
        "search-kneser-failure",
        {"group": {"preset": "dihedral", "n": 6}, "strategy": "exhaustive", "budget": 263788},
    ),
    "kneser-random-D6": (  # 1 finding, at draw 1,796
        "search-kneser-failure",
        {"group": {"preset": "dihedral", "n": 6}, "strategy": "random", "seed": 35,
         "budget": 2000},
    ),
    "petridis-table": (  # |A| = 10 takes the min-cut path
        "petridis",
        {
            "group": {"preset": "dihedral", "n": 8},
            "sets": {"A": [0, 1, 2, 3, 5, 8, 9, 11, 12, 14], "S": [0, 4, 9]},
            "mode": "exhaustive",
            "budget": 1 << 16,
        },
    ),
    "petridis-exhaustive-D10": (  # K = 10/7 at order 20: X and X*S, eight blocks
        "petridis",
        {
            "group": {"preset": "dihedral", "n": 10},
            "sets": {"A": [0, 1, 3, 4, 7, 10, 12, 13, 16, 18], "S": [0, 2, 11]},
            "mode": "exhaustive",
        },
    ),
    "petridis-exhaustive-S3xZ3": (  # K = 5/3 at order 18, the identity at index 3
        "petridis",
        {
            "group": {"preset": "direct_product",
                      "factors": [TABLE_S3, {"preset": "cyclic", "n": 3}]},
            "sets": {"A": [0, 2, 4, 5, 7, 9, 10, 14, 15, 17], "S": [1, 3, 8]},
            "mode": "exhaustive",
        },
    ),
    "petridis-exhaustive-S4": (  # K = 11/8 at order 24, under the largest budget
        "petridis",
        {
            "group": {"preset": "symmetric", "n": 4},
            "sets": {"A": [0, 1, 2, 5, 6, 9, 11, 14, 17, 20, 22, 23], "S": [0, 3, 7, 16]},
            "mode": "exhaustive",
            "budget": 1 << 24,
        },
    ),
    # A is a union of right cosets H*x of H = {e, ((1 3),0)}, so X is too:
    # the check decides over the nine left cosets of X's left stabilizer H,
    # which differs from its right one, {e, ((2 3),0)}.
    "petridis-exhaustive-S3xZ3-cosets": (  # K = 3/2 at order 18, the identity at index 3
        "petridis",
        {
            "group": {"preset": "direct_product",
                      "factors": [TABLE_S3, {"preset": "cyclic", "n": 3}]},
            "sets": {"A": [1, 2, 9, 10, 12, 13, 16, 17], "S": [0, 7]},
            "mode": "exhaustive",
        },
    ),
    "petridis-exhaustive-D10-one-s": (  # |S| = 1: K = 1 and X*S != X
        "petridis",
        {
            "group": {"preset": "dihedral", "n": 10},
            "sets": {"A": [1, 2, 5, 11, 17], "S": [3]},
            "mode": "exhaustive",
        },
    ),
    "petridis-sampled": (  # 2000 seeded C in an order-16 group
        "petridis",
        {
            "group": {"preset": "dihedral", "n": 8},
            "sets": {"A": [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 13, 14], "S": [0, 4, 9]},
            "mode": "sampled",
            "budget": 2000,
            "seed": 12,
        },
    ),
    "petridis-sampled-D32-caps": (  # |A| = 20 and |S| = 48 at order 64
        "petridis",
        {
            "group": {"preset": "dihedral", "n": 32},
            "sets": {
                "A": [4, 13, 15, 16, 17, 18, 19, 25, 28, 29, 33, 39, 41, 42, 43, 44, 45, 46, 47,
                      48],
                "S": [0, 1, 3, 4, 5, 7, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                      24, 25, 26, 29, 30, 31, 33, 35, 37, 38, 40, 41, 42, 44, 46, 47, 48, 51,
                      52, 54, 55, 56, 57, 58, 59, 61, 62, 63],
            },
            "mode": "sampled",
            "budget": 200,
            "seed": 3,
        },
    ),
    "connectivity-brute-16": (
        "connectivity",
        {
            "group": {
                "preset": "direct_product",
                "factors": [{"preset": "cyclic", "n": 4}, {"preset": "cyclic", "n": 4}],
            },
            "sets": {"S": [0, 3, 8]},
            "K": "2/3",
            "solver": "brute_force",
            "fragments": True,
        },
    ),
    "atoms-D8": (
        "atoms",
        {"group": {"preset": "dihedral", "n": 8}, "sets": {"S": [4, 10, 14]}, "K": "2/3"},
    ),
    "theorem-main-multi": (  # multi_coset_cover branch
        "theorem-main",
        {
            "group": {"preset": "dihedral", "n": 16},
            "sets": {"A": [2, 9, 11], "S": [16, 18, 25]},
            "epsilon": "1/3",
        },
    ),
    "theorem-main-Z2^6-single": (  # the atom has order 16
        "theorem-main",
        {
            "group": {"preset": "direct_product", "factors": [Z2] * 6},
            "sets": {"A": [0, 1, 8, 9, 20, 21, 28, 29, 36, 44, 45, 49, 56, 57],
                     "S": [4, 5, 12, 13, 16, 24, 25, 32, 40, 53, 61]},
            "epsilon": "1/3",
        },
    ),
    "theorem-main-Q64-single": (  # the atom has order 16
        "theorem-main",
        {
            "group": {"preset": "quaternion", "n": 16},
            "sets": {"A": [3, 7, 15, 19, 23, 27, 31, 35, 43, 51, 55, 59],
                     "S": [3, 7, 11, 15, 23, 27, 33, 41, 45, 57, 61]},
            "epsilon": "1/4",
        },
    ),
    "theorem-main-Q64-multi": (  # multi_coset_cover branch, trivial atom
        "theorem-main",
        {
            "group": {"preset": "quaternion", "n": 16},
            "sets": {"A": [40, 41, 51, 62], "S": [5, 16, 26, 27]},
            "epsilon": "1/4",
        },
    ),
    "connectivity-subgroup-64": (  # |S| = 64 in D4xZ2xZ2xZ2
        "connectivity",
        {
            "group": {"preset": "direct_product",
                      "factors": [{"preset": "dihedral", "n": 4}, Z2, Z2, Z2]},
            "sets": {"S": list(range(64))},
            "K": "3/4",
            "solver": "subgroup_restricted",
        },
    ),
    # S in a right coset of an order-8 subgroup, so that <SS^-1> is proper and
    # the identity atom's min cut runs over 8 of the 64 elements.
    "theorem-main-Q64-coset-single": (  # the atom is <SS^-1>; |A*S| = (2 - eps)|S|
        "theorem-main",
        {
            "group": {"preset": "quaternion", "n": 16},
            "sets": {"A": [4, 12, 20, 28, 34, 50], "S": [12, 28, 34, 42, 50, 58]},
            "epsilon": "2/3",
        },
    ),
    "theorem-main-D32-coset-multi": (  # multi_coset_cover branch, trivial atom
        "theorem-main",
        {"group": {"preset": "dihedral", "n": 32}, "sets": {"A": [32, 44], "S": [19, 31]},
         "epsilon": "1/2"},
    ),
    "connectivity-subgroup-coset-64": (  # the atom is <SS^-1>, of order 8
        "connectivity",
        {
            "group": {"preset": "direct_product",
                      "factors": [{"preset": "dihedral", "n": 4}, Z2, Z2, Z2]},
            "sets": {"S": [3, 13, 19, 54, 56]},
            "K": "3/4",
            "solver": "subgroup_restricted",
        },
    ),
    "conv-gap-Z8-vacuous": (  # epsilon* = 0: the hypothesis is vacuous at its edge
        "conv-gap",
        {"group": {"preset": "cyclic", "n": 8}, "sets": {"A": [0, 1, 4]}},
    ),
    "table-doubling": ("doubling", {"group": TABLE_S3, "sets": {"A": [0, 1, 2]}}),
    "table-theorem-main": (
        "theorem-main",
        {"group": TABLE_S3, "sets": {"A": [1, 5], "S": [1, 5]}, "epsilon": "1/1"},
    ),
    "table-kneser-scan": (
        "search-kneser-failure",
        {"group": TABLE_S3, "strategy": "exhaustive"},
    ),
}

DIGESTS = {
    "doubling": "ef5c9209f6a945441f50df40c00e0a405692bcd4b9c3fb46f48387f07842227f",
    "connectivity": "d576dd97fbe06347e1c372120201c0d32f5e1f00d5bcbbb7250924a30b8d65a7",
    "connectivity-brute": "b763874a94a97afcc53dbf08ef01a08e365c3dae26525b57c2f15b6719a0edbd",
    "atoms": "f81a8c473c1eaf66470c13a4f41a2a5215db3d1fe11f4069f9c09386464ebc27",
    "kneser": "077fad2a22fd631e1e0d57c73b5e2d46b1da3943987cf4ee80cb83aa8d8dd333",
    "corollary-kn": "09818c4f823b9932579be110da72a963ff0214aa1f7ea30ed6ae3e1f75520e27",
    "theorem-main": "fc8d64d1d1ca6be1696eab641bba5578cfebcefad640f765a408f1aa8fd6c529",
    "petridis": "3a4871a4c14cd33b65b0e16d275719541d1b5763fda5b05cc1a67c841c0237cc",
    "conv-gap": "fadebcf53f126ccca7f66a8e17d5a2704d901ebb7bf9a2699a7656538b0b3864",
    "conv-smooth": "13aa4110368722214766a047e7c316fe47a4b4b2a34702ff26666d78a2b6ce6b",
    "search-kneser-failure": "aab4516f6ad2caba1ae95e15837ff9508dc55ecf7be7009e361672cda12f052a",
    "kneser-scan-D4": "7f3b6a66becc305a97262be80b1006b43d1d0816d3213a9b18fdef1a7b185cda",
    "kneser-scan-D6": "750ad592a4d854fb28555047c9bd23df94c4f2071f744b7afb0e15a40314ff35",
    "kneser-scan-D7": "4ae9627356afe8e33f7e6459428667ab30e1e28982d587dcc2b1532d73e0328e",
    "kneser-scan-D6-budget": "16340c4e723caf2ee42166181266921f71b9c46cc7a60c7b7ba65eb2c3bc80df",
    "kneser-random-D6": "42c0f628e01d47ac77e3724167e9093a34ae7ae754aa1c6c42d263c443243d77",
    "petridis-table": "33d4dabb7e752600549baf42922ae0f8bf53aaaae22822eea9b0bac1addc8e90",
    "petridis-exhaustive-D10": "b99b84d311e14f2eec0541040097aa03ca588e392e1e3a0238c5a4135cbed953",
    "petridis-exhaustive-S3xZ3": "8bb14788630933102360be825f6d51cfa8922f578e5f368b6bc978336c198eb5",
    "petridis-exhaustive-S4": "5fd14ad806cc1c54f6c3e69ee2323d5475f077cd6d371c9f27ba231fa7533203",
    "petridis-exhaustive-S3xZ3-cosets": "50a1958c75eadd786ddb1f8260de4d535a9d15456a918cfb4b7e8d51ff2f8c2d",
    "petridis-exhaustive-D10-one-s": "52ba3cf5ce20a4c5fa5dd40b8e74558efaf285ac0d37160d420b6960c6a4397b",
    "petridis-sampled": "80cddc43fe0220fd8380b8207c56b439523afead0d52876e6cd47e80b6544a5e",
    "petridis-sampled-D32-caps": "d092756d5e47ce76dbda50867f6864ca40be0d59eb48ef88609dcaf6e35b0687",
    "connectivity-brute-16": "95983e1aaf35052ece7e80224d5eb31c10525ed48fc39c254498cb1c84097f5e",
    "atoms-D8": "62882a603c67ae3d552a62e335e9686abf830cfad23c3dc95c3ce69f7a958e91",
    "theorem-main-multi": "5b573b5ac2823922e595391491be183e67a3ddec991a920a70275b3696d96044",
    "theorem-main-Z2^6-single": "9cd2457963b8719c8d736d6b9153ea04a56370b4756ffb1f6eb41a12153fb211",
    "theorem-main-Q64-single": "020b37222f53670f145a2ceca3bbe7680cc9c2a64437ad3689f70bc651d03ce0",
    "theorem-main-Q64-multi": "447b2b3ca2349654107afdb557e8da5476ac08b0b4fd0940b7a4b901a18ac864",
    "connectivity-subgroup-64": "b2ab491111bcc9a265ce3d34e74d5d6581640b318383a67f12e80d204a18da75",
    "theorem-main-Q64-coset-single": "f6ff90264985af9ac27ce9be46892ac0a5d34b3c500ccdf7f79739f1aaf51628",
    "theorem-main-D32-coset-multi": "d255ff734562330169947c02914c11e531e95c2cf8fa168ff09f819ea0103d67",
    "connectivity-subgroup-coset-64": "07b858b3b1852399ef60d0a0e482af4691eb2a80a1bb71c537ccf00e1aaae57c",
    "conv-gap-Z8-vacuous": "03393de3bb5535c1adbd652f5545a86169ff39d6b30174e4e7d72df7b1e2e899",
    "table-doubling": "982b24a3ea78dace090bc7423a74bf823f05b0f1dccc76166edd20c69ce61e2f",
    "table-theorem-main": "5f1faa1a640639cd942dd9b9f5cc676c8cbe229b93d43f7e8735dfb63fec7236",
    "table-kneser-scan": "da636f975be46b93ef7d0b1667d1d119ecf2265a7f2d828fd32c27d2733e6983",
}

WORKLOAD_CASES = json.loads((Path(__file__).parent / "workload_payloads.json").read_text())
WORKLOAD_IDS = [f"{i}-{c['workload']}-{c['command']}" for i, c in enumerate(WORKLOAD_CASES)]

CASES = list(all_cases()) + [(case, command, config) for case, (command, config) in FIXED.items()]


def test_every_case_has_a_digest():
    assert {case for case, _, _ in CASES} == set(DIGESTS)


@pytest.mark.parametrize("case,command,config", CASES, ids=[c for c, _, _ in CASES])
def test_payload_digest(case, command, config):
    recomputed = run(command, config)
    # The echo of the config comes first, in the order `--format text` prints.
    echo = ["group", *(f"set_{name.lower()}" for name in COMMANDS[command].sets)]
    assert list(recomputed)[: len(echo)] == echo
    payload = json.dumps(recomputed, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == DIGESTS[case]


# The free columns that each `_violating_masks` call of an exhaustive
# Petridis check is given: one per left coset of X's left stabilizer but 0's.
EXHAUSTIVE_PETRIDIS_COLUMNS = {
    "petridis-exhaustive-D10": [19],  # the stabilizer is {e}
    "petridis-exhaustive-S3xZ3-cosets": [8],  # one per left coset of H but 0's
    "40-powerset-petridis": [0],  # X = G: one coset, so one union holds 0
}
ALL_CONFIGS = FIXED | {
    i: (c["command"], c["config"]) for i, c in zip(WORKLOAD_IDS, WORKLOAD_CASES)
}


@pytest.mark.parametrize("case", list(EXHAUSTIVE_PETRIDIS_COLUMNS))
def test_exhaustive_petridis_takes_its_path(monkeypatch, case):
    original = theorems._violating_masks
    columns, distinct = [], []

    def spy(rows, p, q, fixed, limit):
        columns.append(rows.shape[1])
        distinct.append(len({int(fixed[0]), *rows[0].tolist()}))
        return original(rows, p, q, fixed, limit)

    monkeypatch.setattr(theorems, "_violating_masks", spy)
    command, config = ALL_CONFIGS[case]
    payload = run(command, config)
    assert columns == EXHAUSTIVE_PETRIDIS_COLUMNS[case]
    # c*X = c'*X exactly when c and c' share a left coset of the stabilizer,
    # so one column per coset gives every row of X once.
    assert distinct == [c + 1 for c in columns]
    assert payload["verified_c_count"] == (1 << from_spec(config["group"]).order) - 1
    assert payload["ok"]


def test_workload_fixture_is_round_zero():
    counts = Counter(case["workload"] for case in WORKLOAD_CASES)
    assert counts == {"certify": 30, "lattice": 6, "powerset": 7}


@pytest.mark.parametrize("case", WORKLOAD_CASES, ids=WORKLOAD_IDS)
def test_workload_payload_digest(case):
    recomputed = run(case["command"], case["config"])
    payload = json.dumps(recomputed, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == case["sha256"]
    # make_record checks nothing; the whole record must still pass the check.
    validate_record(make_record(case["command"], case["config"], recomputed))


# Products whose factors have their identity off index 0.  SWAP is Z2 with
# its identity at index 1, so (e, 0) is index 2 of SWAP x Z2.
SWAP = {"table": [[1, 0], [0, 1]]}
PRODUCTS = {
    "S3": {"preset": "direct_product", "factors": [TABLE_S3]},
    "S3xZ2": {"preset": "direct_product", "factors": [TABLE_S3, Z2]},
    "SWAPxZ2": {"preset": "direct_product", "factors": [SWAP, Z2]},
}

# One config per command (two solvers for connectivity, two strategies for
# the scan), with sets that fit every product above.
ANY_GROUP = [
    ("doubling", {"sets": {"A": [0, 1]}}),
    ("connectivity", {"sets": {"S": [0, 1]}, "K": "1/2"}),
    ("connectivity", {"sets": {"S": [0, 3]}, "K": "2/3", "solver": "brute_force",
                      "fragments": True}),
    ("atoms", {"sets": {"S": [0]}, "K": "1/2"}),
    ("kneser", {"sets": {"A": [0], "B": [0]}}),
    ("corollary-kn", {"sets": {"A": [0, 1]}, "epsilon": "1/2"}),
    ("theorem-main", {"sets": {"A": [0, 1], "S": [0, 1]}, "epsilon": "1/1"}),
    ("petridis", {"sets": {"A": [0, 1, 3], "S": [0, 2]}, "mode": "exhaustive", "budget": 4095}),
    ("conv-gap", {"sets": {"A": [0, 1]}}),
    ("conv-smooth", {"sets": {"A": [0, 1], "S": [0, 1]}, "threshold": "1/3"}),
    ("search-kneser-failure", {"strategy": "exhaustive"}),
    ("search-kneser-failure", {"strategy": "random", "seed": 5, "budget": 200}),
]


def _outcome(command, config):
    """The payload without its group name, or the class of the error raised."""
    try:
        payload = run(command, config)
    except Exception as exc:
        return type(exc).__name__
    del payload["group"]
    return payload


@pytest.mark.parametrize("name", PRODUCTS)
def test_a_product_certifies_as_its_own_table(name):
    spec = PRODUCTS[name]
    P = from_spec(spec)
    table = {"table": [list(row) for row in P.mul], "labels": list(P.labels)}
    for command, config in ANY_GROUP:
        assert _outcome(command, {**config, "group": spec}) == _outcome(
            command, {**config, "group": table}
        ), (command, config)


def test_the_stabilizer_of_a_product_is_read_from_its_identity():
    payload = run("kneser", {"group": PRODUCTS["SWAPxZ2"], "sets": {"A": [0], "B": [0]}})
    assert payload["sum"]["indices"] == payload["stabilizer"]["indices"] == [2]
    assert payload["holds"] is True
