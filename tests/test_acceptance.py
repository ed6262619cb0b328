"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Everything here is exact arithmetic; "zero tolerance"
means equality/inequality checks on integers and Fractions.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from smalldoubling import (
    Subset,
    autocorrelation,
    catalogue,
    cost,
    connectivity_bruteforce,
    connectivity_subgroup_solver,
    convolve,
    cyclic,
    gap_check,
    kneser_check,
    kneser_corollary_check,
    kneser_violation_scan,
    petridis_minimizer,
    petridis_verify,
    product_set,
    verify_atom_proposition,
    weak_kneser_check,
)
from smalldoubling.certificates import make_record, recheck, run
from smalldoubling.convolution import GroupFunction
from smalldoubling.setalg import product_size_table

from test_certificates import _apply_mutation, _leaf_paths, all_cases


def _report(criterion, ok, detail, started):
    elapsed = time.perf_counter() - started
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail} [{elapsed:.2f}s]"
    print(line)
    assert ok, line


def small_sets(G, max_size):
    """All nonempty subsets of G with at most max_size elements."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(G.order), size):
            yield G.subset(combo)


def sampled_small_sets(G, max_size, limit, seed):
    pool = list(small_sets(G, max_size))
    if len(pool) <= limit:
        return pool
    rng = random.Random(seed)
    return rng.sample(pool, limit)


def test_criterion_1_corollary_sharpness():
    # In cyclic(4N) with A = {0..N-1} and epsilon = 1/N, the stabilizer is
    # trivial and the cover size is exactly 2N - 1 = 2/eps - 1.
    started = time.perf_counter()
    for N in range(2, 11):
        G = cyclic(4 * N)
        rep = kneser_corollary_check(G, G.subset(range(N)), Fraction(1, N))
        assert rep.H.elements() == (0,), f"N={N}: H = {rep.H}"
        assert rep.cover.count == 2 * N - 1, f"N={N}: cover {rep.cover.count}"
        assert rep.cover_bound == 2 * N - 1
        assert rep.H_bound_ok and rep.cover_bound_ok and rep.holds
    _report(1, True, "corollary cover size is exactly 2/eps - 1 for N = 2..10", started)


def test_criterion_2_kneser_sweep():
    started = time.perf_counter()
    groups = [G for G in catalogue(10) if G.is_abelian]
    assert len(groups) == 15
    pair_total = 0
    for G in groups:
        scan = kneser_violation_scan(G, "exhaustive")
        assert scan.findings == (), f"Kneser violation in {G.name}: {scan.findings[:1]}"
        assert scan.pairs_checked == ((1 << G.order) - 1) ** 2
        pair_total += scan.pairs_checked
    # spot-check the scan against the certified single-pair verifier
    rng = random.Random(2026)
    for G in groups:
        for _ in range(20):
            A = Subset(G.order, rng.randrange(1, 1 << G.order))
            B = Subset(G.order, rng.randrange(1, 1 << G.order))
            assert kneser_check(G, A, B).holds
    _report(2, True, f"zero Kneser violations over {pair_total} abelian pairs", started)


SUBMODULARITY_KS = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def test_criterion_3_submodularity():
    started = time.perf_counter()
    checked = 0
    outer_cache = {}
    for G in catalogue(8):
        n = G.order
        if n not in outer_cache:
            masks = np.arange(1 << n, dtype=np.int64)
            outer_cache[n] = (
                np.bitwise_or.outer(masks, masks),
                np.bitwise_and.outer(masks, masks),
            )
        union, inter = outer_cache[n]
        cards = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
        for S in small_sets(G, 3):
            sizes = product_size_table(G, S)
            for K in SUBMODULARITY_KS:
                p, q = K.numerator, K.denominator
                val = q * sizes - p * cards
                lhs = val[union] + val[inter]
                rhs = val[:, None] + val[None, :]
                assert (lhs <= rhs).all(), f"submodularity fails in {G.name}, S={S}, K={K}"
                checked += lhs.size
    exhaustive_checked = checked

    # plus seeded random triples in groups up to order 24, via the module op
    rng = random.Random(20260810)
    big = [G for G in catalogue(24)]
    for _ in range(10_000):
        G = big[rng.randrange(len(big))]
        n = G.order
        A = Subset(n, rng.randrange(0, 1 << n))
        B = Subset(n, rng.randrange(0, 1 << n))
        S = Subset(n, rng.randrange(1, 1 << n))
        K = SUBMODULARITY_KS[rng.randrange(4)]
        union, meet = Subset(n, A.mask | B.mask), Subset(n, A.mask & B.mask)
        lhs = cost(G, S, K, union) + cost(G, S, K, meet)
        assert lhs <= cost(G, S, K, A) + cost(G, S, K, B), f"submodularity fails in {G.name}"
    _report(
        3,
        True,
        f"submodularity exact on {exhaustive_checked} exhaustive pairs + 10^4 random triples",
        started,
    )


ORACLE_KS = (Fraction(1, 4), Fraction(1, 2), Fraction(5, 6))


@pytest.fixture(scope="module")
def oracle_sweep_cases():
    cases = []
    for index, G in enumerate(catalogue(16)):
        for S in sampled_small_sets(G, 4, 50, seed=1234 + index):
            cases.append((G, S))
    return cases


def test_criterion_4_oracle_equivalence(oracle_sweep_cases):
    started = time.perf_counter()
    compared = 0
    for G, S in oracle_sweep_cases:
        for K in ORACLE_KS:
            brute = connectivity_bruteforce(G, S, K)
            sub = connectivity_subgroup_solver(G, S, K)
            assert brute.kappa == sub.kappa, f"{G.name} S={S} K={K}"
            assert brute.identity_atom == sub.identity_atom, f"{G.name} S={S} K={K}"
            compared += 1
    _report(
        4,
        True,
        f"solver agreement (kappa, identity atom) on {compared} instances up to order 16",
        started,
    )


def test_criterion_5_atom_proposition(oracle_sweep_cases):
    started = time.perf_counter()
    verified = 0
    for G, S in oracle_sweep_cases:
        for K in ORACLE_KS:
            rep = verify_atom_proposition(G, S, K)
            assert rep.atom_is_subgroup, f"{G.name} S={S} K={K}: atom not a subgroup"
            assert rep.atoms_are_left_cosets, f"{G.name} S={S} K={K}: atoms != cosets"
            assert rep.atoms_pairwise_disjoint, f"{G.name} S={S} K={K}: atoms overlap"
            assert rep.ok
            verified += 1
    _report(5, True, f"atoms are exactly the left cosets of H on {verified} instances", started)


def admissible_epsilons():
    values = set()
    for q in range(1, 7):
        for p in range(1, q + 1):
            values.add(Fraction(p, q))
    return sorted(values)


def test_criterion_6_weak_kneser_sweep():
    started = time.perf_counter()
    epsilons = admissible_epsilons()
    assert len(epsilons) == 12
    checked = 0
    branches = {"single_right_coset": 0, "multi_coset_cover": 0}
    for G in catalogue(12):
        for S in small_sets(G, 4):
            square = product_set(G, S, S)
            for eps in epsilons:
                if square.cardinality > (2 - eps) * S.cardinality:
                    continue  # hypothesis not satisfied at this epsilon
                rep = weak_kneser_check(G, S, S, eps)
                assert rep.branch != "violation", (
                    f"{G.name} S={S.elements()} eps={eps}: {rep.violations}"
                )
                branches[rep.branch] += 1
                checked += 1
    assert branches["single_right_coset"] and branches["multi_coset_cover"]
    _report(
        6,
        True,
        f"no violation branch over {checked} hypothesis-satisfying instances "
        f"({branches['single_right_coset']} single-coset, "
        f"{branches['multi_coset_cover']} multi-coset)",
        started,
    )


def test_criterion_7_petridis():
    started = time.perf_counter()
    verified = 0
    for G in catalogue(8):
        budget = (1 << G.order) - 1
        pool = list(small_sets(G, 4))
        for A in pool:
            for S in pool:
                result = petridis_minimizer(G, A, S)
                ver = petridis_verify(G, result, "exhaustive", budget=budget)
                assert ver.ok, f"{G.name} A={A.elements()} S={S.elements()}"
                assert ver.equality_at_identity
                assert ver.checked == budget
                verified += 1
    _report(7, True, f"minimizer verified against every nonempty C on {verified} pairs", started)


def test_criterion_8_convolution_gap():
    started = time.perf_counter()
    checked = 0
    for G in catalogue(10):
        n = G.order
        for amask in range(1, 1 << n):
            A = Subset(n, amask)
            rep = gap_check(G, A)
            if rep.epsilon_star > 0:
                assert rep.gap_holds, f"{G.name} A={A.elements()}"
                assert rep.forbidden_interval_clean, f"{G.name} A={A.elements()}"
            f = autocorrelation(G, A)
            assert f.mass == A.cardinality
            checked += 1

    rng = random.Random(88)
    groups = [G for G in catalogue(10) if G.order >= 2]
    for _ in range(1000):
        G = groups[rng.randrange(len(groups))]
        n = G.order
        u = GroupFunction(
            tuple(Fraction(rng.randrange(-2, 5), rng.randrange(1, 4)) for _ in range(n))
        )
        v = GroupFunction(
            tuple(Fraction(rng.randrange(-2, 5), rng.randrange(1, 4)) for _ in range(n))
        )
        assert convolve(G, u, v).mass == u.mass * v.mass
    _report(
        8,
        True,
        f"gap and mass identities hold on {checked} sets plus 10^3 convolution pairs",
        started,
    )


def test_criterion_9_certificate_integrity():
    started = time.perf_counter()
    records = []
    for case, command, config in all_cases():
        payload = run(command, config)
        records.append((case, make_record(command, config, payload)))
    for case, record in records:
        roundtripped = json.loads(json.dumps(record))
        assert recheck(roundtripped).ok, f"{case} failed recheck"

    rejected = 0
    for case, record in records:
        for path in _leaf_paths(record["payload"]):
            tampered = _apply_mutation(record, path)
            report = recheck(tampered)
            assert not report.ok, f"{case}: mutation at {path} accepted"
            rejected += 1
    _report(
        9,
        True,
        f"{len(records)} certificates recheck clean; all {rejected} single-field "
        "perturbations rejected",
        started,
    )


def test_criterion_10_determinism():
    started = time.perf_counter()
    for case, command, config in all_cases():
        payloads = {
            json.dumps(run(command, config), sort_keys=True).encode() for _ in range(3)
        }
        assert len(payloads) == 1, f"{case} not byte-identical across runs"
    _report(10, True, "3x repeated runs are byte-identical for every command", started)
