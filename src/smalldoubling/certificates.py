"""Certificates: JSON payloads for every verifier, plus offline rechecking.

A run record is {schema_version, tool, command, config, payload}; the config
is everything needed to replay the run, and replaying must reproduce the
payload byte for byte.  `recheck` does exactly that and reports field-level
diffs, so any tampered certificate is rejected.  Each runner below is one
entry of the command table (see schema.py) and returns what its verifier
computed; `run` alone writes the echo of the config, `group` and each input
set, before it.  The runners alone check the config's caps: the brute-force
cap before any search over all 2^order subsets, and the subset cap before
the Petridis minimizer.  No library function takes a cap; the library's own
size limit is SUBSET_TABLE_LIMIT, the widest subset table.

The four theory modules are registered in `sys.modules` here but run only
when a runner first uses them, so a command loads only the theory it needs.
Registering them, rather than importing inside each runner, keeps them where
code that patches the package's functions by module (bench/tracing.py)
looks them up.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from . import groups
from .errors import NotAbelian, SizeLimitExceeded, UsageError
from .rationals import rational_str
from .schema import (
    COMMANDS,
    DEFAULT_CAPS,
    SCHEMA_VERSION,
    TOOL_NAME,
    Option,
    check_envelope,
    command,
    parse_config,
    set_key,
)
from .subsets import Subset


def _lazy(name: str):
    """Submodule `name`, registered in sys.modules; its body runs on first use."""
    qualified = f"{__package__}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


setalg = _lazy("setalg")
conn_mod = _lazy("connectivity")
conv_mod = _lazy("convolution")
theorems = _lazy("theorems")

TOOL_VERSION = "0.1.0"

# The most work a budget may ask for: as many C-sets or pairs as the largest
# subset table has entries.
MAX_BUDGET = 1 << groups.SUBSET_TABLE_LIMIT


def subset_payload(G: groups.GroupTable, X: Subset) -> dict:
    indices = list(X.elements())
    return {"indices": indices, "labels": [G.labels[i] for i in indices]}


def cover_payload(
    G: groups.GroupTable, H: Subset, T: Subset, cert: setalg.CoverCertificate
) -> dict:
    """The payload of `cert = coset_cover(G, H, T, side)`."""
    return {
        "subgroup": subset_payload(G, H),
        "side": cert.side,
        "representatives": list(cert.representatives),
        "representative_labels": [G.labels[i] for i in cert.representatives],
        "covered": subset_payload(G, T),
        "count": cert.count,
    }


def function_payload(f: conv_mod.GroupFunction) -> list[str]:
    return [rational_str(v) for v in f.values]


def _check_bruteforce(G: groups.GroupTable, caps: dict) -> None:
    """Refuse a search over all 2^order subsets of G above the brute-force cap."""
    if G.order > caps["bruteforce_cap"]:
        raise SizeLimitExceeded(
            f"a brute-force search of {G.name} covers 2^{G.order} subsets, "
            f"above the brute-force cap {caps['bruteforce_cap']}"
        )


def kneser_payloads(
    G: groups.GroupTable, reports: Sequence[theorems.KneserReport]
) -> list[dict]:
    """The payload of each report.  The subset payload of a mask is built once,
    and every report that holds the mask shares it."""
    masks = {X.mask: X for r in reports for X in (r.A, r.B, r.sum, r.H)}
    subsets = {mask: subset_payload(G, X) for mask, X in masks.items()}
    return [
        {
            "set_a": subsets[r.A.mask],
            "set_b": subsets[r.B.mask],
            "sum": subsets[r.sum.mask],
            "stabilizer": subsets[r.H.mask],
            "lhs": r.lhs,
            "rhs": r.rhs,
            "holds": r.holds,
            "equality": r.equality,
        }
        for r in reports
    ]


# --- the command table: one runner per command ------------------------------

_K = Option("rational", required=True, help="expansion rate as p/q")
_EPSILON = Option("rational", required=True, above=0, hi=1, help="rate in (0,1] as p/q")
_SEED = Option("int")


@command("doubling", "exact doubling ratio |A*A|/|A|", sets=("A",),
         payload=("square", "ratio", "epsilon"))
def _run_doubling(G, caps, A):
    rep = setalg.doubling_ratio(G, A)
    return {
        "square": subset_payload(G, rep.square),
        "cardinality_a": A.cardinality,
        "cardinality_square": rep.square.cardinality,
        "ratio": rational_str(rep.ratio),
        "epsilon": rational_str(rep.epsilon),
    }


@command(
    "connectivity", "connectivity kappa and identity atom", sets=("S",),
    options={
        "K": _K,
        "solver": Option(
            "choice", "subgroup_restricted", choices=("subgroup_restricted", "brute_force"),
            aliases={"subgroup": "subgroup_restricted", "brute": "brute_force"},
        ),
        "fragments": Option("bool", False, help="collect the fragment inventory"),
        "fragment_cap": Option("int", groups.DEFAULT_FRAGMENT_CAP, lo=0),
        "classify_atom": Option("bool", True, flag="--no-atom",
                                help="fragments-only output (required for K = 1)"),
    },
    payload=("k", "solver", "kappa", "identity_atom", "atom_is_subgroup"),
    ok=lambda p: p["atom_is_subgroup"] in (True, None),
)
def _run_connectivity(G, caps, S, K, solver, fragments, fragment_cap, classify_atom):
    if solver == "brute_force":
        _check_bruteforce(G, caps)
        res = conn_mod.connectivity_bruteforce(
            G, S, K, collect_fragments=fragments, fragment_cap=fragment_cap,
            classify_atom=classify_atom,
        )
    else:
        if fragments:
            raise UsageError("fragment inventories need the brute_force solver")
        if not classify_atom:
            raise UsageError("fragments-only output needs the brute_force solver")
        res = conn_mod.connectivity_subgroup_solver(G, S, K)
    return {
        "k": rational_str(K),
        "solver": solver,
        "kappa": rational_str(res.kappa),
        "identity_atom": (
            None if res.identity_atom is None else subset_payload(G, res.identity_atom)
        ),
        "atom_is_subgroup": res.atom_is_subgroup,
        "fragment_total": res.fragment_total,
        "fragments": (
            None
            if res.fragments is None
            else [subset_payload(G, f) for f in res.fragments]
        ),
    }


@command(
    "atoms", "verify that atoms are the left cosets of one subgroup", sets=("S",),
    options={"K": _K},
    payload=("k", "identity_atom", "atom_is_subgroup", "atoms", "atoms_are_left_cosets",
             "atoms_pairwise_disjoint", "ok"),
    ok=lambda p: p["ok"],
)
def _run_atoms(G, caps, S, K):
    _check_bruteforce(G, caps)
    rep = conn_mod.verify_atom_proposition(G, S, K)
    return {
        "k": rational_str(K),
        "kappa": rational_str(rep.kappa),
        "identity_atom": subset_payload(G, rep.identity_atom),
        "atom_is_subgroup": rep.atom_is_subgroup,
        "atoms": [subset_payload(G, a) for a in rep.atoms],
        "atoms_are_left_cosets": rep.atoms_are_left_cosets,
        "atoms_pairwise_disjoint": rep.atoms_pairwise_disjoint,
        "ok": rep.ok,
    }


@command(
    "kneser", "Kneser sumset inequality in an abelian group", sets=("A", "B"),
    payload=("sum", "stabilizer", "lhs", "rhs", "holds", "equality"),
    ok=lambda p: p["holds"],
)
def _run_kneser(G, caps, A, B):
    return kneser_payloads(G, [theorems.kneser_check(G, A, B)])[0]


@command(
    "corollary-kn", "covering corollary for |A+A| <= (2-e)|A|", sets=("A",),
    options={"epsilon": _EPSILON},
    payload=("epsilon", "square", "stabilizer", "h_bound_ok", "cover", "cover_bound_ok", "holds"),
    ok=lambda p: p["holds"],
)
def _run_corollary(G, caps, A, epsilon):
    rep = theorems.kneser_corollary_check(G, A, epsilon)
    return {
        "epsilon": rational_str(epsilon),
        "square": subset_payload(G, rep.square),
        "stabilizer": subset_payload(G, rep.H),
        "h_bound": rational_str(rep.H_bound),
        "h_bound_ok": rep.H_bound_ok,
        "cover": cover_payload(G, rep.H, rep.square, rep.cover),
        "cover_bound": rational_str(rep.cover_bound),
        "cover_bound_ok": rep.cover_bound_ok,
        "holds": rep.holds,
    }


@command(
    "theorem-main", "weak Kneser-type structure theorem for |A*S| <= (2-e)|S|",
    sets=("A", "S"),
    options={"epsilon": _EPSILON},
    payload=("epsilon", "k", "hypotheses_ok", "atom", "branch", "bound_h_size", "sharp_h_bound",
             "cover", "violations"),
    ok=lambda p: p["branch"] != "violation",
)
def _run_theorem_main(G, caps, A, S, epsilon):
    rep = theorems.weak_kneser_check(G, A, S, epsilon)
    return {
        "epsilon": rational_str(epsilon),
        "k": rational_str(rep.K),
        "hypotheses_ok": True,  # weak_kneser_check raises HypothesisFailed otherwise
        "kappa": rational_str(rep.kappa),
        "atom": subset_payload(G, rep.atom),
        "branch": rep.branch,
        "bound_h_size": rational_str(rep.bound_H_size),
        "sharp_h_bound": rational_str(rep.sharp_H_bound),
        "cover": None if rep.cover is None else cover_payload(G, rep.atom, S, rep.cover),
        "violations": list(rep.violations),
    }


@command(
    "petridis", "minimizer X of |X*S|/|X| and its verification", sets=("A", "S"),
    options={
        "mode": Option("choice", "exhaustive", choices=("exhaustive", "sampled")),
        "budget": Option("int", 1 << 20, lo=0, hi=MAX_BUDGET),
        "seed": _SEED,
    },
    payload=("x", "k", "verified_c_count", "exhaustive", "ok"),
    ok=lambda p: p["ok"],
)
def _run_petridis(G, caps, A, S, mode, budget, seed):
    if mode == "sampled" and seed is None:
        raise UsageError("sampled mode requires a seed")
    if mode == "exhaustive" and seed is not None:
        raise UsageError("exhaustive mode draws nothing, so it takes no seed")
    if A.cardinality > caps["subset_cap"]:
        raise SizeLimitExceeded(
            f"|A| = {A.cardinality} exceeds the subset-search cap {caps['subset_cap']}"
        )
    result = theorems.petridis_minimizer(G, A, S)
    verification = theorems.petridis_verify(G, result, mode, budget=budget, seed=seed)
    return {
        "x": subset_payload(G, result.X),
        "k": rational_str(result.K),
        "mode": mode,
        "verified_c_count": verification.checked,
        "exhaustive": mode == "exhaustive",
        "equality_at_identity": verification.equality_at_identity,
        "violations": [subset_payload(G, v) for v in verification.violations],
        "ok": verification.ok,
    }


@command(
    "conv-gap", "gap in the range of the autocorrelation of A", path=("conv", "gap"),
    sets=("A",),
    payload=("epsilon_star", "support", "min_on_support", "gap_holds", "forbidden_interval_clean",
             "hypothesis_vacuous"),
    ok=lambda p: p["hypothesis_vacuous"] or (p["gap_holds"] and p["forbidden_interval_clean"]),
)
def _run_conv_gap(G, caps, A):
    rep = conv_mod.gap_check(G, A)
    return {
        "epsilon_star": rational_str(rep.epsilon_star),
        "support": subset_payload(G, rep.support),
        "min_on_support": rational_str(rep.min_on_support),
        "gap_holds": rep.gap_holds,
        "forbidden_interval_clean": rep.forbidden_interval_clean,
        "hypothesis_vacuous": rep.hypothesis_vacuous,
        "autocorrelation": function_payload(rep.autocorrelation),
    }


@command(
    "conv-smooth", "double averaging of the autocorrelation by S", path=("conv", "smooth"),
    sets=("A", "S"),
    options={"threshold": Option("rational", help="optional level-set threshold p/q")},
    payload=("autocorrelation", "smoothed", "mass"),
)
def _run_conv_smooth(G, caps, A, S, threshold):
    f = conv_mod.autocorrelation(G, A)
    F = conv_mod.smoothed(G, S, f)
    payload = {
        "autocorrelation": function_payload(f),
        "smoothed": function_payload(F),
        "mass": rational_str(F.mass),
        "threshold": None,
        "level_set": None,
    }
    if threshold is not None:
        payload["threshold"] = rational_str(threshold)
        payload["level_set"] = subset_payload(G, conv_mod.level_set(G, F, threshold))
    return payload


@command(
    "search-kneser-failure", "hunt for Kneser failures in a nonabelian group",
    path=("search", "kneser-failure"),
    options={
        "strategy": Option("choice", "exhaustive", choices=("exhaustive", "random")),
        "seed": _SEED,
        "budget": Option("int", lo=0, hi=MAX_BUDGET),
    },
    payload=("strategy", "seed", "budget", "pairs_checked", "exhausted", "finding_count",
             "findings"),
    ok=lambda p: not p["finding_count"],
)
def _run_search_kneser_failure(G, caps, strategy, seed, budget):
    if strategy == "random" and (seed is None or budget is None):
        raise UsageError("random strategy requires a seed and a budget")
    if strategy == "exhaustive":
        if seed is not None:
            raise UsageError("the exhaustive strategy draws nothing, so it takes no seed")
        _check_bruteforce(G, caps)  # it builds 2^order-entry tables, whatever the budget
    if G.is_abelian:
        raise NotAbelian(
            f"{G.name} is abelian, where the inequality is a theorem; "
            "the failure search only accepts nonabelian groups"
        )
    rep = theorems.kneser_violation_scan(G, strategy, seed=seed, budget=budget)
    return {
        "strategy": strategy,
        "seed": seed,
        "budget": budget,
        "pairs_checked": rep.pairs_checked,
        "exhausted": rep.exhausted,
        "finding_count": len(rep.findings),
        "findings": kneser_payloads(G, rep.findings),
    }


def run(command: str, config: dict, *, ceiling: Optional[dict] = None) -> dict:
    """Execute one verifier from its replayable config; returns the payload.

    The payload is a function of the config alone: `parse_config` builds
    the group from `config["group"]`.  `ceiling` bounds the caps the config
    may ask for.  The payload is read-only: one dict may sit at several
    places in it (a scan's findings share the subset payload of each mask),
    so a caller that would edit it edits a deep copy.
    """
    G, sets, options, caps = parse_config(command, config, ceiling)
    entry = COMMANDS[command]
    echo = {set_key(name): subset_payload(G, sets[name]) for name in entry.sets}
    return {"group": G.name, **echo, **entry.runner(G, caps, **sets, **options)}


def make_record(command: str, config: dict, payload: dict, wall_time_s=None) -> dict:
    """The record of `payload = run(command, config)`, not checked again: `run`
    checked the config (`schema.validate_record` checks a whole record)."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "config": config,
        "payload": payload,
    }
    if wall_time_s is not None:
        record["meta"] = {"wall_time_s": wall_time_s}
    return record


# --- offline recheck -----------------------------------------------------------


@dataclass(frozen=True)
class RecheckReport:
    ok: bool
    diffs: tuple[tuple[str, Any, Any], ...]  # (path, stored, recomputed)


def _diff(path: str, stored, recomputed, out: list) -> None:
    if isinstance(stored, dict) and isinstance(recomputed, dict):
        for key in sorted(set(stored) | set(recomputed)):
            if key not in stored:
                out.append((f"{path}.{key}", "<missing>", recomputed[key]))
            elif key not in recomputed:
                out.append((f"{path}.{key}", stored[key], "<missing>"))
            else:
                _diff(f"{path}.{key}", stored[key], recomputed[key], out)
        return
    if isinstance(stored, list) and isinstance(recomputed, list):
        if len(stored) != len(recomputed):
            out.append((f"{path}.length", len(stored), len(recomputed)))
            return
        for i, (s, r) in enumerate(zip(stored, recomputed)):
            _diff(f"{path}[{i}]", s, r, out)
        return
    if stored != recomputed or type(stored) is not type(recomputed):
        out.append((path, stored, recomputed))


def recheck(record: dict, caps: Optional[dict] = None) -> RecheckReport:
    """Replay a record's config and compare the payload field by field.

    Only the replay's `parse_config` checks the config.  `caps` are the
    rechecker's own (DEFAULT_CAPS for any it leaves out), checked like a
    config's caps: the record's caps may lower them but never raise them.
    """
    check_envelope(record)
    stored = record["payload"]
    recomputed = run(record["command"], record["config"], ceiling=caps or DEFAULT_CAPS)
    diffs: list[tuple[str, Any, Any]] = []
    # Equal JSON texts mean no field differs (0, false and 0.0 print apart),
    # which saves the walk on every passing recheck.
    if json.dumps(stored, sort_keys=True) != json.dumps(recomputed, sort_keys=True):
        _diff("payload", stored, recomputed, diffs)
    return RecheckReport(ok=not diffs, diffs=tuple(diffs))
